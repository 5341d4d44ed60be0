#!/usr/bin/env bash
# Builds extradeep-ledger from source (Release) and runs one workload of the
# pipeline benchmark. Run from the repository root; every argument is passed
# on to the benchmark, e.g.
#
#   bash bench/ledger/run.sh --workload model_build --seed 1 --seconds 20 \
#       --trace 0
#
# The build lives in build/ledger and the run's scratch files in
# build/ledger-work. Build output goes to stderr, so the last line of stdout
# is the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build=build/ledger

if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target extradeep-ledger -j 4 >&2
exec "$build/extradeep-ledger" --work-dir build/ledger-work "$@"
