#!/usr/bin/env bash
# Full local CI sweep: both build presets and their test suites. Every gate,
# negative control, dead-code scan and end-to-end smoke script is a ctest,
# so the two preset runs are the whole check. Run from anywhere; everything
# is rooted at the repository top level. Any failure aborts the script
# (set -e).
#
# knob_scan and symbol_scan run in the default (Release) preset's ctest.
# symbol_scan is left unregistered under the sanitize preset: its seams name
# the functions -O3 inlines at every call, and RelWithDebInfo with ASan
# inlines a different set, so the scan would report differences in inlining,
# not dead code.
#
#   scripts/ci_check.sh                   # default + sanitize builds and tests
#   SKIP_SANITIZE=1 scripts/ci_check.sh   # quick pre-push variant

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== [1/2] Release build + full test suite =="
cmake --preset default
cmake --build --preset default -j "${jobs}"
ctest --preset default -j "${jobs}"

if [[ "${SKIP_SANITIZE:-0}" != "1" ]]; then
    echo "== [2/2] ASan+UBSan build + sanitize_smoke suite =="
    cmake --preset sanitize
    cmake --build --preset sanitize -j "${jobs}"
    ctest --preset sanitize-smoke -j "${jobs}"
else
    echo "== [2/2] skipped (SKIP_SANITIZE=1) =="
fi

echo "ci_check: all green"
