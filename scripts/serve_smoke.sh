#!/usr/bin/env bash
# End-to-end smoke test of the serving subsystem, exercising the full
# fit -> export .edpm -> daemon -> client chain over a real TCP socket:
#
#   1. fit a small experiment and export it as a .edpm model file
#   2. start extradeep-serve on an ephemeral port over that directory
#   3. issue one query of every kind through the client
#   4. byte-compare every daemon answer against offline `ask` mode
#   5. shut the daemon down via the protocol and check it exits cleanly
#
# Usage: serve_smoke.sh /path/to/extradeep-serve
# Registered as the `serve_daemon_smoke` ctest.

set -euo pipefail

serve_bin="${1:?usage: serve_smoke.sh /path/to/extradeep-serve}"

workdir="$(mktemp -d "${TMPDIR:-/tmp}/serve-smoke.XXXXXX")"
server_pid=""
cleanup() {
    if [[ -n "${server_pid}" ]] && kill -0 "${server_pid}" 2>/dev/null; then
        kill "${server_pid}" 2>/dev/null || true
        wait "${server_pid}" 2>/dev/null || true
    fi
    rm -rf "${workdir}"
}
trap cleanup EXIT

echo "== fit + export =="
"${serve_bin}" fit --out "${workdir}/smoke.edpm" --name smoke \
    --reps 2 --seed 3
grep -q $'^EDPM\t1$' "${workdir}/smoke.edpm"

echo "== start daemon (ephemeral port) =="
# Created up front: the backgrounded redirect may not have run yet when the
# LISTENING poll first reads the log.
: > "${workdir}/serve.log"
"${serve_bin}" serve --models "${workdir}" --threads 2 \
    > "${workdir}/serve.log" 2>&1 &
server_pid=$!

port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^LISTENING \([0-9]*\)$/\1/p' "${workdir}/serve.log")"
    [[ -n "${port}" ]] && break
    kill -0 "${server_pid}" 2>/dev/null || {
        echo "FAIL: daemon died during startup"; cat "${workdir}/serve.log"
        exit 1
    }
    sleep 0.1
done
[[ -n "${port}" ]] || { echo "FAIL: no LISTENING line"; exit 1; }
echo "daemon on port ${port}"

requests=(
    "ping"
    "list"
    "predict smoke 16"
    "predict smoke 16 communication"
    "speedup smoke 2 4 8 16"
    "efficiency smoke 2 4 8 16"
    "cost smoke 16"
    "search smoke inf inf 2 4 8 16 32"
    "whatif smoke 16 interconnect:2+overlap:0.5"
    "advise smoke 16 3"
)

echo "== query daemon, compare against offline ask mode =="
"${serve_bin}" query --port "${port}" "${requests[@]}" > "${workdir}/daemon.out"
"${serve_bin}" ask --models "${workdir}" "${requests[@]}" > "${workdir}/ask.out" \
    2>/dev/null
if ! diff -u "${workdir}/ask.out" "${workdir}/daemon.out"; then
    echo "FAIL: daemon answers differ from library answers"
    exit 1
fi
if grep -q '^err ' "${workdir}/daemon.out"; then
    echo "FAIL: a smoke query returned an error:"
    cat "${workdir}/daemon.out"
    exit 1
fi

echo "== deterministic stats/metrics: daemon vs library mode =="
# Under --fake-clock every request costs exactly STEP_US, so the stats and
# metrics responses depend only on the request sequence - byte-identical
# between a fresh daemon and offline ask mode.
det_requests=("${requests[@]}" "stats" "metrics")
: > "${workdir}/serve_det.log"
"${serve_bin}" serve --models "${workdir}" --threads 1 --fake-clock 5 \
    > "${workdir}/serve_det.log" 2>&1 &
det_pid=$!
det_port=""
for _ in $(seq 1 100); do
    det_port="$(sed -n 's/^LISTENING \([0-9]*\)$/\1/p' "${workdir}/serve_det.log")"
    [[ -n "${det_port}" ]] && break
    kill -0 "${det_pid}" 2>/dev/null || {
        echo "FAIL: deterministic daemon died"; cat "${workdir}/serve_det.log"
        exit 1
    }
    sleep 0.1
done
[[ -n "${det_port}" ]] || { echo "FAIL: no LISTENING line (det)"; exit 1; }
"${serve_bin}" query --port "${det_port}" "${det_requests[@]}" \
    > "${workdir}/daemon_det.out"
"${serve_bin}" query --port "${det_port}" shutdown | grep -qx "ok bye"
wait "${det_pid}" || { echo "FAIL: det daemon exited non-zero"; exit 1; }
"${serve_bin}" ask --models "${workdir}" --fake-clock 5 "${det_requests[@]}" \
    > "${workdir}/ask_det.out" 2>/dev/null
if ! diff -u "${workdir}/ask_det.out" "${workdir}/daemon_det.out"; then
    echo "FAIL: stats/metrics differ between daemon and library mode"
    exit 1
fi
grep -q 'extradeep_serve_query_latency_us_bucket' "${workdir}/daemon_det.out" || {
    echo "FAIL: metrics response lacks latency histogram samples"
    exit 1
}

echo "== loadgen against the running daemon =="
# Pipelined concurrent load through the event loop; any lost, reordered, or
# error response fails the run (loadgen exits non-zero on a short stream).
"${serve_bin}" loadgen --port "${port}" --connections 4 --requests 50 \
    --pipeline 4 --mode both --out "${workdir}/bench_serve.json" \
    "predict smoke 16" "speedup smoke 2 4 8 16" "cost smoke 16" \
    "whatif smoke 16 interconnect:2" "advise smoke 16 3"
grep -q '"schema": "extradeep-serve-bench/1"' "${workdir}/bench_serve.json" || {
    echo "FAIL: loadgen report missing schema marker"
    exit 1
}

echo "== protocol shutdown =="
"${serve_bin}" query --port "${port}" shutdown | grep -qx "ok bye"
for _ in $(seq 1 100); do
    kill -0 "${server_pid}" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "${server_pid}" 2>/dev/null; then
    echo "FAIL: daemon still running after shutdown request"
    exit 1
fi
wait "${server_pid}" || {
    echo "FAIL: daemon exited with a non-zero status"
    exit 1
}
server_pid=""

echo "serve_smoke: all green"
