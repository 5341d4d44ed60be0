#!/usr/bin/env bash
# End-to-end smoke test of the serving subsystem, exercising the full
# fit -> export .edpm -> daemon -> client chain over a real TCP socket:
#
#   1. fit a small experiment and export it as a .edpm model file
#   2. start extradeep-serve on an ephemeral port over that directory
#   3. daemon mode: issue one query of every kind through the client and
#      byte-compare every daemon answer against offline `ask` mode
#   4. load mode: four concurrent clients pipeline a verb mix; every answer
#      is ok
#   5. shut the daemon down via the protocol and check it exits cleanly
#
# Usage: serve_smoke.sh /path/to/extradeep-serve [daemon|load]
# Registered as the `serve_daemon_smoke` (daemon, the default) and
# `serve_loadgen_smoke` (load) ctests.

set -euo pipefail

usage="usage: serve_smoke.sh /path/to/extradeep-serve [daemon|load]"
serve_bin="${1:?${usage}}"
mode="${2:-daemon}"
[[ "${mode}" == daemon || "${mode}" == load ]] || { echo "${usage}"; exit 2; }

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

if [[ "${mode}" == daemon ]]; then
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
fi

if [[ "${mode}" == load ]]; then
echo "== concurrent clients against the running daemon =="
# Four clients at once, each pipelining 50 rounds of a five-verb mix over
# one connection through the event loop: a lost, reordered or error
# response, or a client that fails, fails the run.
mix=("predict smoke 16" "speedup smoke 2 4 8 16" "cost smoke 16"
     "whatif smoke 16 interconnect:2" "advise smoke 16 3")
rounds=50
load=()
for _ in $(seq 1 "${rounds}"); do
    load+=("${mix[@]}")
done
client_pids=()
for c in 1 2 3 4; do
    "${serve_bin}" query --port "${port}" "${load[@]}" \
        > "${workdir}/client${c}.out" &
    client_pids+=($!)
done
for pid in "${client_pids[@]}"; do
    wait "${pid}" || { echo "FAIL: a concurrent client exited non-zero"; exit 1; }
done
for c in 1 2 3 4; do
    out="${workdir}/client${c}.out"
    lines="$(wc -l < "${out}")"
    if [[ "${lines}" -ne $(( rounds * ${#mix[@]} )) ]]; then
        echo "FAIL: client ${c} got ${lines} responses"
        exit 1
    fi
    if grep -qv '^ok' "${out}"; then
        echo "FAIL: client ${c} got a response that is not ok:"
        grep -v '^ok' "${out}" | head -5
        exit 1
    fi
done
fi

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
