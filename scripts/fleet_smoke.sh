#!/usr/bin/env bash
# End-to-end smoke test of the continuous-modeling fleet daemon, exercising
# both ingest paths and the full refit -> hot-swap loop over a real TCP
# socket:
#
#   1. start extradeep-fleet on an ephemeral port with a spool directory
#   2. drive a hardware-drift scenario through the `ingest` verb and check
#      the served prediction re-converges to the degraded ground truth
#   3. drop crash-consistent run files into the spool directory and check
#      the poller picks them up, fits, and serves the new experiment
#   4. push a corrupt payload and check it is quarantined (err line, daemon
#      stays up, quarantine counter moves)
#   5. check the `metrics` exposition carries the fleet instruments and the
#      registry size gauge
#   6. shut the daemon down via the protocol and check it exits cleanly
#
# Usage: fleet_smoke.sh /path/to/extradeep-fleet
# Registered as the `fleet_daemon_smoke` ctest (sanitize_smoke label).

set -euo pipefail

fleet_bin="${1:?usage: fleet_smoke.sh /path/to/extradeep-fleet}"

workdir="$(mktemp -d "${TMPDIR:-/tmp}/fleet-smoke.XXXXXX")"
server_pid=""
cleanup() {
    if [[ -n "${server_pid}" ]] && kill -0 "${server_pid}" 2>/dev/null; then
        kill "${server_pid}" 2>/dev/null || true
        wait "${server_pid}" 2>/dev/null || true
    fi
    rm -rf "${workdir}"
}
trap cleanup EXIT

models="${workdir}/models"
spool="${workdir}/spool"
mkdir -p "${models}" "${spool}"

echo "== start fleet daemon (ephemeral port, spool watcher) =="
# Created up front: the backgrounded redirect may not have run yet when the
# LISTENING poll first reads the log.
: > "${workdir}/fleet.log"
"${fleet_bin}" serve --models "${models}" --spool "${spool}" \
    --threads 2 --fit-threads 2 --min-runs 5 --poll-ms 50 \
    > "${workdir}/fleet.log" 2>&1 &
server_pid=$!

port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^LISTENING \([0-9]*\)$/\1/p' "${workdir}/fleet.log")"
    [[ -n "${port}" ]] && break
    kill -0 "${server_pid}" 2>/dev/null || {
        echo "FAIL: daemon died during startup"; cat "${workdir}/fleet.log"
        exit 1
    }
    sleep 0.1
done
[[ -n "${port}" ]] || { echo "FAIL: no LISTENING line"; exit 1; }
echo "daemon on port ${port}"

query() {
    "${fleet_bin}" query --port "${port}" "$@"
}

echo "== TCP drive: baseline + hw:2.0 drift, expect re-convergence =="
"${fleet_bin}" drive --port "${port}" --experiment smoke \
    --pre 1 --post 6 --drift hw:2.0 --tol 0.25 \
    | tee "${workdir}/drive.out"
grep -q '^CONVERGED runs=' "${workdir}/drive.out" || {
    echo "FAIL: TCP drive did not converge"
    exit 1
}
[[ -f "${models}/smoke.edpm" ]] || {
    echo "FAIL: no exported model for the driven experiment"
    exit 1
}

echo "== spool drive: crash-consistent file drops, expect pickup + fit =="
"${fleet_bin}" drive --spool "${spool}" --experiment spooled \
    --pre 1 --post 0 --drift none | tee "${workdir}/spool.out"
grep -q '^SPOOLED runs=5$' "${workdir}/spool.out" || {
    echo "FAIL: spool drive did not write the expected run files"
    exit 1
}
caught_up=""
for _ in $(seq 1 200); do
    stats="$(query fleet-stats)"
    if [[ "${stats}" == ok\ * ]] \
        && [[ "${stats}" == *" spool=5 "* ]] \
        && [[ "${stats}" == *" staleness=0 "* ]]; then
        caught_up=1
        break
    fi
    sleep 0.1
done
[[ -n "${caught_up}" ]] || {
    echo "FAIL: spool files not ingested and fitted; last stats: ${stats}"
    exit 1
}
query "predict spooled 10" | grep -q '^ok t=' || {
    echo "FAIL: spool-fed experiment is not servable"
    exit 1
}
[[ -f "${models}/spooled.edpm" ]] || {
    echo "FAIL: no exported model for the spool-fed experiment"
    exit 1
}

echo "== corrupt push: quarantined, daemon unharmed =="
before="$(query fleet-stats)"
query "ingest smoke not-a-real-edp-payload" > "${workdir}/corrupt.out" || true
grep -q '^err ' "${workdir}/corrupt.out" || {
    echo "FAIL: corrupt ingest was not rejected:"
    cat "${workdir}/corrupt.out"
    exit 1
}
after="$(query fleet-stats)"
[[ "${after}" == *"quarantined="* ]] || {
    echo "FAIL: daemon not answering after corrupt push"
    exit 1
}
if [[ "${before#*quarantined=}" == "${after#*quarantined=}" ]]; then
    echo "FAIL: quarantine counter did not move"
    echo "before: ${before}"
    echo "after:  ${after}"
    exit 1
fi

echo "== metrics exposition: fleet instruments + registry size gauge =="
# The wire response is a single escaped line; expand \n back into lines.
query metrics | sed -e 's/^ok //' -e 's/\\n/\n/g' > "${workdir}/metrics.out"
for needle in \
    'extradeep_fleet_runs_total{state="accepted"}' \
    'extradeep_fleet_runs_total{state="quarantined"}' \
    'extradeep_fleet_refits_total' \
    'extradeep_fleet_swaps_total' \
    'extradeep_fleet_pool_queued_tasks' \
    'extradeep_fleet_staleness_runs' \
    'extradeep_fleet_refit_latency_us_bucket' \
    'extradeep_fleet_swap_latency_us_bucket'; do
    grep -qF "${needle}" "${workdir}/metrics.out" || {
        echo "FAIL: metrics exposition lacks ${needle}"
        exit 1
    }
done
gauges="$(grep -c '^extradeep_serve_registry_models [0-9]' \
    "${workdir}/metrics.out" || true)"
[[ "${gauges}" -eq 1 ]] || {
    echo "FAIL: expected 1 registry size gauge, saw ${gauges}"
    exit 1
}

echo "== protocol shutdown =="
query shutdown | grep -qx "ok bye"
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

echo "fleet_smoke: all green"
