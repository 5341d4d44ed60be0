#!/usr/bin/env bash
# End-to-end smoke test of the observability subsystem (ISSUE 5): runs a
# real fit with every trace sink enabled and checks each artifact with the
# toolchain itself - no external JSON or Prometheus tooling:
#
#   1. fit a small experiment with --trace chrome:,text:,metrics:,edp:
#   2. validate the Chrome trace with `extradeep-eval --validate-json`
#   3. validate the self-profile run with `extradeep-eval --validate-edp`
#      (throwing parse through the same reader the ingestion pipeline uses)
#   4. grep the text summary for the expected pipeline spans
#   5. grep the metrics exposition for the fit counters
#   6. check the EXTRADEEP_TRACE environment path on offline ask mode
#   7. check that an untraced run emits no trace artifacts
#
# Usage: obs_smoke.sh /path/to/extradeep-serve /path/to/extradeep-eval
# Registered as the `obs_smoke` ctest and run by scripts/ci_check.sh.

set -euo pipefail

serve_bin="${1:?usage: obs_smoke.sh /path/to/extradeep-serve /path/to/extradeep-eval}"
eval_bin="${2:?usage: obs_smoke.sh /path/to/extradeep-serve /path/to/extradeep-eval}"

workdir="$(mktemp -d "${TMPDIR:-/tmp}/obs-smoke.XXXXXX")"
cleanup() { rm -rf "${workdir}"; }
trap cleanup EXIT

echo "== traced fit: every sink enabled =="
"${serve_bin}" fit --out "${workdir}/smoke.edpm" --name smoke \
    --reps 2 --seed 3 \
    --trace "chrome:${workdir}/trace.json,text:${workdir}/summary.txt,metrics:${workdir}/metrics.prom,edp:${workdir}/self.edp,param:x1=2"
for artifact in trace.json summary.txt metrics.prom self.edp; do
    [[ -s "${workdir}/${artifact}" ]] || {
        echo "FAIL: sink ${artifact} missing or empty"; exit 1
    }
done

echo "== validate Chrome trace JSON =="
"${eval_bin}" --validate-json "${workdir}/trace.json"
grep -q '"ph":"X"' "${workdir}/trace.json" || {
    echo "FAIL: trace.json has no complete events"; exit 1
}

echo "== validate self-profile EDP (throwing parse) =="
"${eval_bin}" --validate-edp "${workdir}/self.edp" | tee "${workdir}/edp.out"
grep -q 'x1=2' "${workdir}/edp.out" || {
    echo "FAIL: self-profile missing the param:x1=2 execution parameter"; exit 1
}

echo "== span summary covers the pipeline stages =="
for span in runner.experiment fit.model fit.hypothesis_chunk \
            aggregate.runs; do
    grep -q "${span}" "${workdir}/summary.txt" || {
        echo "FAIL: span ${span} missing from summary:"
        cat "${workdir}/summary.txt"
        exit 1
    }
done

echo "== metrics exposition carries the fit counters =="
grep -q '^# TYPE extradeep_fit_models_total counter$' "${workdir}/metrics.prom"
grep -q '^extradeep_fit_hypotheses_total [1-9]' "${workdir}/metrics.prom" || {
    echo "FAIL: no hypotheses counted:"; cat "${workdir}/metrics.prom"; exit 1
}

echo "== EXTRADEEP_TRACE environment path (ask mode) =="
EXTRADEEP_TRACE="text:-" "${serve_bin}" ask --models "${workdir}" \
    "predict smoke 16" > "${workdir}/ask.out" 2> "${workdir}/ask.err"
grep -q '^ok ' "${workdir}/ask.out"
grep -q 'serve.execute' "${workdir}/ask.err" || {
    echo "FAIL: env-enabled summary lacks serve.execute span:"
    cat "${workdir}/ask.err"
    exit 1
}

echo "== untraced run stays silent =="
"${serve_bin}" ask --models "${workdir}" "predict smoke 16" \
    > /dev/null 2> "${workdir}/quiet.err"
if grep -q 'serve.execute' "${workdir}/quiet.err"; then
    echo "FAIL: untraced run produced span output"; exit 1
fi

echo "obs_smoke: all green"
