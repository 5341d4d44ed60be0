#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/report.hpp"
#include "extradeep/runner.hpp"
#include "fleet/continuous.hpp"

namespace extradeep::fleet {

/// Configuration of the end-to-end continuous-modeling drift scenario (the
/// `fleet_drift_gate` ctest and `extradeep-fleet --quick`). The rounds,
/// the injected drift and the convergence criterion are fixed in
/// scenario.cpp.
struct ScenarioOptions {
    /// Template experiment (system = the base fleet before drift).
    ExperimentSpec spec;
    /// Progress lines on stderr.
    bool verbose = false;
};

/// Outcome plus the BENCH_fleet.json records (schema extradeep-fleet/1).
struct ScenarioReport {
    bool converged = false;
    /// Runs pushed after the injection until convergence was first sustained
    /// (the paper-facing tracking metric; one run per rank count per round).
    int convergence_lag_runs = 0;
    FleetStats stats;
    std::vector<eval::MetricRecord> records;
};

/// Runs the full loop end to end, all over real TCP: daemon with an
/// attached FleetService → baseline rounds pushed via the `ingest` verb →
/// drift injection (every later run generated on the degraded system) →
/// per-round re-fit + hot swap → served `predict` probes until the answer
/// tracks the new ground truth — with a concurrent query client running the
/// whole time (its error/drop counts are records: both must be zero, the
/// zero-downtime half of the acceptance criteria) and a corrupt-push batch
/// at the end (quarantine without model perturbation). Throws Error on
/// infrastructure failures; scenario outcomes are reported as records, not
/// exceptions, so the gate decides.
ScenarioReport run_drift_scenario(const ScenarioOptions& options);

}  // namespace extradeep::fleet
