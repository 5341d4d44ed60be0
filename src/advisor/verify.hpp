#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/report.hpp"

namespace extradeep::advisor {

/// Options of the what-if verification harness (the `extradeep-advisor`
/// binary and the whatif_accuracy_gate ctest).
struct VerifyOptions {
    /// Quick suite: the default DEEP data-parallel/weak case only. The full
    /// suite adds strong scaling and a JURECA (NCCL) case.
    bool quick = false;
    std::uint64_t seed = 1;
    /// Paired ground-truth re-simulations per scenario; 0 = suite default.
    int repetitions = 0;
};

/// Harness output: gateable metric records (reusing the eval gate schema)
/// plus a human-readable results table.
struct VerifyOutcome {
    std::vector<eval::MetricRecord> records;
    std::string table;
};

/// Runs the ground-truth verification loop: fit models per case, evaluate
/// the default scenario portfolio at an interpolation point (x=8) and an
/// extrapolation point (x=16), re-simulate every scenario against the
/// mutated simulator, and emit per-scenario `saving_err_pct`, per-point
/// `ranking_agreement` (concordance over scenario pairs whose predicted
/// intervals do not overlap) and `interval_coverage` records.
VerifyOutcome run_verify(const VerifyOptions& options);

}  // namespace extradeep::advisor
