#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/report.hpp"
#include "eval/scorer.hpp"
#include "planner/planner.hpp"

namespace extradeep::planner {

/// The paper's profiling-cost reduction from step sampling (Sec. 4): the
/// reference the planner's configuration-level savings are reported next
/// to. The two attack different axes - the paper samples steps within a
/// run, the planner picks which runs to profile at all - so the numbers
/// compose rather than compete.
inline constexpr double kPaperSamplingReductionPct = 94.9;

/// One planner evaluation: the plan plus the truth-referenced accuracy of
/// the model it ended with (same metric definitions as the eval harness,
/// via eval::score_model).
struct PlanCaseReport {
    std::string case_name;
    double noise = 0.0;
    std::uint64_t seed = 1;
    PlanResult plan;
    eval::ModelAccuracy accuracy;
    std::string truth_str;
    std::string fitted_str;
};

/// Runs the adaptive planner against one oracle case: wraps the case in an
/// OracleMeasurementSource seeded exactly like the fixed-grid harness and
/// scores the resulting model against the known truth.
PlanCaseReport plan_case(const eval::OracleCase& oracle, double noise,
                         std::uint64_t seed, const PlanOptions& options);

/// Cartesian product over cases x noise levels.
std::vector<PlanCaseReport> plan_suite(const std::vector<eval::OracleCase>& cases,
                                       const std::vector<double>& noise_levels,
                                       std::uint64_t seed,
                                       const PlanOptions& options);

/// Flattens reports into gate records (the BENCH_plan.json schema shares
/// eval's record tuple). Per (case, noise): runs_used, baseline_runs,
/// cost_reduction_pct, rounds, exponent_recovery, smape_in_range,
/// extrap_error_{2x,4x,8x}. One trailing "suite" pseudo-case carries
/// mean/min cost reduction, the run totals, and the constant
/// paper_sampling_reduction_pct reference so the gate pins the comparison
/// into every benchmark snapshot.
std::vector<eval::MetricRecord> to_records(
    const std::vector<PlanCaseReport>& reports);

/// Human-readable results table plus the cost-reduction summary line.
std::string render_table(const std::vector<PlanCaseReport>& reports);

/// Serialises reports as a schema extradeep-plan/1 document: the standard
/// eval::bench_json layout whose nested payload holds the per-plan arms
/// (pull counts, means, elimination rounds) and rounds (budget trajectory,
/// per-round model deltas) beside the flat gate records. Deliberately free
/// of wall-clock fields - same seed and budget must render byte-identical
/// JSON at any thread count.
std::string plan_json(const std::vector<PlanCaseReport>& reports,
                      const std::string& git_rev);

}  // namespace extradeep::planner
