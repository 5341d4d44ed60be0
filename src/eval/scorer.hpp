#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/oracle.hpp"
#include "modeling/fitter.hpp"

namespace extradeep::eval {

/// Options for scoring one oracle case end to end.
struct ScoreOptions {
    /// Total multiplicative noise sigma injected by the oracle.
    double noise = 0.0;
    std::uint64_t seed = 1;
    /// Keep the round-trip EDP files, written to a unique directory under
    /// the system temp path, instead of removing them afterwards.
    bool keep_files = false;
};

/// All metrics of one (case, noise) evaluation. `extrap_error[i]` is the
/// percent error at 2^(i+1) times the largest modeling value of the primary
/// parameter (2x / 4x / 8x, the paper's extrapolation distances).
struct CaseScore {
    std::string case_name;
    double noise = 0.0;
    std::uint64_t seed = 1;

    /// 1 if the fitted model's dominant (poly, log) exponents match the
    /// ground truth in every parameter.
    bool exact_recovery = false;
    double smape_in_range = 0.0;    ///< fitted vs truth on a dense grid [%]
    double extrap_error[3] = {};    ///< percent error at 2x/4x/8x
    double pi_coverage = 0.0;       ///< fraction of held-out draws inside PI
    /// SMAPE of the analysis-layer cost model (Eq. 14) against the analytic
    /// truth cost; negative when not applicable (multi-parameter cases).
    double cost_smape = -1.0;

    double fit_seconds = 0.0;
    int hypotheses_searched = 0;
    double hypotheses_per_sec = 0.0;

    std::string truth_str;
    std::string fitted_str;
    std::string ingest_summary;
    std::size_t files_written = 0;
    std::size_t configs_kept = 0;
    std::size_t runs_kept = 0;
};

/// Truth-referenced accuracy of an already-fitted model: the deterministic
/// subset of CaseScore that needs no fresh observations. Shared by
/// score_case and the adaptive planner's report so "reaches the
/// eval-harness thresholds" means the same metric definitions in both
/// harnesses.
struct ModelAccuracy {
    /// Dominant (poly, log) exponents match the truth in every parameter.
    bool exact_recovery = false;
    double smape_in_range = 0.0;  ///< fitted vs truth on the dense grid [%]
    double extrap_error[3] = {};  ///< percent error at 2x/4x/8x
};

ModelAccuracy score_model(const OracleCase& oracle,
                          const modeling::PerformanceModel& fitted);

/// Scores one oracle case end to end: materialise -> write EDP files ->
/// ingest (parse + validate + aggregate) -> ModelGenerator -> analysis,
/// then compares the recovered model against the known truth. Throws Error
/// if the pipeline loses so much data that no model can be fitted - for an
/// oracle input that is itself a harness failure.
CaseScore score_case(const OracleCase& oracle, const ScoreOptions& options);

/// Scores a suite over several noise levels (cartesian product).
std::vector<CaseScore> score_suite(const std::vector<OracleCase>& cases,
                                   const std::vector<double>& noise_levels,
                                   const ScoreOptions& options);

}  // namespace extradeep::eval
