#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "advisor/scenario.hpp"
#include "extradeep/models.hpp"
#include "extradeep/runner.hpp"
#include "hw/system.hpp"
#include "sim/workload.hpp"

namespace extradeep::advisor {

/// The fitted models and experiment parameters a what-if evaluation needs —
/// the model-side mirror of an .edpm file. Built either from an experiment
/// result (model_set_from) or field-by-field from a serve::ServableModel
/// (done in the serve layer, which owns that type).
struct ModelSet {
    std::string dataset;
    std::string system_name;
    parallel::StrategyKind strategy = parallel::StrategyKind::Data;
    parallel::ScalingMode scaling = parallel::ScalingMode::Weak;
    std::int64_t batch_per_worker = 0;
    int model_parallel_degree = 1;
    EpochModel epoch_time;
    std::array<EpochModel, trace::kPhaseCount> phase_time;
    StepMathFn step_math;
};

/// Packages a finished experiment for what-if evaluation (models and step
/// math are shared with the result).
ModelSet model_set_from(const ExperimentSpec& spec,
                        const ExperimentResult& result);

/// Rebuilds the workload of one configuration from the model set's
/// experiment parameters (the SPEC-reconstruction path the .edpm loader also
/// uses for the step math). Throws if `ranks` is invalid for the strategy.
sim::Workload reconstruct_workload(const ModelSet& ms, int ranks);

/// Applies a scenario's hardware-side transforms to a system: link latency
/// divided / bandwidth multiplied by the combined factors, and the
/// collective override pinned. Overlap and fusion have no hardware knob and
/// leave the system untouched.
hw::SystemSpec mutate_system(const hw::SystemSpec& sys, const Scenario& sc);

/// One evaluated scenario: predicted epoch time with and without the
/// scenario, the predicted saving, and the saving's uncertainty band
/// propagated from the phase-model prediction intervals.
struct WhatIfResult {
    std::string spec;            ///< canonical scenario rendering
    double baseline = 0.0;       ///< predicted epoch time, unmutated
    double scenario_time = 0.0;  ///< predicted epoch time under the scenario
    double saving = 0.0;         ///< baseline - scenario_time
    double lower = 0.0;          ///< saving band (lower <= saving <= upper)
    double upper = 0.0;
};

/// Predicts the epoch-time effect of `sc` at `x` ranks. Identity scenarios
/// return the baseline bit-exactly (saving == 0.0). Throws
/// InvalidArgumentError when x is not a representable configuration or the
/// scenario needs a system/schedule reconstruction that is unavailable.
WhatIfResult evaluate_whatif(const ModelSet& ms, double x, const Scenario& sc);

/// The advisor's candidate portfolio (parseable scenario specs).
std::vector<std::string> default_portfolio();

/// Ranked what-if portfolio: options sorted by predicted saving (descending,
/// canonical spec as tie-break). Options whose evaluation throws (e.g.
/// fusion on an unknown system) are skipped and counted.
struct Advice {
    std::vector<WhatIfResult> ranked;
    int skipped = 0;
};

/// Evaluates the default portfolio at `x` and returns the top `top` options
/// (0 = all).
Advice advise(const ModelSet& ms, double x, std::size_t top = 0);

}  // namespace extradeep::advisor
