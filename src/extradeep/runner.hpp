#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "aggregation/experiment.hpp"
#include "extradeep/models.hpp"
#include "modeling/fitter.hpp"
#include "profiling/profiler.hpp"
#include "sim/simulator.hpp"

namespace extradeep {

/// Full description of one Extra-Deep performance experiment, matching the
/// paper's evaluation methodology (Sec. 4.1): a benchmark application, a
/// system, a parallel strategy and scaling mode, the measurement points used
/// for modeling (P(x1)) and for evaluating predictive power (P+), and the
/// number of measurement repetitions.
struct ExperimentSpec {
    std::string dataset = "CIFAR-10";
    hw::SystemSpec system = hw::SystemSpec::deep();
    parallel::StrategyKind strategy = parallel::StrategyKind::Data;
    parallel::ScalingMode scaling = parallel::ScalingMode::Weak;
    std::int64_t batch_per_worker = 256;
    int model_parallel_degree = 4;  ///< M for tensor/pipeline strategies
    std::vector<int> modeling_ranks = {2, 4, 6, 8, 10};
    std::vector<int> evaluation_ranks = {12, 16, 24, 32, 40, 48, 56, 64};
    int repetitions = 5;
    profiling::SamplingStrategy sampling = profiling::SamplingStrategy::efficient();
    std::uint64_t seed = 1;

    std::string describe() const;
};

/// Result of running one experiment's modeling pipeline: the aggregated
/// measurement points plus the application-level models (the Eq. 6-10
/// derived metrics: PMNF per-step models composed with the analytical step
/// counts, see EpochModel).
struct ExperimentResult {
    aggregation::ExperimentData data{"x1"};
    std::vector<double> modeling_xs;
    /// Derived per-epoch training time at the modeling points (Eq. 6).
    std::vector<double> epoch_time_values;
    EpochModel epoch_time;  ///< T_epoch(x1)
    /// Per-phase time models, indexed by trace::Phase.
    std::array<EpochModel, trace::kPhaseCount> phase_time;
    /// n_t/n_v for any rank count of this experiment (Eqs. 2-3).
    StepMathFn step_math_fn;
    /// StepMath precomputed for the modeling/evaluation points.
    std::map<int, parallel::StepMath> step_math;
};

/// Drives one experiment end to end: builds the simulator for each
/// configuration, profiles it with the configured sampling strategy,
/// aggregates the repetitions (Fig. 2), derives per-epoch metrics, and fits
/// the application models. Also provides the independent ground-truth
/// measurements the evaluation section compares model predictions against.
class ExperimentRunner {
public:
    explicit ExperimentRunner(ExperimentSpec spec);

    const ExperimentSpec& spec() const { return spec_; }

    /// The workload of one configuration (throws if `ranks` is invalid for
    /// the strategy, e.g. not divisible by M for tensor parallelism).
    sim::Workload workload_for(int ranks) const;

    /// Runs profiling + aggregation + application-model fitting over the
    /// modeling points with the default model generator. Per-step metrics
    /// are non-decreasing in the rank count under both scaling modes (the
    /// 1/x1 of strong scaling lives in the analytical n_t factor, Eq. 2), so
    /// the standard positive-exponent search space applies.
    ExperimentResult run() const;
    /// Same, with an explicit generator (e.g. for search-space ablations).
    ExperimentResult run(const modeling::ModelGenerator& generator) const;

    /// Ground truth: median-over-repetitions measured training time per
    /// epoch at any rank count (independent runs, not the profiled ones).
    double measured_epoch_time(int ranks) const;

    /// Ground truth per-repetition epoch times (to report run-to-run
    /// variation as in Fig. 3's error bars).
    std::vector<double> measured_epoch_times_all_reps(int ranks) const;

    /// Ground-truth per-kernel epoch totals (median over repetitions), for
    /// kernel-model evaluation (Table 2).
    std::vector<sim::KernelTotals> measured_kernel_totals(int ranks) const;

private:
    ExperimentSpec spec_;
};

}  // namespace extradeep
