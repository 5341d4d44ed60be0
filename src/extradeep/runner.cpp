#include "extradeep/runner.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"

namespace extradeep {

namespace {

constexpr std::uint64_t kGroundTruthSeedSalt = 0x47525554ULL;  // "GRUT"

std::map<std::string, double> params_for(int ranks) {
    return {{"x1", static_cast<double>(ranks)}};
}

}  // namespace

std::string ExperimentSpec::describe() const {
    std::ostringstream os;
    os << dataset << " on " << system.name << ", "
       << parallel::strategy_name(strategy) << ", "
       << parallel::scaling_name(scaling) << ", B=" << batch_per_worker
       << ", reps=" << repetitions;
    return os.str();
}

ExperimentRunner::ExperimentRunner(ExperimentSpec spec) : spec_(std::move(spec)) {
    if (spec_.modeling_ranks.empty()) {
        throw InvalidArgumentError("ExperimentRunner: no modeling points");
    }
    if (spec_.repetitions < 1) {
        throw InvalidArgumentError("ExperimentRunner: repetitions must be >= 1");
    }
}

sim::Workload ExperimentRunner::workload_for(int ranks) const {
    parallel::ParallelConfig cfg;
    switch (spec_.strategy) {
        case parallel::StrategyKind::Data:
            cfg = parallel::ParallelConfig::data(ranks);
            break;
        case parallel::StrategyKind::Tensor:
            cfg = parallel::ParallelConfig::tensor(ranks,
                                                   spec_.model_parallel_degree);
            break;
        case parallel::StrategyKind::Pipeline:
            cfg = parallel::ParallelConfig::pipeline(
                ranks, spec_.model_parallel_degree);
            break;
    }
    return sim::Workload::make(spec_.dataset, spec_.system, cfg, spec_.scaling,
                               spec_.batch_per_worker);
}

ExperimentResult ExperimentRunner::run() const {
    return run(modeling::ModelGenerator());
}

ExperimentResult ExperimentRunner::run(
    const modeling::ModelGenerator& generator) const {
    const obs::Span run_span{"runner.experiment"};
    ExperimentResult result;
    const profiling::Profiler profiler(spec_.sampling);
    aggregation::AggregationOptions agg_opts;
    agg_opts.discard_warmup_epochs = spec_.sampling.discard_warmup_epochs;

    for (const int ranks : spec_.modeling_ranks) {
        const sim::TrainingSimulator simulator(workload_for(ranks));
        std::vector<profiling::ProfiledRun> runs;
        runs.reserve(spec_.repetitions);
        {
            const obs::Span profile_span{"runner.profile_point"};
            for (int rep = 0; rep < spec_.repetitions; ++rep) {
                runs.push_back(profiler.profile(simulator, params_for(ranks),
                                                rep, spec_.seed));
            }
        }
        const obs::Span aggregate_span{"runner.aggregate_point"};
        result.data.add(aggregation::aggregate_runs(runs, agg_opts));
        result.step_math[ranks] = simulator.step_math();
    }
    for (const int ranks : spec_.evaluation_ranks) {
        result.step_math[ranks] = workload_for(ranks).step_math();
    }

    // Per-step metric series at the modeling points, then the application
    // models: PMNF per-step fits composed with the analytical step counts
    // (Eqs. 2-6). The derived per-epoch values are also recorded, both for
    // reporting model accuracy the way the paper defines it and for
    // downstream cost models.
    // The persistence hook, so that a model exported to .edpm and reloaded
    // reconstructs the exact same step-count function.
    result.step_math_fn = make_step_math_fn(
        spec_.dataset, spec_.strategy, spec_.model_parallel_degree,
        spec_.scaling, spec_.batch_per_worker);
    std::array<std::vector<double>, trace::kPhaseCount> phase_train;
    std::array<std::vector<double>, trace::kPhaseCount> phase_val;
    std::vector<double> total_train;
    std::vector<double> total_val;
    for (const auto& config : result.data.configs()) {
        const int ranks = static_cast<int>(config.params.at("x1"));
        const parallel::StepMath& sm = result.step_math.at(ranks);
        result.modeling_xs.push_back(static_cast<double>(ranks));
        result.epoch_time_values.push_back(aggregation::derived_epoch_total(
            config, sm, aggregation::Metric::Time));
        double train_sum = 0.0;
        double val_sum = 0.0;
        for (int p = 0; p < trace::kPhaseCount; ++p) {
            const auto phase = static_cast<trace::Phase>(p);
            const double t =
                config.phase_metric(phase, aggregation::Metric::Time, true);
            const double v =
                config.phase_metric(phase, aggregation::Metric::Time, false);
            phase_train[p].push_back(t);
            phase_val[p].push_back(v);
            train_sum += t;
            val_sum += v;
        }
        total_train.push_back(train_sum);
        total_val.push_back(val_sum);
    }
    const obs::Span fit_span{"runner.fit_models"};
    const auto design = generator.design(result.modeling_xs);
    result.epoch_time = EpochModel(generator.fit(design, total_train),
                                   generator.fit(design, total_val),
                                   result.step_math_fn);
    for (int p = 0; p < trace::kPhaseCount; ++p) {
        result.phase_time[p] =
            EpochModel(generator.fit(design, phase_train[p]),
                       generator.fit(design, phase_val[p]),
                       result.step_math_fn);
    }
    return result;
}

std::vector<double> ExperimentRunner::measured_epoch_times_all_reps(
    int ranks) const {
    const sim::TrainingSimulator simulator(workload_for(ranks));
    std::vector<double> times;
    times.reserve(spec_.repetitions);
    for (int rep = 0; rep < spec_.repetitions; ++rep) {
        const std::uint64_t seed = profiling::run_seed_for(
            params_for(ranks), rep, spec_.seed ^ kGroundTruthSeedSalt);
        times.push_back(simulator.measure_epoch_wall(seed));
    }
    return times;
}

double ExperimentRunner::measured_epoch_time(int ranks) const {
    return stats::median(measured_epoch_times_all_reps(ranks));
}

std::vector<sim::KernelTotals> ExperimentRunner::measured_kernel_totals(
    int ranks) const {
    const sim::TrainingSimulator simulator(workload_for(ranks));
    std::vector<sim::EpochMeasurement> reps;
    reps.reserve(spec_.repetitions);
    for (int rep = 0; rep < spec_.repetitions; ++rep) {
        const std::uint64_t seed = profiling::run_seed_for(
            params_for(ranks), rep, spec_.seed ^ kGroundTruthSeedSalt);
        reps.push_back(simulator.measure_epoch_typical(seed));
    }
    // The kernel list and order come from the deterministic schedule, so the
    // per-index median across repetitions is well defined.
    std::vector<sim::KernelTotals> out = reps.front().kernels;
    std::vector<double> column;
    for (std::size_t k = 0; k < out.size(); ++k) {
        column.clear();
        for (const auto& r : reps) {
            column.push_back(r.kernels[k].time);
        }
        out[k].time = stats::median(column);
        column.clear();
        for (const auto& r : reps) {
            column.push_back(r.kernels[k].bytes);
        }
        out[k].bytes = stats::median(column);
    }
    return out;
}

}  // namespace extradeep
