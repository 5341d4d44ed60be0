// End-to-end integration tests: simulate -> profile -> aggregate -> model ->
// predict, mirroring the paper's CIFAR-10 case study at reduced scale so the
// suite stays fast.

#include <gtest/gtest.h>

#include <cmath>

#include "aggregation/aggregate.hpp"
#include "common/error.hpp"
#include "extradeep/models.hpp"
#include "extradeep/runner.hpp"
#include "common/stats.hpp"
#include "profiling/edp_io.hpp"

using namespace extradeep;

namespace {

ExperimentSpec small_spec() {
    ExperimentSpec spec;
    spec.dataset = "CIFAR-10";
    spec.system = hw::SystemSpec::deep();
    spec.strategy = parallel::StrategyKind::Data;
    spec.scaling = parallel::ScalingMode::Weak;
    spec.batch_per_worker = 256;
    spec.modeling_ranks = {2, 4, 6, 8, 10};
    spec.evaluation_ranks = {16, 32};
    spec.repetitions = 3;
    spec.seed = 1;
    return spec;
}

}  // namespace

TEST(Integration, CaseStudyEpochModelIsAccurateAtModelingPoints) {
    const ExperimentRunner runner(small_spec());
    const ExperimentResult result = runner.run();
    // Paper's "model accuracy": prediction vs the data used for modeling.
    for (std::size_t i = 0; i < result.modeling_xs.size(); ++i) {
        const double pred = result.epoch_time.evaluate(result.modeling_xs[i]);
        const double err =
            std::abs(pred - result.epoch_time_values[i]) /
            result.epoch_time_values[i];
        EXPECT_LT(err, 0.05) << "x1=" << result.modeling_xs[i];
    }
}

TEST(Integration, PredictivePowerWithinPaperBounds) {
    const ExperimentRunner runner(small_spec());
    const ExperimentResult result = runner.run();
    for (const int x : {16, 32}) {
        const double pred = result.epoch_time.evaluate(x);
        const double measured = runner.measured_epoch_time(x);
        const double err = std::abs(pred - measured) / measured;
        EXPECT_LT(err, 0.30) << "x1=" << x;  // paper's worst case is 28.8 %
    }
}

TEST(Integration, EpochTimeGrowsUnderWeakScaling) {
    const ExperimentRunner runner(small_spec());
    const ExperimentResult result = runner.run();
    EXPECT_GT(result.epoch_time.evaluate(64.0),
              result.epoch_time.evaluate(2.0));
}

TEST(Integration, CommunicationDominatesGrowth) {
    // The case study's bottleneck: communication grows, computation stays
    // nearly constant under weak scaling (Sec. 3.1).
    const ExperimentRunner runner(small_spec());
    const ExperimentResult result = runner.run();
    const auto& comp =
        result.phase_time[static_cast<int>(trace::Phase::Computation)];
    const auto& comm =
        result.phase_time[static_cast<int>(trace::Phase::Communication)];
    const double comp_growth = comp.evaluate(64.0) - comp.evaluate(2.0);
    const double comm_growth = comm.evaluate(64.0) - comm.evaluate(2.0);
    EXPECT_GT(comm_growth, 4.0 * std::abs(comp_growth));
}

TEST(Integration, PhaseModelsSumToEpochModel) {
    const ExperimentRunner runner(small_spec());
    const ExperimentResult result = runner.run();
    for (const double x : {4.0, 10.0, 32.0}) {
        double phases = 0.0;
        for (int p = 0; p < trace::kPhaseCount; ++p) {
            phases += result.phase_time[p].evaluate(x);
        }
        const double total = result.epoch_time.evaluate(x);
        EXPECT_NEAR(phases, total, 0.05 * total) << "x=" << x;
    }
}

TEST(Integration, KernelModelsCoverPopulationAndPredict) {
    const ExperimentRunner runner(small_spec());
    const ExperimentResult result = runner.run();
    const auto entries = model_kernels(
        result.data, result.step_math_fn,
        {aggregation::Metric::Time, aggregation::Metric::Visits});
    EXPECT_GT(entries.size(), 30u);

    // Visits models must be near exact: visit counts are deterministic.
    int visits_models = 0;
    for (const auto& e : entries) {
        if (e.metric == aggregation::Metric::Visits) {
            ++visits_models;
            EXPECT_LT(e.model.quality().fit_smape, 1.0) << e.name;
        }
    }
    EXPECT_GT(visits_models, 10);

    // The MPI allreduce time model must grow with scale.
    bool found_mpi = false;
    for (const auto& e : entries) {
        if (e.name == "MPI_Allreduce" && e.metric == aggregation::Metric::Time) {
            found_mpi = true;
            EXPECT_GT(e.model.evaluate(64.0), e.model.evaluate(2.0));
        }
    }
    EXPECT_TRUE(found_mpi);
}

TEST(Integration, ParallelKernelModelingMatchesSerial) {
    // model_kernels spends FitOptions::num_threads on the per-kernel loop;
    // the fits are independent, so entry order, selected terms and quality
    // metrics must be bit-identical to the serial pass.
    const ExperimentRunner runner(small_spec());
    const ExperimentResult result = runner.run();
    modeling::FitOptions serial_opts;
    serial_opts.num_threads = 1;
    modeling::FitOptions parallel_opts;
    parallel_opts.num_threads = 4;
    const auto serial = model_kernels(
        result.data, result.step_math_fn,
        {aggregation::Metric::Time, aggregation::Metric::Visits},
        modeling::ModelGenerator(serial_opts));
    const auto parallel = model_kernels(
        result.data, result.step_math_fn,
        {aggregation::Metric::Time, aggregation::Metric::Visits},
        modeling::ModelGenerator(parallel_opts));
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_GT(serial.size(), 30u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].name, parallel[i].name);
        EXPECT_EQ(serial[i].metric, parallel[i].metric);
        EXPECT_EQ(serial[i].model.to_string(), parallel[i].model.to_string());
        EXPECT_EQ(serial[i].model.quality().cv_smape,
                  parallel[i].model.quality().cv_smape);
        EXPECT_EQ(serial[i].model.quality().fit_smape,
                  parallel[i].model.quality().fit_smape);
        EXPECT_EQ(serial[i].model.train_step_model().constant(),
                  parallel[i].model.train_step_model().constant());
    }
}

TEST(Integration, MeasuredKernelTotalsMatchModeledKernels) {
    const ExperimentRunner runner(small_spec());
    const ExperimentResult result = runner.run();
    const auto entries =
        model_kernels(result.data, result.step_math_fn,
                      {aggregation::Metric::Time});
    const auto measured = runner.measured_kernel_totals(8);
    int compared = 0;
    for (const auto& e : entries) {
        for (const auto& m : measured) {
            if (m.name == e.name && m.time > 1e-3) {
                const double pred = e.model.evaluate(8.0);
                EXPECT_NEAR(pred, m.time, 0.35 * m.time) << e.name;
                ++compared;
            }
        }
    }
    EXPECT_GT(compared, 10);
}

TEST(Integration, RunToRunVariationInPaperRange) {
    const ExperimentRunner runner(small_spec());
    const auto reps = runner.measured_epoch_times_all_reps(10);
    const double variation = stats::run_to_run_variation(reps);
    // Case study reports 0.6-13.9 %.
    EXPECT_GT(variation, 0.1);
    EXPECT_LT(variation, 25.0);
}

TEST(Integration, TensorParallelExperimentRuns) {
    ExperimentSpec spec = small_spec();
    spec.strategy = parallel::StrategyKind::Tensor;
    spec.model_parallel_degree = 2;
    spec.modeling_ranks = {4, 8, 12, 16, 20};
    spec.evaluation_ranks = {32};
    const ExperimentRunner runner(spec);
    const ExperimentResult result = runner.run();
    const double pred = result.epoch_time.evaluate(32.0);
    const double measured = runner.measured_epoch_time(32);
    EXPECT_LT(std::abs(pred - measured) / measured, 0.5);
}

TEST(Integration, StrongScalingRuntimeDecreases) {
    ExperimentSpec spec = small_spec();
    spec.scaling = parallel::ScalingMode::Strong;
    spec.batch_per_worker = 64;
    const ExperimentRunner runner(spec);
    const ExperimentResult result = runner.run();
    EXPECT_LT(result.epoch_time.evaluate(32.0),
              result.epoch_time.evaluate(2.0));
}

TEST(Integration, ProfiledRunsSurviveEdpRoundTrip) {
    // The EDP path produces identical aggregation results.
    const ExperimentSpec spec = small_spec();
    const ExperimentRunner runner(spec);
    const sim::TrainingSimulator simulator(runner.workload_for(4));
    const profiling::Profiler profiler(spec.sampling);

    std::vector<profiling::ProfiledRun> direct;
    std::vector<profiling::ProfiledRun> via_file;
    for (int rep = 0; rep < 2; ++rep) {
        auto run = profiler.profile(simulator, {{"x1", 4.0}}, rep, spec.seed);
        const std::string path = ::testing::TempDir() + "/roundtrip.edp";
        profiling::write_edp_file(path, run);
        via_file.push_back(profiling::read_edp_file(path));
        direct.push_back(std::move(run));
    }
    const auto a = aggregation::aggregate_runs(direct);
    const auto b = aggregation::aggregate_runs(via_file);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t i = 0; i < a.kernels.size(); ++i) {
        EXPECT_EQ(a.kernels[i].name, b.kernels[i].name);
        EXPECT_NEAR(a.kernels[i].train[0], b.kernels[i].train[0],
                    1e-9 * (1.0 + a.kernels[i].train[0]));
    }
}

TEST(Integration, SpecValidation) {
    ExperimentSpec spec = small_spec();
    spec.modeling_ranks = {};
    EXPECT_THROW(ExperimentRunner{spec}, InvalidArgumentError);
    spec = small_spec();
    spec.repetitions = 0;
    EXPECT_THROW(ExperimentRunner{spec}, InvalidArgumentError);
}

TEST(EpochModel, ComposesPerStepModelsWithStepCounts) {
    // train-step model 2 + x, val-step model 1, n_t = 100/x, n_v = 10.
    modeling::Term t;
    t.coefficient = 1.0;
    t.factors = {modeling::Factor{0, 1.0, 0}};
    modeling::PerformanceModel train(2.0, {t}, {"x1"});
    modeling::PerformanceModel val(1.0, {}, {"x1"});
    const EpochModel m(train, val, [](int ranks) {
        parallel::StepMath sm;
        sm.train_steps = 100 / ranks;
        sm.val_steps = 10;
        return sm;
    });
    // x=4: n_t=25, train step 6, val 10*1 -> 160.
    EXPECT_DOUBLE_EQ(m.evaluate(4.0), 25 * 6.0 + 10.0);
    EXPECT_NE(m.to_string().find("n_t(x1)"), std::string::npos);
}

TEST(EpochModel, UninitialisedThrows) {
    const EpochModel m;
    EXPECT_THROW(m.evaluate(4.0), InvalidArgumentError);
    modeling::PerformanceModel pm(1.0, {}, {"x1"});
    EXPECT_THROW(EpochModel(pm, pm, StepMathFn{}), InvalidArgumentError);
}

TEST(EpochModel, PredictionIntervalScalesWithSteps) {
    const ExperimentRunner runner(small_spec());
    const ExperimentResult result = runner.run();
    const auto ci = result.epoch_time.predict_interval(16.0, 0.95);
    EXPECT_LT(ci.lower, ci.prediction);
    EXPECT_GT(ci.upper, ci.prediction);
    // The interval brackets the prediction roughly symmetrically.
    EXPECT_NEAR(ci.prediction - ci.lower, ci.upper - ci.prediction,
                0.2 * (ci.upper - ci.prediction));
}

TEST(EpochModel, StepMathFnMatchesWorkload) {
    const ExperimentRunner runner(small_spec());
    const StepMathFn fn = runner.run().step_math_fn;
    for (const int ranks : {2, 8, 32}) {
        const auto from_fn = fn(ranks);
        const auto from_workload = runner.workload_for(ranks).step_math();
        EXPECT_EQ(from_fn.train_steps, from_workload.train_steps) << ranks;
        EXPECT_EQ(from_fn.val_steps, from_workload.val_steps) << ranks;
    }
}

TEST(Integration, StrongScalingPredictionStaysPositiveAndAccurate) {
    // The composite model carries the 1/x of Eq. 2 analytically, so even far
    // extrapolation never goes negative (unlike a direct PMNF fit of the
    // decaying epoch values).
    ExperimentSpec spec = small_spec();
    spec.scaling = parallel::ScalingMode::Strong;
    spec.batch_per_worker = 64;
    spec.evaluation_ranks = {32, 64};
    const ExperimentRunner runner(spec);
    const ExperimentResult result = runner.run();
    for (const int x : {16, 32, 64}) {
        EXPECT_GT(result.epoch_time.evaluate(x), 0.0) << x;
    }
    const double meas = runner.measured_epoch_time(64);
    EXPECT_LT(std::abs(result.epoch_time.evaluate(64) - meas) / meas, 0.4);
}

TEST(Integration, DatasetSpecLookup) {
    EXPECT_EQ(dnn::dataset_spec("CIFAR-10").train_samples, 50000);
    EXPECT_EQ(dnn::dataset_spec("IMDB").num_classes, 2);
    EXPECT_THROW(dnn::dataset_spec("nope"), InvalidArgumentError);
}
