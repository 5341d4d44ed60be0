#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "aggregation/experiment.hpp"
#include "aggregation/stream.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "reference_aggregate.hpp"

using namespace extradeep;
using namespace extradeep::aggregation;
using trace::KernelCategory;
using trace::NvtxMark;
using trace::StepKind;

namespace {

void add_mark(trace::RankTrace& t, NvtxMark::Kind kind, int epoch, int step,
              double time, StepKind sk = StepKind::Train) {
    NvtxMark m;
    m.kind = kind;
    m.epoch = epoch;
    m.step = step;
    m.step_kind = sk;
    m.time = time;
    t.marks.push_back(m);
}

void add_event(trace::RankTrace& t, const std::string& name,
               KernelCategory cat, double start, double duration,
               std::int64_t visits = 1, double bytes = 0.0) {
    trace::TraceEvent e;
    e.name = name;
    e.category = cat;
    e.start = start;
    e.duration = duration;
    e.visits = visits;
    e.bytes = bytes;
    t.events.push_back(e);
}

/// One epoch (index 0, NOT discarded in these tests), three train steps with
/// kernel "k" of the given per-step durations.
trace::RankTrace trace_with_step_durations(int rank,
                                           const std::vector<double>& durs) {
    trace::RankTrace t;
    t.rank = rank;
    add_mark(t, NvtxMark::Kind::EpochStart, 0, -1, 0.0);
    double cursor = 0.0;
    for (std::size_t s = 0; s < durs.size(); ++s) {
        add_mark(t, NvtxMark::Kind::StepStart, 0, static_cast<int>(s), cursor);
        add_event(t, "k", KernelCategory::CudaKernel, cursor + 0.001, durs[s]);
        cursor += 1.0;
        add_mark(t, NvtxMark::Kind::StepEnd, 0, static_cast<int>(s), cursor);
        cursor += 0.1;
    }
    add_mark(t, NvtxMark::Kind::EpochEnd, 0, -1, cursor);
    return t;
}

profiling::ProfiledRun run_with_ranks(std::vector<trace::RankTrace> ranks,
                                      int rep = 0) {
    profiling::ProfiledRun run;
    run.params = {{"x1", 2.0}};
    run.repetition = rep;
    run.ranks = std::move(ranks);
    return run;
}

const AggregationOptions kNoDiscard{.discard_warmup_epochs = 0};

}  // namespace

TEST(Aggregate, MedianOverStepsWithinRank) {
    // Per-step sums 1, 5, 100 -> median 5.
    const auto run =
        run_with_ranks({trace_with_step_durations(0, {1.0, 5.0, 100.0})});
    const ConfigurationData d =
        aggregate_runs(std::vector<profiling::ProfiledRun>{run}, kNoDiscard);
    const KernelStats* k = d.find_kernel("k");
    ASSERT_NE(k, nullptr);
    EXPECT_DOUBLE_EQ(k->train_metric(Metric::Time), 5.0);
    EXPECT_DOUBLE_EQ(k->train_metric(Metric::Visits), 1.0);
}

TEST(Aggregate, SumsMultipleExecutionsPerStep) {
    // Two executions of "k" inside one step: Eq. 1's per-step sum.
    trace::RankTrace t;
    t.rank = 0;
    add_mark(t, NvtxMark::Kind::EpochStart, 0, -1, 0.0);
    add_mark(t, NvtxMark::Kind::StepStart, 0, 0, 0.0);
    add_event(t, "k", KernelCategory::CudaKernel, 0.01, 2.0, 1, 10.0);
    add_event(t, "k", KernelCategory::CudaKernel, 0.05, 3.0, 2, 30.0);
    add_mark(t, NvtxMark::Kind::StepEnd, 0, 0, 1.0);
    add_mark(t, NvtxMark::Kind::EpochEnd, 0, -1, 1.1);
    const ConfigurationData d = aggregate_runs(
        std::vector<profiling::ProfiledRun>{run_with_ranks({t})}, kNoDiscard);
    const KernelStats* k = d.find_kernel("k");
    ASSERT_NE(k, nullptr);
    EXPECT_DOUBLE_EQ(k->train_metric(Metric::Time), 5.0);
    EXPECT_DOUBLE_EQ(k->train_metric(Metric::Visits), 3.0);
    EXPECT_DOUBLE_EQ(k->train_metric(Metric::Bytes), 40.0);
}

TEST(Aggregate, MedianOverRanks) {
    // Rank step-medians 2, 4, 10 -> rank median 4.
    const auto run = run_with_ranks({
        trace_with_step_durations(0, {2.0, 2.0, 2.0}),
        trace_with_step_durations(1, {4.0, 4.0, 4.0}),
        trace_with_step_durations(2, {10.0, 10.0, 10.0}),
    });
    const ConfigurationData d =
        aggregate_runs(std::vector<profiling::ProfiledRun>{run}, kNoDiscard);
    EXPECT_DOUBLE_EQ(d.find_kernel("k")->train_metric(Metric::Time), 4.0);
}

TEST(Aggregate, MedianOverRepetitions) {
    std::vector<profiling::ProfiledRun> runs;
    for (int rep = 0; rep < 3; ++rep) {
        const double v = 1.0 + rep * rep;  // 1, 2, 5 -> median 2
        runs.push_back(
            run_with_ranks({trace_with_step_durations(0, {v, v, v})}, rep));
    }
    const ConfigurationData d = aggregate_runs(runs, kNoDiscard);
    EXPECT_DOUBLE_EQ(d.find_kernel("k")->train_metric(Metric::Time), 2.0);
    EXPECT_EQ(d.repetitions, 3);
    EXPECT_EQ(d.find_kernel("k")->reps_seen, 3);
}

TEST(Aggregate, KernelMissingInSomeStepsCountsZero) {
    // Kernel appears in 1 of 3 steps: median over {v, 0, 0} == 0, so one-off
    // kernels are naturally suppressed (paper Sec. 2.2).
    trace::RankTrace t = trace_with_step_durations(0, {1.0, 1.0, 1.0});
    add_event(t, "one_off", KernelCategory::Os, 0.5, 50.0);
    const ConfigurationData d = aggregate_runs(
        std::vector<profiling::ProfiledRun>{run_with_ranks({t})}, kNoDiscard);
    const KernelStats* k = d.find_kernel("one_off");
    ASSERT_NE(k, nullptr);
    EXPECT_DOUBLE_EQ(k->train_metric(Metric::Time), 0.0);
}

TEST(Aggregate, AsyncGapEventsCreditedToPrecedingStep) {
    trace::RankTrace t = trace_with_step_durations(0, {1.0, 1.0, 1.0});
    // Gap after each step is [k, k+0.1); add async copies there.
    for (int s = 0; s < 3; ++s) {
        add_event(t, "async_dtoh", KernelCategory::Memcpy, (s + 1.0) + 0.01,
                  0.5, 1, 8.0);
    }
    const ConfigurationData d = aggregate_runs(
        std::vector<profiling::ProfiledRun>{run_with_ranks({t})}, kNoDiscard);
    const KernelStats* k = d.find_kernel("async_dtoh");
    ASSERT_NE(k, nullptr);
    EXPECT_DOUBLE_EQ(k->train_metric(Metric::Time), 0.5);
    EXPECT_DOUBLE_EQ(k->train_metric(Metric::Bytes), 8.0);
}

TEST(Aggregate, DiscardWarmupEpochExcludesEpoch0) {
    // Epoch 0 has huge durations, epoch 1 small ones; with the default
    // discard, only epoch 1 counts.
    trace::RankTrace t;
    t.rank = 0;
    double cursor = 0.0;
    for (int epoch = 0; epoch < 2; ++epoch) {
        add_mark(t, NvtxMark::Kind::EpochStart, epoch, -1, cursor);
        for (int s = 0; s < 2; ++s) {
            add_mark(t, NvtxMark::Kind::StepStart, epoch, s, cursor);
            add_event(t, "k", KernelCategory::CudaKernel, cursor + 0.01,
                      epoch == 0 ? 100.0 : 1.0);
            cursor += 1.0;
            add_mark(t, NvtxMark::Kind::StepEnd, epoch, s, cursor);
        }
        add_mark(t, NvtxMark::Kind::EpochEnd, epoch, -1, cursor);
        cursor += 0.5;
    }
    const ConfigurationData d = aggregate_runs(
        std::vector<profiling::ProfiledRun>{run_with_ranks({t})},
        AggregationOptions{.discard_warmup_epochs = 1});
    EXPECT_DOUBLE_EQ(d.find_kernel("k")->train_metric(Metric::Time), 1.0);
}

TEST(Aggregate, TrainAndValidationSeparated) {
    trace::RankTrace t;
    t.rank = 0;
    add_mark(t, NvtxMark::Kind::EpochStart, 0, -1, 0.0);
    add_mark(t, NvtxMark::Kind::StepStart, 0, 0, 0.0, StepKind::Train);
    add_event(t, "k", KernelCategory::CudaKernel, 0.01, 2.0);
    add_mark(t, NvtxMark::Kind::StepEnd, 0, 0, 1.0, StepKind::Train);
    add_mark(t, NvtxMark::Kind::StepStart, 0, 1, 1.0, StepKind::Validation);
    add_event(t, "k", KernelCategory::CudaKernel, 1.01, 0.5);
    add_mark(t, NvtxMark::Kind::StepEnd, 0, 1, 2.0, StepKind::Validation);
    add_mark(t, NvtxMark::Kind::EpochEnd, 0, -1, 2.0);
    const ConfigurationData d = aggregate_runs(
        std::vector<profiling::ProfiledRun>{run_with_ranks({t})}, kNoDiscard);
    const KernelStats* k = d.find_kernel("k");
    EXPECT_DOUBLE_EQ(k->train_metric(Metric::Time), 2.0);
    EXPECT_DOUBLE_EQ(k->val_metric(Metric::Time), 0.5);
}

TEST(Aggregate, PhaseTotalsSumKernelsByCategory) {
    trace::RankTrace t;
    t.rank = 0;
    add_mark(t, NvtxMark::Kind::EpochStart, 0, -1, 0.0);
    add_mark(t, NvtxMark::Kind::StepStart, 0, 0, 0.0);
    add_event(t, "compute", KernelCategory::CudaKernel, 0.01, 3.0);
    add_event(t, "allreduce", KernelCategory::Mpi, 0.2, 2.0);
    add_event(t, "copy", KernelCategory::Memcpy, 0.4, 1.0, 1, 100.0);
    add_mark(t, NvtxMark::Kind::StepEnd, 0, 0, 1.0);
    add_mark(t, NvtxMark::Kind::EpochEnd, 0, -1, 1.0);
    const ConfigurationData d = aggregate_runs(
        std::vector<profiling::ProfiledRun>{run_with_ranks({t})}, kNoDiscard);
    EXPECT_DOUBLE_EQ(
        d.phase_metric(trace::Phase::Computation, Metric::Time, true), 3.0);
    EXPECT_DOUBLE_EQ(
        d.phase_metric(trace::Phase::Communication, Metric::Time, true), 2.0);
    EXPECT_DOUBLE_EQ(
        d.phase_metric(trace::Phase::MemoryOp, Metric::Time, true), 1.0);
    EXPECT_DOUBLE_EQ(
        d.phase_metric(trace::Phase::MemoryOp, Metric::Bytes, true), 100.0);
}

TEST(Aggregate, ValidatesInput) {
    EXPECT_THROW(aggregate_runs({}), InvalidArgumentError);
    auto r1 = run_with_ranks({trace_with_step_durations(0, {1.0})});
    auto r2 = r1;
    r2.params = {{"x1", 4.0}};
    std::vector<profiling::ProfiledRun> runs = {r1, r2};
    EXPECT_THROW(aggregate_runs(runs), InvalidArgumentError);
}

namespace {

// ---------------------------------------------------------------------------
// Differential test of the interned per-rank reduction against the
// string-keyed reference (tests/reference_aggregate.hpp). The streaming and
// materialising ingest paths share this core, so only a reference kept
// outside it can catch a change to its arithmetic or its event order.

/// How a generated rank lists its events.
enum class StartOrder {
    Sorted,        ///< time order, distinct start times
    Shuffled,      ///< random order, distinct start times
    Ties,          ///< time order, runs of equal start times
    TiesShuffled,  ///< random order, runs of equal start times
};

/// Kernel names of the generated traces: short ones, one at the 15
/// character small-string limit, and long ones sharing long prefixes.
const std::vector<std::string>& step_kernels() {
    static const std::vector<std::string> names = {
        "k",
        "ab",
        "EigenMetaKernel",
        "void tensorflow::functor::ReduceKernel<float, 128>",
        "void tensorflow::functor::ReduceKernel<float, 256>",
        "volta_sgemm_128x64_nn",
        "volta_sgemm_128x64_nt",
        "ncclAllReduceRingLLKernel_sum_f32",
        "mixed_category_kernel",
        "rank_sparse_kernel_absent_on_odd_ranks",
    };
    return names;
}

KernelCategory category_of(const std::string& name, Rng& rng) {
    if (name == "mixed_category_kernel") {
        return rng.bernoulli(0.5) ? KernelCategory::Cudnn
                                  : KernelCategory::Cublas;
    }
    if (name.rfind("nccl", 0) == 0) return KernelCategory::Nccl;
    if (name.rfind("async", 0) == 0) return KernelCategory::Memcpy;
    return KernelCategory::CudaKernel;
}

/// One rank of three epochs (four train and two validation steps each),
/// with events inside steps, in the async gaps after steps and after the
/// last step of an epoch, before the first epoch and after the last one.
/// "warmup_only_kernel" runs only in epoch 0.
trace::RankTrace random_rank(Rng& rng, int rank, StartOrder order,
                             bool with_events) {
    const bool ties =
        order == StartOrder::Ties || order == StartOrder::TiesShuffled;
    trace::RankTrace t;
    t.rank = rank;
    // Start times inside [lo, lo + len): with ties, on a coarse grid that
    // includes lo itself, so several events share a start time.
    const auto start_in = [&](double lo, double len) {
        if (ties) {
            return lo + len * 0.25 *
                            static_cast<double>(rng.next_u64() % 4);
        }
        return lo + rng.uniform(0.0, len);
    };
    const auto add = [&](const std::string& name, double start) {
        const KernelCategory cat = category_of(name, rng);
        add_event(t, name, cat, start, rng.uniform(1e-6, 1e-2),
                  static_cast<std::int64_t>(1 + rng.next_u64() % 4),
                  cat == KernelCategory::Memcpy || cat == KernelCategory::Nccl
                      ? rng.uniform(1.0, 1e6)
                      : 0.0);
    };
    const auto add_step_events = [&](double lo, double len, int count) {
        for (int i = 0; i < count; ++i) {
            const auto& names = step_kernels();
            std::string name = names[rng.next_u64() % names.size()];
            if (name == names.back() && rank % 2 == 1) {
                name = names.front();
            }
            add(name, start_in(lo, len));
        }
    };

    double now = 0.0;
    add("init_only_kernel_before_the_first_epoch", start_in(now, 0.5));
    now = 0.5;
    for (int epoch = 0; epoch < 3; ++epoch) {
        add_mark(t, NvtxMark::Kind::EpochStart, epoch, -1, now);
        for (const StepKind kind : {StepKind::Train, StepKind::Validation}) {
            const int steps = kind == StepKind::Train ? 4 : 2;
            for (int step = 0; step < steps; ++step) {
                add_mark(t, NvtxMark::Kind::StepStart, epoch, step, now, kind);
                add_step_events(now, 1.0, 8);
                if (epoch == 0) {
                    add("warmup_only_kernel", start_in(now, 1.0));
                }
                now += 1.0;
                add_mark(t, NvtxMark::Kind::StepEnd, epoch, step, now, kind);
                // Async work in the gap after the step.
                add("async_dtoh_copy_after_each_step", start_in(now, 0.2));
                now += 0.2;
            }
        }
        add_mark(t, NvtxMark::Kind::EpochEnd, epoch, -1, now);
        now += 0.1;
    }
    add("teardown_only_kernel_after_the_last_epoch", start_in(now, 0.5));

    if (!with_events) {
        t.events.clear();
    }
    if (order == StartOrder::Shuffled || order == StartOrder::TiesShuffled) {
        for (std::size_t i = t.events.size(); i > 1; --i) {
            std::swap(t.events[i - 1], t.events[rng.next_u64() % i]);
        }
    }
    return t;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_values(const KernelValues& a, const KernelValues& b,
                        const std::string& what) {
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(same_bits(a[i], b[i]))
            << what << " value " << i << ": " << a[i] << " vs " << b[i];
    }
}

void expect_same_rank(const std::map<std::string, RankKernelValues>& got,
                      const std::map<std::string, RankKernelValues>& want,
                      const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (auto g = got.begin(), w = want.begin(); g != got.end(); ++g, ++w) {
        ASSERT_EQ(g->first, w->first) << what;
        EXPECT_EQ(g->second.category, w->second.category) << what << g->first;
        expect_same_values(g->second.values, w->second.values,
                           what + " " + g->first);
    }
}

void expect_same_run(const RunAggregate& got, const RunAggregate& want,
                     const std::string& what) {
    EXPECT_EQ(got.n_ranks, want.n_ranks) << what;
    ASSERT_EQ(got.kernels.size(), want.kernels.size()) << what;
    for (auto g = got.kernels.begin(), w = want.kernels.begin();
         g != got.kernels.end(); ++g, ++w) {
        ASSERT_EQ(g->first, w->first) << what;
        EXPECT_EQ(g->second.category, w->second.category) << what << g->first;
        EXPECT_EQ(g->second.ranks_present, w->second.ranks_present)
            << what << g->first;
        expect_same_values(g->second.values, w->second.values,
                           what + " " + g->first);
    }
}

void expect_same_config(const ConfigurationData& got,
                        const ConfigurationData& want) {
    EXPECT_EQ(got.params, want.params);
    EXPECT_EQ(got.repetitions, want.repetitions);
    ASSERT_EQ(got.kernels.size(), want.kernels.size());
    for (std::size_t k = 0; k < got.kernels.size(); ++k) {
        const KernelStats& g = got.kernels[k];
        const KernelStats& w = want.kernels[k];
        ASSERT_EQ(g.name, w.name);
        EXPECT_EQ(g.category, w.category) << g.name;
        EXPECT_EQ(g.ranks_seen, w.ranks_seen) << g.name;
        EXPECT_EQ(g.reps_seen, w.reps_seen) << g.name;
        for (int m = 0; m < kMetricCount; ++m) {
            EXPECT_TRUE(same_bits(g.train[m], w.train[m])) << g.name;
            EXPECT_TRUE(same_bits(g.val[m], w.val[m])) << g.name;
        }
    }
    for (int p = 0; p < trace::kPhaseCount; ++p) {
        for (int m = 0; m < kMetricCount; ++m) {
            EXPECT_TRUE(same_bits(got.phase_train[p][m], want.phase_train[p][m]));
            EXPECT_TRUE(same_bits(got.phase_val[p][m], want.phase_val[p][m]));
        }
    }
}

}  // namespace

TEST(Aggregate, InternedCoreBitIdenticalToReference) {
    const std::map<std::string, double> params = {{"x1", 5.0}};
    for (const StartOrder order :
         {StartOrder::Sorted, StartOrder::Shuffled, StartOrder::Ties,
          StartOrder::TiesShuffled}) {
        for (const int discard : {0, 1}) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                Rng rng(seed * 100 + static_cast<std::uint64_t>(order) * 10 +
                        static_cast<std::uint64_t>(discard));
                const std::string tag =
                    "order " + std::to_string(static_cast<int>(order)) +
                    " discard " + std::to_string(discard) + " seed " +
                    std::to_string(seed);
                ConfigAggregator config_got;
                ConfigAggregator config_want;
                for (int rep = 0; rep < 3; ++rep) {
                    RunAggregator run_got;
                    RunAggregator run_want;
                    RunAggregator run_file;
                    // One name table for the whole run, as the streaming
                    // digest keeps one per file.
                    KernelNames file_names;
                    for (int rank = 0; rank < 5; ++rank) {
                        const trace::RankTrace t =
                            random_rank(rng, rank, order, rank != 3);
                        const std::string what =
                            tag + " rep " + std::to_string(rep) + " rank " +
                            std::to_string(rank);
                        const auto want =
                            reference::aggregate_rank_trace(t, discard);
                        expect_same_rank(aggregate_rank_trace(t, discard),
                                         want, what);

                        std::vector<KernelEvent> events;
                        for (const auto& e : t.events) {
                            events.push_back({file_names.intern(e.name),
                                              e.category, e.start, e.duration,
                                              e.bytes, e.visits});
                        }
                        const auto via_file_names = aggregate_rank_events(
                            t.marks, events, file_names.names(), discard);
                        expect_same_rank(via_file_names, want,
                                         what + " (file names)");

                        // The generator covers what the test claims to.
                        EXPECT_EQ(want.count("warmup_only_kernel"),
                                  discard == 0 && rank != 3 ? 1u : 0u);
                        EXPECT_EQ(want.count(
                                      "init_only_kernel_before_the_first_epoch"),
                                  0u);
                        EXPECT_EQ(want.count(
                                      "teardown_only_kernel_after_the_last_epoch"),
                                  0u);
                        if (rank == 3) {
                            EXPECT_TRUE(want.empty());
                        }

                        run_got.add_rank(t, discard);
                        run_want.add_rank_values(want);
                        run_file.add_rank_values(via_file_names);
                    }
                    const RunAggregate got = run_got.finish();
                    const RunAggregate want = run_want.finish();
                    expect_same_run(got, want, tag);
                    expect_same_run(run_file.finish(), want, tag);
                    config_got.add_run(params, got);
                    config_want.add_run(params, want);
                }
                SCOPED_TRACE(tag);
                expect_same_config(config_got.finish(), config_want.finish());
            }
        }
    }
}

TEST(ExperimentData, SortsAndFindsConfigurations) {
    ExperimentData data("x1");
    for (const double x : {8.0, 2.0, 4.0}) {
        ConfigurationData c;
        c.params = {{"x1", x}};
        data.add(c);
    }
    EXPECT_EQ(data.parameter_values(), (std::vector<double>{2.0, 4.0, 8.0}));
    EXPECT_NE(data.find(4.0), nullptr);
    EXPECT_EQ(data.find(5.0), nullptr);
}

TEST(ExperimentData, RejectsDuplicatesAndMissingParam) {
    ExperimentData data("x1");
    ConfigurationData c;
    c.params = {{"x1", 2.0}};
    data.add(c);
    EXPECT_THROW(data.add(c), InvalidArgumentError);
    ConfigurationData bad;
    bad.params = {{"other", 1.0}};
    EXPECT_THROW(data.add(bad), InvalidArgumentError);
}

TEST(ExperimentData, KernelFilteringRequiresFiveConfigs) {
    ExperimentData data("x1");
    for (int i = 0; i < 6; ++i) {
        ConfigurationData c;
        c.params = {{"x1", static_cast<double>(2 * (i + 1))}};
        KernelStats everywhere;
        everywhere.name = "common_kernel";
        c.kernels.push_back(everywhere);
        if (i < 3) {
            KernelStats rare;
            rare.name = "rare_kernel";
            c.kernels.push_back(rare);
            std::sort(c.kernels.begin(), c.kernels.end(),
                      [](const KernelStats& a, const KernelStats& b) {
                          return a.name < b.name;
                      });
        }
        data.add(c);
    }
    const auto modelable = data.modelable_kernels(5);
    ASSERT_EQ(modelable.size(), 1u);
    EXPECT_EQ(modelable.front(), "common_kernel");
    // With a lower threshold the rare kernel qualifies.
    EXPECT_EQ(data.modelable_kernels(3).size(), 2u);
}

TEST(DerivedMetrics, KernelEpochValueEq4) {
    KernelStats k;
    k.train[0] = 2.0;  // time per training step
    k.val[0] = 1.0;    // time per validation step
    parallel::StepMath sm;
    sm.train_steps = 100;
    sm.val_steps = 10;
    EXPECT_DOUBLE_EQ(derived_kernel_epoch_value(k, sm, Metric::Time),
                     100 * 2.0 + 10 * 1.0);
}

TEST(DerivedMetrics, EpochTotalSumsAllPhases) {
    ConfigurationData c;
    c.phase_train[0][0] = 3.0;  // computation time
    c.phase_train[1][0] = 2.0;  // communication time
    c.phase_train[2][0] = 1.0;  // memory time
    c.phase_val[0][0] = 0.5;
    parallel::StepMath sm;
    sm.train_steps = 10;
    sm.val_steps = 4;
    EXPECT_DOUBLE_EQ(derived_epoch_total(c, sm, Metric::Time),
                     10 * 6.0 + 4 * 0.5);
    // One phase alone: 10 training steps of 2.0 s of communication.
    ConfigurationData comm_only;
    comm_only.phase_train[1][0] = 2.0;
    EXPECT_DOUBLE_EQ(derived_epoch_total(comm_only, sm, Metric::Time), 20.0);
}
