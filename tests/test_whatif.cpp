// Tests of the what-if advisor (src/advisor): scenario grammar and canonical
// reduction, transform properties (identity, monotonicity, commutativity),
// the simulator-side scenario mirror, and the headline golden property that
// the advisor's ranking agrees with ground-truth re-simulation wherever the
// advisor claims an order (disjoint prediction intervals) — with a negative
// control asserting that near-ties come back as overlapping intervals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "advisor/ground_truth.hpp"
#include "advisor/scenario.hpp"
#include "advisor/verify.hpp"
#include "advisor/whatif.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "extradeep/runner.hpp"
#include "hw/network.hpp"
#include "hw/system.hpp"
#include "sim/kernel_schedule.hpp"
#include "trace/kernel.hpp"

using namespace extradeep;

namespace {

/// One small fitted experiment shared across the suite (same shape as the
/// serve suite's fixture; fitting is fast but not free).
const ExperimentSpec& test_spec() {
    static const ExperimentSpec spec = [] {
        ExperimentSpec s;
        s.repetitions = 2;
        s.seed = 7;
        return s;
    }();
    return spec;
}

const ExperimentResult& test_result() {
    static const ExperimentResult result = ExperimentRunner(test_spec()).run();
    return result;
}

const advisor::ModelSet& test_models() {
    static const advisor::ModelSet ms =
        advisor::model_set_from(test_spec(), test_result());
    return ms;
}

sim::Workload test_workload(int ranks) {
    return ExperimentRunner(test_spec()).workload_for(ranks);
}

double comm_train_time(const sim::StepSchedule& s) {
    return s.train_phase_time(trace::Phase::Communication);
}

double comp_train_time(const sim::StepSchedule& s) {
    return s.train_phase_time(trace::Phase::Computation);
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario grammar
// ---------------------------------------------------------------------------

TEST(Scenario, ParsesSingleTransforms) {
    EXPECT_EQ(advisor::parse_scenario("interconnect:2").interconnect, 2.0);
    EXPECT_EQ(advisor::parse_scenario("latency:4").latency, 4.0);
    EXPECT_EQ(advisor::parse_scenario("bandwidth:2").bandwidth, 2.0);
    EXPECT_EQ(advisor::parse_scenario("overlap:0.5").overlap, 0.5);
    EXPECT_EQ(advisor::parse_scenario("collective:ring").collective,
              advisor::CollectiveAlgo::Ring);
    EXPECT_EQ(advisor::parse_scenario("collective:tree").collective,
              advisor::CollectiveAlgo::Tree);
    EXPECT_EQ(advisor::parse_scenario("fuse:4").fuse, 4);
    EXPECT_EQ(advisor::parse_scenario("identity").canonical_spec(), "identity");
}

TEST(Scenario, ParsesCompositions) {
    const advisor::Scenario sc =
        advisor::parse_scenario("interconnect:2+overlap:0.5+fuse:4");
    EXPECT_EQ(sc.interconnect, 2.0);
    EXPECT_EQ(sc.overlap, 0.5);
    EXPECT_EQ(sc.fuse, 4);
    EXPECT_NE(sc.canonical_spec(), "identity");

    // Repeats compose: factors multiply, overlap combines on the remaining
    // visible share, fuse takes the max.
    EXPECT_EQ(advisor::parse_scenario("interconnect:2+interconnect:3")
                  .interconnect,
              6.0);
    EXPECT_DOUBLE_EQ(
        advisor::parse_scenario("overlap:0.5+overlap:0.5").overlap, 0.75);
    EXPECT_EQ(advisor::parse_scenario("fuse:2+fuse:6").fuse, 6);
}

TEST(Scenario, CanonicalSpecIsPermutationInvariantAndRoundTrips) {
    const advisor::Scenario a =
        advisor::parse_scenario("interconnect:2+overlap:0.5+collective:ring");
    const advisor::Scenario b =
        advisor::parse_scenario("collective:ring+overlap:0.5+interconnect:2");
    EXPECT_EQ(a.canonical_spec(), b.canonical_spec());

    const advisor::Scenario c = advisor::parse_scenario(a.canonical_spec());
    EXPECT_EQ(c.interconnect, a.interconnect);
    EXPECT_EQ(c.overlap, a.overlap);
    EXPECT_EQ(c.collective, a.collective);
    EXPECT_EQ(advisor::parse_scenario("overlap:0").canonical_spec(),
              "identity");
}

TEST(Scenario, RejectsMalformedSpecs) {
    EXPECT_THROW(advisor::parse_scenario(""), InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("interconnect"), InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("interconnect:"),
                 InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario(":2"), InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("warp:9000"), InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("interconnect:0"),
                 InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("interconnect:-2"),
                 InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("interconnect:nan"),
                 InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("overlap:1.5"), InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("collective:star"),
                 InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("collective:ring+collective:tree"),
                 InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("fuse:2.5"), InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("fuse:-1"), InvalidArgumentError);
    EXPECT_THROW(advisor::parse_scenario("overlap:0.5++fuse:2"),
                 InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Collective override (hw layer)
// ---------------------------------------------------------------------------

TEST(CollectiveOverride, PinsTheFlatClosedForm) {
    const double bytes = 64.0 * 1024.0 * 1024.0;
    const int ranks = 16;
    hw::SystemSpec sys = hw::SystemSpec::deep();
    const double auto_time = hw::allreduce_time(sys, bytes, ranks);
    const int nodes = sys.nodes_for_ranks(ranks);
    const double scale = hw::contention_multiplier(sys, nodes) *
                         hw::algorithm_regime_factor(nodes);

    sys.collective_override = hw::CollectiveOverride::Ring;
    EXPECT_DOUBLE_EQ(hw::allreduce_time(sys, bytes, ranks),
                     hw::ring_allreduce_time(sys.inter_node, bytes, ranks) *
                         scale);
    sys.collective_override = hw::CollectiveOverride::Tree;
    EXPECT_DOUBLE_EQ(hw::allreduce_time(sys, bytes, ranks),
                     hw::tree_allreduce_time(sys.inter_node, bytes, ranks) *
                         scale);

    // DEEP's MPI path already picks min(ring, tree); pinning can only match
    // or worsen it.
    sys.collective_override = hw::CollectiveOverride::Ring;
    EXPECT_GE(hw::allreduce_time(sys, bytes, ranks), auto_time);
    sys.collective_override = hw::CollectiveOverride::Tree;
    EXPECT_GE(hw::allreduce_time(sys, bytes, ranks), auto_time);
}

TEST(CollectiveOverride, ReplacesTheHierarchicalNcclPath) {
    hw::SystemSpec sys = hw::SystemSpec::jureca();
    const double bytes = 64.0 * 1024.0 * 1024.0;
    const int ranks = 16;  // 4 nodes x 4 GPUs: hierarchical by default
    const double nccl_time = hw::allreduce_time(sys, bytes, ranks);
    sys.collective_override = hw::CollectiveOverride::Ring;
    const int nodes = sys.nodes_for_ranks(ranks);
    EXPECT_DOUBLE_EQ(hw::allreduce_time(sys, bytes, ranks),
                     hw::ring_allreduce_time(sys.inter_node, bytes, ranks) *
                         hw::contention_multiplier(sys, nodes) *
                         hw::algorithm_regime_factor(nodes));
    EXPECT_NE(hw::allreduce_time(sys, bytes, ranks), nccl_time);
}

// ---------------------------------------------------------------------------
// Transform properties on the fitted models
// ---------------------------------------------------------------------------

TEST(WhatIf, ZeroMagnitudeTransformsAreBitExactIdentity) {
    for (const char* spec :
         {"identity", "interconnect:1", "latency:1", "bandwidth:1",
          "overlap:0", "fuse:0", "fuse:1", "interconnect:1+overlap:0"}) {
        const advisor::WhatIfResult r = advisor::evaluate_whatif(
            test_models(), 16.0, advisor::parse_scenario(spec));
        EXPECT_EQ(r.saving, 0.0) << spec;
        EXPECT_EQ(r.scenario_time, r.baseline) << spec;
        EXPECT_EQ(r.lower, 0.0) << spec;
        EXPECT_EQ(r.upper, 0.0) << spec;
        EXPECT_EQ(r.baseline, test_models().epoch_time.evaluate(16.0)) << spec;
    }
}

TEST(WhatIf, InterconnectScalingIsMonotone) {
    double prev_saving = -1e300;
    for (const double f : {1.0, 1.25, 1.5, 2.0, 4.0, 8.0, 64.0}) {
        const advisor::WhatIfResult r = advisor::evaluate_whatif(
            test_models(), 16.0,
            advisor::parse_scenario("interconnect:" + fmt::shortest(f)));
        EXPECT_GE(r.saving, prev_saving) << "f=" << f;
        EXPECT_LE(r.scenario_time, r.baseline) << "f=" << f;
        prev_saving = r.saving;
    }
    // A *slower* link (f < 1) must never help.
    const advisor::WhatIfResult slower = advisor::evaluate_whatif(
        test_models(), 16.0, advisor::parse_scenario("interconnect:0.5"));
    EXPECT_LE(slower.saving, 0.0);
}

TEST(WhatIf, CommutativeCompositionIsOrderIndependent) {
    const std::vector<std::pair<std::string, std::string>> pairs = {
        {"interconnect:2+overlap:0.5", "overlap:0.5+interconnect:2"},
        {"latency:4+bandwidth:2+fuse:4", "fuse:4+bandwidth:2+latency:4"},
        {"collective:tree+overlap:0.25", "overlap:0.25+collective:tree"},
    };
    for (const auto& [a, b] : pairs) {
        const advisor::WhatIfResult ra = advisor::evaluate_whatif(
            test_models(), 16.0, advisor::parse_scenario(a));
        const advisor::WhatIfResult rb = advisor::evaluate_whatif(
            test_models(), 16.0, advisor::parse_scenario(b));
        EXPECT_EQ(ra.saving, rb.saving) << a;
        EXPECT_EQ(ra.scenario_time, rb.scenario_time) << a;
        EXPECT_EQ(ra.lower, rb.lower) << a;
        EXPECT_EQ(ra.upper, rb.upper) << a;
        EXPECT_EQ(ra.spec, rb.spec) << a;
    }
}

TEST(WhatIf, RejectsUnrepresentableConfigurations) {
    const advisor::Scenario sc = advisor::parse_scenario("interconnect:2");
    EXPECT_THROW(advisor::evaluate_whatif(test_models(), 0.0, sc),
                 InvalidArgumentError);
    EXPECT_THROW(advisor::evaluate_whatif(test_models(), 1.0, sc),
                 InvalidArgumentError);
    EXPECT_THROW(advisor::evaluate_whatif(test_models(), -8.0, sc),
                 InvalidArgumentError);
}

TEST(WhatIf, UnknownSystemDegradesGracefully) {
    advisor::ModelSet ms = test_models();
    ms.system_name = "FICTIONAL";
    // Uniform link scaling and overlap need no system reconstruction...
    EXPECT_GT(advisor::evaluate_whatif(
                  ms, 16.0, advisor::parse_scenario("interconnect:2"))
                  .saving,
              0.0);
    EXPECT_GE(advisor::evaluate_whatif(ms, 16.0,
                                       advisor::parse_scenario("overlap:0.5"))
                  .saving,
              0.0);
    // ...but repricing and fusion do, and must fail loudly.
    EXPECT_THROW(advisor::evaluate_whatif(
                     ms, 16.0, advisor::parse_scenario("collective:tree")),
                 InvalidArgumentError);
    EXPECT_THROW(
        advisor::evaluate_whatif(ms, 16.0, advisor::parse_scenario("fuse:4")),
        InvalidArgumentError);
    EXPECT_THROW(
        advisor::evaluate_whatif(ms, 16.0,
                                 advisor::parse_scenario("latency:4")),
        InvalidArgumentError);
    // advise skips the unavailable options instead of failing the request.
    const advisor::Advice advice = advisor::advise(ms, 16.0);
    EXPECT_GT(advice.skipped, 0);
    EXPECT_EQ(advice.ranked.size() + static_cast<std::size_t>(advice.skipped),
              advisor::default_portfolio().size());
}

// ---------------------------------------------------------------------------
// Ground-truth schedule mutation
// ---------------------------------------------------------------------------

TEST(MutatedSchedule, KeepsKernelPopulationAndOrder) {
    const sim::Workload w = test_workload(8);
    const sim::StepSchedule base = sim::build_step_schedule(w);
    for (const char* spec :
         {"interconnect:2", "collective:tree", "fuse:4", "overlap:0.5"}) {
        const sim::StepSchedule mutated =
            advisor::mutated_schedule(w, advisor::parse_scenario(spec));
        ASSERT_EQ(mutated.kernels.size(), base.kernels.size()) << spec;
        for (std::size_t i = 0; i < base.kernels.size(); ++i) {
            EXPECT_EQ(mutated.kernels[i].name, base.kernels[i].name) << spec;
        }
        EXPECT_EQ(mutated.epoch_overhead_s, base.epoch_overhead_s) << spec;
    }
}

TEST(MutatedSchedule, UniformLinkScalingScalesCommExactly) {
    const sim::Workload w = test_workload(8);
    const sim::StepSchedule base = sim::build_step_schedule(w);
    const sim::StepSchedule fast =
        advisor::mutated_schedule(w, advisor::parse_scenario("interconnect:2"));
    EXPECT_NEAR(comm_train_time(fast), comm_train_time(base) / 2.0,
                1e-12 * comm_train_time(base));
    // Computation and memory are untouched, bit for bit.
    EXPECT_EQ(comp_train_time(fast), comp_train_time(base));
    EXPECT_EQ(fast.train_phase_time(trace::Phase::MemoryOp),
              base.train_phase_time(trace::Phase::MemoryOp));
}

TEST(MutatedSchedule, FusionDropsLaunchAndDispatchOverhead) {
    const sim::Workload w = test_workload(8);
    const sim::StepSchedule base = sim::build_step_schedule(w);
    const sim::StepSchedule fused =
        advisor::mutated_schedule(w, advisor::parse_scenario("fuse:4"));

    auto find = [](const sim::StepSchedule& s, const std::string& name) {
        for (const auto& k : s.kernels) {
            if (k.name == name) {
                return k;
            }
        }
        ADD_FAILURE() << "kernel not found: " << name;
        return sim::KernelDesc{};
    };
    const sim::KernelDesc base_launch = find(base, "cudaLaunchKernel");
    const sim::KernelDesc fused_launch = find(fused, "cudaLaunchKernel");
    EXPECT_LT(fused_launch.train_visits, base_launch.train_visits);
    EXPECT_LT(fused_launch.train_time, base_launch.train_time);
    // Launch overhead is proportional to the launch count.
    EXPECT_NEAR(fused_launch.train_time,
                base_launch.train_time *
                    static_cast<double>(fused_launch.train_visits) /
                    static_cast<double>(base_launch.train_visits),
                1e-12);
    // The fused kernels' *compute* time is preserved: total computation
    // shrinks by exactly the saved launch + dispatch overhead.
    const sim::KernelDesc base_dispatch = find(base, "ExecutorState::Process");
    const sim::KernelDesc fused_dispatch =
        find(fused, "ExecutorState::Process");
    const double saved = (base_launch.train_time - fused_launch.train_time) +
                         (base_dispatch.train_time -
                          fused_dispatch.train_time);
    EXPECT_NEAR(comp_train_time(fused), comp_train_time(base) - saved,
                1e-12 * comp_train_time(base));
    EXPECT_GT(saved, 0.0);
}

TEST(MutatedSchedule, OverlapHidesCommUpToCompute) {
    const sim::Workload w = test_workload(8);
    const sim::StepSchedule base = sim::build_step_schedule(w);
    const double comm = comm_train_time(base);
    const double comp = comp_train_time(base);

    const sim::StepSchedule half =
        advisor::mutated_schedule(w, advisor::parse_scenario("overlap:0.5"));
    EXPECT_NEAR(comm_train_time(half),
                comm - std::min(0.5 * comm, comp), 1e-12 * comm);

    const sim::StepSchedule full =
        advisor::mutated_schedule(w, advisor::parse_scenario("overlap:1"));
    EXPECT_NEAR(comm_train_time(full), comm - std::min(comm, comp),
                1e-12 * comm);
    EXPECT_GE(comm_train_time(full), 0.0);
}

// ---------------------------------------------------------------------------
// Golden ranking against ground truth
// ---------------------------------------------------------------------------

TEST(GoldenRanking, AdvisorOrderMatchesReSimulationWhereDecided) {
    const double x = 16.0;
    const sim::Workload w = test_workload(16);
    const advisor::Advice advice = advisor::advise(test_models(), x);
    ASSERT_EQ(advice.skipped, 0);
    ASSERT_EQ(advice.ranked.size(), advisor::default_portfolio().size());

    std::vector<advisor::GroundTruth> truths;
    for (const advisor::WhatIfResult& r : advice.ranked) {
        truths.push_back(advisor::simulate_saving(
            w, advisor::parse_scenario(r.spec), 5, 101));
    }

    // Wherever the advisor claims an order (disjoint prediction intervals),
    // re-simulation must agree with it. Overlapping intervals are ties by
    // contract and carry no ordering claim.
    std::size_t decided = 0;
    for (std::size_t i = 0; i < advice.ranked.size(); ++i) {
        for (std::size_t j = i + 1; j < advice.ranked.size(); ++j) {
            const advisor::WhatIfResult& a = advice.ranked[i];
            const advisor::WhatIfResult& b = advice.ranked[j];
            if (!(a.lower > b.upper || b.lower > a.upper)) {
                continue;
            }
            ++decided;
            // advise sorts descending, so a's prediction is >= b's; the
            // ground truth must rank them the same way.
            EXPECT_GT(a.saving, b.saving) << a.spec << " vs " << b.spec;
            EXPECT_GT(truths[i].saving, truths[j].saving)
                << a.spec << " vs " << b.spec;
        }
    }
    // The portfolio spans savings from strongly positive (interconnect
    // upgrades) to strongly negative (the tree swap on this system), so the
    // advisor must be able to decide most pairs.
    EXPECT_GE(decided, 10u);
}

TEST(GoldenRanking, NearTiesComeBackAsOverlappingIntervals) {
    // Negative control: two optimizations within noise of each other. The
    // advisor must not claim an order — the intervals must overlap.
    const advisor::WhatIfResult a = advisor::evaluate_whatif(
        test_models(), 16.0, advisor::parse_scenario("interconnect:1.30"));
    const advisor::WhatIfResult b = advisor::evaluate_whatif(
        test_models(), 16.0, advisor::parse_scenario("interconnect:1.31"));
    EXPECT_NE(a.saving, b.saving);  // distinct scenarios, distinct estimates
    EXPECT_TRUE(a.lower <= b.upper && b.lower <= a.upper)
        << "[" << a.lower << ", " << a.upper << "] vs [" << b.lower << ", "
        << b.upper << "]";
    // And the ground-truth difference really is inside both bands.
    const sim::Workload w = test_workload(16);
    const advisor::GroundTruth ta =
        advisor::simulate_saving(w, advisor::parse_scenario("interconnect:1.30"),
                                 5, 101);
    EXPECT_GE(ta.saving, std::min(a.lower, b.lower));
    EXPECT_LE(ta.saving, std::max(a.upper, b.upper));
}

TEST(GoldenRanking, PredictedSavingsTrackGroundTruth) {
    const sim::Workload w = test_workload(16);
    for (const std::string& spec : advisor::default_portfolio()) {
        const advisor::Scenario sc = advisor::parse_scenario(spec);
        const advisor::WhatIfResult pred =
            advisor::evaluate_whatif(test_models(), 16.0, sc);
        const advisor::GroundTruth truth =
            advisor::simulate_saving(w, sc, 5, 101);
        const double denom =
            std::max(std::fabs(truth.saving), 0.02 * truth.base_time);
        EXPECT_LE(std::fabs(pred.saving - truth.saving) / denom, 0.25)
            << spec << ": pred=" << pred.saving << " true=" << truth.saving;
    }
}

// ---------------------------------------------------------------------------
// Verification harness
// ---------------------------------------------------------------------------

TEST(VerifyHarness, QuickSuiteEmitsWellFormedRecords) {
    advisor::VerifyOptions options;
    options.quick = true;
    options.repetitions = 3;
    const advisor::VerifyOutcome outcome = advisor::run_verify(options);
    ASSERT_FALSE(outcome.records.empty());
    std::size_t err_records = 0, ranking_records = 0, coverage_records = 0;
    for (const auto& r : outcome.records) {
        if (r.metric == "saving_err_pct") {
            ++err_records;
            EXPECT_TRUE(std::isfinite(r.value));
            EXPECT_GE(r.value, 0.0);
        } else if (r.metric == "ranking_agreement") {
            ++ranking_records;
            EXPECT_GE(r.value, 0.0);
            EXPECT_LE(r.value, 1.0);
        } else if (r.metric == "interval_coverage") {
            ++coverage_records;
            EXPECT_GE(r.value, 0.0);
            EXPECT_LE(r.value, 1.0);
        } else {
            ADD_FAILURE() << "unexpected metric " << r.metric;
        }
    }
    // One case, two evaluation points, the full portfolio at each.
    EXPECT_EQ(err_records, 2 * advisor::default_portfolio().size());
    EXPECT_EQ(ranking_records, 2u);
    EXPECT_EQ(coverage_records, 2u);
    EXPECT_NE(outcome.table.find("ranking_agreement"), std::string::npos);

    // The JSON document parses and carries the schema marker.
    const std::string doc =
        eval::bench_json(outcome.records, "test", "extradeep-whatif/1");
    const json::Value parsed = json::parse(doc, "BENCH_whatif.json");
    const json::Value* schema = parsed.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "extradeep-whatif/1");
    const json::Value* records = parsed.find("records");
    ASSERT_NE(records, nullptr);
    EXPECT_EQ(records->array.size(), outcome.records.size());
}
