// Adaptive profiling planner (src/planner) and the shared threshold-gate
// core (common/gate): plan determinism across thread counts, the racing
// invariants (eliminated arms stay retired, budgets are respected), the
// oracle measurement backend's equivalence with the fixed-grid harness,
// the planner's observability instruments, and the gate dialects every
// regression gate now parses through one implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "common/error.hpp"
#include "common/gate.hpp"
#include "common/json.hpp"
#include "eval/measurement.hpp"
#include "eval/oracle.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "planner/planner.hpp"
#include "planner/report.hpp"

namespace {

using namespace extradeep;

eval::OracleCase find_case(const std::string& name) {
    for (auto& c : eval::default_oracle_cases()) {
        if (c.name == name) {
            return c;
        }
    }
    throw InvalidArgumentError("test: unknown oracle case " + name);
}

// --- run_plan core behaviour ------------------------------------------------

TEST(Planner, NoiseFreeCaseStopsAfterSeedRound) {
    eval::OracleMeasurementSource source(find_case("linear"), {});
    const planner::PlanResult plan =
        planner::run_plan(source, planner::PlanOptions{});
    // Noise-free data collapses every prediction interval, so all arms are
    // confidently retired on the seed fit: 5 runs instead of 25.
    EXPECT_EQ(plan.stop_reason, "confidence");
    EXPECT_DOUBLE_EQ(plan.runs_used, 5.0);
    EXPECT_DOUBLE_EQ(plan.baseline_runs, 25.0);
    EXPECT_DOUBLE_EQ(plan.cost_reduction_pct, 80.0);
    ASSERT_EQ(plan.rounds.size(), 1u);
    EXPECT_EQ(plan.rounds[0].arm_pulled, -1);
    for (const auto& arm : plan.arms) {
        EXPECT_TRUE(arm.eliminated);
        EXPECT_EQ(arm.eliminated_reason, "confident");
        EXPECT_EQ(arm.eliminated_round, 0);
    }
    EXPECT_EQ(source.runs_materialized(), 5u);
}

TEST(Planner, NoisyCaseSavesRunsWithinEliminationInvariants) {
    eval::MaterializeOptions mat;
    mat.noise = 0.05;
    eval::OracleMeasurementSource source(find_case("linear"), mat);
    const planner::PlanResult plan =
        planner::run_plan(source, planner::PlanOptions{});
    EXPECT_GT(plan.runs_used, 5.0);
    EXPECT_LT(plan.runs_used, plan.baseline_runs);
    // Reported budget equals the backend's proof-of-work counter.
    EXPECT_DOUBLE_EQ(plan.runs_used,
                     static_cast<double>(source.runs_materialized()));
    // The racing loop must never pull an arm that an earlier round retired.
    for (const auto& round : plan.rounds) {
        if (round.arm_pulled < 0) {
            continue;
        }
        const planner::ArmState& arm =
            plan.arms[static_cast<std::size_t>(round.arm_pulled)];
        ASSERT_TRUE(arm.eliminated);
        EXPECT_GE(arm.eliminated_round, round.round);
    }
    // Per-arm bookkeeping adds up to the budget.
    double pulls = 0.0;
    for (const auto& arm : plan.arms) {
        EXPECT_EQ(static_cast<std::size_t>(arm.pulls), arm.values.size());
        EXPECT_LE(arm.pulls, planner::PlanOptions{}.max_pulls_per_arm);
        pulls += static_cast<double>(arm.pulls);
    }
    EXPECT_DOUBLE_EQ(plan.runs_used, pulls);
}

TEST(Planner, BudgetStopsTheRace) {
    eval::MaterializeOptions mat;
    mat.noise = 0.05;
    eval::OracleMeasurementSource source(find_case("linear"), mat);
    planner::PlanOptions options = planner::PlanOptions{};
    options.budget = 7;  // seed round (5) + two racing pulls
    const planner::PlanResult plan = planner::run_plan(source, options);
    EXPECT_EQ(plan.stop_reason, "budget");
    EXPECT_DOUBLE_EQ(plan.runs_used, 7.0);
}

TEST(Planner, ValidatesOptions) {
    eval::MaterializeOptions mat;
    eval::OracleCase small = find_case("linear");
    small.points.resize(2);  // fewer arms than the fitter's min_points
    eval::OracleMeasurementSource small_source(small, mat);
    EXPECT_THROW(planner::run_plan(small_source, planner::PlanOptions{}),
                 InvalidArgumentError);

    eval::OracleMeasurementSource source(find_case("linear"), mat);
    planner::PlanOptions bad_pulls = planner::PlanOptions{};
    bad_pulls.max_pulls_per_arm = 0;  // extradeep-plan --max-pulls 0
    EXPECT_THROW(planner::run_plan(source, bad_pulls), InvalidArgumentError);
    planner::PlanOptions bad_width = planner::PlanOptions{};
    bad_width.target_rel_width = 0.0;
    EXPECT_THROW(planner::run_plan(source, bad_width), InvalidArgumentError);
    planner::PlanOptions bad_budget = planner::PlanOptions{};
    bad_budget.budget = 4;  // cannot cover the 5-arm seed round
    EXPECT_THROW(planner::run_plan(source, bad_budget), InvalidArgumentError);
}

// --- determinism ------------------------------------------------------------

TEST(Planner, PlanJsonIsByteIdenticalAcrossThreadCounts) {
    // A plan takes no thread count: every refit is one serial fit on the
    // calling thread, so two renders of the same suite must match.
    std::vector<std::string> renders;
    for (int i = 0; i < 2; ++i) {
        const std::vector<planner::PlanCaseReport> reports = planner::plan_suite(
            {find_case("linear"), find_case("xlogx")}, {0.0, 0.05}, 1,
            planner::PlanOptions{});
        renders.push_back(planner::plan_json(reports, "testrev"));
    }
    EXPECT_EQ(renders[0], renders[1]);
}

TEST(Planner, SameSeedSamePlanFreshSource) {
    eval::MaterializeOptions mat;
    mat.noise = 0.05;
    mat.seed = 42;
    std::vector<std::string> renders;
    for (int i = 0; i < 2; ++i) {
        eval::OracleMeasurementSource source(find_case("quadratic"), mat);
        const planner::PlanResult plan =
            planner::run_plan(source, planner::PlanOptions{});
        std::string trace;
        for (const auto& round : plan.rounds) {
            trace += std::to_string(round.arm_pulled) + ":" + round.fitted +
                     ";";
        }
        renders.push_back(trace);
    }
    EXPECT_EQ(renders[0], renders[1]);
}

// --- oracle measurement backend ---------------------------------------------

TEST(OracleMeasurementSource, MatchesFixedGridData) {
    eval::MaterializeOptions mat;
    mat.noise = 0.05;
    const eval::OracleCase oracle = find_case("linear");
    eval::OracleMeasurementSource source(oracle, mat);
    ASSERT_EQ(source.num_configs(), oracle.points.size());
    EXPECT_EQ(source.param_names(), oracle.truth.param_names());
    // One pull equals one fixed-grid repetition: materialising the run
    // directly and aggregating it reproduces measure() bit for bit.
    for (const std::size_t config : {std::size_t{0}, std::size_t{3}}) {
        for (const int rep : {0, 2}) {
            const profiling::ProfiledRun run =
                eval::materialize_run(oracle, config, rep, mat);
            const std::vector<profiling::ProfiledRun> runs = {run};
            const aggregation::ConfigurationData data =
                aggregation::aggregate_runs(runs);
            const aggregation::KernelStats* kernel =
                data.find_kernel(eval::kOracleKernel);
            ASSERT_NE(kernel, nullptr);
            EXPECT_DOUBLE_EQ(source.measure(config, rep),
                             kernel->train_metric(aggregation::Metric::Time));
        }
    }
    // Same (config, repetition) pull is idempotent; distinct repetitions
    // draw independent noise.
    EXPECT_DOUBLE_EQ(source.measure(1, 0), source.measure(1, 0));
    EXPECT_NE(source.measure(1, 0), source.measure(1, 1));
    // Repetitions beyond the case's fixed-grid count stay deterministic.
    EXPECT_DOUBLE_EQ(source.measure(1, 7), source.measure(1, 7));
    EXPECT_EQ(source.runs_materialized(), 10u);
    EXPECT_DOUBLE_EQ(source.run_cost(0), 1.0);
    EXPECT_THROW(source.measure(source.num_configs(), 0),
                 InvalidArgumentError);
}

// --- observability ----------------------------------------------------------

TEST(Planner, PublishesInstrumentsToInjectedRegistry) {
    eval::MaterializeOptions mat;
    mat.noise = 0.05;
    eval::OracleMeasurementSource source(find_case("linear"), mat);
    obs::MetricsRegistry metrics;
    obs::FakeClock clock(0, 1500);  // 1.5 us per reading
    planner::PlanOptions options = planner::PlanOptions{};
    options.metrics = &metrics;
    options.clock = &clock;
    const planner::PlanResult plan = planner::run_plan(source, options);
    EXPECT_EQ(metrics.counter("extradeep_plan_arms_pulled").value(),
              static_cast<std::uint64_t>(plan.runs_used));
    EXPECT_EQ(metrics.counter("extradeep_plan_budget_spent").value(),
              static_cast<std::uint64_t>(plan.runs_used));
    // One refit per recorded round, timed through the injected clock.
    const obs::Histogram& latency = metrics.histogram(
        "extradeep_plan_refit_latency_us",
        obs::MetricsRegistry::default_latency_buckets_us());
    EXPECT_EQ(latency.count(), plan.rounds.size());
    EXPECT_GT(latency.sum(), 0.0);
    const std::string exposition = metrics.exposition();
    EXPECT_NE(exposition.find("extradeep_plan_arms_pulled"),
              std::string::npos);
    EXPECT_NE(exposition.find("extradeep_plan_budget_spent"),
              std::string::npos);
    EXPECT_NE(exposition.find("extradeep_plan_refit_latency_us"),
              std::string::npos);
}

TEST(ScopedLatencyTimer, ObservesElapsedAndToleratesNullHistogram) {
    obs::FakeClock clock(1000, 0);
    obs::Histogram histogram(obs::MetricsRegistry::default_latency_buckets_us());
    {
        const obs::ScopedLatencyTimer timer(clock, &histogram);
        clock.advance(250000);  // 250 us
    }
    EXPECT_EQ(histogram.count(), 1u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 250.0);
    {
        // Null histogram disables the probe; the clock must stay unread.
        const obs::ScopedLatencyTimer timer(clock, nullptr);
        clock.advance(1);
    }
    EXPECT_EQ(clock.now_ns(), 1000u + 250000u + 1u);
}

// --- report + gate ----------------------------------------------------------

TEST(PlanReport, JsonParsesAndCarriesSchema) {
    const std::vector<planner::PlanCaseReport> reports =
        planner::plan_suite({find_case("linear")}, {0.0}, 1, planner::PlanOptions{});
    const std::string rendered = planner::plan_json(reports, "abc123");
    const json::Value doc = json::parse(rendered, "plan JSON");
    const json::Value* schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "extradeep-plan/1");
    ASSERT_NE(doc.find("plans"), nullptr);
    ASSERT_NE(doc.find("records"), nullptr);
    EXPECT_EQ(doc.find("plans")->array.size(), 1u);
}

TEST(PlanReport, RecordsIncludeSuiteSummaryAndPaperReference) {
    const std::vector<planner::PlanCaseReport> reports =
        planner::plan_suite({find_case("linear")}, {0.0}, 1, planner::PlanOptions{});
    const std::vector<eval::MetricRecord> records =
        planner::to_records(reports);
    bool found_paper = false;
    for (const auto& r : records) {
        if (r.case_name == "suite" &&
            r.metric == "paper_sampling_reduction_pct") {
            found_paper = true;
            EXPECT_DOUBLE_EQ(r.value, planner::kPaperSamplingReductionPct);
        }
    }
    EXPECT_TRUE(found_paper);
}

TEST(PlanGate, EnforcesThresholdsOnRecords) {
    const std::vector<planner::PlanCaseReport> reports =
        planner::plan_suite({find_case("linear")}, {0.0}, 1, planner::PlanOptions{});
    const std::vector<eval::MetricRecord> records =
        planner::to_records(reports);
    const eval::GateResult pass = eval::check_gate(
        records, gate::parse_rules(
                     R"({"thresholds": [{"case": "*", "noise": 0.0,
                         "metric": "cost_reduction_pct", "min": 30.0}]})"));
    EXPECT_TRUE(pass.pass);
    const eval::GateResult fail = eval::check_gate(
        records, gate::parse_rules(
                     R"({"thresholds": [{"case": "*", "noise": 0.0,
                         "metric": "runs_used", "max": 0.0}]})"));
    EXPECT_FALSE(fail.pass);
    ASSERT_FALSE(fail.violations.empty());
    EXPECT_NE(fail.violations[0].find("runs_used"), std::string::npos);
    // Unmatched rules are violations, not silent no-ops.
    const eval::GateResult unmatched = eval::check_gate(
        records, gate::parse_rules(
                     R"({"thresholds": [{"case": "*", "noise": 0.0,
                         "metric": "no_such_metric", "min": 1.0}]})"));
    EXPECT_FALSE(unmatched.pass);
}

// --- common/gate core -------------------------------------------------------

TEST(GateCore, ChecksBoundsRuleMajorWithStableOrdering) {
    const std::vector<gate::Sample> samples = {
        {"a", 0.0, "m", 1.0},
        {"b", 0.0, "m", 9.0},
    };
    std::vector<gate::Rule> rules(1);
    rules[0].scope = "*";
    rules[0].noise = 0.0;
    rules[0].metric = "m";
    rules[0].min = 2.0;
    rules[0].max = 5.0;
    const gate::Outcome outcome = gate::check_rules(samples, rules);
    EXPECT_FALSE(outcome.pass);
    EXPECT_EQ(outcome.rules_checked, 1u);
    EXPECT_EQ(outcome.samples_matched, 2u);
    ASSERT_EQ(outcome.violations.size(), 2u);
    EXPECT_EQ(outcome.violations[0].kind, gate::Violation::Kind::BelowMin);
    EXPECT_EQ(outcome.violations[0].sample, 0u);
    EXPECT_DOUBLE_EQ(outcome.violations[0].bound, 2.0);
    EXPECT_EQ(outcome.violations[1].kind, gate::Violation::Kind::AboveMax);
    EXPECT_EQ(outcome.violations[1].sample, 1u);
}

TEST(GateCore, WildcardsAndUnmatchedRules) {
    const std::vector<gate::Sample> samples = {
        {"x", 0.05, "m", 3.0},
    };
    gate::Rule wildcard_noise;
    wildcard_noise.metric = "m";
    wildcard_noise.min = 1.0;  // noise stays -1 = any
    gate::Rule wrong_scope;
    wrong_scope.scope = "y";
    wrong_scope.metric = "m";
    wrong_scope.min = 1.0;
    const gate::Outcome outcome =
        gate::check_rules(samples, {wildcard_noise, wrong_scope});
    EXPECT_FALSE(outcome.pass);
    ASSERT_EQ(outcome.violations.size(), 1u);
    EXPECT_EQ(outcome.violations[0].kind, gate::Violation::Kind::Unmatched);
    EXPECT_EQ(outcome.violations[0].rule, 1u);
}

TEST(GateCore, ParsesEvalDialect) {
    const std::vector<gate::Rule> rules = gate::parse_rules(
        R"({"thresholds": [
              {"case": "linear", "noise": 0.05, "metric": "smape", "max": 5.0},
              {"metric": "recovery", "min": 1.0}
           ]})");
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].scope, "linear");
    EXPECT_DOUBLE_EQ(rules[0].noise, 0.05);
    ASSERT_TRUE(rules[0].max.has_value());
    EXPECT_DOUBLE_EQ(*rules[0].max, 5.0);
    EXPECT_FALSE(rules[0].min.has_value());
    EXPECT_EQ(rules[1].scope, "*");
    EXPECT_LT(rules[1].noise, 0.0);

    EXPECT_THROW(gate::parse_rules("[]"), ParseError);
    EXPECT_THROW(gate::parse_rules(R"({"thresholds": []})"), ParseError);
    EXPECT_THROW(gate::parse_rules(R"({"thresholds": [{"metric": "m"}]})"),
                 ParseError);
}

TEST(GateCore, ParsesServeDialect) {
    // Performance rules are written in the one thresholds dialect: the
    // workload is the record case and noise stays a wildcard.
    const std::vector<gate::Rule> rules = gate::parse_rules(
        R"({"thresholds": [{"case": "closed", "metric": "qps", "min": 100.0},
                           {"case": "*", "metric": "errors", "max": 0}]})");
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].scope, "closed");
    EXPECT_LT(rules[0].noise, 0.0);
    EXPECT_EQ(rules[1].scope, "*");
    // The retired serve-only dialect is rejected, not half-read.
    EXPECT_THROW(gate::parse_rules(
                     R"({"rules": [{"mode": "closed", "metric": "qps",
                                    "min": 100.0}]})"),
                 ParseError);
}

}  // namespace
