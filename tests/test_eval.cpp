// Tests for the ground-truth accuracy harness (src/eval): oracle
// materialisation, end-to-end scoring, report emission and the regression
// gate. The oracle is the one place in the repository where the "right
// answer" is known in closed form, so these tests pin down that the entire
// pipeline - EDP round-trip, validation, aggregation, model generation -
// reproduces it exactly in the noise-free limit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "common/error.hpp"
#include "eval/oracle.hpp"
#include "eval/report.hpp"
#include "eval/scorer.hpp"
#include "profiling/edp_io.hpp"

namespace extradeep::eval {
namespace {

OracleCase find_case(const std::string& name) {
    for (auto& c : default_oracle_cases()) {
        if (c.name == name) {
            return c;
        }
    }
    throw Error("test: no oracle case named " + name);
}

double aggregated_oracle_value(const OracleCase& oracle,
                               std::size_t config_index,
                               const MaterializeOptions& options) {
    const auto runs = materialize_config(oracle, config_index, options);
    const auto config = aggregation::aggregate_runs(runs);
    const aggregation::KernelStats* k = config.find_kernel(kOracleKernel);
    EXPECT_NE(k, nullptr);
    return k == nullptr ? -1.0
                        : k->train_metric(aggregation::Metric::Time);
}

// ---------------------------------------------------------------------------
// Oracle suite shape

TEST(EvalOracle, DefaultSuiteCoversSingleAndMultiParameter) {
    const auto cases = default_oracle_cases();
    ASSERT_GE(cases.size(), 8u);
    std::size_t multi = 0;
    std::vector<std::string> names;
    for (const auto& c : cases) {
        names.push_back(c.name);
        ASSERT_FALSE(c.points.empty()) << c.name;
        for (const auto& p : c.points) {
            ASSERT_EQ(p.size(), c.num_params()) << c.name;
            EXPECT_GT(c.truth_value(p), 0.0) << c.name;
        }
        if (c.num_params() > 1) {
            ++multi;
        } else {
            // Paper's efficient sampling: five points per parameter.
            EXPECT_EQ(c.points.size(), 5u) << c.name;
        }
    }
    EXPECT_GE(multi, 2u);
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
        << "duplicate oracle case names";
}

TEST(EvalOracle, QuickSuiteIsSubsetOfDefault) {
    const auto quick = quick_oracle_cases();
    const auto all = default_oracle_cases();
    ASSERT_FALSE(quick.empty());
    EXPECT_LT(quick.size(), all.size());
    for (const auto& q : quick) {
        const bool found =
            std::any_of(all.begin(), all.end(),
                        [&](const OracleCase& c) { return c.name == q.name; });
        EXPECT_TRUE(found) << q.name;
    }
}

TEST(EvalOracle, CaseNameHashIsStableAcrossPlatforms) {
    // FNV-1a reference values; std::hash would not be reproducible.
    EXPECT_EQ(case_name_hash(""), 1469598103934665603ULL);
    EXPECT_EQ(case_name_hash("linear"), case_name_hash("linear"));
    EXPECT_NE(case_name_hash("linear"), case_name_hash("quadratic"));
}

// ---------------------------------------------------------------------------
// Noise-free materialisation: aggregation must reproduce the truth exactly

TEST(EvalOracle, NoiseFreeAggregationRecoversTruthExactly) {
    for (const auto& oracle : default_oracle_cases()) {
        for (std::size_t c = 0; c < oracle.points.size(); c += 3) {
            const double got = aggregated_oracle_value(oracle, c, {});
            EXPECT_NEAR(got, oracle.truth_value(oracle.points[c]),
                        1e-9 * oracle.truth_value(oracle.points[c]))
                << oracle.name << " config " << c;
        }
    }
}

TEST(EvalOracle, WarmupEpochIsEmittedAndDiscarded) {
    const OracleCase oracle = find_case("linear");
    const auto runs = materialize_config(oracle, 1, {});
    ASSERT_FALSE(runs.empty());
    ASSERT_FALSE(runs.front().ranks.empty());
    const auto& marks = runs.front().ranks.front().marks;
    const bool has_warmup = std::any_of(
        marks.begin(), marks.end(), [](const trace::NvtxMark& m) {
            return m.epoch == 0 &&
                   m.kind == trace::NvtxMark::Kind::EpochStart;
        });
    ASSERT_TRUE(has_warmup) << "warm-up epoch missing from the trace";
    // The warm-up values are inflated 1.5x; aggregating *without* the
    // warm-up discard must therefore change the validation-step picture
    // only if discarding is broken - the train median stays pinned because
    // the single inflated step cannot move a 7-step median. Assert the
    // default pipeline (discard) hits the truth exactly.
    const double got = aggregated_oracle_value(oracle, 1, {});
    EXPECT_DOUBLE_EQ(got, oracle.truth_value(oracle.points[1]));
}

TEST(EvalOracle, SporadicKernelOnlyInFirstConfiguration) {
    const OracleCase oracle = find_case("linear");
    const auto first = materialize_config(oracle, 0, {});
    const auto later = materialize_config(oracle, 2, {});
    const auto has_sporadic = [](const profiling::ProfiledRun& run) {
        for (const auto& rank : run.ranks) {
            for (const auto& ev : rank.events) {
                if (ev.name == kSporadicKernel) {
                    return true;
                }
            }
        }
        return false;
    };
    EXPECT_TRUE(has_sporadic(first.front()));
    EXPECT_FALSE(has_sporadic(later.front()));
}

TEST(EvalOracle, MaterialisationIsDeterministicAndSeedSensitive) {
    const OracleCase oracle = find_case("quadratic");
    MaterializeOptions a;
    a.noise = 0.05;
    a.seed = 7;
    const double v1 = aggregated_oracle_value(oracle, 2, a);
    const double v2 = aggregated_oracle_value(oracle, 2, a);
    EXPECT_DOUBLE_EQ(v1, v2) << "same seed must reproduce bit-identically";
    MaterializeOptions b = a;
    b.seed = 8;
    EXPECT_NE(v1, aggregated_oracle_value(oracle, 2, b))
        << "noise must actually depend on the seed";
}

TEST(EvalOracle, NonPositiveTruthIsRejected) {
    OracleCase bad = find_case("linear");
    bad.truth = modeling::PerformanceModel(-10.0, {}, {"x1"});
    EXPECT_THROW(materialize_config(bad, 0, {}), InvalidArgumentError);
    EXPECT_THROW(materialize_config(bad, 99, {}), InvalidArgumentError)
        << "out-of-range config index";
}

// ---------------------------------------------------------------------------
// EDP round-trip

TEST(EvalOracle, EdpTreeRoundTripsThroughStrictParser) {
    const OracleCase oracle = find_case("log");
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "extradeep-test-eval-rt";
    std::filesystem::remove_all(dir);
    const auto paths = write_edp_tree(oracle, {}, dir.string());
    EXPECT_EQ(paths.size(),
              oracle.points.size() *
                  static_cast<std::size_t>(oracle.repetitions));
    const auto in_memory = materialize(oracle, {});
    std::size_t idx = 0;
    for (std::size_t c = 0; c < in_memory.size(); ++c) {
        for (const auto& expected : in_memory[c]) {
            // The strict single-argument overload throws on any defect.
            const profiling::ProfiledRun parsed =
                profiling::read_edp_file(paths[idx++]);
            EXPECT_EQ(parsed.params, expected.params);
            EXPECT_EQ(parsed.repetition, expected.repetition);
            ASSERT_EQ(parsed.ranks.size(), expected.ranks.size());
            for (std::size_t r = 0; r < expected.ranks.size(); ++r) {
                EXPECT_EQ(parsed.ranks[r].events.size(),
                          expected.ranks[r].events.size());
                EXPECT_EQ(parsed.ranks[r].marks.size(),
                          expected.ranks[r].marks.size());
            }
        }
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// End-to-end scoring

TEST(EvalScorer, NoiseFreeLinearCaseScoresPerfectly) {
    const OracleCase oracle = find_case("linear");
    ScoreOptions options;
    options.noise = 0.0;
    const CaseScore s = score_case(oracle, options);
    EXPECT_TRUE(s.exact_recovery) << s.fitted_str;
    EXPECT_LT(s.smape_in_range, 1e-6);
    for (const double e : s.extrap_error) {
        EXPECT_LT(e, 1e-6);
    }
    EXPECT_DOUBLE_EQ(s.pi_coverage, 1.0);
    ASSERT_GE(s.cost_smape, 0.0) << "1-D case must score the cost model";
    // The truth cost for linear T is c*x + d*x^2, which a single-term PMNF
    // hypothesis cannot represent exactly even on noise-free data; ~0.6%
    // SMAPE is the model-class floor, so only gate against gross breakage.
    EXPECT_LT(s.cost_smape, 2.0);
    EXPECT_EQ(s.files_written,
              oracle.points.size() *
                  static_cast<std::size_t>(oracle.repetitions));
    EXPECT_EQ(s.configs_kept, oracle.points.size());
    EXPECT_GT(s.hypotheses_searched, 1);
}

TEST(EvalScorer, NoiseFreeMultiParamCaseRecoversBothExponents) {
    const OracleCase oracle = find_case("mp_additive");
    ScoreOptions options;
    const CaseScore s = score_case(oracle, options);
    EXPECT_TRUE(s.exact_recovery) << s.fitted_str;
    EXPECT_LT(s.smape_in_range, 1e-6);
    EXPECT_LT(s.cost_smape, 0.0)
        << "cost scoring is N/A for multi-parameter cases";
    EXPECT_EQ(s.configs_kept, oracle.points.size());
}

TEST(EvalScorer, ScoringIsDeterministicForFixedSeed) {
    const OracleCase oracle = find_case("log");
    ScoreOptions options;
    options.noise = 0.05;
    options.seed = 3;
    const CaseScore a = score_case(oracle, options);
    const CaseScore b = score_case(oracle, options);
    EXPECT_DOUBLE_EQ(a.smape_in_range, b.smape_in_range);
    EXPECT_DOUBLE_EQ(a.extrap_error[2], b.extrap_error[2]);
    EXPECT_DOUBLE_EQ(a.pi_coverage, b.pi_coverage);
}

TEST(EvalScorer, CaseWithoutPointsIsRejected) {
    OracleCase empty = find_case("linear");
    empty.points.clear();
    EXPECT_THROW(score_case(empty, {}), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Report: records, JSON, table

CaseScore sample_score() {
    CaseScore s;
    s.case_name = "linear";
    s.noise = 0.05;
    s.seed = 1;
    s.exact_recovery = true;
    s.smape_in_range = 1.25;
    s.extrap_error[0] = 2.0;
    s.extrap_error[1] = 4.0;
    s.extrap_error[2] = 8.0;
    s.pi_coverage = 0.9;
    s.cost_smape = 1.5;
    s.fit_seconds = 0.01;
    s.hypotheses_searched = 54;
    s.hypotheses_per_sec = 5400.0;
    return s;
}

TEST(EvalReport, RecordsFollowTheStableSchemaOrder) {
    const auto records = to_records(sample_score());
    const std::vector<std::string> expected = {
        "exponent_recovery", "smape_in_range", "extrap_error_2x",
        "extrap_error_4x",   "extrap_error_8x", "pi_coverage",
        "cost_smape",        "fit_seconds",     "hypotheses_searched",
        "hypotheses_per_sec"};
    ASSERT_EQ(records.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(records[i].metric, expected[i]);
        EXPECT_EQ(records[i].case_name, "linear");
        EXPECT_DOUBLE_EQ(records[i].noise, 0.05);
    }
    EXPECT_DOUBLE_EQ(records[0].value, 1.0);
    EXPECT_DOUBLE_EQ(records[1].value, 1.25);
}

TEST(EvalReport, CostMetricOmittedWhenNotApplicable) {
    CaseScore s = sample_score();
    s.cost_smape = -1.0;
    const auto records = to_records(s);
    const bool has_cost = std::any_of(
        records.begin(), records.end(),
        [](const MetricRecord& r) { return r.metric == "cost_smape"; });
    EXPECT_FALSE(has_cost);
}

TEST(EvalReport, BenchJsonCarriesSchemaRevisionAndRecords) {
    const auto records = to_records(sample_score());
    const std::string json = bench_json(records, "abc1234");
    EXPECT_NE(json.find("\"schema\": \"extradeep-eval/1\""), std::string::npos);
    EXPECT_NE(json.find("\"git_rev\": \"abc1234\""), std::string::npos);
    EXPECT_NE(json.find("\"metric\": \"smape_in_range\""), std::string::npos);
    EXPECT_NE(json.find("\"value\": 1.25"), std::string::npos);
    EXPECT_NE(json.find("\"seed\": 1"), std::string::npos);
    // Non-finite values must be rejected, not silently serialised as 'nan'.
    std::vector<MetricRecord> bad = records;
    bad.front().value = std::nan("");
    EXPECT_THROW(bench_json(bad, "abc1234"), InvalidArgumentError);
}

TEST(EvalReport, RenderTableMentionsEveryCase) {
    const std::string table = render_table({sample_score()});
    EXPECT_NE(table.find("linear"), std::string::npos);
    EXPECT_NE(table.find("yes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Thresholds: parsing

TEST(EvalGate, ParsesWellFormedThresholds) {
    const std::string doc = R"({
      "_comment": "ignored",
      "thresholds": [
        {"case": "*", "noise": 0.0, "metric": "exponent_recovery", "min": 1.0},
        {"metric": "smape_in_range", "max": 5.0}
      ]
    })";
    const auto rules = gate::parse_rules(doc);
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].scope, "*");
    EXPECT_DOUBLE_EQ(rules[0].noise, 0.0);
    ASSERT_TRUE(rules[0].min.has_value());
    EXPECT_DOUBLE_EQ(*rules[0].min, 1.0);
    EXPECT_FALSE(rules[0].max.has_value());
    // Omitted case/noise default to wildcards.
    EXPECT_EQ(rules[1].scope, "*");
    EXPECT_DOUBLE_EQ(rules[1].noise, -1.0);
    ASSERT_TRUE(rules[1].max.has_value());
    EXPECT_DOUBLE_EQ(*rules[1].max, 5.0);
}

TEST(EvalGate, RejectsMalformedThresholdDocuments) {
    // Not JSON at all.
    EXPECT_THROW(gate::parse_rules("not json"), ParseError);
    // Trailing garbage after the document.
    EXPECT_THROW(gate::parse_rules("{\"thresholds\": []} extra"), ParseError);
    // Top level must be an object with a thresholds array.
    EXPECT_THROW(gate::parse_rules("[]"), ParseError);
    EXPECT_THROW(gate::parse_rules("{\"rules\": []}"), ParseError);
    // Empty rule list would disable the gate.
    EXPECT_THROW(gate::parse_rules("{\"thresholds\": []}"), ParseError);
    // A rule without a metric is meaningless.
    EXPECT_THROW(
        gate::parse_rules("{\"thresholds\": [{\"min\": 1.0}]}"), ParseError);
    // A rule without min or max checks nothing.
    EXPECT_THROW(
        gate::parse_rules(
            "{\"thresholds\": [{\"metric\": \"pi_coverage\"}]}"),
        ParseError);
    // Type errors.
    EXPECT_THROW(
        gate::parse_rules(
            "{\"thresholds\": [{\"metric\": \"m\", \"min\": \"low\"}]}"),
        ParseError);
}

// ---------------------------------------------------------------------------
// Thresholds: gate logic

std::vector<MetricRecord> sample_records() {
    return {
        {"linear", 0.0, "exponent_recovery", 1.0, 1},
        {"linear", 0.05, "smape_in_range", 2.5, 1},
        {"quadratic", 0.05, "smape_in_range", 4.0, 1},
        {"linear", 0.05, "pi_coverage", 0.85, 1},
    };
}

TEST(EvalGate, PassesWhenAllRulesHold) {
    std::vector<gate::Rule> rules(3);
    rules[0].metric = "exponent_recovery";
    rules[0].noise = 0.0;
    rules[0].min = 1.0;
    rules[1].metric = "smape_in_range";
    rules[1].noise = 0.05;
    rules[1].max = 5.0;
    rules[2].metric = "pi_coverage";
    rules[2].min = 0.6;  // noise wildcard (-1) matches any level
    const GateResult res = check_gate(sample_records(), rules);
    EXPECT_TRUE(res.pass) << (res.violations.empty()
                                  ? ""
                                  : res.violations.front());
    EXPECT_EQ(res.rules_checked, 3u);
    EXPECT_EQ(res.records_matched, 4u);  // 1 + 2 + 1
}

TEST(EvalGate, FlagsMinAndMaxViolations) {
    std::vector<gate::Rule> rules(2);
    rules[0].metric = "smape_in_range";
    rules[0].max = 3.0;  // quadratic's 4.0 breaches this
    rules[1].metric = "pi_coverage";
    rules[1].min = 0.9;  // 0.85 breaches this
    const GateResult res = check_gate(sample_records(), rules);
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.violations.size(), 2u);
    EXPECT_NE(res.violations[0].find("quadratic"), std::string::npos);
    EXPECT_NE(res.violations[1].find("pi_coverage"), std::string::npos);
}

TEST(EvalGate, CaseAndNoiseSelectorsNarrowTheMatch) {
    std::vector<gate::Rule> rules(1);
    rules[0].metric = "smape_in_range";
    rules[0].scope = "linear";
    rules[0].noise = 0.05;
    rules[0].max = 3.0;  // quadratic's 4.0 must NOT trip this linear-only rule
    const GateResult res = check_gate(sample_records(), rules);
    EXPECT_TRUE(res.pass);
    EXPECT_EQ(res.records_matched, 1u);
}

TEST(EvalGate, UnmatchedRuleIsItselfAViolation) {
    // A renamed metric or removed case must not silently disable its gate.
    std::vector<gate::Rule> rules(1);
    rules[0].metric = "no_such_metric";
    rules[0].min = 0.0;
    const GateResult res = check_gate(sample_records(), rules);
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.violations.size(), 1u);
    EXPECT_NE(res.violations[0].find("matched no record"), std::string::npos);
}

TEST(EvalGate, ImpossibleThresholdsFixtureFailsTheGate) {
    // The fixture backing the eval_accuracy_gate_negative ctest must stay
    // unsatisfiable; if someone edits it into a passing document,
    // the negative test would silently stop proving anything.
    const auto rules = load_thresholds_file(
        std::string(EXTRADEEP_TEST_DATA_DIR) +
        "/eval_thresholds_impossible.json");
    const GateResult res = check_gate(sample_records(), rules);
    EXPECT_FALSE(res.pass);
    EXPECT_GE(res.violations.size(), 2u)
        << "expected both a breached max and an unmatched metric";
}

TEST(EvalGate, MissingThresholdsFileErrorsOut) {
    EXPECT_THROW(load_thresholds_file("/nonexistent/path/t.json"), Error);
}

// ---------------------------------------------------------------------------
// Serve load gate: thresholds over the records ledger-gate makes of the
// serve workloads (case = workload, metric = the ledger's name).
// ---------------------------------------------------------------------------

std::vector<MetricRecord> load_records() {
    std::vector<MetricRecord> records;
    for (const auto& [workload, rps] :
         {std::pair<const char*, double>{"serve_query", 1000.0},
          std::pair<const char*, double>{"serve_mixed", 2000.0}}) {
        records.push_back({workload, 0.0, "achieved_rps.high", rps, 1});
        records.push_back({workload, 0.0, "lat_p99_us.high", 5000.0, 1});
        records.push_back({workload, 0.0, "failed", 0.0, 1});
        records.push_back({workload, 0.0, "attempted", 400.0, 1});
    }
    return records;
}

GateResult check(const std::vector<MetricRecord>& records,
                 const std::string& thresholds) {
    return check_gate(records, gate::parse_rules(thresholds));
}

TEST(LoadGen, ThresholdsPassAndFailCorrectly) {
    const auto records = load_records();
    const GateResult ok = check(records, R"({"thresholds": [
        {"case": "*", "metric": "failed", "max": 0},
        {"case": "serve_query", "metric": "achieved_rps.high", "min": 500},
        {"case": "serve_mixed", "metric": "lat_p99_us.high", "max": 10000}]})");
    EXPECT_TRUE(ok.pass);
    EXPECT_EQ(ok.records_matched, 4u);  // failed x2, query rps, mixed p99
    // min violated on the serve_query record only.
    const GateResult min_violation = check(records, R"({"thresholds": [
        {"case": "serve_query", "metric": "achieved_rps.high", "min": 1500}]})");
    ASSERT_EQ(min_violation.violations.size(), 1u);
    EXPECT_NE(min_violation.violations[0].find("serve_query"),
              std::string::npos);
    EXPECT_NE(min_violation.violations[0].find("< min"), std::string::npos);
    // A wildcard rule checks every record: one of the two trips it.
    EXPECT_EQ(check(records, R"({"thresholds": [{"case": "*",
                                 "metric": "achieved_rps.high",
                                 "max": 1500}]})")
                  .violations.size(),
              1u);
}

TEST(LoadGen, StaleThresholdRuleIsAViolation) {
    const auto records = load_records();
    const GateResult stale_workload = check(records, R"({"thresholds": [
        {"case": "serve_burst", "metric": "achieved_rps.high", "min": 1}]})");
    ASSERT_EQ(stale_workload.violations.size(), 1u);
    EXPECT_NE(stale_workload.violations[0].find("matched no record"),
              std::string::npos);
    const GateResult unknown = check(
        records,
        R"({"thresholds": [{"case": "*", "metric": "nosuch", "min": 1}]})");
    ASSERT_EQ(unknown.violations.size(), 1u);
    EXPECT_NE(unknown.violations[0].find("matched no record"),
              std::string::npos);
    EXPECT_THROW(check(records, R"({"no_thresholds": []})"), ParseError);
}

}  // namespace
}  // namespace extradeep::eval
