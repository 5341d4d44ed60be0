#include "planner/report.hpp"

#include <algorithm>
#include <sstream>

#include "common/format.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "obs/trace.hpp"

namespace extradeep::planner {

PlanCaseReport plan_case(const eval::OracleCase& oracle, double noise,
                         std::uint64_t seed, const PlanOptions& options) {
    const obs::Span span{"plan.case"};
    eval::MaterializeOptions mat;
    mat.noise = noise;
    mat.seed = seed;
    eval::OracleMeasurementSource source(oracle, mat);

    PlanCaseReport report;
    report.case_name = oracle.name;
    report.noise = noise;
    report.seed = seed;
    report.truth_str = oracle.truth.to_string();
    report.plan = run_plan(source, options);
    report.fitted_str = report.plan.model.to_string();
    report.accuracy = eval::score_model(oracle, report.plan.model);
    return report;
}

std::vector<PlanCaseReport> plan_suite(
    const std::vector<eval::OracleCase>& cases,
    const std::vector<double>& noise_levels, std::uint64_t seed,
    const PlanOptions& options) {
    std::vector<PlanCaseReport> reports;
    reports.reserve(cases.size() * noise_levels.size());
    for (const auto& oracle : cases) {
        for (const double noise : noise_levels) {
            reports.push_back(plan_case(oracle, noise, seed, options));
        }
    }
    return reports;
}

namespace {

void add_record(std::vector<eval::MetricRecord>& out,
                const std::string& case_name, double noise,
                std::uint64_t seed, const std::string& metric, double value) {
    eval::MetricRecord r;
    r.case_name = case_name;
    r.noise = noise;
    r.metric = metric;
    r.value = value;
    r.seed = seed;
    out.push_back(std::move(r));
}

}  // namespace

std::vector<eval::MetricRecord> to_records(
    const std::vector<PlanCaseReport>& reports) {
    std::vector<eval::MetricRecord> out;
    double total_runs = 0.0;
    double total_baseline = 0.0;
    double reduction_sum = 0.0;
    double reduction_min = 100.0;
    for (const PlanCaseReport& r : reports) {
        add_record(out, r.case_name, r.noise, r.seed, "runs_used",
                   r.plan.runs_used);
        add_record(out, r.case_name, r.noise, r.seed, "baseline_runs",
                   r.plan.baseline_runs);
        add_record(out, r.case_name, r.noise, r.seed, "cost_reduction_pct",
                   r.plan.cost_reduction_pct);
        add_record(out, r.case_name, r.noise, r.seed, "rounds",
                   static_cast<double>(r.plan.rounds.size()));
        add_record(out, r.case_name, r.noise, r.seed, "exponent_recovery",
                   r.accuracy.exact_recovery ? 1.0 : 0.0);
        add_record(out, r.case_name, r.noise, r.seed, "smape_in_range",
                   r.accuracy.smape_in_range);
        add_record(out, r.case_name, r.noise, r.seed, "extrap_error_2x",
                   r.accuracy.extrap_error[0]);
        add_record(out, r.case_name, r.noise, r.seed, "extrap_error_4x",
                   r.accuracy.extrap_error[1]);
        add_record(out, r.case_name, r.noise, r.seed, "extrap_error_8x",
                   r.accuracy.extrap_error[2]);
        total_runs += r.plan.runs_used;
        total_baseline += r.plan.baseline_runs;
        reduction_sum += r.plan.cost_reduction_pct;
        reduction_min = std::min(reduction_min, r.plan.cost_reduction_pct);
    }
    if (!reports.empty()) {
        const std::uint64_t seed = reports.front().seed;
        const double n = static_cast<double>(reports.size());
        add_record(out, "suite", 0.0, seed, "mean_cost_reduction_pct",
                   reduction_sum / n);
        add_record(out, "suite", 0.0, seed, "min_cost_reduction_pct",
                   reduction_min);
        add_record(out, "suite", 0.0, seed, "total_runs_used", total_runs);
        add_record(out, "suite", 0.0, seed, "total_baseline_runs",
                   total_baseline);
        add_record(out, "suite", 0.0, seed, "paper_sampling_reduction_pct",
                   kPaperSamplingReductionPct);
    }
    return out;
}

std::string render_table(const std::vector<PlanCaseReport>& reports) {
    Table table({"case", "noise", "runs", "grid", "saved", "recovered",
                 "SMAPE in-range", "err 8x", "stop", "rounds"});
    double reduction_sum = 0.0;
    for (const PlanCaseReport& r : reports) {
        table.add_row({r.case_name, fmt::fixed(r.noise, 3),
                       fmt::fixed(r.plan.runs_used, 0),
                       fmt::fixed(r.plan.baseline_runs, 0),
                       fmt::fixed(r.plan.cost_reduction_pct, 1) + "%",
                       r.accuracy.exact_recovery ? "yes" : "NO",
                       fmt::percent(r.accuracy.smape_in_range),
                       fmt::percent(r.accuracy.extrap_error[2]),
                       r.plan.stop_reason,
                       std::to_string(r.plan.rounds.size())});
        reduction_sum += r.plan.cost_reduction_pct;
    }
    std::ostringstream os;
    os << table.to_string();
    if (!reports.empty()) {
        os << "\nmean profiling-cost reduction: "
           << fmt::fixed(reduction_sum /
                             static_cast<double>(reports.size()), 1)
           << "% of fixed-grid runs saved (paper's within-run step-sampling "
              "reduction: "
           << fmt::fixed(kPaperSamplingReductionPct, 1) << "%)\n";
    }
    return os.str();
}

std::string plan_json(const std::vector<PlanCaseReport>& reports,
                      const std::string& git_rev) {
    std::ostringstream os;
    os << "  \"paper_sampling_reduction_pct\": "
       << json::number(kPaperSamplingReductionPct) << ",\n";
    os << "  \"plans\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const PlanCaseReport& r = reports[i];
        os << "    {\"case\": " << json::quote(r.case_name)
           << ", \"noise\": " << json::number(r.noise)
           << ", \"seed\": " << r.seed
           << ", \"stop\": " << json::quote(r.plan.stop_reason)
           << ", \"runs_used\": " << json::number(r.plan.runs_used)
           << ", \"baseline_runs\": " << json::number(r.plan.baseline_runs)
           << ", \"cost_reduction_pct\": "
           << json::number(r.plan.cost_reduction_pct)
           << ", \"recovered\": "
           << (r.accuracy.exact_recovery ? "true" : "false")
           << ", \"truth\": " << json::quote(r.truth_str)
           << ", \"fitted\": " << json::quote(r.fitted_str) << ",\n";
        os << "     \"arms\": [";
        for (std::size_t a = 0; a < r.plan.arms.size(); ++a) {
            const ArmState& arm = r.plan.arms[a];
            os << (a == 0 ? "" : ", ") << "{\"point\": [";
            for (std::size_t d = 0; d < arm.point.size(); ++d) {
                os << (d == 0 ? "" : ", ") << json::number(arm.point[d]);
            }
            os << "], \"pulls\": " << arm.pulls
               << ", \"mean\": " << json::number(arm.mean)
               << ", \"rel_width\": " << json::number(arm.last_rel_width)
               << ", \"eliminated_round\": " << arm.eliminated_round
               << ", \"reason\": " << json::quote(arm.eliminated_reason)
               << "}";
        }
        os << "],\n";
        os << "     \"rounds\": [";
        for (std::size_t k = 0; k < r.plan.rounds.size(); ++k) {
            const PlanRound& round = r.plan.rounds[k];
            os << (k == 0 ? "" : ", ") << "{\"round\": " << round.round
               << ", \"arm\": " << round.arm_pulled
               << ", \"pulls\": " << round.pulls_this_round
               << ", \"budget_spent\": " << json::number(round.budget_spent)
               << ", \"max_rel_width\": " << json::number(round.max_rel_width)
               << ", \"growth\": " << json::quote(round.growth)
               << ", \"growth_changed\": "
               << (round.growth_changed ? "true" : "false")
               << ", \"eliminated\": " << round.eliminated_total << "}";
        }
        os << "]}" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    return eval::bench_json(to_records(reports), git_rev, "extradeep-plan/1",
                            os.str());
}

}  // namespace extradeep::planner
