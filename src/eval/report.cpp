#include "eval/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/gate.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace extradeep::eval {

namespace {

void add_record(std::vector<MetricRecord>& out, const CaseScore& s,
                const std::string& metric, double value) {
    MetricRecord r;
    r.case_name = s.case_name;
    r.noise = s.noise;
    r.metric = metric;
    r.value = value;
    r.seed = s.seed;
    out.push_back(std::move(r));
}

}  // namespace

std::vector<MetricRecord> to_records(const CaseScore& s) {
    std::vector<MetricRecord> out;
    add_record(out, s, "exponent_recovery", s.exact_recovery ? 1.0 : 0.0);
    add_record(out, s, "smape_in_range", s.smape_in_range);
    add_record(out, s, "extrap_error_2x", s.extrap_error[0]);
    add_record(out, s, "extrap_error_4x", s.extrap_error[1]);
    add_record(out, s, "extrap_error_8x", s.extrap_error[2]);
    add_record(out, s, "pi_coverage", s.pi_coverage);
    if (s.cost_smape >= 0.0) {
        add_record(out, s, "cost_smape", s.cost_smape);
    }
    add_record(out, s, "fit_seconds", s.fit_seconds);
    add_record(out, s, "hypotheses_searched",
               static_cast<double>(s.hypotheses_searched));
    add_record(out, s, "hypotheses_per_sec", s.hypotheses_per_sec);
    return out;
}

std::vector<MetricRecord> to_records(const std::vector<CaseScore>& scores) {
    std::vector<MetricRecord> out;
    for (const auto& s : scores) {
        const auto records = to_records(s);
        out.insert(out.end(), records.begin(), records.end());
    }
    return out;
}

std::string render_table(const std::vector<CaseScore>& scores) {
    Table table({"case", "noise", "recovered", "SMAPE in-range", "err 2x",
                 "err 4x", "err 8x", "PI cover", "cost SMAPE", "hyp/s"});
    for (const auto& s : scores) {
        table.add_row({s.case_name, fmt::fixed(s.noise, 3),
                       s.exact_recovery ? "yes" : "NO",
                       fmt::percent(s.smape_in_range),
                       fmt::percent(s.extrap_error[0]),
                       fmt::percent(s.extrap_error[1]),
                       fmt::percent(s.extrap_error[2]),
                       fmt::fixed(s.pi_coverage, 2),
                       s.cost_smape >= 0.0 ? fmt::percent(s.cost_smape) : "-",
                       fmt::fixed(s.hypotheses_per_sec, 0)});
    }
    return table.to_string();
}

std::string bench_json(const std::vector<MetricRecord>& records,
                       const std::string& git_rev, const std::string& schema,
                       const std::string& payload) {
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": " << json::quote(schema) << ",\n";
    os << "  \"git_rev\": " << json::quote(git_rev) << ",\n";
    os << payload;
    os << "  \"records\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const MetricRecord& r = records[i];
        os << "    {\"case\": " << json::quote(r.case_name)
           << ", \"noise\": " << json::number(r.noise)
           << ", \"metric\": " << json::quote(r.metric)
           << ", \"value\": " << json::number(r.value)
           << ", \"seed\": " << r.seed << "}"
           << (i + 1 < records.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

void write_report(const std::string& path, const std::string& document) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw Error("cannot write '" + path + "'");
    }
    out << document;
    out.flush();
    out.close();
    if (out.fail()) {
        throw Error("write to '" + path + "' failed");
    }
}

std::vector<gate::Rule> load_thresholds_file(const std::string& path) {
    return gate::parse_rules(cli::read_text_file(path, "thresholds"));
}

GateResult check_gate(const std::vector<MetricRecord>& records,
                      const std::vector<gate::Rule>& rules) {
    std::vector<gate::Sample> samples;
    samples.reserve(records.size());
    for (const MetricRecord& r : records) {
        samples.push_back({r.case_name, r.noise, r.metric, r.value});
    }
    const gate::Outcome outcome = gate::check_rules(samples, rules);

    GateResult result;
    result.pass = outcome.pass;
    result.rules_checked = outcome.rules_checked;
    result.records_matched = outcome.samples_matched;
    for (const gate::Violation& v : outcome.violations) {
        if (v.kind == gate::Violation::Kind::Unmatched) {
            const gate::Rule& rule = rules[v.rule];
            result.violations.push_back(
                "threshold for metric '" + rule.metric + "' (case " +
                rule.scope + ") matched no record - the gate would be "
                "silently disabled");
            continue;
        }
        const MetricRecord& r = records[v.sample];
        std::ostringstream where;
        where << r.case_name << " @ noise " << fmt::fixed(r.noise, 3) << ": "
              << r.metric << " = " << json::number(r.value);
        result.violations.push_back(
            where.str() +
            (v.kind == gate::Violation::Kind::BelowMin ? " < min " : " > max ") +
            json::number(v.bound));
    }
    return result;
}

int run_thresholds(const std::vector<MetricRecord>& records,
                   const std::string& path, const std::string& gate_name) {
    return run_thresholds(records, load_thresholds_file(path), gate_name);
}

int run_thresholds(const std::vector<MetricRecord>& records,
                   const std::vector<gate::Rule>& rules,
                   const std::string& gate_name) {
    const GateResult gate = check_gate(records, rules);
    std::printf("gate: %zu rules, %zu records matched\n", gate.rules_checked,
                gate.records_matched);
    if (gate.pass) {
        std::printf("%s gate passed\n", gate_name.c_str());
        return 0;
    }
    std::fflush(stdout);
    for (const std::string& v : gate.violations) {
        std::fprintf(stderr, "GATE VIOLATION: %s\n", v.c_str());
    }
    std::fprintf(stderr, "%s gate FAILED (%zu violations)\n",
                 gate_name.c_str(), gate.violations.size());
    return 1;
}

}  // namespace extradeep::eval
