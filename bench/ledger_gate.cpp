// ledger-gate: the performance gate. Checks a thresholds file against the
// pipeline benchmark (bench/ledger) through the gate runner every other
// tool uses.
//
// For every workload that a rule names as its case, it runs extradeep-ledger
// twice at seed 1: untraced (--trace 0, the end-to-end metrics) and traced
// (--trace 1, the per-layer metrics). Each run's --out report becomes
// standard records, case = workload and metric = the ledger's name: every
// end-to-end, per-layer and detail metric, plus the run's `attempted` and
// `failed` counts. The records are checked with eval::run_thresholds.
// --out writes them as a BENCH file (schema extradeep-ledger-gate/1) whose
// "runs" payload keeps each run's environment: core count, run length,
// phase durations.
//
// Usage:
//   ledger-gate <extradeep-ledger> <thresholds.json> <work-dir> [--out FILE]
//               [--workload W] [ledger args...]
// The ledger's own --workload narrows the gate to one workload: only W is
// run, and only the rules whose case is W or '*' are checked (the perf_gate
// and serve_bench_gate ctests are the model_build and serve_query halves of
// ledger_thresholds.json). W must be named by a rule. Every other argument
// is passed to each ledger run unchanged (--smoke for the ctests; none for
// a full-length snapshot). A run that exits non-zero or
// leaves no parseable report is an error (exit 2): never a pass, and never
// a gate violation.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "eval/report.hpp"

using namespace extradeep;

namespace {

std::string shell_quote(const std::string& s) {
    std::string out = "'";
    for (const char c : s) {
        out += c == '\'' ? std::string("'\\''") : std::string(1, c);
    }
    return out + "'";
}

/// Renders a parsed value back to compact JSON (the run environments go
/// into the --out payload verbatim).
std::string to_json(const json::Value& v) {
    switch (v.kind) {
        case json::Value::Kind::Null:
            return "null";
        case json::Value::Kind::Bool:
            return v.boolean ? "true" : "false";
        case json::Value::Kind::Number:
            return json::number(v.number);
        case json::Value::Kind::String:
            return json::quote(v.string);
        case json::Value::Kind::Array: {
            std::string out = "[";
            for (std::size_t i = 0; i < v.array.size(); ++i) {
                out += (i == 0 ? "" : ", ") + to_json(v.array[i]);
            }
            return out + "]";
        }
        case json::Value::Kind::Object: {
            std::string out = "{";
            for (std::size_t i = 0; i < v.object.size(); ++i) {
                out += (i == 0 ? "" : ", ") + json::quote(v.object[i].first) +
                       ": " + to_json(v.object[i].second);
            }
            return out + "}";
        }
    }
    return "null";
}

void add_record(std::vector<eval::MetricRecord>& records,
                const std::string& workload, const std::string& metric,
                double value) {
    eval::MetricRecord r;
    r.case_name = workload;
    r.metric = metric;
    r.value = value;
    records.push_back(std::move(r));
}

/// The report member `key` of the given kind; a run that left anything
/// else is an error.
const json::Value& member(const json::Value& report, const char* key,
                          json::Value::Kind kind) {
    const json::Value* v = report.find(key);
    if (v == nullptr || v->kind != kind) {
        throw ParseError(std::string("ledger report lacks ") + key);
    }
    return *v;
}

/// One record per metric of a report section. A metric the run could not
/// compute (null) yields no record, so a rule on it fails as unmatched.
void add_section(std::vector<eval::MetricRecord>& records,
                 const std::string& workload, const json::Value& report,
                 const char* section) {
    for (const auto& [name, metric] :
         member(report, section, json::Value::Kind::Object).object) {
        const json::Value* value = metric.find("value");
        if (value != nullptr && value->kind == json::Value::Kind::Number) {
            add_record(records, workload, name, value->number);
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: ledger-gate <extradeep-ledger> <thresholds.json> "
                     "<work-dir> [--out FILE] [ledger args...]\n");
        return 2;
    }
    const std::string ledger = argv[1];
    const std::string thresholds_path = argv[2];
    const std::string work_dir = argv[3];
    std::string out_path;
    std::string only_workload;
    std::string pass_through;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--workload" && i + 1 < argc) {
            only_workload = argv[++i];
        } else {
            pass_through += " " + shell_quote(arg);
        }
    }
    try {
        std::set<std::string> workloads;
        std::vector<gate::Rule> rules;
        for (const gate::Rule& rule :
             eval::load_thresholds_file(thresholds_path)) {
            if (!only_workload.empty() && rule.scope != "*" &&
                rule.scope != only_workload) {
                continue;
            }
            if (rule.scope != "*") {
                workloads.insert(rule.scope);
            }
            rules.push_back(rule);
        }
        if (!only_workload.empty() && workloads.empty()) {
            throw Error("no rule of " + thresholds_path + " names workload " +
                        only_workload);
        }

        std::vector<eval::MetricRecord> records;
        std::string runs;
        for (const std::string& workload : workloads) {
            for (const char* trace : {"0", "1"}) {
                const std::string label =
                    workload + " (trace " + trace + ")";
                const std::string report_path =
                    work_dir + "/" + workload + "-trace" + trace + ".json";
                const std::string command =
                    shell_quote(ledger) + " --workload " +
                    shell_quote(workload) + " --seed 1 --trace " + trace +
                    " --work-dir " + shell_quote(work_dir) + " --out " +
                    shell_quote(report_path) + pass_through;
                std::printf("== %s\n", label.c_str());
                std::fflush(stdout);
                const int status = std::system(command.c_str());
                if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                    throw Error(label + ": extradeep-ledger " +
                                (WIFEXITED(status)
                                     ? "exited with status " +
                                           std::to_string(WEXITSTATUS(status))
                                     : std::string("did not exit")));
                }
                const json::Value report = json::parse(
                    cli::read_text_file(report_path, "ledger report"),
                    label + " report");
                for (const char* count : {"attempted", "failed"}) {
                    add_record(records, workload, count,
                               member(report, count, json::Value::Kind::Number)
                                   .number);
                }
                for (const char* section :
                     {"end_to_end", "per_layer", "detail"}) {
                    add_section(records, workload, report, section);
                }
                runs += std::string(runs.empty() ? "" : ",\n") + "    " +
                        to_json(member(report, "env",
                                       json::Value::Kind::Object));
            }
        }

        if (!out_path.empty()) {
            eval::write_report(
                out_path,
                eval::bench_json(records, cli::git_revision(),
                                 "extradeep-ledger-gate/1",
                                 "  \"runs\": [\n" + runs + "\n  ],\n"));
            std::printf("wrote %s (%zu records)\n", out_path.c_str(),
                        records.size());
        }
        return eval::run_thresholds(records, rules, "ledger");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ledger-gate: %s\n", e.what());
        return 2;
    }
}
