// extradeep-eval: the ground-truth accuracy harness.
//
// Draws known PMNF functions (the synthetic oracle), materialises them into
// full profiled experiments with controlled multiplicative noise, round-trips
// them through the on-disk EDP format, and scores the complete pipeline -
// ingest -> validate -> aggregate -> ModelGenerator -> analysis - against the
// known ground truth. Emits a human table plus the machine-readable
// BENCH_eval.json records, and optionally enforces eval_thresholds.json
// (the `eval_accuracy_gate` ctest).
//
// Usage:
//   extradeep-eval                         # full suite
//   extradeep-eval --quick                 # gate subset (fast)
//   extradeep-eval --case linear --case log
//   extradeep-eval --noise 0,0.05 --seed 7
//   extradeep-eval --out BENCH_eval.json
//   extradeep-eval --thresholds eval_thresholds.json   # exit 1 on violation
//   extradeep-eval --list

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "eval/oracle.hpp"
#include "eval/report.hpp"
#include "eval/scorer.hpp"
#include "profiling/edp_io.hpp"

using namespace extradeep;

namespace {

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--quick] [--case NAME]... [--noise S1,S2,...] [--seed N]\n"
        "          [--out FILE] [--thresholds FILE]\n"
        "          [--keep-files] [--list] [--trace SPEC]\n"
        "          [--validate-json FILE] [--validate-edp FILE]\n",
        argv0);
}

/// CI helper: parse FILE with the common JSON parser; exit 0 iff it is one
/// well-formed document. Lets scripts validate Chrome trace exports without
/// relying on an external JSON tool.
int validate_json_file(const std::string& path) {
    const json::Value doc =
        json::parse(cli::read_text_file(path, "--validate-json"), path);
    const char* kind = doc.kind == json::Value::Kind::Object   ? "object"
                       : doc.kind == json::Value::Kind::Array  ? "array"
                       : doc.kind == json::Value::Kind::String ? "string"
                                                               : "scalar";
    std::printf("%s: valid JSON (top-level %s)\n", path.c_str(), kind);
    return 0;
}

/// CI helper: parse FILE as an EDP profile with the throwing reader (the
/// self-profiling round-trip check). Exit 0 iff it reads back with no
/// diagnostic.
int validate_edp_file(const std::string& path) {
    const profiling::ProfiledRun run = profiling::read_edp_file(path);
    std::size_t events = 0;
    for (const auto& rank : run.ranks) {
        events += rank.events.size();
    }
    std::string params;
    for (const auto& [name, value] : run.params) {
        params += (params.empty() ? "" : " ") + name + "=" +
                  std::to_string(value);
    }
    std::printf("%s: valid EDP (%zu rank(s), %zu event(s), params: %s)\n",
                path.c_str(), run.ranks.size(), events, params.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool list = false;
    std::vector<std::string> only_cases;
    std::vector<double> noise_levels;
    std::string out_path;
    std::string thresholds_path;
    std::optional<std::string> trace;
    std::string validate_json_path;
    std::string validate_edp_path;
    eval::ScoreOptions options;
    std::vector<eval::OracleCase> cases;

    try {
        cli::Args args(argc, argv);
        std::string arg;
        while (args.next(arg)) {
            if (arg == "--quick") {
                quick = true;
            } else if (arg == "--list") {
                list = true;
            } else if (arg == "--keep-files") {
                options.keep_files = true;
            } else if (arg == "--case") {
                only_cases.push_back(args.value(arg));
            } else if (arg == "--noise") {
                noise_levels = cli::parse_noise_list(args.value(arg));
            } else if (arg == "--seed") {
                options.seed = args.u64_value(arg);
            } else if (arg == "--out") {
                out_path = args.value(arg);
            } else if (arg == "--thresholds") {
                thresholds_path = args.value(arg);
            } else if (arg == "--trace") {
                trace = args.value(arg);
            } else if (arg == "--validate-json") {
                validate_json_path = args.value(arg);
            } else if (arg == "--validate-edp") {
                validate_edp_path = args.value(arg);
            } else if (arg == "-h" || arg == "--help") {
                usage(argv[0]);
                return 0;
            } else {
                std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
                usage(argv[0]);
                return 2;
            }
        }
        cases = !only_cases.empty() ? eval::select_oracle_cases(only_cases)
                : quick             ? eval::quick_oracle_cases()
                                    : eval::default_oracle_cases();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    try {
        if (!validate_json_path.empty()) {
            return validate_json_file(validate_json_path);
        }
        if (!validate_edp_path.empty()) {
            return validate_edp_file(validate_edp_path);
        }

        const auto session = cli::open_obs_session(trace, std::nullopt);
        if (list) {
            for (const auto& c : cases) {
                std::printf("%-18s %zu params, %zu points: %s\n",
                            c.name.c_str(), c.num_params(), c.points.size(),
                            c.truth.to_string().c_str());
            }
            return 0;
        }
        if (noise_levels.empty()) {
            noise_levels = quick ? std::vector<double>{0.0, 0.05}
                                 : std::vector<double>{0.0, 0.02, 0.05, 0.10};
        }

        const std::vector<eval::CaseScore> scores =
            eval::score_suite(cases, noise_levels, options);
        std::printf("%s\n", eval::render_table(scores).c_str());
        for (const auto& s : scores) {
            if (!s.exact_recovery) {
                std::printf("note: %s @ noise %.3f fitted [%s], truth [%s]\n",
                            s.case_name.c_str(), s.noise, s.fitted_str.c_str(),
                            s.truth_str.c_str());
            }
        }

        const std::vector<eval::MetricRecord> records = eval::to_records(scores);
        if (!out_path.empty()) {
            eval::write_report(out_path,
                               eval::bench_json(records, cli::git_revision()));
            std::printf("wrote %zu records to %s\n", records.size(),
                        out_path.c_str());
        }
        if (!thresholds_path.empty()) {
            return eval::run_thresholds(records, thresholds_path, "accuracy");
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
