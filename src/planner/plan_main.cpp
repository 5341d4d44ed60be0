// extradeep-plan: the adaptive profiling planner.
//
// Treats the oracle suite's candidate configurations as arms and races
// them: seed every arm with one profiled run, fit, then keep profiling the
// configuration whose prediction is least certain until every arm settles
// below the confidence target or the budget runs out. Emits a human table,
// the machine-readable BENCH_plan.json (schema extradeep-plan/1), and
// optionally enforces plan_thresholds.json (the `plan_accuracy_gate`
// ctest): the planner must reach the eval-harness recovery/extrapolation
// thresholds with materially fewer profiled runs than the fixed 5-point
// grid.
//
// Usage:
//   extradeep-plan                        # full suite
//   extradeep-plan --quick                # gate subset
//   extradeep-plan --smoke                # ASan-reduced subset
//   extradeep-plan --case linear --noise 0,0.05 --seed 7
//   extradeep-plan --out BENCH_plan.json
//   extradeep-plan --thresholds plan_thresholds.json   # exit 1 on violation
//   extradeep-plan --list

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "eval/oracle.hpp"
#include "planner/report.hpp"

using namespace extradeep;

namespace {

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--quick] [--smoke] [--case NAME]... [--noise S1,S2,...]\n"
        "          [--seed N] [--budget N] [--max-pulls N]\n"
        "          [--target-rel-width W] [--out FILE] [--thresholds FILE]\n"
        "          [--list] [--trace SPEC]\n",
        argv0);
}

/// The ASan-reduced smoke subset: two representative single-parameter
/// shapes (exact polynomial, polylogarithmic). Thresholds are written
/// against wildcard-case rules so the same plan_thresholds.json gates
/// every subset.
std::vector<eval::OracleCase> smoke_cases() {
    return eval::select_oracle_cases({"linear", "xlogx"});
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool smoke = false;
    bool list = false;
    std::vector<std::string> only_cases;
    std::vector<double> noise_levels;
    std::string out_path;
    std::string thresholds_path;
    std::optional<std::string> trace;
    std::uint64_t seed = 1;
    planner::PlanOptions options;
    std::vector<eval::OracleCase> cases;

    try {
        cli::Args args(argc, argv);
        std::string arg;
        while (args.next(arg)) {
            if (arg == "--quick") {
                quick = true;
            } else if (arg == "--smoke") {
                smoke = true;
            } else if (arg == "--list") {
                list = true;
            } else if (arg == "--case") {
                only_cases.push_back(args.value(arg));
            } else if (arg == "--noise") {
                noise_levels = cli::parse_noise_list(args.value(arg));
            } else if (arg == "--seed") {
                seed = args.u64_value(arg);
            } else if (arg == "--budget") {
                options.budget = args.int_value(arg);
            } else if (arg == "--max-pulls") {
                options.max_pulls_per_arm = args.int_value(arg);
            } else if (arg == "--target-rel-width") {
                options.target_rel_width = args.double_value(arg);
            } else if (arg == "--out") {
                out_path = args.value(arg);
            } else if (arg == "--thresholds") {
                thresholds_path = args.value(arg);
            } else if (arg == "--trace") {
                trace = args.value(arg);
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
                : smoke             ? smoke_cases()
                : quick             ? eval::quick_oracle_cases()
                                    : eval::default_oracle_cases();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    try {
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
            noise_levels = (quick || smoke)
                               ? std::vector<double>{0.0, 0.05}
                               : std::vector<double>{0.0, 0.02, 0.05, 0.10};
        }

        const std::vector<planner::PlanCaseReport> reports =
            planner::plan_suite(cases, noise_levels, seed, options);
        std::printf("%s\n", planner::render_table(reports).c_str());
        for (const auto& r : reports) {
            if (!r.accuracy.exact_recovery) {
                std::printf("note: %s @ noise %.3f fitted [%s], truth [%s]\n",
                            r.case_name.c_str(), r.noise,
                            r.fitted_str.c_str(), r.truth_str.c_str());
            }
        }

        const std::vector<eval::MetricRecord> records =
            planner::to_records(reports);
        if (!out_path.empty()) {
            eval::write_report(
                out_path, planner::plan_json(reports, cli::git_revision()));
            std::printf("wrote %zu plans (%zu records) to %s\n",
                        reports.size(), records.size(), out_path.c_str());
        }
        if (!thresholds_path.empty()) {
            return eval::run_thresholds(records, thresholds_path, "plan");
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
