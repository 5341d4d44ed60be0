// extradeep-advisor: the what-if ground-truth verification harness.
//
// Fits the per-case models, evaluates the default what-if portfolio at an
// interpolation and an extrapolation point, re-simulates every scenario
// against the mutated simulator (the oracle), and scores the advisor's
// predicted savings, ranking concordance, and interval coverage. Emits a
// human table plus the machine-readable BENCH_whatif.json records, and
// optionally enforces whatif_thresholds.json (the `whatif_accuracy_gate`
// ctest).
//
// Usage:
//   extradeep-advisor                        # full suite (3 cases)
//   extradeep-advisor --quick                # gate subset (1 case)
//   extradeep-advisor --seed 7 --reps 5
//   extradeep-advisor --out BENCH_whatif.json
//   extradeep-advisor --thresholds whatif_thresholds.json  # exit 1 on violation

#include <cstdio>
#include <string>

#include "advisor/verify.hpp"
#include "common/cli.hpp"

using namespace extradeep;

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--quick] [--seed N] [--reps N]\n"
                 "          [--out FILE] [--thresholds FILE]\n",
                 argv0);
}

}  // namespace

int main(int argc, char** argv) {
    advisor::VerifyOptions options;
    std::string out_path;
    std::string thresholds_path;

    try {
        cli::Args args(argc, argv);
        std::string arg;
        while (args.next(arg)) {
            if (arg == "--quick") {
                options.quick = true;
            } else if (arg == "--seed") {
                options.seed = args.u64_value(arg);
            } else if (arg == "--reps") {
                options.repetitions = args.int_value(arg);
            } else if (arg == "--out") {
                out_path = args.value(arg);
            } else if (arg == "--thresholds") {
                thresholds_path = args.value(arg);
            } else if (arg == "-h" || arg == "--help") {
                usage(argv[0]);
                return 0;
            } else {
                std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
                usage(argv[0]);
                return 2;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    try {
        const advisor::VerifyOutcome outcome = advisor::run_verify(options);
        std::printf("%s", outcome.table.c_str());

        if (!out_path.empty()) {
            eval::write_report(out_path,
                               eval::bench_json(outcome.records,
                                                cli::git_revision(),
                                                "extradeep-whatif/1"));
            std::printf("wrote %zu records to %s\n", outcome.records.size(),
                        out_path.c_str());
        }
        if (!thresholds_path.empty()) {
            return eval::run_thresholds(outcome.records, thresholds_path,
                                        "what-if accuracy");
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
