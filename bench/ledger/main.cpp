// extradeep-ledger: runs one workload of the pipeline benchmark, prints
// every metric by name with its unit, and ends stdout with one JSON line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// End-to-end metrics come from an untraced run (--trace 0); --trace 1 runs
// the span tracer and reports the per-layer metrics instead. The exit
// status is non-zero if any output check failed.
//
// Usage:
//   extradeep-ledger --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//                    [--trace-dir DIR] [--smoke] [--out FILE]
//                    [--work-dir DIR]
// Workloads: model_build, serve_query, serve_mixed, fleet_ingest.

#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "ledger.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ledger;

void usage() {
    std::fprintf(stderr,
                 "usage: extradeep-ledger --workload "
                 "model_build|serve_query|serve_mixed|fleet_ingest\n"
                 "         [--seed S] [--seconds N] [--trace 0|1] "
                 "[--trace-dir DIR]\n"
                 "         [--smoke] [--out FILE] [--work-dir DIR]\n");
}

Options parse_args(int argc, char** argv) {
    Options options;
    options.work_dir = "build/ledger-work";
    bool seconds_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw ed::InvalidArgumentError(arg + " requires a value");
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value());
            seconds_given = true;
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") {
                throw ed::InvalidArgumentError("--trace takes 0 or 1");
            }
            options.trace = v == "1";
        } else if (arg == "--trace-dir") {
            options.trace_dir = value();
            options.trace = true;
        } else if (arg == "--smoke") {
            options.smoke = true;
        } else if (arg == "--out") {
            options.out = value();
        } else if (arg == "--work-dir") {
            options.work_dir = value();
        } else {
            throw ed::InvalidArgumentError("unknown option " + arg);
        }
    }
    if (options.workload != "model_build" &&
        options.workload != "serve_query" &&
        options.workload != "serve_mixed" &&
        options.workload != "fleet_ingest") {
        throw ed::InvalidArgumentError("unknown workload '" +
                                       options.workload + "'");
    }
    if (options.smoke && !seconds_given) {
        options.seconds = 1.0;
    }
    if (!(options.seconds > 0.0)) {
        throw ed::InvalidArgumentError("--seconds must be positive");
    }
    return options;
}

std::string git_revision() {
    // Only inside the source tree's own checkout: an exported tree has no
    // history, and git must not go looking in the directories above it.
    const std::string root = LEDGER_SOURCE_ROOT;
    std::string rev = "unknown";
    if (!fs::exists(root + "/.git")) {
        return rev;
    }
    const std::string cmd =
        "git -C '" + root + "' rev-parse --short HEAD 2>/dev/null";
    if (FILE* p = popen(cmd.c_str(), "r")) {
        char buf[64] = {};
        if (std::fgets(buf, sizeof(buf), p) != nullptr) {
            std::string s(buf);
            while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
                s.pop_back();
            }
            if (!s.empty()) {
                rev = s;
            }
        }
        pclose(p);
    }
    return rev;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = metrics[i].value;
        out += (i == 0 ? "" : ", ") + ed::json::quote(metrics[i].name) +
               ": {\"value\": " +
               (std::isfinite(v) ? ed::fmt::shortest(v) : "null") +
               ", \"unit\": " + ed::json::quote(metrics[i].unit) + "}";
    }
    return out + "}";
}

std::string pairs_json(const std::vector<std::pair<std::string, double>>& kv) {
    std::string out = "{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
        out += (i == 0 ? "" : ", ") + ed::json::quote(kv[i].first) + ": " +
               ed::fmt::shortest(kv[i].second);
    }
    return out + "}";
}

std::string env_json(const Options& options, const Report& report) {
    std::ostringstream os;
    os << "{\"workload\": " << ed::json::quote(options.workload)
       << ", \"seed\": " << options.seed
       << ", \"seconds\": " << ed::fmt::shortest(options.seconds)
       << ", \"trace\": " << (options.trace ? "true" : "false")
       << ", \"smoke\": " << (options.smoke ? "true" : "false")
       << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": " << ed::json::quote(LEDGER_BUILD_TYPE)
       << ", \"git_revision\": " << ed::json::quote(git_revision())
       << ", \"phases_s\": " << pairs_json(report.phases)
       << ", \"settings\": " << pairs_json(report.settings) << "}";
    return os.str();
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
    if (metrics.empty()) {
        return;
    }
    std::printf("%s\n", title);
    for (const Metric& m : metrics) {
        std::printf("  %-34s %16s %s\n", m.name.c_str(),
                    ed::fmt::shortest(m.value).c_str(), m.unit.c_str());
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
    std::string path;
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

}  // namespace

int main(int argc, char** argv) {
    Options options;
    try {
        options = parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        usage();
        return 2;
    }
    // Open-loop pacing sleeps until the next due time; the default 50 us
    // timer slack would add that much lateness to every request.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

    ScratchDir scratch{options.work_dir + "/" + options.workload + "-" +
                       std::to_string(::getpid())};
    Report report;
    const std::uint64_t start = now_ns();
    try {
        fs::create_directories(scratch.path);
        options.work_dir = scratch.path;
        if (options.trace) {
            ed::obs::global_tracer().clear();
            ed::obs::set_trace_enabled(true);
        }
        if (options.workload == "model_build") {
            run_model_build(options, report);
        } else if (options.workload == "fleet_ingest") {
            run_fleet_ingest(options, report);
        } else {
            run_serve(options, options.workload == "serve_mixed", report);
        }
        ed::obs::set_trace_enabled(false);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "extradeep-ledger: %s\n", e.what());
        return 2;
    }
    report.phases.emplace_back("total_s", seconds_since(start));

    const std::vector<Metric>& gated =
        options.trace ? report.per_layer : report.end_to_end;
    for (const Metric& m : gated) {
        report.check(std::isfinite(m.value), "metric is not finite: " + m.name);
    }
    const bool correct = report.failed == 0;

    print_table(options.trace ? "per-layer metrics" : "end-to-end metrics",
                gated);
    print_table("detail (not gated)", report.detail);
    for (const std::string& f : report.failures) {
        std::printf("FAILED: %s\n", f.c_str());
    }
    const std::string env = env_json(options, report);
    std::printf("{\"env\": %s}\n", env.c_str());
    if (!options.out.empty()) {
        std::string failures = "[";
        for (std::size_t i = 0; i < report.failures.size(); ++i) {
            failures += (i == 0 ? "" : ", ") +
                        ed::json::quote(report.failures[i]);
        }
        std::ofstream out(options.out);
        out << "{\"schema\": \"extradeep-ledger/1\", \"env\": " << env
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"failures\": " << failures << "]"
            << ", \"end_to_end\": " << metrics_json(report.end_to_end)
            << ", \"per_layer\": " << metrics_json(report.per_layer)
            << ", \"detail\": " << metrics_json(report.detail) << "}\n";
        if (!out) {
            std::fprintf(stderr, "extradeep-ledger: cannot write %s\n",
                         options.out.c_str());
            return 2;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                metrics_json(gated).c_str());
    return correct ? 0 : 1;
}
