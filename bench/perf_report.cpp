// extradeep-perf: the performance harness behind BENCH_perf.json and the
// `perf_gate` ctest, mirroring extradeep-eval's record/threshold machinery.
//
// Three sections:
//   ingest    - writes a synthetic multi-configuration EDP corpus to disk,
//               then times ingest_edp_files (MB/s) and records the peak-RSS
//               growth of that pass (getrusage ru_maxrss delta), which must
//               stay bounded by the largest rank block, not the corpus size
//               (on --threads threads, default 4).
//   fitter    - hypothesis-search throughput (hypotheses/sec) of one serial
//               fit over the two-term PMNF space.
//   gate      - optional perf_thresholds.json enforcement (exit 1 on
//               violation), with deliberately loose machine-independent
//               bounds: the gate catches order-of-magnitude cliffs (a
//               quadratic ingest path, a slow hypothesis search), not
//               jitter.
//
// Usage:
//   extradeep-perf                      # full corpus (~128 MB)
//   extradeep-perf --quick              # gate subset (~24 MB corpus)
//   extradeep-perf --out BENCH_perf.json
//   extradeep-perf --thresholds perf_thresholds.json
//   extradeep-perf --corpus-mb 64 --keep-files

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "eval/report.hpp"
#include "extradeep/ingest.hpp"
#include "modeling/fitter.hpp"
#include "profiling/edp_io.hpp"
#include "profiling/profiler.hpp"
#include "sim/simulator.hpp"

using namespace extradeep;

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--quick] [--corpus-mb N] [--threads N]\n"
                 "          [--out FILE] [--thresholds FILE] [--keep-files]\n",
                 argv0);
}

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Peak resident set size of this process so far, in MB. Monotonic, so the
/// ingest RSS budget is measured as a delta across that pass, which runs
/// first.
double peak_rss_mb() {
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void add_record(std::vector<eval::MetricRecord>& out, const std::string& name,
                const std::string& metric, double value) {
    eval::MetricRecord r;
    r.case_name = name;
    r.metric = metric;
    r.value = value;
    out.push_back(std::move(r));
}

struct Corpus {
    std::string dir;
    std::vector<std::string> paths;
    double total_mb = 0.0;
};

/// Writes a balanced multi-configuration EDP corpus (x1 in {2,4,8,16}, equal
/// repetitions per configuration) of at least `target_mb`, bulking each run
/// up with long profiled epochs so a handful of repetitions reaches hundreds
/// of megabytes.
Corpus write_corpus(double target_mb) {
    Corpus corpus;
    char tmpl[] = "/tmp/extradeep-perf-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
        throw Error("extradeep-perf: mkdtemp failed");
    }
    corpus.dir = tmpl;

    profiling::SamplingStrategy strategy;
    strategy.epochs = 2;
    strategy.train_steps_per_epoch = 60;
    strategy.val_steps_per_epoch = 20;
    const profiling::Profiler profiler(strategy);

    const std::vector<int> scales = {2, 4, 8, 16};
    std::vector<sim::TrainingSimulator> simulators;
    simulators.reserve(scales.size());
    for (const int ranks : scales) {
        simulators.emplace_back(sim::Workload::make(
            "CIFAR-10", hw::SystemSpec::deep(),
            parallel::ParallelConfig::data(ranks),
            parallel::ScalingMode::Weak, 256));
    }

    std::uintmax_t total_bytes = 0;
    const auto target_bytes =
        static_cast<std::uintmax_t>(target_mb * 1024.0 * 1024.0);
    // Full rounds (one repetition per configuration) keep the corpus
    // balanced regardless of where the size target lands.
    for (int rep = 0; total_bytes < target_bytes; ++rep) {
        for (std::size_t c = 0; c < scales.size(); ++c) {
            const auto run = profiler.profile(
                simulators[c], {{"x1", static_cast<double>(scales[c])}}, rep);
            const std::string path = corpus.dir + "/run_x" +
                                     std::to_string(scales[c]) + "_r" +
                                     std::to_string(rep) + ".edp";
            profiling::write_edp_file(path, run);
            total_bytes += std::filesystem::file_size(path);
            corpus.paths.push_back(path);
        }
    }
    corpus.total_mb = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
    return corpus;
}

void remove_corpus(const Corpus& corpus) {
    std::error_code ec;
    std::filesystem::remove_all(corpus.dir, ec);
}

struct IngestTiming {
    double seconds = 0.0;
    double rss_delta_mb = 0.0;
};

IngestTiming time_ingest(const Corpus& corpus, int threads) {
    IngestOptions options;
    options.num_threads = threads;
    const double rss_before = peak_rss_mb();
    const double t0 = now_seconds();
    const IngestResult result = ingest_edp_files(corpus.paths, options);
    IngestTiming timing;
    timing.seconds = now_seconds() - t0;
    timing.rss_delta_mb = peak_rss_mb() - rss_before;
    if (!result.ok()) {
        throw Error("extradeep-perf: ingest of the synthetic corpus failed: " +
                    result.summary());
    }
    return timing;
}

struct FitterTiming {
    double hypotheses_per_sec = 0.0;
    int hypotheses_per_fit = 0;
};

/// Times ModelGenerator::fit over the two-term search space until
/// `budget_seconds` elapses (at least one fit).
FitterTiming time_fitter(double budget_seconds) {
    std::vector<double> xs = {2, 4, 6, 8, 10, 12, 16, 24, 32, 48};
    std::vector<double> ys;
    for (const double x : xs) {
        ys.push_back(10.0 + 3.0 * x + 0.5 * x * std::log2(x));
    }
    modeling::FitOptions opts;
    opts.space.max_terms = 2;
    const modeling::ModelGenerator gen(opts);

    FitterTiming timing;
    timing.hypotheses_per_fit = gen.fit(xs, ys).quality().hypotheses_searched;
    const double t0 = now_seconds();
    int fits = 0;
    double elapsed = 0.0;
    do {
        gen.fit(xs, ys);
        ++fits;
        elapsed = now_seconds() - t0;
    } while (elapsed < budget_seconds);
    timing.hypotheses_per_sec =
        static_cast<double>(fits) * timing.hypotheses_per_fit / elapsed;
    return timing;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool keep_files = false;
    double corpus_mb = -1.0;
    int threads = 4;
    std::string out_path;
    std::string thresholds_path;

    try {
        cli::Args args(argc, argv);
        std::string arg;
        while (args.next(arg)) {
            if (arg == "--quick") {
                quick = true;
            } else if (arg == "--keep-files") {
                keep_files = true;
            } else if (arg == "--corpus-mb") {
                corpus_mb = args.double_value(arg);
            } else if (arg == "--threads") {
                threads = args.int_value(arg);
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
    if (corpus_mb <= 0.0) {
        corpus_mb = quick ? 24.0 : 128.0;
    }
    const double fit_budget = quick ? 0.2 : 1.0;

    try {
        std::vector<eval::MetricRecord> records;

        // --- ingest: first, so its RSS delta is measured before the fitter
        // section can raise the (monotonic) peak.
        std::printf("writing ~%.0f MB synthetic EDP corpus...\n", corpus_mb);
        const Corpus corpus = write_corpus(corpus_mb);
        std::printf("corpus: %zu files, %.1f MB in %s\n", corpus.paths.size(),
                    corpus.total_mb, corpus.dir.c_str());
        add_record(records, "corpus", "total_mb", corpus.total_mb);
        add_record(records, "corpus", "files",
                   static_cast<double>(corpus.paths.size()));

        const IngestTiming ingest = time_ingest(corpus, threads);
        if (keep_files) {
            std::printf("keeping corpus in %s\n", corpus.dir.c_str());
        } else {
            remove_corpus(corpus);
        }
        add_record(records, "ingest_stream", "mb_per_sec",
                   corpus.total_mb / ingest.seconds);
        add_record(records, "ingest_stream", "rss_delta_mb",
                   ingest.rss_delta_mb);

        // --- fitter: hypotheses/sec of one serial fit.
        const FitterTiming ft = time_fitter(fit_budget);
        add_record(records, "fitter_t1", "hypotheses_per_sec",
                   ft.hypotheses_per_sec);
        add_record(records, "fitter_t1", "hypotheses_per_fit",
                   static_cast<double>(ft.hypotheses_per_fit));

        Table table({"case", "metric", "value"});
        for (const auto& r : records) {
            table.add_row({r.case_name, r.metric,
                           json::number(r.value)});
        }
        std::printf("%s\n", table.to_string().c_str());

        if (!out_path.empty()) {
            eval::write_report(out_path,
                               eval::bench_json(records, cli::git_revision(),
                                                "extradeep-perf/1"));
            std::printf("wrote %zu records to %s\n", records.size(),
                        out_path.c_str());
        }
        if (!thresholds_path.empty()) {
            return eval::run_thresholds(records, thresholds_path, "perf");
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
