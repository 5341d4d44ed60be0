// Shared helpers, the inputs and the offline build pipeline: EDP corpora
// written with the paper's efficient sampling, and corpus -> .edpm builds
// through the public ingest / modeling / serialize functions.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "extradeep/ingest.hpp"
#include "extradeep/models.hpp"
#include "ledger.hpp"
#include "profiling/edp_io.hpp"
#include "profiling/profiler.hpp"

namespace ledger {

namespace fs = std::filesystem;
namespace obs = ed::obs;

double percentile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1,
                                values.size());
    return values[index - 1];
}

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double cpu_seconds() {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view label) {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;  // FNV-1a over the label
    for (const char c : label) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    // splitmix64 finaliser: nearby seeds give unrelated streams.
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
}

void Report::check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
        add_failures(1, what);
    }
}

void Report::add_failures(std::uint64_t count, const std::string& what) {
    if (count == 0) {
        return;
    }
    failed += count;
    if (failures.size() < 10) {
        failures.push_back(what);
    }
}

std::vector<std::pair<std::string, ed::ExperimentSpec>> paper_specs(
    std::uint64_t seed) {
    struct Row {
        const char* name;
        const char* dataset;
        ed::parallel::ScalingMode scaling;
        std::int64_t batch;
    };
    // Batch sizes follow the paper's evaluation benches: 256 per worker for
    // weak scaling, 64 for strong scaling.
    const std::array<Row, 4> rows = {{
        {"cifar10-weak", "CIFAR-10", ed::parallel::ScalingMode::Weak, 256},
        {"imagenet-strong", "ImageNet", ed::parallel::ScalingMode::Strong, 64},
        {"imdb-weak", "IMDB", ed::parallel::ScalingMode::Weak, 256},
        {"speech-strong", "Speech Commands", ed::parallel::ScalingMode::Strong,
         64},
    }};
    std::vector<std::pair<std::string, ed::ExperimentSpec>> out;
    for (const Row& row : rows) {
        ed::ExperimentSpec spec;
        spec.dataset = row.dataset;
        spec.system = ed::hw::SystemSpec::deep();
        spec.strategy = ed::parallel::StrategyKind::Data;
        spec.scaling = row.scaling;
        spec.batch_per_worker = row.batch;
        spec.modeling_ranks = {2, 4, 6, 8, 10};
        spec.repetitions = 5;
        spec.sampling = ed::profiling::SamplingStrategy::efficient();
        spec.seed = derive_seed(seed, row.name) >> 1;
        out.emplace_back(row.name, spec);
    }
    return out;
}

Corpus corpus_layout(const std::string& dir, const std::string& name,
                     const ed::ExperimentSpec& spec) {
    Corpus corpus;
    corpus.name = name;
    corpus.spec = spec;
    for (const int ranks : spec.modeling_ranks) {
        for (int rep = 0; rep < spec.repetitions; ++rep) {
            corpus.paths.push_back(dir + "/" + name + "_x" +
                                   std::to_string(ranks) + "_r" +
                                   std::to_string(rep) + ".edp");
        }
    }
    return corpus;
}

void write_corpora(const std::string& dir, std::vector<Corpus>& corpora) {
    std::vector<std::pair<const Corpus*, std::size_t>> runs;
    for (const Corpus& corpus : corpora) {
        for (std::size_t i = 0; i < corpus.paths.size(); ++i) {
            runs.emplace_back(&corpus, i);
        }
    }
    generate_inputs(dir, runs.size(), [&](std::size_t k) {
        const auto& [corpus, i] = runs[k];
        const auto reps = static_cast<std::size_t>(corpus->spec.repetitions);
        write_run(corpus->paths[i], corpus->spec,
                  corpus->spec.modeling_ranks.at(i / reps),
                  static_cast<int>(i % reps));
    });
    for (Corpus& corpus : corpora) {
        corpus.bytes = 0;
        for (const std::string& path : corpus.paths) {
            corpus.bytes += fs::file_size(path);
        }
    }
}

void write_run(const std::string& path, const ed::ExperimentSpec& spec,
               int ranks, int rep) {
    const ed::ExperimentRunner runner(spec);
    const ed::sim::TrainingSimulator simulator(runner.workload_for(ranks));
    const ed::profiling::Profiler profiler(spec.sampling);
    fs::create_directories(fs::path(path).parent_path());
    ed::profiling::write_edp_file(
        path, profiler.profile(simulator, {{"x1", static_cast<double>(ranks)}},
                               rep, spec.seed));
}

void flush_files(const std::string& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0 || ::syncfs(fd) != 0) {
        const int err = errno;
        if (fd >= 0) {
            ::close(fd);
        }
        throw ed::Error("ledger: cannot flush " + dir + ": " +
                        std::strerror(err));
    }
    ::close(fd);
}

void generate_inputs(const std::string& dir, std::size_t n,
                     const std::function<void(std::size_t)>& generate) {
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        throw ed::Error(std::string("ledger: fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        {
            std::vector<std::jthread> threads;
            for (std::size_t t = 0; t < std::min<std::size_t>(n, 4); ++t) {
                threads.emplace_back([&] {
                    for (std::size_t i = next++; i < n && !failed;
                         i = next++) {
                        try {
                            generate(i);
                        } catch (const std::exception& e) {
                            std::fprintf(stderr, "extradeep-ledger: %s\n",
                                         e.what());
                            failed = true;
                        }
                    }
                });
            }
        }
        bool flushed = true;
        try {
            flush_files(dir);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "extradeep-ledger: %s\n", e.what());
            flushed = false;
        }
        // _Exit: the parent owns the stdio buffers and exit handlers.
        std::_Exit(failed || !flushed ? 1 : 0);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            throw ed::Error(std::string("ledger: waitpid: ") +
                            std::strerror(errno));
        }
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw ed::Error("ledger: generating the inputs failed");
    }
}

namespace {

/// Streaming ingest where the option exists; once the flag is gone,
/// streaming is the only path.
template <typename IngestOptionsT>
void use_streaming(IngestOptionsT& options) {
    if constexpr (requires { options.streaming = true; }) {
        options.streaming = true;
    }
}

}  // namespace

ed::serve::ServableModel build_model(const Corpus& corpus,
                                     const std::string& name, int threads,
                                     const std::string& export_path,
                                     BuildStats& stats) {
    const obs::Span build_span{"ledger.build"};
    const ed::ExperimentSpec& spec = corpus.spec;

    ed::IngestOptions ingest_options;
    use_streaming(ingest_options);
    ingest_options.num_threads = threads;
    ingest_options.aggregation.discard_warmup_epochs =
        spec.sampling.discard_warmup_epochs;
    ed::IngestResult ingested;
    {
        const obs::Span span{"ledger.ingest"};
        ingested = ed::ingest_edp_files(corpus.paths, ingest_options);
    }
    if (!ingested.modelable()) {
        throw ed::Error("ledger: corpus " + corpus.name +
                        " is not modelable: " + ingested.summary());
    }
    stats.runs_dropped += ingested.runs_total - ingested.runs_kept;
    stats.bytes_ingested += corpus.bytes;

    ed::modeling::FitOptions fit_options;
    fit_options.num_threads = threads;
    const ed::modeling::ModelGenerator generator(fit_options);
    ed::ExperimentResult result;
    result.step_math_fn = ed::make_step_math_fn(
        spec.dataset, spec.strategy, spec.model_parallel_degree, spec.scaling,
        spec.batch_per_worker);
    {
        const obs::Span span{"ledger.model_kernels"};
        const auto kernels = ed::model_kernels(
            ingested.data, result.step_math_fn,
            {ed::aggregation::Metric::Time, ed::aggregation::Metric::Bytes,
             ed::aggregation::Metric::Visits},
            generator);
        stats.kernel_models += kernels.size();
    }

    // The eight application models: per-step train/val fits of the epoch
    // total and of each phase total, composed with the step math (Eqs. 2-6).
    {
        const obs::Span span{"ledger.app_fits"};
        result.data = std::move(ingested.data);
        std::array<std::vector<double>, ed::trace::kPhaseCount> phase_train;
        std::array<std::vector<double>, ed::trace::kPhaseCount> phase_val;
        std::vector<double> total_train;
        std::vector<double> total_val;
        for (const auto& config : result.data.configs()) {
            const int ranks = static_cast<int>(config.params.at("x1"));
            const ed::parallel::StepMath sm = result.step_math_fn(ranks);
            result.step_math[ranks] = sm;
            result.modeling_xs.push_back(static_cast<double>(ranks));
            result.epoch_time_values.push_back(
                ed::aggregation::derived_epoch_total(
                    config, sm, ed::aggregation::Metric::Time));
            double train_sum = 0.0;
            double val_sum = 0.0;
            for (int p = 0; p < ed::trace::kPhaseCount; ++p) {
                const auto phase = static_cast<ed::trace::Phase>(p);
                const double t = config.phase_metric(
                    phase, ed::aggregation::Metric::Time, true);
                const double v = config.phase_metric(
                    phase, ed::aggregation::Metric::Time, false);
                phase_train[p].push_back(t);
                phase_val[p].push_back(v);
                train_sum += t;
                val_sum += v;
            }
            total_train.push_back(train_sum);
            total_val.push_back(val_sum);
        }
        result.epoch_time = ed::EpochModel(
            generator.fit(result.modeling_xs, total_train),
            generator.fit(result.modeling_xs, total_val), result.step_math_fn);
        for (int p = 0; p < ed::trace::kPhaseCount; ++p) {
            result.phase_time[p] = ed::EpochModel(
                generator.fit(result.modeling_xs, phase_train[p]),
                generator.fit(result.modeling_xs, phase_val[p]),
                result.step_math_fn);
        }
    }
    ed::serve::ServableModel model;
    {
        const obs::Span span{"ledger.make_servable"};
        model = ed::serve::make_servable(spec, result, name);
    }
    if (!export_path.empty()) {
        export_model(export_path, model);
    }
    return model;
}

void export_model(const std::string& path,
                  const ed::serve::ServableModel& model) {
    const obs::Span span{"ledger.write_edpm"};
    ed::serve::write_edpm_file(path, model);
}

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        throw ed::Error("ledger: cannot read " + path);
    }
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

}  // namespace ledger
