// The four workloads. Each generates its inputs from the seed, sets the
// system up several times (set-up time is the median), runs its timed part
// and checks every output it produces.

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>

#include "common/error.hpp"
#include "fleet/continuous.hpp"
#include "ledger.hpp"
#include "serve/query.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace ledger {

namespace {

namespace fs = std::filesystem;
namespace obs = ed::obs;
namespace serve = ed::serve;
namespace fleet = ed::fleet;

constexpr int kOfflineThreads = 2;  ///< offline ingest and fits
constexpr int kServeThreads = 2;    ///< ServerOptions::threads
constexpr int kConnections = 4;
/// The serve and fleet timed parts run in this many rounds (serve: of low,
/// high and saturation phases; fleet: one experiment pushed per round), so
/// a slow spell of the shared host hits every phase alike.
constexpr int kRounds = 4;
/// One response in this many is re-executed in process and compared.
constexpr std::uint64_t kSampleEvery = 97;

Metric ms(const std::string& name, double value) { return {name, value, "ms"}; }
Metric us(const std::string& name, double value) { return {name, value, "us"}; }
Metric count(const std::string& name, double value) {
    return {name, value, "count"};
}

std::string work_path(const Options& options, const std::string& leaf) {
    return options.work_dir + "/" + leaf;
}

/// `full`, or 1 in a smoke run: a smoke run checks that every layer answers,
/// so whatever is repeated (set-ups, repetitions per configuration) runs
/// once.
int repeats(const Options& options, int full) {
    return options.smoke ? 1 : full;
}

/// A workload's set-up, setup(dir), run several times; `setup_s` is the
/// median wall time of the calls. The first call, before the timed part, is
/// the one the workload keeps: take_kept() hands over what it returned,
/// kept_dir() is its directory. The others are thrown away. They are made
/// in small batches between the phases of the timed part, so that they
/// spread over the whole run. The host's speed for a single thread moves in
/// steps that last from a fraction of a second to several seconds (a serve
/// set-up took 6 ms in one batch and 11 ms in the next), so calls made back
/// to back measure one step, and the median of a run needs calls from many.
/// What a throwaway call returns is destroyed after its clock has stopped
/// (tearing down is not set-up), and its directory is removed. Each call
/// gets a fresh directory, and the work directory is flushed before it,
/// untimed, so every set-up starts from the same file-system state. Smoke
/// and traced runs, which report no `setup_s`, set up once.
class Setups {
public:
    using Fn = std::function<std::shared_ptr<void>(const std::string& dir)>;

    Setups(const Options& options, Fn setup)
        : options_(options), setup_(std::move(setup)) {
        kept_ = call();
        kept_dir_ = dir_;
    }

    /// A batch of `n` throwaway calls, between two phases of the timed part.
    void repeat(int n) {
        for (int i = 0; i < n && !options_.smoke && !options_.trace; ++i) {
            call();
            fs::remove_all(dir_);
        }
    }

    /// Hands the kept call's result over to the workload.
    template <typename T>
    std::shared_ptr<T> take_kept() {
        return std::static_pointer_cast<T>(std::move(kept_));
    }
    const std::string& kept_dir() const { return kept_dir_; }
    double median_s() const { return median(times_); }

private:
    std::shared_ptr<void> call() {
        dir_ = work_path(options_, "setup-" + std::to_string(times_.size()));
        fs::create_directories(dir_);
        flush_files(options_.work_dir);
        const std::uint64_t t0 = now_ns();
        std::shared_ptr<void> built = setup_(dir_);
        times_.push_back(seconds_since(t0));
        return built;
    }

    const Options& options_;
    Fn setup_;
    std::vector<double> times_;
    std::shared_ptr<void> kept_;
    std::string kept_dir_;
    std::string dir_;  ///< the latest call's directory
};

// ------------------------------------------------------------- requests

struct Verb {
    const char* name;
    int weight;
};

/// A served model and the rank counts queries may ask about.
struct Target {
    std::string name;
    std::vector<int> ranks;
};

/// Rank counts in [lo, hi] at which the model predicts a positive epoch
/// time. A fit may extrapolate below zero far from its modeling points, and
/// the cost verbs rightly refuse a negative runtime; queries stay where the
/// answer exists, so no request is expected to fail.
std::vector<int> answerable_ranks(const serve::ServableModel& model, int lo,
                                  int hi) {
    std::vector<int> out;
    for (int x = lo; x <= hi; ++x) {
        if (model.epoch_time.evaluate(x) > 0.0) {
            out.push_back(x);
        }
    }
    if (out.empty()) {
        throw ed::Error("ledger: model " + model.name +
                        " predicts no positive runtime");
    }
    return out;
}

std::vector<Target> targets_of(const serve::ModelRegistry& registry, int lo,
                               int hi) {
    std::vector<Target> out;
    for (const std::string& name : registry.names()) {
        out.push_back({name, answerable_ranks(*registry.find(name), lo, hi)});
    }
    return out;
}

/// Seeded request-line generator over a fixed set of models.
class RequestMix {
public:
    RequestMix(std::vector<Target> targets, std::vector<Verb> verbs,
               std::uint64_t seed)
        : targets_(std::move(targets)), verbs_(std::move(verbs)), rng_(seed) {
        for (const Verb& v : verbs_) {
            total_weight_ += v.weight;
        }
    }

    std::string next() {
        const Target& target = targets_[pick(targets_.size())];
        const std::string verb = pick_verb();
        std::string line = verb + " " + target.name;
        if (verb == "predict" || verb == "cost") {
            return line + ranks(target, 1);
        }
        if (verb == "speedup" || verb == "efficiency") {
            return line + ranks(target, 4);
        }
        if (verb == "search") {
            return line + " inf inf" + ranks(target, 8);
        }
        if (verb == "plan") {
            return line + ranks(target, 6);
        }
        if (verb == "whatif") {
            static const std::array<const char*, 8> kScenarios = {
                "interconnect:2", "latency:2",      "bandwidth:2",
                "overlap:0.5",    "collective:ring", "collective:tree",
                "fuse:2",         "interconnect:2+overlap:0.5"};
            return line + ranks(target, 1) + " " +
                   kScenarios[pick(kScenarios.size())];
        }
        return line + ranks(target, 1) + " 3";  // advise
    }

private:
    std::size_t pick(std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
    }
    std::string ranks(const Target& target, int n) {
        std::vector<int> xs;
        for (int i = 0; i < n; ++i) {
            xs.push_back(target.ranks[pick(target.ranks.size())]);
        }
        std::sort(xs.begin(), xs.end());
        std::string out;
        for (const int x : xs) {
            out += ' ';
            out += std::to_string(x);
        }
        return out;
    }
    std::string pick_verb() {
        int r = std::uniform_int_distribution<int>(0, total_weight_ - 1)(rng_);
        for (const Verb& v : verbs_) {
            if (r < v.weight) {
                return v.name;
            }
            r -= v.weight;
        }
        return verbs_.back().name;
    }

    std::vector<Target> targets_;
    std::vector<Verb> verbs_;
    int total_weight_ = 0;
    std::mt19937_64 rng_;
};

const std::vector<Verb> kCheapVerbs = {
    {"predict", 50}, {"cost", 20}, {"speedup", 15}, {"efficiency", 15}};
const std::vector<Verb> kMixedVerbs = {
    {"predict", 35}, {"cost", 15},   {"speedup", 10}, {"efficiency", 10},
    {"search", 10},  {"whatif", 10}, {"plan", 7},     {"advise", 3}};

/// Request lines of one stream, remembering every kSampleEvery-th line so
/// its response can be re-executed in process after the phase.
struct SampledLines {
    RequestMix mix;
    std::map<std::uint64_t, std::string> sampled;

    std::string line(std::uint64_t index) {
        std::string l = mix.next();
        if (index % kSampleEvery == 0) {
            sampled.emplace(index, l);
        }
        return l;
    }
};

/// (request, daemon response) pairs awaiting comparison.
using Samples = std::vector<std::pair<std::string, std::string>>;

void verify_samples(serve::QueryEngine& engine, const Samples& samples,
                    Report& report) {
    for (const auto& [request, response] : samples) {
        report.check(engine.execute(request) == response,
                     "daemon answer differs from in-process answer: " +
                         request);
    }
}

/// Folds a phase's request counts into the report.
void account(const PhaseResult& phase, const std::string& name,
             Report& report) {
    report.attempted += phase.sent;
    report.add_failures(phase.failed, name + ": failed requests");
}

// ------------------------------------------------------------ statistics

/// The per-slice percentile q of `samples` (us) over the slices of all
/// `phases`.
std::vector<double> slice_values(
    const std::vector<PhaseResult>& phases,
    const std::vector<double> PhaseResult::*samples, double q) {
    std::vector<double> all;
    for (const PhaseResult& phase : phases) {
        const std::vector<double> w = slice_percentiles(phase, samples, q);
        all.insert(all.end(), w.begin(), w.end());
    }
    return all;
}

/// Open-loop latency (us): the median over the slices of all `phases` of
/// the per-slice percentile q. A stall of the shared host spoils a few
/// slices, not the result.
double sliced(const std::vector<PhaseResult>& phases, double q) {
    return median(slice_values(phases, &PhaseResult::latency_us, q));
}

/// The gated serve latency (us): the median round trip (send to response)
/// per slice, at the lower quartile over the slices of all `phases`.
///
/// The host is a guest whose CPUs the hypervisor takes away for
/// milliseconds at a time, at times a fifth of the CPU time of a 0.25 s
/// slice (steal in /proc/stat). A request caught in such a pause waits for
/// it, and in the open loop so do the requests queued behind it on its
/// connection. Over ten runs in a busy spell, the open-loop median ranged
/// from 0.11 to 1.7 ms on serve_query. The round trip leaves out the
/// queue in front of the connection, and the lower quartile over slices
/// keeps the quietest quarter of the run; a change in what the daemon
/// spends per request moves those slices too.
double quiet_rtt_p50_us(const std::vector<PhaseResult>& phases) {
    return percentile(slice_values(phases, &PhaseResult::rtt_us, 0.5), 0.25);
}

/// Saturated throughput (stream 0 responses per second): the median over
/// the complete slices of all `phases`. The first slices of a
/// saturation phase often run slow while the scheduler spreads the busy
/// threads, and a host stall spoils a few more; neither moves the median.
double saturated_rate(const std::vector<PhaseResult>& phases) {
    std::vector<double> rates;
    for (const PhaseResult& phase : phases) {
        const auto full =
            static_cast<std::size_t>(phase.seconds / kSliceS + 1e-9);
        for (std::size_t i = 0;
             i < std::min(full, phase.slice_completions.size()); ++i) {
            rates.push_back(static_cast<double>(phase.slice_completions[i]) /
                            kSliceS);
        }
    }
    return median(rates);
}

template <typename T>
std::vector<T> concat(const std::vector<PhaseResult>& phases,
                      std::vector<T> PhaseResult::*member) {
    std::vector<T> out;
    for (const PhaseResult& phase : phases) {
        out.insert(out.end(), (phase.*member).begin(), (phase.*member).end());
    }
    return out;
}

// ------------------------------------------------------------ layers

struct RegistryProbe {
    double load_ms = 0.0;
    double reload_ms_p50 = 0.0;
    double find_ns_p50 = 0.0;
    double read_edpm_us_p50 = 0.0;
};

/// Direct-call microphase over a model directory: load_directory on fresh
/// registries, reload, find, and read_edpm_file of every model.
RegistryProbe probe_registry(const std::string& dir) {
    RegistryProbe probe;
    std::vector<double> loads;
    std::shared_ptr<serve::ModelRegistry> registry;
    for (int i = 0; i < 3; ++i) {
        registry = std::make_shared<serve::ModelRegistry>();
        const std::uint64_t t0 = now_ns();
        {
            const obs::Span span{"ledger.registry_load"};
            registry->load_directory(dir);
        }
        loads.push_back(seconds_since(t0) * 1e3);
    }
    probe.load_ms = median(loads);
    std::vector<double> reloads;
    for (int i = 0; i < 5; ++i) {
        const std::uint64_t t0 = now_ns();
        {
            const obs::Span span{"ledger.registry_reload"};
            registry->reload();
        }
        reloads.push_back(seconds_since(t0) * 1e3);
    }
    probe.reload_ms_p50 = median(reloads);
    const std::vector<std::string> names = registry->names();
    // Batches of 100 lookups: one find() is too short to time alone.
    std::vector<double> finds;
    for (std::size_t batch = 0; batch < 200 && !names.empty(); ++batch) {
        const std::uint64_t t0 = now_ns();
        for (std::size_t j = 0; j < 100; ++j) {
            registry->find(names[(batch * 100 + j) % names.size()]);
        }
        finds.push_back(static_cast<double>(now_ns() - t0) / 100.0);
    }
    probe.find_ns_p50 = median(finds);
    std::vector<double> reads;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != serve::kEdpmExtension) {
            continue;
        }
        for (int i = 0; i < 3; ++i) {
            const std::uint64_t t0 = now_ns();
            {
                const obs::Span span{"ledger.read_edpm"};
                serve::read_edpm_file(entry.path().string());
            }
            reads.push_back(seconds_since(t0) * 1e6);
        }
    }
    probe.read_edpm_us_p50 = median(reads);
    return probe;
}

/// Everything besides the span table that the per-layer metrics need.
struct LayerInputs {
    BuildStats build;
    std::uint64_t bytes_pushed = 0;
    int hypotheses_per_fit = 0;
    std::array<serve::QueryCounters, serve::kQueryKindCount> counters{};
    std::vector<double> rtt_us;  ///< client round trips, traced part
    std::vector<double> lateness_us;
    double achieved_rps = 0.0;
    fleet::FleetStats fleet{};
    std::uint64_t staleness_max = 0;
    RegistryProbe registry;
    double trace_overhead_pct = 0.0;
};

std::vector<Metric> layer_metrics(const SpanTable& t, const LayerInputs& in) {
    const double parse_ms =
        t.self_ms({"ingest.stream_edp", "ingest.read_edp", "fleet.ingest"});
    const double fit_ms = t.self_ms({"fit.model"});
    const double chunk_ms = t.self_ms({"fit.hypothesis_chunk"});
    const auto fits = static_cast<double>(t.row("fit.model").count);
    const double hypotheses = fits * in.hypotheses_per_fit;
    std::uint64_t query_requests = 0;
    std::uint64_t query_errors = 0;
    std::uint64_t query_us = 0;
    for (int k = 0; k < serve::kQueryKindCount; ++k) {
        const auto kind = static_cast<serve::QueryKind>(k);
        if (kind == serve::QueryKind::Ingest ||
            kind == serve::QueryKind::FleetStats) {
            continue;  // pushes are the fleet layer's work, not queries
        }
        const serve::QueryCounters& c =
            in.counters[static_cast<std::size_t>(k)];
        query_requests += c.requests;
        query_errors += c.errors;
        query_us += c.total_latency_us;
    }
    const double execute_us = t.p50_us("serve.execute");
    const double mb = static_cast<double>(in.build.bytes_ingested +
                                          in.bytes_pushed) /
                      (1024.0 * 1024.0);
    const double builds =
        std::max<double>(1.0, static_cast<double>(t.row("ledger.build").count));
    return {
        ms("profiling.parse_self_ms", parse_ms),
        {"profiling.parse_mb_per_s", parse_ms > 0 ? mb / (parse_ms * 1e-3) : 0,
         "MB/s"},
        ms("aggregation.validate_self_ms",
           t.self_ms({"ingest.validate_experiment", "validate.experiment"})),
        ms("aggregation.aggregate_self_ms",
           t.self_ms({"ingest.aggregate_config", "aggregate.runs"})),
        count("aggregation.runs_dropped",
              static_cast<double>(in.build.runs_dropped)),
        ms("extradeep.ingest_ms_p50", t.p50_us("ledger.ingest") * 1e-3),
        ms("extradeep.ingest_self_ms",
           t.self_ms({"ingest.edp_files", "ingest.runs"})),
        ms("extradeep.model_kernels_ms_p50",
           t.p50_us("ledger.model_kernels") * 1e-3),
        count("extradeep.kernel_models",
              static_cast<double>(in.build.kernel_models) / builds),
        count("modeling.fits", fits),
        count("modeling.hypotheses", hypotheses),
        us("modeling.fit_us_p50", t.p50_us("fit.model")),
        ms("modeling.fit_self_ms", fit_ms),
        ms("modeling.chunk_self_ms", chunk_ms),
        {"modeling.hypotheses_per_s",
         fit_ms + chunk_ms > 0 ? hypotheses / ((fit_ms + chunk_ms) * 1e-3) : 0,
         "1/s"},
        us("serialize.make_servable_us_p50", t.p50_us("ledger.make_servable")),
        us("serialize.write_edpm_us_p50", t.p50_us("ledger.write_edpm")),
        us("serialize.read_edpm_us_p50", in.registry.read_edpm_us_p50),
        ms("registry.load_ms", in.registry.load_ms),
        ms("registry.reload_ms_p50", in.registry.reload_ms_p50),
        {"registry.find_ns_p50", in.registry.find_ns_p50, "ns"},
        us("query.exec_us_mean",
           query_requests > 0 ? static_cast<double>(query_us) /
                                    static_cast<double>(query_requests)
                              : 0.0),
        count("query.requests", static_cast<double>(query_requests)),
        count("query.errors", static_cast<double>(query_errors)),
        us("server.execute_us_p50", execute_us),
        us("server.overhead_us_p50", median(in.rtt_us) - execute_us),
        count("server.requests", static_cast<double>(in.rtt_us.size())),
        count("fleet.accepted", static_cast<double>(in.fleet.accepted)),
        count("fleet.refits", static_cast<double>(in.fleet.refits)),
        count("fleet.swaps", static_cast<double>(in.fleet.swaps)),
        {"fleet.swaps_per_refit",
         in.fleet.refits > 0 ? static_cast<double>(in.fleet.swaps) /
                                   static_cast<double>(in.fleet.refits)
                             : 0.0,
         "ratio"},
        count("fleet.stale_discarded",
              static_cast<double>(in.fleet.stale_discarded)),
        count("fleet.refit_failures",
              static_cast<double>(in.fleet.refit_failures)),
        count("fleet.staleness_max", static_cast<double>(in.staleness_max)),
        us("client.lateness_us_p99", percentile(in.lateness_us, 0.99)),
        {"client.achieved_rps", in.achieved_rps, "1/s"},
        ms("ledger.build_self_ms", t.self_ms({"ledger.build"})),
        {"obs.build_attributed_pct", t.build_attributed_pct, "%"},
        {"obs.trace_overhead_pct", in.trace_overhead_pct, "%"},
        count("obs.spans", static_cast<double>(t.spans)),
    };
}

/// Per-layer metrics from the spans recorded so far.
void finish_traced(const Options& options, const LayerInputs& in,
                   Report& report) {
    const std::vector<obs::SpanRecord> spans = obs::global_tracer().snapshot();
    const SpanTable table = attribute(spans);
    report.per_layer = layer_metrics(table, in);
    if (!options.trace_dir.empty()) {
        fs::create_directories(options.trace_dir);
        const std::string stem = options.trace_dir + "/" + options.workload;
        std::ofstream(stem + ".trace.json") << obs::chrome_trace_json(spans);
        std::ofstream(stem + ".selftime.txt") << table.to_text();
    }
}

/// In trace mode the timed part runs twice at half length: untraced, for
/// the tracing overhead, then traced, for the per-layer table. Everything
/// else in a traced run is traced, so the layer inputs gathered during the
/// untraced half are dropped to keep them consistent with the spans.
template <typename Result, typename Fn>
Result timed_part(const Options& options, LayerInputs& layers, Fn&& fn) {
    if (!options.trace) {
        return fn(options.seconds);
    }
    const LayerInputs before = layers;
    obs::set_trace_enabled(false);
    const Result untraced = fn(options.seconds / 2);
    layers = before;
    obs::set_trace_enabled(true);
    Result traced = fn(options.seconds / 2);
    const double base = untraced.op_p50_ms();
    layers.trace_overhead_pct =
        base > 0 ? 100.0 * (traced.op_p50_ms() / base - 1.0) : 0.0;
    return traced;
}

int hypotheses_per_fit(const serve::ServableModel& model) {
    return model.epoch_time.train_step_model().quality().hypotheses_searched;
}

/// A daemon over a registry, plus the client connected to it.
struct Daemon {
    std::shared_ptr<serve::ModelRegistry> registry;
    std::shared_ptr<serve::QueryEngine> engine;
    std::unique_ptr<serve::ServeDaemon> daemon;
    std::unique_ptr<LoadClient> client;

    Daemon(std::shared_ptr<serve::ModelRegistry> reg,
           std::shared_ptr<serve::QueryEngine> eng,
           const serve::ServerOptions& server_options, int connections)
        : registry(std::move(reg)), engine(std::move(eng)) {
        daemon = std::make_unique<serve::ServeDaemon>(engine, server_options);
        daemon->start();
        client = std::make_unique<LoadClient>(server_options.host,
                                              daemon->port(), connections);
    }
    ~Daemon() {
        client.reset();
        daemon->stop();
        daemon->wait();
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;
};

serve::ServerOptions server_options() {
    serve::ServerOptions options;
    options.threads = kServeThreads;
    return options;
}

}  // namespace

// =============================================================== model_build

void run_model_build(const Options& options, Report& report) {
    LayerInputs layers;
    std::uint64_t t0 = now_ns();
    std::vector<Corpus> corpora;
    for (auto [name, spec] : paper_specs(options.seed)) {
        spec.repetitions = repeats(options, spec.repetitions);
        corpora.push_back(
            corpus_layout(work_path(options, "corpora"), name, spec));
    }
    write_corpora(options.work_dir, corpora);
    std::uintmax_t corpus_bytes = 0;
    for (const Corpus& corpus : corpora) {
        corpus_bytes += corpus.bytes;
    }
    report.phases.emplace_back("inputs_s", seconds_since(t0));
    report.settings.emplace_back("corpus_mb",
                                 static_cast<double>(corpus_bytes) / 1048576.0);

    // Set-up: the single-threaded reference build of every corpus, against
    // which every timed build must be byte-identical.
    std::vector<std::string> reference(corpora.size());
    Setups setups(options, [&](const std::string& dir) {
        for (std::size_t i = 0; i < corpora.size(); ++i) {
            const std::string path = dir + "/" + corpora[i].name + ".edpm";
            build_model(corpora[i], corpora[i].name, 1, path, layers.build);
            const std::string bytes = read_file(path);
            if (!reference[i].empty()) {
                report.check(bytes == reference[i],
                             "reference build not reproducible: " +
                                 corpora[i].name);
            }
            reference[i] = bytes;
        }
        return nullptr;
    });

    struct Timed {
        std::vector<double> build_ms;
        double wall_s = 0.0;
        double cpu_s = 0.0;
        std::uintmax_t bytes = 0;
        double op_p50_ms() const { return median(build_ms); }
    };
    const std::string out_dir = work_path(options, "out");
    fs::create_directories(out_dir);
    const Timed timed = timed_part<Timed>(options, layers, [&](double seconds) {
        Timed r;
        // Twelve phases of building, with a set-up between any two.
        constexpr int kPhases = 12;
        for (int phase = 0; phase < kPhases; ++phase) {
            const double cpu0 = cpu_seconds();
            const std::uint64_t start = now_ns();
            do {
                for (std::size_t i = 0; i < corpora.size(); ++i) {
                    const std::string path =
                        out_dir + "/" + corpora[i].name + ".edpm";
                    const std::uint64_t b0 = now_ns();
                    const auto model = build_model(corpora[i], corpora[i].name,
                                                   kOfflineThreads, path,
                                                   layers.build);
                    r.build_ms.push_back(seconds_since(b0) * 1e3);
                    r.bytes += corpora[i].bytes;
                    layers.hypotheses_per_fit = hypotheses_per_fit(model);
                    report.check(read_file(path) == reference[i],
                                 "build differs from the 1-thread reference: " +
                                     corpora[i].name);
                }
            } while (seconds_since(start) < seconds / kPhases);
            r.wall_s += seconds_since(start);
            r.cpu_s += cpu_seconds() - cpu0;
            setups.repeat(1);
        }
        return r;
    });
    report.phases.emplace_back("timed_s", timed.wall_s);

    // The served answer: the built models behind the daemon must answer
    // every verb exactly as the library does.
    const PhaseResult served = [&] {
        auto registry = std::make_shared<serve::ModelRegistry>();
        registry->load_directory(out_dir);
        Daemon d(registry, std::make_shared<serve::QueryEngine>(registry),
                 server_options(), 2);
        serve::QueryEngine check(registry);
        RequestMix mix(targets_of(*registry, 2, 64), kMixedVerbs,
                       derive_seed(options.seed, "model_build.served"));
        std::vector<std::string> lines;
        Samples samples;
        PhaseHooks hooks;
        hooks.on_response = [&](const Completion& c) {
            samples.emplace_back(lines[c.index], std::string(c.response));
        };
        Stream stream{{0, 1}, 400.0, derive_seed(options.seed, "arrivals"), 0,
                      [&](std::uint64_t) {
                          lines.push_back(mix.next());
                          return lines.back();
                      }};
        const PhaseResult r =
            d.client->run({stream}, options.smoke ? 0.2 : 0.5, hooks);
        verify_samples(check, samples, report);
        layers.counters = d.engine->counters();
        return r;
    }();
    account(served, "served-answer check", report);
    layers.rtt_us = served.rtt_us;
    layers.lateness_us = served.lateness_us;
    layers.achieved_rps = served.completion_rate();
    layers.registry = probe_registry(out_dir);

    if (options.trace) {
        finish_traced(options, layers, report);
        return;
    }
    const auto builds = static_cast<double>(timed.build_ms.size());
    const double build_total_s =
        std::accumulate(timed.build_ms.begin(), timed.build_ms.end(), 0.0) *
        1e-3;
    report.end_to_end = {
        {"setup_s", setups.median_s(), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        ms("op_p50_ms", median(timed.build_ms)),
        ms("cpu_ms_per_op", timed.cpu_s * 1e3 / builds),
    };
    report.detail = {
        count("builds", builds),
        {"builds_per_s", builds / timed.wall_s, "1/s"},
        {"build_mb_per_s",
         static_cast<double>(timed.bytes) / 1048576.0 / build_total_s, "MB/s"},
        ms("build_p50_ms", median(timed.build_ms)),
        ms("build_p95_ms", percentile(timed.build_ms, 0.95)),
    };
}

// =============================================================== serve_*

void run_serve(const Options& options, bool mixed, Report& report) {
    LayerInputs layers;
    // Offered rates (requests per second), frozen when the benchmark was
    // defined.
    const double low = mixed ? 500.0 : 2000.0;
    const double high = mixed ? 2000.0 : 8000.0;
    report.settings = {{"rate_low", low},
                       {"rate_high", high},
                       {"rounds", kRounds},
                       {"connections", kConnections},
                       {"server_threads", kServeThreads}};

    // Inputs: 8 fits (4 experiments x 2 seeds). Two repetitions per
    // configuration suffice for a model to serve.
    std::uint64_t t0 = now_ns();
    std::vector<Corpus> corpora;
    for (const auto& [name, base] : paper_specs(options.seed)) {
        for (int s = 0; s < 2; ++s) {
            ed::ExperimentSpec spec = base;
            const std::string fit = name + "-s" + std::to_string(s);
            spec.seed = derive_seed(options.seed, fit) >> 1;
            spec.repetitions = repeats(options, 2);
            corpora.push_back(
                corpus_layout(work_path(options, "corpora"), fit, spec));
        }
    }
    write_corpora(options.work_dir, corpora);
    std::vector<serve::ServableModel> fits;
    for (const Corpus& corpus : corpora) {
        fits.push_back(build_model(corpus, corpus.name, kOfflineThreads, "",
                                   layers.build));
        layers.hypotheses_per_fit = hypotheses_per_fit(fits.back());
    }
    report.phases.emplace_back("inputs_s", seconds_since(t0));

    // Set-up: export every fit under 8 names, load the 64 models into a
    // registry, start the daemon and connect the client.
    Setups setups(options, [&](const std::string& dir) {
        for (serve::ServableModel model : fits) {
            const std::string base = model.name;
            for (int copy = 0; copy < 8; ++copy) {
                model.name = base + "-m" + std::to_string(copy);
                export_model(dir + "/" + model.name + ".edpm", model);
            }
        }
        auto registry = std::make_shared<serve::ModelRegistry>();
        {
            const obs::Span span{"ledger.registry_load"};
            registry->load_directory(dir);
        }
        return std::make_shared<Daemon>(
            registry, std::make_shared<serve::QueryEngine>(registry),
            server_options(), kConnections);
    });
    std::shared_ptr<Daemon> d = setups.take_kept<Daemon>();
    const std::string models_dir = setups.kept_dir();
    const std::vector<Target> models = targets_of(*d->registry, 2, 64);
    report.check(models.size() == 64, "registry does not hold 64 models");
    serve::QueryEngine check(d->registry);
    const std::vector<int> all_connections = {0, 1, 2, 3};

    std::uint64_t phase_counter = 0;
    // One phase at `rate` requests per second (open loop), or saturated
    // (closed loop) when the rate is 0.
    const auto phase = [&](const std::string& name, double rate,
                           double seconds) {
        const std::string label = name + std::to_string(phase_counter++);
        auto lines = std::make_shared<SampledLines>(SampledLines{
            RequestMix(models, mixed ? kMixedVerbs : kCheapVerbs,
                       derive_seed(options.seed, "mix." + label)),
            {}});
        Samples samples;
        PhaseHooks hooks;
        hooks.on_response = [&](const Completion& c) {
            if (c.index % kSampleEvery == 0) {
                samples.emplace_back(lines->sampled.at(c.index),
                                     std::string(c.response));
            }
        };
        Stream stream{all_connections,
                      rate,
                      derive_seed(options.seed, "arrivals." + label),
                      0,
                      [lines](std::uint64_t i) { return lines->line(i); }};
        PhaseResult r = d->client->run({stream}, seconds, hooks);
        verify_samples(check, samples, report);
        account(r, name, report);
        return r;
    };

    struct Timed {
        std::vector<PhaseResult> low, high, saturated;
        double cpu_s = 0.0;
        double op_p50_ms() const { return quiet_rtt_p50_us(high) * 1e-3; }
    };
    phase("warmup", low, options.smoke ? 0.1 : 0.5);
    const Timed timed = timed_part<Timed>(options, layers, [&](double seconds) {
        Timed r;
        for (int round = 0; round < kRounds; ++round) {
            double cpu0 = cpu_seconds();
            r.low.push_back(phase("low", low, 0.06 * seconds));
            r.cpu_s += cpu_seconds() - cpu0;
            setups.repeat(13);
            cpu0 = cpu_seconds();
            r.high.push_back(phase("high", high, 0.12 * seconds));
            r.cpu_s += cpu_seconds() - cpu0;
            setups.repeat(13);
            r.saturated.push_back(phase("saturation", 0.0, 0.05 * seconds));
            setups.repeat(13);
        }
        return r;
    });
    layers.counters = d->engine->counters();
    layers.rtt_us = concat(timed.high, &PhaseResult::rtt_us);
    layers.lateness_us = concat(timed.high, &PhaseResult::lateness_us);
    layers.achieved_rps = median([&] {
        std::vector<double> rates;
        for (const PhaseResult& p : timed.high) {
            rates.push_back(p.completion_rate());
        }
        return rates;
    }());
    d.reset();
    layers.registry = probe_registry(models_dir);

    if (options.trace) {
        finish_traced(options, layers, report);
        return;
    }
    double requests = 0.0;
    for (const auto* phases : {&timed.low, &timed.high}) {
        for (const PhaseResult& p : *phases) {
            requests += static_cast<double>(p.completed);
        }
    }
    report.end_to_end = {
        {"setup_s", setups.median_s(), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        ms("op_p50_ms", timed.op_p50_ms()),
        ms("cpu_ms_per_op", timed.cpu_s * 1e3 / requests),
    };
    report.detail = {
        us("rtt_p95_us.high",
           median(slice_values(timed.high, &PhaseResult::rtt_us, 0.95))),
        us("lat_p50_us.low", sliced(timed.low, 0.50)),
        us("lat_p99_us.low", sliced(timed.low, 0.99)),
        us("lat_p50_us.high", sliced(timed.high, 0.50)),
        us("lat_p99_us.high", sliced(timed.high, 0.99)),
        {"saturation_rps", saturated_rate(timed.saturated), "1/s"},
        {"achieved_rps.high", layers.achieved_rps, "1/s"},
        us("client.lateness_us_p99", percentile(layers.lateness_us, 0.99)),
    };
    for (int k = 0; k < serve::kQueryKindCount; ++k) {
        const serve::QueryCounters& c =
            layers.counters[static_cast<std::size_t>(k)];
        if (c.requests > 0) {
            report.detail.push_back(us(
                "query.exec_us_mean." +
                    std::string(serve::query_kind_name(
                        static_cast<serve::QueryKind>(k))),
                static_cast<double>(c.total_latency_us) /
                    static_cast<double>(c.requests)));
        }
    }
}

// =============================================================== fleet_ingest

void run_fleet_ingest(const Options& options, Report& report) {
    LayerInputs layers;
    constexpr double kQueryRate = 2000.0;
    constexpr double kPushRate = 20.0;
    /// Share of a round that runs queries alone, to price a query's CPU.
    constexpr double kQueryOnlyShare = 0.2;
    const int push_reps = repeats(options, 4);  ///< cycled per config
    report.settings = {{"query_rate", kQueryRate},
                       {"push_rate", kPushRate},
                       {"rounds", kRounds},
                       {"connections", kConnections},
                       {"server_threads", kServeThreads},
                       {"fit_threads", 1}};

    // Two experiments of one template spec (the fleet fits every experiment
    // with the template's step math), told apart by their repetitions.
    std::uint64_t t0 = now_ns();
    const ed::ExperimentSpec spec = paper_specs(options.seed).front().second;
    const std::array<std::string, 2> experiments = {"fleet-a", "fleet-b"};
    struct Push {
        std::string line;
        std::uint64_t bytes = 0;
    };
    std::array<std::vector<Push>, 2> priming;
    std::array<std::vector<Push>, 2> pushes;  // cycled in the timed part
    std::array<std::string, 2> reference;
    const std::size_t configs = spec.modeling_ranks.size();
    const std::size_t per_experiment =
        static_cast<std::size_t>(push_reps + 1) * configs;
    const auto run_path = [&](int e, int rep, std::size_t c) {
        return work_path(options, "fleet-runs/" + experiments[e] + "/r" +
                                      std::to_string(rep) + "_x" +
                                      std::to_string(spec.modeling_ranks[c]) +
                                      ".edp");
    };
    generate_inputs(options.work_dir, 2 * per_experiment, [&](std::size_t i) {
        const auto e = static_cast<int>(i / per_experiment);
        const auto rep = static_cast<int>(i % per_experiment / configs);
        write_run(run_path(e, rep, i % configs), spec,
                  spec.modeling_ranks[i % configs], 1000 * e + rep);
    });
    for (int e = 0; e < 2; ++e) {
        Corpus corpus;
        corpus.name = experiments[e];
        corpus.spec = spec;
        for (int rep = 0; rep <= push_reps; ++rep) {
            for (std::size_t c = 0; c < configs; ++c) {
                const std::string path = run_path(e, rep, c);
                const std::string edp = read_file(path);
                Push push{"ingest " + experiments[e] + " " +
                              serve::escape_lines(edp),
                          edp.size()};
                if (rep == 0) {
                    corpus.paths.push_back(path);
                    corpus.bytes += edp.size();
                    priming[e].push_back(std::move(push));
                } else {
                    pushes[e].push_back(std::move(push));
                }
            }
        }
        // The offline build of the priming runs is what the fleet must serve
        // after priming, byte for byte.
        const std::string ref_path =
            work_path(options, "fleet-runs/" + experiments[e] + ".edpm");
        const auto model = build_model(corpus, experiments[e], kOfflineThreads,
                                       ref_path, layers.build);
        layers.hypotheses_per_fit = hypotheses_per_fit(model);
        reference[e] = read_file(ref_path);
    }
    report.phases.emplace_back("inputs_s", seconds_since(t0));

    struct Fleet {
        std::shared_ptr<fleet::FleetService> service;
        std::unique_ptr<Daemon> daemon;
        ~Fleet() {
            daemon.reset();
            if (service) {
                service->stop();
            }
        }
    };
    Setups setups(options, [&](const std::string& models_dir) {
        auto registry = std::make_shared<serve::ModelRegistry>();
        fleet::FleetOptions fleet_options;
        fleet_options.models_dir = models_dir;
        fleet_options.spec = spec;
        fleet_options.min_runs = 3;
        fleet_options.quiescence_ns = 200'000'000;
        fleet_options.window = 6;
        fleet_options.fit_threads = 1;
        auto f = std::make_shared<Fleet>();
        f->service =
            std::make_shared<fleet::FleetService>(fleet_options, registry);
        auto engine = std::make_shared<serve::QueryEngine>(registry);
        engine->set_fleet_handler(f->service);
        serve::ServerOptions server = server_options();
        server.max_request_line = 32u << 20;  // a push carries a whole run
        f->daemon =
            std::make_unique<Daemon>(registry, engine, server, kConnections);
        f->service->start(100);
        std::vector<std::string> lines;
        for (const auto& experiment : priming) {
            for (const Push& p : experiment) {
                lines.push_back(p.line);
            }
        }
        for (const std::string& response : serve::query_daemon(
                 server.host, f->daemon->daemon->port(), lines, 30000)) {
            report.check(response.rfind("ok accepted=1", 0) == 0,
                         "priming push rejected: " + response);
        }
        f->service->drain();
        for (int e = 0; e < 2; ++e) {
            report.check(read_file(models_dir + "/" + experiments[e] +
                                   serve::kEdpmExtension) == reference[e],
                         "fleet model differs from the offline build: " +
                             experiments[e]);
        }
        return f;
    });
    const std::shared_ptr<Fleet> f = setups.take_kept<Fleet>();
    fleet::FleetService& service = *f->service;
    serve::QueryEngine check(f->daemon->registry);

    // Freshness bookkeeping. A push (experiment e, generation g) is served
    // once the installed generation of e reaches g. stats() gives only sums
    // over experiments, but the sum of installed generations is exactly
    // accepted - staleness. A round pushes one experiment and ends once
    // every push is served, so while e is pushed every other experiment is
    // installed at its highest acknowledged generation, and
    //   installed(e) = accepted - staleness - sum of acked(other).
    struct PushState {
        int experiment = 0;
        bool acked = false;
        std::uint64_t generation = 0;
        std::uint64_t sent_ns = 0;
    };
    std::vector<PushState> states;
    std::deque<std::size_t> unresolved;
    std::array<std::uint64_t, 2> acked_generation = {priming[0].size(),
                                                     priming[1].size()};
    std::array<std::size_t, 2> cursor{};  // next run of each experiment
    int pushing = 0;
    std::vector<double> freshness_ms;
    std::vector<double> ack_ms;

    const auto push_stream = [&](int e, const std::string& label) {
        return Stream{{0}, kPushRate,
                      derive_seed(options.seed, "pushes." + label),
                      states.size(), [&, e](std::uint64_t i) {
                          const Push& p =
                              pushes[e][cursor[e]++ % pushes[e].size()];
                          states.push_back({e});
                          unresolved.push_back(i);
                          layers.bytes_pushed += p.bytes;
                          return p.line;
                      }};
    };
    const auto on_ack = [&](const Completion& c) {
        PushState& s = states[c.index];
        const std::size_t at = c.response.find(" gen=");
        report.check(c.response.rfind("ok accepted=1", 0) == 0 &&
                         at != std::string_view::npos,
                     "push not acknowledged: " +
                         std::string(c.response.substr(0, 120)));
        if (at == std::string_view::npos) {
            return;
        }
        s.generation = std::stoull(std::string(c.response.substr(at + 5)));
        s.acked = true;
        s.sent_ns = c.sent_ns;
        acked_generation[s.experiment] =
            std::max(acked_generation[s.experiment], s.generation);
        ack_ms.push_back(static_cast<double>(c.recv_ns - c.due_ns) * 1e-6);
    };
    const auto on_tick = [&](std::uint64_t now) {
        const fleet::FleetStats stats = service.stats();
        layers.staleness_max = std::max(layers.staleness_max,
                                        stats.staleness_runs);
        const auto installed =
            static_cast<std::int64_t>(stats.accepted - stats.staleness_runs) -
            static_cast<std::int64_t>(acked_generation[1 - pushing]);
        while (!unresolved.empty()) {
            const PushState& s = states[unresolved.front()];
            if (!s.acked ||
                static_cast<std::int64_t>(s.generation) > installed) {
                break;
            }
            freshness_ms.push_back(static_cast<double>(now - s.sent_ns) * 1e-6);
            unresolved.pop_front();
        }
    };

    std::uint64_t phase_counter = 0;
    // Queries at kQueryRate on three connections for `seconds`, while the
    // fourth pushes runs of experiment `push` at kPushRate (push < 0: no
    // pushes; the phase then runs on until every push is served).
    const auto phase = [&](double seconds, int push) {
        const std::string label = std::to_string(phase_counter++);
        // Models are refitted throughout, so queries stay at the modeling
        // points, where every refit predicts a positive runtime.
        auto mix = std::make_shared<RequestMix>(
            std::vector<Target>{{experiments[0], spec.modeling_ranks},
                                {experiments[1], spec.modeling_ranks}},
            std::vector<Verb>{{"predict", 50}, {"cost", 50}},
            derive_seed(options.seed, "mix." + label));
        // Sampled answers are compared with the in-process answer before
        // sending and after receiving: a hot swap may land in between.
        std::map<std::uint64_t, std::pair<std::string, std::string>> sampled;
        PhaseHooks hooks;
        hooks.on_tick = on_tick;
        if (push < 0) {
            hooks.extend = [&] { return !unresolved.empty(); };
        }
        hooks.on_response = [&](const Completion& c) {
            if (c.stream == 1) {
                on_ack(c);
                return;
            }
            const auto it = sampled.find(c.index);
            if (it != sampled.end()) {
                const auto& [request, before] = it->second;
                report.check(c.response == before ||
                                 c.response == check.execute(request),
                             "daemon answer differs from in-process: " +
                                 request);
            }
        };
        std::vector<Stream> streams = {
            Stream{{1, 2, 3},
                   kQueryRate,
                   derive_seed(options.seed, "arrivals." + label),
                   0,
                   [&, mix](std::uint64_t i) {
                       std::string line = mix->next();
                       if (i % kSampleEvery == 0) {
                           sampled.emplace(
                               i, std::make_pair(line, check.execute(line)));
                       }
                       return line;
                   }}};
        if (push >= 0) {
            pushing = push;
            streams.push_back(push_stream(push, label));
        }
        PhaseResult r = f->daemon->client->run(streams, seconds, hooks);
        account(r, "fleet phase", report);
        return r;
    };

    struct Timed {
        std::vector<double> freshness_ms, ack_ms;
        std::vector<PhaseResult> pushed;  ///< push phases and their tails
        double query_cpu_s = 0.0;         ///< query-only phases
        std::uint64_t query_only_queries = 0;
        double push_cpu_s = 0.0;  ///< push phases and their tails
        std::uint64_t push_phase_queries = 0;
        std::uint64_t pushes = 0;
        double op_p50_ms() const { return median(freshness_ms); }
    };
    const Timed timed = timed_part<Timed>(options, layers, [&](double seconds) {
        Timed r;
        freshness_ms.clear();
        ack_ms.clear();
        const double round_s = seconds / kRounds;
        for (int round = 0; round < kRounds; ++round) {
            report.check(service.stats().staleness_runs == 0,
                         "fleet round started with stale runs");
            double cpu0 = cpu_seconds();
            const PhaseResult q = phase(kQueryOnlyShare * round_s, -1);
            r.query_cpu_s += cpu_seconds() - cpu0;
            r.query_only_queries += q.completed_stream0;
            setups.repeat(4);

            cpu0 = cpu_seconds();
            const std::size_t pushes0 = states.size();
            r.pushed.push_back(
                phase((1 - kQueryOnlyShare) * round_s, round % 2));
            r.pushed.push_back(phase(0.0, -1));
            r.push_cpu_s += cpu_seconds() - cpu0;
            r.pushes += states.size() - pushes0;
            report.check(unresolved.empty(),
                         "pushes not served within the phase extension");
            unresolved.clear();
            setups.repeat(4);
        }
        for (const PhaseResult& p : r.pushed) {
            r.push_phase_queries += p.completed_stream0;
        }
        r.freshness_ms = freshness_ms;
        r.ack_ms = ack_ms;
        return r;
    });

    service.drain();
    const fleet::FleetStats stats = service.stats();
    report.check(stats.staleness_runs == 0, "staleness left after drain()");
    report.check(stats.refit_failures == 0, "fleet refits failed");
    report.check(stats.quarantined == 0, "fleet quarantined a push");
    layers.fleet = stats;
    layers.counters = f->daemon->engine->counters();
    layers.rtt_us = concat(timed.pushed, &PhaseResult::rtt_us);
    layers.lateness_us = concat(timed.pushed, &PhaseResult::lateness_us);
    layers.achieved_rps = timed.pushed.front().completion_rate();
    const std::string models_dir = service.options().models_dir;
    f->daemon.reset();
    service.stop();
    layers.registry = probe_registry(models_dir);

    if (options.trace) {
        finish_traced(options, layers, report);
        return;
    }
    // CPU per push: the push phases' CPU less what their queries cost at
    // the query-only phases' CPU per query.
    const double cpu_per_query =
        timed.query_cpu_s / static_cast<double>(std::max<std::uint64_t>(
                                timed.query_only_queries, 1));
    const double push_cpu_s =
        timed.push_cpu_s -
        cpu_per_query * static_cast<double>(timed.push_phase_queries);
    const double pushed_runs =
        static_cast<double>(std::max<std::uint64_t>(timed.pushes, 1));
    report.end_to_end = {
        {"setup_s", setups.median_s(), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        ms("op_p50_ms", median(timed.freshness_ms)),
        ms("cpu_ms_per_op", push_cpu_s * 1e3 / pushed_runs),
    };
    report.detail = {
        ms("freshness_p50_ms", median(timed.freshness_ms)),
        ms("freshness_p95_ms", percentile(timed.freshness_ms, 0.95)),
        ms("ingest_ack_p50_ms", median(timed.ack_ms)),
        ms("ingest_ack_p95_ms", percentile(timed.ack_ms, 0.95)),
        us("lat_p50_us.low", sliced(timed.pushed, 0.50)),
        us("lat_p99_us.low", sliced(timed.pushed, 0.99)),
        us("cpu_us_per_query", cpu_per_query * 1e6),
        count("pushes", pushed_runs),
        count("freshness_samples",
              static_cast<double>(timed.freshness_ms.size())),
        count("staleness_max", static_cast<double>(layers.staleness_max)),
    };
}

}  // namespace ledger
