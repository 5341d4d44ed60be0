#pragma once

// extradeep-ledger: one benchmark that drives the pipeline from EDP corpus
// to served answer through the libraries' public functions only. See
// README.md for the workloads, the metrics and what each layer metric is
// expected to move.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "extradeep/runner.hpp"
#include "obs/trace.hpp"
#include "serve/serialize.hpp"

namespace ledger {

namespace ed = extradeep;

// ---------------------------------------------------------------- basics

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double seconds_since(std::uint64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Nearest-rank percentile of an exact sample (q in [0, 1]); 0 if empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// User + system CPU seconds of this process so far (getrusage).
double cpu_seconds();
/// Peak resident set size of this process so far, MB (getrusage).
double peak_rss_mb();

/// Deterministic 64-bit stream derived from the run seed and a label, so
/// every input is a function of --seed alone.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view label);

// ---------------------------------------------------------------- report

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload run produces. End-to-end metrics come from the
/// untraced run, per-layer metrics from the traced one; `detail` holds
/// user-visible numbers that are reported but not gated (low-rate latency,
/// ingest ack latency, ...).
struct Report {
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    std::vector<Metric> detail;
    /// Operations attempted and failed (requests, builds, pushes, output
    /// checks). A failed output check counts as a failed operation.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< first few failure reasons
    /// For the environment header: phase durations (s) and the workload's
    /// frozen settings (rates, thread counts).
    std::vector<std::pair<std::string, double>> phases;
    std::vector<std::pair<std::string, double>> settings;

    void check(bool ok, const std::string& what);
    void add_failures(std::uint64_t count, const std::string& what);
};

// ---------------------------------------------------------------- options

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string trace_dir;  ///< Chrome trace + self-time table, if set
    bool smoke = false;
    std::string out;        ///< full JSON report, if set
    std::string work_dir;   ///< scratch root for corpora and models
};

// ---------------------------------------------------------------- pipeline

/// One EDP corpus on disk: an .edp file per modeling point and repetition
/// of one experiment, profiled with the paper's efficient sampling.
struct Corpus {
    std::string name;
    ed::ExperimentSpec spec;
    std::vector<std::string> paths;
    std::uintmax_t bytes = 0;
};

/// The four data-parallel experiments the workloads draw from: CIFAR-10
/// weak, ImageNet strong, IMDB weak, Speech Commands strong.
std::vector<std::pair<std::string, ed::ExperimentSpec>> paper_specs(
    std::uint64_t seed);

/// The files of a corpus of `spec` under `dir`, one per modeling point and
/// repetition; nothing is written (bytes stays 0).
Corpus corpus_layout(const std::string& dir, const std::string& name,
                     const ed::ExperimentSpec& spec);

/// Writes the dirty pages of the file system holding `dir` to disk.
void flush_files(const std::string& dir);

/// Runs `generate` in a child process with up to four threads, calling
/// generate(i) for every i in [0, n), then flushes the file system holding
/// `dir` and waits for the child. Inputs are written to disk this way so
/// that their memory never counts towards this process's peak RSS and
/// their writeback does not run into set-up or the timed part. Call it
/// while this process runs no other thread.
void generate_inputs(const std::string& dir, std::size_t n,
                     const std::function<void(std::size_t)>& generate);

/// Profiles one run of `spec` and writes it as an .edp file.
void write_run(const std::string& path, const ed::ExperimentSpec& spec,
               int ranks, int rep);

/// Writes every run of `corpora` (generate_inputs) and sets their sizes.
void write_corpora(const std::string& dir, std::vector<Corpus>& corpora);

struct BuildStats {
    std::size_t kernel_models = 0;
    std::size_t runs_dropped = 0;
    std::uintmax_t bytes_ingested = 0;
};

/// Corpus -> servable model: ingest_edp_files (streaming), model_kernels
/// (Time/Bytes/Visits), the eight application fits, make_servable and, if
/// `export_path` is set, write_edpm_file. Each public call is wrapped in a
/// `ledger.*` span under one `ledger.build`.
ed::serve::ServableModel build_model(const Corpus& corpus,
                                     const std::string& name, int threads,
                                     const std::string& export_path,
                                     BuildStats& stats);

/// write_edpm_file under a `ledger.write_edpm` span.
void export_model(const std::string& path,
                  const ed::serve::ServableModel& model);

std::string read_file(const std::string& path);

// ---------------------------------------------------------------- client

/// Latency percentiles and saturated throughput are taken per slice of a
/// phase this long (seconds), then aggregated over the slices.
inline constexpr double kSliceS = 0.25;

/// One request stream. Open loop (rate > 0): Poisson arrivals at `rate`
/// per second, spread round-robin over `connections`. Closed loop (rate 0):
/// every connection sends its next request as soon as the previous one is
/// answered, so the daemon runs saturated. `line(i)` yields the request with
/// index i, called in arrival order from `first_index` on.
struct Stream {
    std::vector<int> connections;
    double rate = 0.0;
    std::uint64_t seed = 0;
    std::uint64_t first_index = 0;
    std::function<std::string(std::uint64_t index)> line;
};

/// A completed request, handed to the phase's response callback.
struct Completion {
    int stream = 0;
    std::uint64_t index = 0;
    std::uint64_t due_ns = 0;
    std::uint64_t sent_ns = 0;
    std::uint64_t recv_ns = 0;
    std::string_view response;
};

struct PhaseHooks {
    std::function<void(const Completion&)> on_response;
    /// Called about every millisecond while the phase runs.
    std::function<void(std::uint64_t now)> on_tick;
    /// While true after the scheduled end, arrivals keep coming (for at
    /// most a few seconds), e.g. until every push is known to be served.
    std::function<bool()> extend;
};

struct PhaseResult {
    double seconds = 0.0;         ///< scheduled length
    double wall_s = 0.0;          ///< phase start .. last response
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;     ///< err lines, timeouts, dropped links
    std::uint64_t completed_stream0 = 0;
    /// Stream 0's responses in each kSliceS slice of the phase.
    std::vector<std::uint64_t> slice_completions;
    std::vector<double> latency_us;  ///< open-loop stream 0, due -> response
    std::vector<double> rtt_us;      ///< the same requests, send -> response
    std::vector<double> due_s;       ///< the same requests' due times
    std::vector<double> lateness_us; ///< send time - due time, open loop
    /// Stream 0's responses per second of the phase.
    double completion_rate() const {
        return wall_s > 0.0 ? static_cast<double>(completed_stream0) / wall_s
                            : 0.0;
    }
};

/// Percentile q of stream 0's `samples` (latency_us or rtt_us, us) within
/// each slice of the phase (by due time). Metrics aggregate over slices, so
/// a stall of the shared host moves a few slices rather than the result.
std::vector<double> slice_percentiles(
    const PhaseResult& phase, const std::vector<double> PhaseResult::*samples,
    double q);

/// Single-threaded load client over at most four non-blocking connections
/// to a daemon. A connection carries one request at a time; requests due
/// meanwhile wait in the client. Every request is timed from its due time,
/// so a stall also counts against the requests queued behind it.
class LoadClient {
public:
    LoadClient(const std::string& host, int port, int connections);
    ~LoadClient();

    LoadClient(const LoadClient&) = delete;
    LoadClient& operator=(const LoadClient&) = delete;

    /// Runs `streams` for `seconds`, then waits (up to a timeout) for every
    /// outstanding response. Latency samples are kept for stream 0 when it
    /// is open loop.
    PhaseResult run(std::vector<Stream> streams, double seconds,
                    const PhaseHooks& hooks);

private:
    struct Connection;
    std::vector<std::unique_ptr<Connection>> connections_;
};

// ---------------------------------------------------------------- tracing

/// Self-time attribution over the spans of a traced run.
struct SpanTable {
    struct Row {
        std::uint64_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
        std::vector<double> durations_us;
    };
    std::map<std::string, Row> rows;
    /// Share of the ledger.build spans' wall time covered by child spans.
    double build_attributed_pct = 0.0;
    std::uint64_t spans = 0;

    const Row& row(const std::string& name) const;
    double self_ms(std::initializer_list<const char*> names) const;
    double p50_us(const std::string& name) const;
    std::string to_text() const;
};

SpanTable attribute(const std::vector<ed::obs::SpanRecord>& spans);

// ---------------------------------------------------------------- workloads

void run_model_build(const Options& options, Report& report);
void run_serve(const Options& options, bool mixed, Report& report);
void run_fleet_ingest(const Options& options, Report& report);

}  // namespace ledger
