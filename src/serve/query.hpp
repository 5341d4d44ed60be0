#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "serve/registry.hpp"

namespace extradeep::serve {

/// Request kinds of the serving protocol, including the bookkeeping bucket
/// for unknown commands (`Other`).
enum class QueryKind {
    Predict,
    Speedup,
    Efficiency,
    Cost,
    Search,
    Whatif,
    Advise,
    List,
    Stats,
    Metrics,
    Ping,
    Reload,
    Ingest,
    FleetStats,
    Plan,
    Other,
};

inline constexpr int kQueryKindCount = 16;

std::string_view query_kind_name(QueryKind kind);

/// Per-kind serving counters, exported via the `stats` query.
struct QueryCounters {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t total_latency_us = 0;
    std::uint64_t max_latency_us = 0;
};

/// True for a request of one of the cheap verbs: predict, speedup,
/// efficiency and cost. Each answer is a model lookup plus a few
/// closed-form evaluations, microseconds of work, so the daemon runs them on
/// its event loop; every other request (and a malformed one) goes to the
/// worker pool. Looks at the verb only: arguments are checked by execute().
bool is_cheap_request(std::string_view request);

/// Escapes a multi-line payload into the single-line response protocol
/// ('\\' -> "\\\\", '\n' -> "\\n") and back. The `metrics` verb uses this:
/// its Prometheus exposition is inherently multi-line while the protocol is
/// one response line per request.
std::string escape_lines(const std::string& text);
std::string unescape_lines(const std::string& text);

/// Continuous-modeling hook of the serve protocol (src/fleet implements
/// it). The engine stays decoupled from the fleet subsystem: it only knows
/// how to route the two fleet verbs and when to refresh backlog gauges.
/// Implementations must be thread-safe — the daemon calls them from any
/// worker thread.
class FleetHandler {
public:
    virtual ~FleetHandler() = default;

    /// Handles one pushed run: `payload` is the escape_lines-encoded bytes
    /// of a whole EDP profile, `experiment` the registry/model name the run
    /// belongs to. Returns the response payload (rendered after "ok ").
    /// Throws Error for rejected pushes (bad name, oversized payload,
    /// quarantined run) — the engine maps it to an `err` line.
    virtual std::string handle_ingest(const std::string& experiment,
                                      const std::string& payload) = 0;

    /// One-line fleet state for the `fleet-stats` verb (rendered after
    /// "ok ").
    virtual std::string fleet_stats_line() = 0;

    /// Called once when the handler is attached to an engine: create the
    /// fleet instruments (refit/swap counters, latency histograms, backlog
    /// gauges) in the engine's metrics registry.
    virtual void attach_metrics(obs::MetricsRegistry& metrics) = 0;

    /// Called by the `metrics` verb before rendering the exposition:
    /// refresh point-in-time gauges (pool backlog, staleness).
    virtual void update_metrics() = 0;
};

/// Answers line-protocol queries against a model registry. This is the
/// library API of the serving subsystem; the TCP daemon is a thin transport
/// over execute(), so daemon answers are byte-identical to library answers
/// by construction.
///
/// Request grammar (space-separated tokens, one request per line):
///   ping
///   list
///   stats
///   metrics
///   reload
///   predict    <model> <x> [epoch|computation|communication|memory] [conf]
///   speedup    <model> <x1> <x2> [<x> ...]          (Eq. 11, vs first x)
///   efficiency <model> <x1> <x2> [<x> ...]          (Eq. 13, vs first x)
///   cost       <model> <x> [rho]                    (Eq. 14)
///   search     <model> <max_time_s> <max_cost> <x1> [<x> ...]   (Sec. 3.3)
///   whatif     <model> <x> <transform>[+<transform>]...  (what-if scenario,
///              e.g. `whatif m 16 interconnect:2+overlap:0.5`; see
///              advisor::parse_scenario for the transform grammar)
///   advise     <model> <x> [top]       (ranked what-if portfolio, top N)
///   plan       <model> <x1> [<x> ...]  (adaptive-profiling acquisition: rank
///              candidate rank counts by the served model's relative
///              prediction-interval width and name the one to profile next;
///              the serve-side view of the extradeep-plan racing loop)
///   ingest     <experiment> <payload>  (push one EDP run into the fleet
///              loop; payload = escape_lines(EDP bytes), taken verbatim to
///              end of line. Requires an attached FleetHandler.)
///   fleet-stats                        (continuous-modeling loop state;
///              requires an attached FleetHandler)
///
/// Responses are a single line: `ok <payload>` or `err <reason>`. All
/// numbers are rendered with fmt::shortest, so answers are deterministic
/// and exact. Execution never throws: every library error is mapped to an
/// `err` response and counted.
class QueryEngine {
public:
    /// `clock` times per-request latencies (nullptr means the shared steady
    /// clock). Injecting an obs::FakeClock with a fixed auto-step makes the
    /// `stats` and `metrics` responses byte-stable across identical request
    /// sequences - daemon and library mode included.
    explicit QueryEngine(std::shared_ptr<ModelRegistry> registry,
                         const obs::Clock* clock = nullptr);

    /// Attaches the continuous-modeling handler behind the `ingest` and
    /// `fleet-stats` verbs (both answer `err fleet mode disabled` without
    /// one) and creates its instruments in this engine's metrics registry.
    /// Call before serving begins; attaching twice throws.
    void set_fleet_handler(std::shared_ptr<FleetHandler> handler);

    const std::shared_ptr<FleetHandler>& fleet_handler() const {
        return fleet_;
    }

    /// Executes one request line and returns the response line (without a
    /// trailing newline). Thread-safe.
    std::string execute(const std::string& request);

    /// Per-kind counters, read from the instruments execute() updates:
    /// requests and errors from the counters, total latency from the
    /// latency histogram's sum (exact: integer microseconds summed as
    /// doubles stay below 2^53), and the maximum from one atomic per kind.
    /// Each field is read on its own; a request completing meanwhile may
    /// show in one field and not yet in another.
    std::array<QueryCounters, kQueryKindCount> counters() const;

    /// The engine-local metrics registry behind the `metrics` verb:
    /// per-kind request/error counters and latency histograms. Engine-local
    /// (not global_metrics()) so identical engines produce identical
    /// expositions regardless of what else ran in the process.
    const obs::MetricsRegistry& metrics() const { return metrics_; }

    const std::shared_ptr<ModelRegistry>& registry() const {
        return registry_;
    }

private:
    std::string dispatch(const std::string& request, QueryKind& kind);

    std::shared_ptr<ModelRegistry> registry_;
    std::shared_ptr<FleetHandler> fleet_;
    const obs::Clock* clock_;
    obs::MetricsRegistry metrics_;
    std::array<obs::Counter*, kQueryKindCount> request_counters_{};
    std::array<obs::Counter*, kQueryKindCount> error_counters_{};
    std::array<obs::Histogram*, kQueryKindCount> latency_histograms_{};
    std::array<std::atomic<std::uint64_t>, kQueryKindCount> max_latency_us_{};
    obs::Gauge* models_gauge_ = nullptr;
};

}  // namespace extradeep::serve
