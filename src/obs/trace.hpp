#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"

namespace extradeep::obs {

/// Span tracing for the Extra-Deep pipeline itself (ISSUE 5 tentpole).
///
/// A Span is an RAII scope: construction records the start timestamp,
/// destruction the end. Spans nest through a thread-local ambient
/// current-span id, and the nesting survives ThreadPool::parallel_for
/// dispatch via the TaskContextHook registered in common/parallel_for - a
/// span opened inside a worker chunk gets the dispatching call site's span
/// as its parent, so fitter hypothesis-search chunks appear under the
/// per-metric fit span in the exported trace.
///
/// The global entry point is `Span span{"stage.name"};` which records into
/// global_tracer() only while tracing is enabled (set_trace_enabled). The
/// disabled path is a single relaxed atomic load and a branch - cheap
/// enough to leave instrumentation in hot paths permanently (proven by
/// BM_ObsSpanOverhead in bench/).

/// One completed span. Timestamps come from the owning tracer's Clock.
struct SpanRecord {
    std::string name;          ///< stage label, e.g. "fit.metric"
    std::uint64_t id = 0;      ///< unique within the tracer, never 0
    std::uint64_t parent = 0;  ///< enclosing span id, 0 for roots
    int thread = 0;            ///< tracer-assigned dense thread index
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;

    double duration_us() const {
        return static_cast<double>(end_ns - start_ns) * 1e-3;
    }
};

class Span;

/// Collects completed spans from any number of threads. Each thread writes
/// into its own buffer (registered on first use), so recording contends
/// only on that thread's mutex; snapshot() merges all buffers into one
/// deterministic, (start_ns, id)-sorted list.
class Tracer {
public:
    /// `clock == nullptr` means steady_clock_instance().
    explicit Tracer(const Clock* clock = nullptr);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// All completed spans so far, sorted by (start_ns, id).
    std::vector<SpanRecord> snapshot() const;

    /// Number of completed spans (cheaper than snapshot().size()).
    std::size_t span_count() const;

    /// Discards completed spans. Thread buffers and id sequences survive,
    /// so long-running processes (and the span-overhead benchmark) can cap
    /// memory without perturbing identity assignment.
    void clear();

private:
    friend class Span;

    struct ThreadBuffer {
        int index = 0;               ///< dense registration order
        std::uint64_t next_seq = 0;  ///< owner-thread-only span sequence
        mutable std::mutex mutex;    ///< guards `completed`
        std::vector<SpanRecord> completed;
    };

    /// Returns (registering on first use) the calling thread's buffer.
    ThreadBuffer& local_buffer();

    const std::uint64_t uid_;  ///< distinguishes tracers in thread caches
    const Clock* const clock_;
    mutable std::mutex mutex_;  ///< guards `buffers_`
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

namespace detail {
/// Namespace-scope atomic (constant-initialised - no function-static guard
/// on the hot path). Read via trace_enabled().
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// Whether globally-routed spans currently record. Relaxed load: callers
/// need a cheap hint, not an ordering guarantee.
inline bool trace_enabled() {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Turns global span recording on or off. Enabling also registers the
/// span-context TaskContextHook with common/parallel_for (it stays
/// registered afterwards; the hook is two thread-local accesses per chunk,
/// negligible when tracing is off).
void set_trace_enabled(bool enabled);

/// The process-wide tracer used by `Span{"name"}`.
Tracer& global_tracer();

/// RAII scoped span. Non-copyable, non-movable; open and close must happen
/// on the same thread (it is a *scope*, not a handle).
class Span {
public:
    /// Globally-routed span: records into global_tracer() iff tracing is
    /// enabled at construction. The disabled path does no work beyond one
    /// relaxed atomic load.
    explicit Span(std::string_view name) {
        if (trace_enabled()) [[unlikely]] {
            open(global_tracer(), name);
        }
    }

    /// Explicit-tracer span: always records. Used by tests that own a
    /// Tracer with a FakeClock.
    Span(Tracer& tracer, std::string_view name) { open(tracer, name); }

    ~Span() {
        if (buffer_ != nullptr) {
            close();
        }
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// The span's id (0 when the span is not recording).
    std::uint64_t id() const { return id_; }

private:
    void open(Tracer& tracer, std::string_view name);
    void close();

    Tracer* tracer_ = nullptr;
    Tracer::ThreadBuffer* buffer_ = nullptr;
    std::string name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t start_ns_ = 0;
};

/// The thread-local ambient span id (0 when no span is open). Exposed for
/// tests of the parallel_for propagation hook.
std::uint64_t current_span_id();

/// Serialises spans in the Chrome trace-event JSON format (one "X" complete
/// event per span; ts/dur in microseconds, tid = tracer thread index).
/// Loads in Perfetto / chrome://tracing and parses with common/json.
std::string chrome_trace_json(const std::vector<SpanRecord>& spans);

/// Human-readable per-span-name summary table: count, total ms, p50 us,
/// p95 us - sorted by descending total time. Percentiles use the
/// nearest-rank method (deterministic, no interpolation).
std::string text_summary(const std::vector<SpanRecord>& spans);

}  // namespace extradeep::obs
