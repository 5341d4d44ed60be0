#include "obs/trace.hpp"

#include <algorithm>
#include <map>

#include "common/json.hpp"
#include "common/parallel_for.hpp"
#include "common/table.hpp"
#include "common/format.hpp"

namespace extradeep::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

/// The ambient current-span id of this thread. parallel_for workers inherit
/// the dispatching thread's value through the TaskContextHook below.
thread_local std::uint64_t t_current_span = 0;

std::uint64_t hook_capture() { return t_current_span; }

std::uint64_t hook_install(std::uint64_t token) {
    const std::uint64_t previous = t_current_span;
    t_current_span = token;
    return previous;
}

void hook_restore(std::uint64_t previous) { t_current_span = previous; }

constexpr TaskContextHook kSpanContextHook{&hook_capture, &hook_install,
                                           &hook_restore};

/// Monotonic tracer uid source, so a thread's cached buffer pointers can
/// never be confused across distinct Tracer instances (address reuse after
/// destruction would otherwise alias them).
std::atomic<std::uint64_t> g_next_tracer_uid{1};

struct CacheEntry {
    std::uint64_t uid = 0;
    std::shared_ptr<void> buffer;  ///< keeps the buffer alive past the tracer
    void* raw = nullptr;
};

thread_local std::vector<CacheEntry> t_buffers;

}  // namespace

std::uint64_t current_span_id() { return t_current_span; }

void set_trace_enabled(bool enabled) {
    if (enabled) {
        set_task_context_hook(&kSpanContextHook);
    }
    detail::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

Tracer& global_tracer() {
    static Tracer tracer;
    return tracer;
}

Tracer::Tracer(const Clock* clock)
    : uid_(g_next_tracer_uid.fetch_add(1, std::memory_order_relaxed)),
      clock_(clock != nullptr ? clock : &steady_clock_instance()) {}

Tracer::ThreadBuffer& Tracer::local_buffer() {
    for (const CacheEntry& entry : t_buffers) {
        if (entry.uid == uid_) {
            return *static_cast<ThreadBuffer*>(entry.raw);
        }
    }
    auto buffer = std::make_shared<ThreadBuffer>();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        buffer->index = static_cast<int>(buffers_.size());
        buffers_.push_back(buffer);
    }
    t_buffers.push_back(CacheEntry{uid_, buffer, buffer.get()});
    return *buffer;
}

std::vector<SpanRecord> Tracer::snapshot() const {
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers = buffers_;
    }
    std::vector<SpanRecord> out;
    for (const auto& buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        out.insert(out.end(), buffer->completed.begin(),
                   buffer->completed.end());
    }
    std::sort(out.begin(), out.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                  return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                  : a.id < b.id;
              });
    return out;
}

std::size_t Tracer::span_count() const {
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers = buffers_;
    }
    std::size_t n = 0;
    for (const auto& buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        n += buffer->completed.size();
    }
    return n;
}

void Tracer::clear() {
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers = buffers_;
    }
    for (const auto& buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        buffer->completed.clear();
        buffer->completed.shrink_to_fit();
    }
}

void Span::open(Tracer& tracer, std::string_view name) {
    tracer_ = &tracer;
    buffer_ = &tracer.local_buffer();
    name_.assign(name);
    parent_ = t_current_span;
    // Unique across threads without coordination: high bits carry the
    // thread index (+1 so ids are never 0), low 40 bits a per-thread
    // sequence.
    id_ = (static_cast<std::uint64_t>(buffer_->index) + 1) << 40 |
          ++buffer_->next_seq;
    t_current_span = id_;
    start_ns_ = tracer.clock_->now_ns();
}

void Span::close() {
    const std::uint64_t end_ns = tracer_->clock_->now_ns();
    t_current_span = parent_;
    SpanRecord record;
    record.name = std::move(name_);
    record.id = id_;
    record.parent = parent_;
    record.thread = buffer_->index;
    record.start_ns = start_ns_;
    record.end_ns = end_ns;
    std::lock_guard<std::mutex> lock(buffer_->mutex);
    buffer_->completed.push_back(std::move(record));
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans) {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord& span : spans) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += "{\"name\":" + json::quote(span.name) +
               ",\"cat\":\"extradeep\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
               std::to_string(span.thread) +
               ",\"ts\":" + json::number(static_cast<double>(span.start_ns) * 1e-3) +
               ",\"dur\":" + json::number(span.duration_us()) +
               ",\"args\":{\"id\":" + std::to_string(span.id) +
               ",\"parent\":" + std::to_string(span.parent) + "}}";
    }
    out += "]}";
    return out;
}

namespace {

/// Nearest-rank percentile on a sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) {
        return 0.0;
    }
    const double rank = q * static_cast<double>(sorted.size());
    std::size_t index = static_cast<std::size_t>(rank);
    if (static_cast<double>(index) < rank) {
        ++index;  // ceil
    }
    if (index == 0) {
        index = 1;
    }
    return sorted[std::min(index, sorted.size()) - 1];
}

}  // namespace

std::string text_summary(const std::vector<SpanRecord>& spans) {
    struct Agg {
        std::vector<double> durations_us;
        double total_us = 0.0;
    };
    std::map<std::string, Agg> by_name;
    for (const SpanRecord& span : spans) {
        Agg& agg = by_name[span.name];
        agg.durations_us.push_back(span.duration_us());
        agg.total_us += span.duration_us();
    }
    std::vector<std::pair<std::string, Agg>> rows;
    rows.reserve(by_name.size());
    for (auto& [name, agg] : by_name) {
        std::sort(agg.durations_us.begin(), agg.durations_us.end());
        rows.emplace_back(name, std::move(agg));
    }
    // Descending total time; name breaks ties so output stays deterministic.
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.total_us != b.second.total_us
                   ? a.second.total_us > b.second.total_us
                   : a.first < b.first;
    });

    Table table({"span", "count", "total_ms", "p50_us", "p95_us"});
    for (const auto& [name, agg] : rows) {
        table.add_row({name, fmt::count(static_cast<std::int64_t>(
                                 agg.durations_us.size())),
                       fmt::fixed(agg.total_us * 1e-3, 3),
                       fmt::fixed(percentile_sorted(agg.durations_us, 0.50), 3),
                       fmt::fixed(percentile_sorted(agg.durations_us, 0.95), 3)});
    }
    return table.to_string();
}

}  // namespace extradeep::obs
