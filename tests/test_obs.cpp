#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parallel_for.hpp"
#include "extradeep/ingest.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/selfprofile.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "profiling/edp_io.hpp"

// The observability subsystem (src/obs): deterministic span tracing under a
// FakeClock, Chrome/text export, the metrics registry and its Prometheus
// exposition, span-context propagation across ThreadPool::parallel_for, and
// the self-profiling .edp round-trip through the real ingestion pipeline.

using namespace extradeep;

namespace fs = std::filesystem;

namespace {

fs::path temp_dir(const std::string& tag) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("obs-" + tag);
    fs::create_directories(dir);
    return dir;
}

/// Restores the global tracing switch (and empties the global tracer) on
/// scope exit, so tests that flip it cannot leak state into later suites.
struct TraceStateGuard {
    ~TraceStateGuard() {
        obs::set_trace_enabled(false);
        obs::global_tracer().clear();
    }
};

}  // namespace

TEST(FakeClock, AutoStepAdvancesPerReading) {
    const obs::FakeClock clock(100, 10);
    EXPECT_EQ(clock.now_ns(), 100u);
    EXPECT_EQ(clock.now_ns(), 110u);
    EXPECT_EQ(clock.now_ns(), 120u);
}

TEST(FakeClock, FrozenUntilAdvanced) {
    obs::FakeClock clock;
    EXPECT_EQ(clock.now_ns(), 0u);
    EXPECT_EQ(clock.now_ns(), 0u);
    clock.advance(7);
    EXPECT_EQ(clock.now_ns(), 7u);
    clock.set(1000);
    EXPECT_EQ(clock.now_ns(), 1000u);
}

TEST(Tracer, DeterministicNestedSpansUnderFakeClock) {
    const obs::FakeClock clock(1000, 1000);
    obs::Tracer tracer(&clock);
    {
        const obs::Span outer(tracer, "outer");
        EXPECT_NE(outer.id(), 0u);
        {
            const obs::Span inner(tracer, "inner");
            EXPECT_EQ(obs::current_span_id(), inner.id());
        }
        EXPECT_EQ(obs::current_span_id(), outer.id());
    }
    EXPECT_EQ(obs::current_span_id(), 0u);

    const std::vector<obs::SpanRecord> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    // Sorted by start time: outer opened first (t=1000), inner at t=2000.
    EXPECT_EQ(spans[0].name, "outer");
    EXPECT_EQ(spans[0].start_ns, 1000u);
    EXPECT_EQ(spans[0].end_ns, 4000u);
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_EQ(spans[1].name, "inner");
    EXPECT_EQ(spans[1].start_ns, 2000u);
    EXPECT_EQ(spans[1].end_ns, 3000u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_DOUBLE_EQ(spans[1].duration_us(), 1.0);
    EXPECT_EQ(spans[0].thread, 0);
}

TEST(Tracer, ClearKeepsIdentitySequence) {
    const obs::FakeClock clock(0, 1);
    obs::Tracer tracer(&clock);
    std::uint64_t first_id = 0;
    {
        const obs::Span span(tracer, "a");
        first_id = span.id();
    }
    EXPECT_EQ(tracer.span_count(), 1u);
    tracer.clear();
    EXPECT_EQ(tracer.span_count(), 0u);
    {
        const obs::Span span(tracer, "b");
        EXPECT_GT(span.id(), first_id);  // ids never recycle across clear()
    }
}

TEST(Tracer, DisabledGlobalSpanRecordsNothing) {
    const TraceStateGuard guard;
    obs::set_trace_enabled(false);
    obs::global_tracer().clear();
    const std::size_t before = obs::global_tracer().span_count();
    {
        const obs::Span span{"noop"};
        EXPECT_EQ(span.id(), 0u);
        EXPECT_EQ(obs::current_span_id(), 0u);
    }
    EXPECT_EQ(obs::global_tracer().span_count(), before);
}

TEST(Tracer, ConcurrentSpansFromManyThreads) {
    const obs::FakeClock clock(0, 1);
    obs::Tracer tracer(&clock);
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 100;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tracer] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                const obs::Span span(tracer, "worker.span");
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }

    const std::vector<obs::SpanRecord> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(),
              static_cast<std::size_t>(kThreads * kSpansPerThread));
    std::set<std::uint64_t> ids;
    std::set<int> thread_indices;
    for (const obs::SpanRecord& span : spans) {
        ids.insert(span.id);
        thread_indices.insert(span.thread);
        EXPECT_EQ(span.parent, 0u);
        EXPECT_GE(span.end_ns, span.start_ns);
    }
    EXPECT_EQ(ids.size(), spans.size());  // ids unique across threads
    EXPECT_EQ(thread_indices.size(), static_cast<std::size_t>(kThreads));
    // Dense registration-order indices.
    EXPECT_GE(*thread_indices.begin(), 0);
    EXPECT_LT(*thread_indices.rbegin(), kThreads);
}

TEST(Tracer, ParallelForPropagatesAmbientSpan) {
    const TraceStateGuard guard;
    obs::set_trace_enabled(true);
    obs::global_tracer().clear();

    std::uint64_t outer_id = 0;
    std::mutex mutex;
    std::vector<std::uint64_t> observed_parents;
    {
        const obs::Span outer{"dispatch"};
        outer_id = outer.id();
        ASSERT_NE(outer_id, 0u);
        ThreadPool pool(3);
        pool.parallel_for(16, [&](int, std::size_t, std::size_t) {
            // The dispatching span must be ambient on the worker thread.
            const std::lock_guard<std::mutex> lock(mutex);
            observed_parents.push_back(obs::current_span_id());
        });
    }

    ASSERT_FALSE(observed_parents.empty());
    for (const std::uint64_t parent : observed_parents) {
        EXPECT_EQ(parent, outer_id);
    }
}

TEST(Tracer, ParallelForChunkSpansNestUnderCaller) {
    const TraceStateGuard guard;
    obs::set_trace_enabled(true);
    obs::global_tracer().clear();

    std::uint64_t outer_id = 0;
    {
        const obs::Span outer{"dispatch"};
        outer_id = outer.id();
        ThreadPool pool(4);
        pool.parallel_for(32, [](int, std::size_t, std::size_t) {
            const obs::Span chunk{"chunk"};
        });
    }
    obs::set_trace_enabled(false);

    int chunks = 0;
    for (const obs::SpanRecord& span : obs::global_tracer().snapshot()) {
        if (span.name == "chunk") {
            ++chunks;
            EXPECT_EQ(span.parent, outer_id);
        }
    }
    EXPECT_GE(chunks, 1);
    EXPECT_LE(chunks, 4);
}

TEST(TraceExport, ChromeJsonParsesWithCommonJson) {
    const obs::FakeClock clock(5000, 500);
    obs::Tracer tracer(&clock);
    {
        const obs::Span outer(tracer, "stage \"one\"");  // exercises quoting
        const obs::Span inner(tracer, "stage.two");
    }
    const std::string text = tracer.snapshot().empty()
                                 ? std::string()
                                 : obs::chrome_trace_json(tracer.snapshot());
    ASSERT_FALSE(text.empty());

    const json::Value doc = json::parse(text, "chrome trace");
    ASSERT_EQ(doc.kind, json::Value::Kind::Object);
    const json::Value* unit = doc.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->string, "ms");
    const json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, json::Value::Kind::Array);
    ASSERT_EQ(events->array.size(), 2u);
    for (const json::Value& event : events->array) {
        ASSERT_EQ(event.kind, json::Value::Kind::Object);
        EXPECT_EQ(event.find("ph")->string, "X");
        EXPECT_NE(event.find("name"), nullptr);
        EXPECT_NE(event.find("ts"), nullptr);
        EXPECT_NE(event.find("dur"), nullptr);
        EXPECT_NE(event.find("pid"), nullptr);
        EXPECT_NE(event.find("tid"), nullptr);
        const json::Value* args = event.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_NE(args->find("id"), nullptr);
        EXPECT_NE(args->find("parent"), nullptr);
    }
    // ts/dur are microseconds on the fake timeline.
    EXPECT_DOUBLE_EQ(events->array[0].find("ts")->number, 5.0);
}

TEST(TraceExport, TextSummaryAggregatesPerName) {
    const obs::FakeClock clock(0, 1000);
    obs::Tracer tracer(&clock);
    for (int i = 0; i < 3; ++i) {
        const obs::Span span(tracer, "repeated.stage");
    }
    { const obs::Span span(tracer, "single.stage"); }
    const std::string summary = obs::text_summary(tracer.snapshot());
    EXPECT_NE(summary.find("repeated.stage"), std::string::npos);
    EXPECT_NE(summary.find("single.stage"), std::string::npos);
    EXPECT_NE(summary.find("count"), std::string::npos);
    EXPECT_NE(summary.find("p95_us"), std::string::npos);
}

TEST(Metrics, CounterGaugeBasics) {
    obs::MetricsRegistry registry;
    obs::Counter& counter = registry.counter("test_total");
    counter.increment();
    counter.increment(2);
    EXPECT_EQ(counter.value(), 3u);
    // Find-or-create returns the same instrument.
    EXPECT_EQ(&registry.counter("test_total"), &counter);

    obs::Gauge& gauge = registry.gauge("test_gauge");
    gauge.set(2.5);
    EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
    obs::MetricsRegistry registry;
    obs::Histogram& hist = registry.histogram("test_hist", {1.0, 2.0, 5.0});
    hist.observe(0.5);  // le="1"
    hist.observe(1.0);  // le="1" (edge values land in their own bucket)
    hist.observe(1.5);  // le="2"
    hist.observe(5.0);  // le="5"
    hist.observe(9.0);  // +Inf
    EXPECT_EQ(hist.count(), 5u);
    EXPECT_DOUBLE_EQ(hist.sum(), 17.0);
    const std::vector<std::uint64_t> counts = hist.bucket_counts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);

    // Nearest-rank over buckets: quantiles resolve to bucket upper edges;
    // the +Inf bucket reports the largest finite edge.
    EXPECT_DOUBLE_EQ(hist.quantile(0.50), 2.0);
    EXPECT_DOUBLE_EQ(hist.quantile(0.95), 5.0);
    EXPECT_DOUBLE_EQ(registry.histogram("test_empty", {1.0}).quantile(0.5),
                     0.0);
}

TEST(Metrics, ExpositionFormat) {
    obs::MetricsRegistry registry;
    registry.counter("req_total", "kind", "predict").increment(3);
    registry.counter("req_total", "kind", "ping").increment();
    registry.gauge("temp").set(1.5);
    obs::Histogram& hist = registry.histogram("lat_us", {1.0, 10.0});
    hist.observe(0.5);
    hist.observe(100.0);

    const std::string text = registry.exposition();
    // One TYPE line per family even with several labeled samples.
    const std::string type_line = "# TYPE req_total counter";
    std::size_t occurrences = 0;
    for (std::size_t pos = text.find(type_line); pos != std::string::npos;
         pos = text.find(type_line, pos + 1)) {
        ++occurrences;
    }
    EXPECT_EQ(occurrences, 1u);
    EXPECT_NE(text.find("req_total{kind=\"predict\"} 3"), std::string::npos);
    EXPECT_NE(text.find("req_total{kind=\"ping\"} 1"), std::string::npos);
    EXPECT_NE(text.find("# TYPE temp gauge"), std::string::npos);
    EXPECT_NE(text.find("temp 1.5"), std::string::npos);
    // Histogram samples: cumulative buckets, +Inf, sum and count.
    EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos);
    EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 1"), std::string::npos);
    EXPECT_NE(text.find("lat_us_bucket{le=\"10\"} 1"), std::string::npos);
    EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 2"), std::string::npos);
    EXPECT_NE(text.find("lat_us_sum 100.5"), std::string::npos);
    EXPECT_NE(text.find("lat_us_count 2"), std::string::npos);
}

TEST(Metrics, RejectsInvalidNamesAndFamilyConflicts) {
    obs::MetricsRegistry registry;
    EXPECT_THROW(registry.counter("bad name"), InvalidArgumentError);
    EXPECT_THROW(registry.counter("0leading"), InvalidArgumentError);
    EXPECT_THROW(registry.counter(""), InvalidArgumentError);

    registry.counter("family");
    EXPECT_THROW(registry.gauge("family"), InvalidArgumentError);

    registry.histogram("h", {1.0, 2.0}, "kind", "a");
    EXPECT_THROW(registry.histogram("h", {1.0, 3.0}, "kind", "b"),
                 InvalidArgumentError);
    EXPECT_THROW(registry.histogram("decreasing", {2.0, 1.0}),
                 InvalidArgumentError);
}

TEST(Metrics, DefaultLatencyBuckets) {
    const std::vector<double> bounds =
        obs::MetricsRegistry::default_latency_buckets_us();
    ASSERT_FALSE(bounds.empty());
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
    EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
    EXPECT_DOUBLE_EQ(bounds.back(), 1e7);
}

TEST(SelfProfile, RejectsEmptyInputs) {
    const obs::FakeClock clock(0, 1000);
    obs::Tracer tracer(&clock);
    { const obs::Span span(tracer, "stage"); }

    obs::SelfProfileOptions options;
    options.params = {{"x1", 4.0}};
    EXPECT_THROW(obs::spans_to_run({}, options), InvalidArgumentError);
    EXPECT_THROW(obs::spans_to_run(tracer.snapshot(), {}),
                 InvalidArgumentError);
}

TEST(SelfProfile, SanitizesSpanNamesAndShapesRun) {
    const obs::FakeClock clock(0, 1000);
    obs::Tracer tracer(&clock);
    { const obs::Span span(tracer, "bad\tname\nhere"); }
    { const obs::Span span(tracer, "good.name"); }

    obs::SelfProfileOptions options;
    options.params = {{"x1", 4.0}};
    const profiling::ProfiledRun run =
        obs::spans_to_run(tracer.snapshot(), options);

    EXPECT_EQ(run.repetition, 0);
    ASSERT_EQ(run.ranks.size(), 1u);
    ASSERT_EQ(run.params.at("x1"), 4.0);
    // obs_warmup + one event per span; names EDP-safe.
    ASSERT_EQ(run.ranks[0].events.size(), 3u);
    EXPECT_EQ(run.ranks[0].events[0].name, "obs_warmup");
    EXPECT_EQ(run.ranks[0].events[1].name, "bad name here");
    EXPECT_EQ(run.ranks[0].events[2].name, "good.name");
    EXPECT_EQ(run.ranks[0].marks.size(), 8u);  // 2 epochs x 4 marks
}

TEST(SelfProfile, EdpRoundTripThroughIngestion) {
    const obs::FakeClock clock(0, 1'000'000);  // 1 ms per reading
    obs::Tracer tracer(&clock);
    for (int i = 0; i < 4; ++i) {
        const obs::Span outer(tracer, "pipeline.outer");
        const obs::Span inner(tracer, "pipeline.inner");
    }

    obs::SelfProfileOptions options;
    options.params = {{"x1", 8.0}};
    const fs::path path = temp_dir("roundtrip") / "self.edp";
    obs::write_selfprofile_edp(path.string(), tracer.snapshot(), options);

    // Strict parse back.
    const profiling::ProfiledRun run = profiling::read_edp_file(path.string());
    ASSERT_EQ(run.ranks.size(), 1u);
    EXPECT_EQ(run.ranks[0].events.size(), 9u);  // warmup + 8 spans
    EXPECT_DOUBLE_EQ(run.params.at("x1"), 8.0);

    // The warmup epoch is discarded by default aggregation, the span
    // kernels survive.
    const aggregation::ConfigurationData config =
        aggregation::aggregate_runs(std::vector<profiling::ProfiledRun>{run});
    EXPECT_EQ(config.find_kernel("obs_warmup"), nullptr);
    EXPECT_NE(config.find_kernel("pipeline.outer"), nullptr);
    EXPECT_NE(config.find_kernel("pipeline.inner"), nullptr);

    // And the full ingestion pipeline keeps the run.
    const std::vector<std::vector<profiling::ProfiledRun>> configs = {{run}};
    const IngestResult result = ingest_runs(configs);
    EXPECT_TRUE(result.ok()) << result.diagnostics.summary();
    EXPECT_EQ(result.runs_kept, 1u);
    EXPECT_EQ(result.configs_kept, 1u);
}

TEST(ObsConfig, ParsesSinkSpecs) {
    EXPECT_FALSE(obs::parse_obs_config("").enabled);
    EXPECT_FALSE(obs::parse_obs_config("0").enabled);
    EXPECT_FALSE(obs::parse_obs_config("off").enabled);

    const obs::ObsConfig plain = obs::parse_obs_config("1");
    EXPECT_TRUE(plain.enabled);
    EXPECT_EQ(plain.summary_path, "-");

    const obs::ObsConfig full = obs::parse_obs_config(
        "chrome:t.json,text:-,metrics:m.prom,edp:s.edp,param:x1=8");
    EXPECT_TRUE(full.enabled);
    EXPECT_EQ(full.chrome_path, "t.json");
    EXPECT_EQ(full.summary_path, "-");
    EXPECT_EQ(full.metrics_path, "m.prom");
    EXPECT_EQ(full.edp_path, "s.edp");
    ASSERT_EQ(full.params.size(), 1u);
    EXPECT_DOUBLE_EQ(full.params.at("x1"), 8.0);

    EXPECT_THROW(obs::parse_obs_config("bogus:x"), InvalidArgumentError);
}

TEST(ObsSession, WritesConfiguredSinksOnFlush) {
    const TraceStateGuard guard;
    const fs::path dir = temp_dir("session");

    obs::ObsConfig config;
    config.enabled = true;
    config.chrome_path = (dir / "trace.json").string();
    config.metrics_path = (dir / "metrics.prom").string();
    config.edp_path = (dir / "self.edp").string();
    {
        obs::ObsSession session(std::move(config));
        EXPECT_TRUE(obs::trace_enabled());
        session.set_param("x1", 2.0);
        {
            const obs::Span outer{"session.stage"};
            const obs::Span inner{"session.substage"};
        }
        session.flush();
        EXPECT_FALSE(obs::trace_enabled());
    }

    const json::Value doc = json::parse(
        [&] {
            std::ifstream in(dir / "trace.json", std::ios::binary);
            std::ostringstream buffer;
            buffer << in.rdbuf();
            return buffer.str();
        }(),
        "session chrome trace");
    const json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->array.size(), 2u);

    EXPECT_TRUE(fs::exists(dir / "metrics.prom"));

    const profiling::ProfiledRun run =
        profiling::read_edp_file((dir / "self.edp").string());
    EXPECT_DOUBLE_EQ(run.params.at("x1"), 2.0);
    ASSERT_EQ(run.ranks.size(), 1u);
    EXPECT_EQ(run.ranks[0].events.size(), 3u);  // warmup + 2 spans
}
