// google-benchmark microbenchmarks of the framework's own hot paths:
// PMNF model fitting, measurement aggregation, trace generation, and EDP
// serialisation. These are the costs a user pays per modeled kernel /
// profiled run, independent of the simulated application.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "aggregation/aggregate.hpp"
#include "common/rng.hpp"
#include "extradeep/ingest.hpp"
#include "modeling/fitter.hpp"
#include "obs/trace.hpp"
#include "profiling/edp_io.hpp"
#include "profiling/profiler.hpp"
#include "serve/query.hpp"
#include "serve/serialize.hpp"
#include "sim/simulator.hpp"

using namespace extradeep;

namespace {

sim::Workload bench_workload(int ranks) {
    return sim::Workload::make("CIFAR-10", hw::SystemSpec::deep(),
                               parallel::ParallelConfig::data(ranks),
                               parallel::ScalingMode::Weak, 256);
}

std::vector<profiling::ProfiledRun> sample_runs(int ranks, int reps) {
    const sim::TrainingSimulator simulator(bench_workload(ranks));
    const profiling::Profiler profiler(profiling::SamplingStrategy::efficient());
    std::vector<profiling::ProfiledRun> runs;
    for (int rep = 0; rep < reps; ++rep) {
        runs.push_back(profiler.profile(
            simulator, {{"x1", static_cast<double>(ranks)}}, rep));
    }
    return runs;
}

void BM_ModelFit_1Term(benchmark::State& state) {
    Rng rng(1);
    std::vector<double> xs = {2, 4, 6, 8, 10};
    std::vector<double> ys;
    for (const double x : xs) {
        ys.push_back((10.0 + 3.0 * x) * rng.lognormal_factor(0.03));
    }
    const modeling::ModelGenerator gen;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.fit(xs, ys));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelFit_1Term)->Unit(benchmark::kMillisecond);

// The same default space and five points, factored once: each iteration
// solves one of 16 series against the shared design, as model_kernels does
// for every kernel measured at the same configurations.
void BM_ModelFit_SharedDesign(benchmark::State& state) {
    Rng rng(1);
    const std::vector<double> xs = {2, 4, 6, 8, 10};
    std::vector<std::vector<double>> series(16);
    for (std::size_t s = 0; s < series.size(); ++s) {
        for (const double x : xs) {
            series[s].push_back((10.0 + (1.0 + static_cast<double>(s)) * x) *
                                rng.lognormal_factor(0.03));
        }
    }
    const modeling::ModelGenerator gen;
    const modeling::ModelGenerator::Design design = gen.design(xs);
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.fit(design, series[next]));
        next = (next + 1) % series.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelFit_SharedDesign)->Unit(benchmark::kMillisecond);

void BM_ModelFit_2Terms(benchmark::State& state) {
    Rng rng(1);
    std::vector<double> xs = {2, 4, 6, 8, 10, 12, 16};
    std::vector<double> ys;
    for (const double x : xs) {
        ys.push_back((10.0 + 3.0 * x) * rng.lognormal_factor(0.03));
    }
    modeling::FitOptions opts;
    opts.space.max_terms = 2;
    const modeling::ModelGenerator gen(opts);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.fit(xs, ys));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelFit_2Terms)->Unit(benchmark::kMillisecond);

// Fitter throughput over the full two-term hypothesis space (~1.4k
// hypotheses per fit with the default exponent sets); one fit is serial.
// items_per_second is the headline number.
void BM_FitterHypothesisSearch(benchmark::State& state) {
    Rng rng(7);
    const std::vector<double> xs = {2, 4, 6, 8, 10, 12, 16, 24, 32, 48};
    std::vector<double> ys;
    for (const double x : xs) {
        ys.push_back((10.0 + 3.0 * x + 0.5 * x * std::log2(x)) *
                     rng.lognormal_factor(0.03));
    }
    modeling::FitOptions opts;
    opts.space.max_terms = 2;
    const modeling::ModelGenerator gen(opts);
    const int hypotheses_per_fit =
        gen.fit(xs, ys).quality().hypotheses_searched;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.fit(xs, ys));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(hypotheses_per_fit));
    state.counters["hypotheses_per_fit"] =
        static_cast<double>(hypotheses_per_fit);
}
BENCHMARK(BM_FitterHypothesisSearch)->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
    const sim::TrainingSimulator simulator(
        bench_workload(static_cast<int>(state.range(0))));
    sim::TraceOptions opts;
    opts.epochs = 2;
    opts.train_steps_per_epoch = 5;
    opts.val_steps_per_epoch = 5;
    std::uint64_t seed = 0;
    for (auto _ : state) {
        opts.run_seed = ++seed;
        benchmark::DoNotOptimize(simulator.trace_rank(0, opts));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration)->Arg(4)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_Aggregation(benchmark::State& state) {
    const auto runs = sample_runs(static_cast<int>(state.range(0)), 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(aggregation::aggregate_runs(runs));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Aggregation)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_EdpWrite(benchmark::State& state) {
    const auto runs = sample_runs(4, 1);
    for (auto _ : state) {
        std::ostringstream os;
        profiling::write_edp(os, runs.front());
        benchmark::DoNotOptimize(os.str());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EdpWrite)->Unit(benchmark::kMillisecond);

void BM_EdpRead(benchmark::State& state) {
    const auto runs = sample_runs(4, 1);
    std::ostringstream os;
    profiling::write_edp(os, runs.front());
    const std::string text = os.str();
    for (auto _ : state) {
        std::istringstream is(text);
        benchmark::DoNotOptimize(profiling::read_edp(is));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_EdpRead)->Unit(benchmark::kMillisecond);

// Streaming ingest of a small on-disk corpus (one run at each of 2, 4, 6, 8
// and 10 ranks): the EDP reader, the per-file digest with its interned
// kernel ids, and the per-rank reduction, on one thread.
void BM_StreamIngest(benchmark::State& state) {
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "extradeep-bench-ingest-";
    dir += std::to_string(::getpid());
    fs::create_directories(dir);
    std::vector<std::string> paths;
    std::int64_t bytes = 0;
    for (const int ranks : {2, 4, 6, 8, 10}) {
        const std::string path =
            (dir / (std::to_string(ranks) + ".edp")).string();
        std::ofstream os(path);
        profiling::write_edp(os, sample_runs(ranks, 1).front());
        bytes += static_cast<std::int64_t>(os.tellp());
        paths.push_back(path);
    }
    IngestOptions options;
    options.num_threads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ingest_edp_files(paths, options));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            bytes);
    fs::remove_all(dir);
}
BENCHMARK(BM_StreamIngest)->Unit(benchmark::kMillisecond);

/// A serving engine over one fitted model, shared by every benchmark thread
/// (the engine is thread-safe; that contention is exactly what the
/// multi-threaded rows measure).
serve::QueryEngine& bench_engine() {
    static serve::QueryEngine* engine = [] {
        ExperimentSpec spec;
        spec.repetitions = 2;
        auto registry = std::make_shared<serve::ModelRegistry>();
        registry->add(std::make_shared<const serve::ServableModel>(
            serve::make_servable(spec, ExperimentRunner(spec).run(),
                                 "bench-model")));
        return new serve::QueryEngine(std::move(registry));
    }();
    return *engine;
}

// Query-serving throughput: one request of each analysis kind per
// iteration, answered by QueryEngine::execute (the daemon is a pure
// transport over it, so this is the per-request serving cost minus the
// network). ->Threads(1) vs ->Threads(4) shows how the registry's
// shared-lock reads and the per-kind atomic instruments scale under
// concurrent clients on one hot model.
void BM_ServeQuery(benchmark::State& state) {
    serve::QueryEngine& engine = bench_engine();
    static const std::vector<std::string> requests = {
        "predict bench-model 16",
        "speedup bench-model 2 4 8 16 32",
        "efficiency bench-model 2 4 8 16 32",
        "cost bench-model 16",
        "search bench-model inf inf 2 4 8 16 32",
    };
    for (auto _ : state) {
        for (const auto& request : requests) {
            benchmark::DoNotOptimize(engine.execute(request));
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_ServeQuery)->Threads(1)->Threads(4)->Unit(benchmark::kMicrosecond);

// Cost of one obs::Span construction+destruction. Arg(0) is the disabled
// path (a relaxed atomic load and a branch — the tax every instrumented
// call site pays in normal runs; the ISSUE budget is <= 5 ns/op), Arg(1)
// the enabled path (full record into the per-thread buffer). The enabled
// variant clears the tracer periodically so a long --benchmark_min_time
// run cannot grow the span buffers without bound.
void BM_ObsSpanOverhead(benchmark::State& state) {
    const bool enabled = state.range(0) != 0;
    obs::set_trace_enabled(enabled);
    std::uint64_t sinceClear = 0;
    for (auto _ : state) {
        {
            const obs::Span span{"bench.span"};
            benchmark::DoNotOptimize(span);
        }
        if (enabled && ++sinceClear >= (1u << 20)) {
            state.PauseTiming();
            obs::global_tracer().clear();
            sinceClear = 0;
            state.ResumeTiming();
        }
    }
    obs::set_trace_enabled(false);
    obs::global_tracer().clear();
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(enabled ? "enabled" : "disabled");
}
BENCHMARK(BM_ObsSpanOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

void BM_EpochMeasurement(benchmark::State& state) {
    const sim::TrainingSimulator simulator(bench_workload(32));
    std::uint64_t seed = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulator.measure_epoch_wall(++seed));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochMeasurement)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
