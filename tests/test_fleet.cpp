// Tests of the continuous-modeling fleet subsystem (src/fleet): drift
// injection, spool-directory scanning and its crash-consistency contract,
// the ingest pipeline behind the `ingest` verb, debounced refit dispatch,
// the generation-ordered stale-fit guard around the atomic export + hot
// swap, and the fleet/registry metrics exposition.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aggregation/metrics.hpp"
#include "aggregation/stream.hpp"
#include "common/error.hpp"
#include "extradeep/models.hpp"
#include "fleet/continuous.hpp"
#include "fleet/spool.hpp"
#include "obs/clock.hpp"
#include "profiling/edp_io.hpp"
#include "reference_aggregate.hpp"
#include "serve/query.hpp"
#include "serve/registry.hpp"
#include "serve/serialize.hpp"
#include "sim/drift.hpp"

using namespace extradeep;

namespace {

namespace fs = std::filesystem;

/// Small, fast experiment template shared across the suite.
const ExperimentSpec& test_spec() {
    static const ExperimentSpec spec = [] {
        ExperimentSpec s;
        s.repetitions = 1;
        s.seed = 11;
        return s;
    }();
    return spec;
}

/// One profiled run of `ranks`, as raw EDP bytes (what a collector pushes).
std::string run_edp_bytes(int ranks, int rep,
                          const ExperimentSpec& spec = test_spec()) {
    const ExperimentRunner runner(spec);
    const sim::TrainingSimulator simulator(runner.workload_for(ranks));
    const profiling::Profiler profiler(spec.sampling);
    const profiling::ProfiledRun run = profiler.profile(
        simulator, {{"x1", static_cast<double>(ranks)}}, rep, spec.seed);
    std::ostringstream os;
    profiling::write_edp(os, run);
    return os.str();
}

const std::vector<int>& modeling_ranks() {
    static const std::vector<int> ranks = {2, 4, 6, 8, 10};
    return ranks;
}

fs::path fresh_dir(const std::string& tag) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("fleet-" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void write_file(const fs::path& path, const std::string& bytes) {
    std::ofstream os(path, std::ios::binary);
    os << bytes;
    ASSERT_TRUE(os.good()) << path;
}

std::string read_file(const fs::path& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/// Service + registry over fresh directories, push-only unless a spool dir
/// is given.
struct Fixture {
    std::shared_ptr<serve::ModelRegistry> registry;
    std::shared_ptr<fleet::FleetService> service;
    fs::path models;

    explicit Fixture(const std::string& tag, fleet::FleetOptions opts = {}) {
        models = fresh_dir(tag + "-models");
        opts.models_dir = models.string();
        opts.spec = test_spec();
        registry = std::make_shared<serve::ModelRegistry>();
        service = std::make_shared<fleet::FleetService>(opts, registry);
    }
};

std::string ingest_ok(fleet::FleetService& service, const std::string& name,
                      const std::string& edp) {
    return service.handle_ingest(name, serve::escape_lines(edp));
}

}  // namespace

// ---------------------------------------------------------------------------
// Drift injection (src/sim/drift)

TEST(Drift, ParseGrammar) {
    EXPECT_EQ(sim::parse_drift("none").kind, sim::DriftKind::None);

    const sim::DriftSpec hw = sim::parse_drift("hw:2");
    EXPECT_EQ(hw.kind, sim::DriftKind::HardwareDegrade);
    EXPECT_DOUBLE_EQ(hw.severity, 2.0);
    EXPECT_EQ(hw.onset_run, 0);

    const sim::DriftSpec sw = sim::parse_drift("sw:1.5@12");
    EXPECT_EQ(sw.kind, sim::DriftKind::SoftwareRegression);
    EXPECT_DOUBLE_EQ(sw.severity, 1.5);
    EXPECT_EQ(sw.onset_run, 12);
    EXPECT_FALSE(sw.active_at(11));
    EXPECT_TRUE(sw.active_at(12));

    EXPECT_THROW(sim::parse_drift(""), InvalidArgumentError);
    EXPECT_THROW(sim::parse_drift("xx:2"), InvalidArgumentError);
    EXPECT_THROW(sim::parse_drift("hw:"), InvalidArgumentError);
    EXPECT_THROW(sim::parse_drift("hw:0.5"), InvalidArgumentError);
    EXPECT_THROW(sim::parse_drift("hw:2@-1"), InvalidArgumentError);
}

TEST(Drift, HardwareDegradeHitsInterconnectOnly) {
    const hw::SystemSpec base = test_spec().system;
    const hw::SystemSpec out =
        sim::apply_drift(base, {sim::DriftKind::HardwareDegrade, 2.0, 0});
    EXPECT_DOUBLE_EQ(out.inter_node.bandwidth_gbs,
                     base.inter_node.bandwidth_gbs / 2.0);
    EXPECT_DOUBLE_EQ(out.inter_node.latency_s, base.inter_node.latency_s * 2.0);
    EXPECT_DOUBLE_EQ(out.intra_node.bandwidth_gbs,
                     base.intra_node.bandwidth_gbs / 2.0);
    EXPECT_DOUBLE_EQ(out.intra_node.latency_s, base.intra_node.latency_s * 2.0);
    EXPECT_DOUBLE_EQ(out.gpu.peak_fp32_tflops, base.gpu.peak_fp32_tflops);
    EXPECT_DOUBLE_EQ(out.gpu.mem_bandwidth_gbs, base.gpu.mem_bandwidth_gbs);
}

TEST(Drift, SoftwareRegressionHitsComputeOnly) {
    const hw::SystemSpec base = test_spec().system;
    const hw::SystemSpec out =
        sim::apply_drift(base, {sim::DriftKind::SoftwareRegression, 1.5, 0});
    EXPECT_DOUBLE_EQ(out.gpu.peak_fp32_tflops,
                     base.gpu.peak_fp32_tflops / 1.5);
    EXPECT_DOUBLE_EQ(out.gpu.mem_bandwidth_gbs,
                     base.gpu.mem_bandwidth_gbs / 1.5);
    EXPECT_DOUBLE_EQ(out.gpu.kernel_launch_overhead_s,
                     base.gpu.kernel_launch_overhead_s * 1.5);
    EXPECT_DOUBLE_EQ(out.inter_node.bandwidth_gbs,
                     base.inter_node.bandwidth_gbs);
}

TEST(Drift, IdentityForNoneAndSeverityOne) {
    const hw::SystemSpec base = test_spec().system;
    const hw::SystemSpec none = sim::apply_drift(base, {});
    EXPECT_DOUBLE_EQ(none.inter_node.bandwidth_gbs,
                     base.inter_node.bandwidth_gbs);
    const hw::SystemSpec one =
        sim::apply_drift(base, {sim::DriftKind::HardwareDegrade, 1.0, 0});
    EXPECT_DOUBLE_EQ(one.inter_node.bandwidth_gbs,
                     base.inter_node.bandwidth_gbs);
}

// ---------------------------------------------------------------------------
// Experiment-name contract

TEST(ExperimentName, Alphabet) {
    EXPECT_TRUE(fleet::valid_experiment_name("a"));
    EXPECT_TRUE(fleet::valid_experiment_name("exp-1.v2_x"));
    EXPECT_TRUE(fleet::valid_experiment_name(std::string(128, 'a')));
    EXPECT_FALSE(fleet::valid_experiment_name(""));
    EXPECT_FALSE(fleet::valid_experiment_name(std::string(129, 'a')));
    EXPECT_FALSE(fleet::valid_experiment_name("bad/name"));
    EXPECT_FALSE(fleet::valid_experiment_name("a b"));
    EXPECT_FALSE(fleet::valid_experiment_name("dollar$"));
}

// ---------------------------------------------------------------------------
// Spool scanner

TEST(SpoolScanner, OrdersSkipsAndRemembers) {
    const fs::path spool = fresh_dir("scan");
    fs::create_directories(spool / "exp-b");
    fs::create_directories(spool / "exp-a");
    fs::create_directories(spool / "bad$name");
    write_file(spool / "exp-b" / "run2.edp", "b2");
    write_file(spool / "exp-a" / "run1.edp", "a1");
    write_file(spool / "exp-a" / ".hidden.edp", "dot");
    write_file(spool / "exp-a" / "run0.tmp", "incomplete");
    write_file(spool / "stray.edp", "top-level");
    write_file(spool / "bad$name" / "x.edp", "bad");

    fleet::SpoolScanner scanner(spool.string());
    const auto first = scanner.scan();
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].experiment, "exp-a");
    EXPECT_EQ(fs::path(first[0].path).filename(), "run1.edp");
    EXPECT_EQ(first[1].experiment, "exp-b");
    EXPECT_EQ(fs::path(first[1].path).filename(), "run2.edp");
    EXPECT_GE(scanner.skipped(), 2u);  // stray.edp + bad$name

    // Already-seen files are never handed out again.
    EXPECT_TRUE(scanner.scan().empty());

    // The crash-consistency contract: a *.tmp file becomes visible only
    // after its atomic rename into a .edp name.
    fs::rename(spool / "exp-a" / "run0.tmp", spool / "exp-a" / "run0.edp");
    const auto second = scanner.scan();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(fs::path(second[0].path).filename(), "run0.edp");

    // A restarted daemon (fresh scanner) re-discovers the full spool in the
    // same deterministic order - the crash-recovery story.
    fleet::SpoolScanner restarted(spool.string());
    const auto replay = restarted.scan();
    ASSERT_EQ(replay.size(), 3u);
    EXPECT_EQ(fs::path(replay[0].path).filename(), "run0.edp");
    EXPECT_EQ(fs::path(replay[1].path).filename(), "run1.edp");
    EXPECT_EQ(fs::path(replay[2].path).filename(), "run2.edp");
}

TEST(SpoolScanner, MissingDirectoryYieldsNothing) {
    fleet::SpoolScanner scanner(
        (fs::path(::testing::TempDir()) / "fleet-no-such-dir").string());
    EXPECT_TRUE(scanner.scan().empty());
    EXPECT_EQ(scanner.skipped(), 0u);
}

// ---------------------------------------------------------------------------
// FleetService: options validation

TEST(FleetService, RejectsBadOptions) {
    const auto registry = std::make_shared<serve::ModelRegistry>();
    fleet::FleetOptions opts;
    opts.spec = test_spec();

    EXPECT_THROW(fleet::FleetService(opts, registry),
                 InvalidArgumentError);  // empty models_dir

    opts.models_dir = fresh_dir("opts").string();
    EXPECT_THROW(fleet::FleetService(opts, nullptr), InvalidArgumentError);

    fleet::FleetOptions bad = opts;
    bad.min_runs = 0;
    EXPECT_THROW(fleet::FleetService(bad, registry), InvalidArgumentError);
    bad = opts;
    bad.window = 0;
    EXPECT_THROW(fleet::FleetService(bad, registry), InvalidArgumentError);
    bad = opts;
    bad.fit_threads = 0;  // not "hardware concurrency": the pool needs >= 1
    EXPECT_THROW(fleet::FleetService(bad, registry), InvalidArgumentError);
    bad.fit_threads = -1;
    EXPECT_THROW(fleet::FleetService(bad, registry), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Ingest -> refit -> hot swap, end to end in-process

TEST(FleetService, IngestRefitServe) {
    Fixture fx("serve");
    for (const int r : modeling_ranks()) {
        const std::string response =
            ingest_ok(*fx.service, "demo", run_edp_bytes(r, 0));
        EXPECT_EQ(response.rfind("accepted=1 experiment=demo", 0), 0u)
            << response;
    }
    fx.service->drain();

    const fleet::FleetStats stats = fx.service->stats();
    EXPECT_EQ(stats.accepted, modeling_ranks().size());
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_GE(stats.refits, 1u);
    EXPECT_GE(stats.swaps, 1u);
    EXPECT_EQ(stats.staleness_runs, 0u);

    // The export landed atomically and the registry hot-swapped it in.
    EXPECT_TRUE(fs::exists(fx.models / "demo.edpm"));
    EXPECT_NE(fx.registry->find("demo"), nullptr);

    // And it is servable through the ordinary query engine.
    serve::QueryEngine engine(fx.registry);
    EXPECT_EQ(engine.execute("predict demo 10").substr(0, 5), "ok t=");
}

TEST(FleetService, PushedRunsReduceLikeTheReference) {
    // The push path reduces each run through the shared interned core. Its
    // window is private, so the check goes through the exported modeling
    // points: every EPOCHV value (hexfloat in the .edpm) is Eq. 6 over the
    // configuration's aggregate, and must match, bit for bit, the same
    // value computed from the string-keyed reference reduction.
    Fixture fx("reference");
    const ExperimentSpec& spec = test_spec();
    const StepMathFn step_math = make_step_math_fn(
        spec.dataset, spec.strategy, spec.model_parallel_degree,
        spec.scaling, spec.batch_per_worker);
    std::vector<double> want;
    for (const int r : modeling_ranks()) {
        aggregation::ConfigAggregator config;
        for (int rep = 0; rep < 2; ++rep) {
            const std::string bytes = run_edp_bytes(r, rep);
            ingest_ok(*fx.service, "demo", bytes);
            std::istringstream is(bytes);
            const profiling::ProfiledRun run = profiling::read_edp(is);
            aggregation::RunAggregator reduced;
            for (const auto& rank : run.ranks) {
                reduced.add_rank_values(reference::aggregate_rank_trace(
                    rank, spec.sampling.discard_warmup_epochs));
            }
            config.add_run(run.params, reduced.finish());
        }
        want.push_back(aggregation::derived_epoch_total(
            config.finish(), step_math(r), aggregation::Metric::Time));
    }
    fx.service->drain();
    ASSERT_EQ(fx.service->stats().accepted, 2 * modeling_ranks().size());

    const serve::ServableModel model =
        serve::read_edpm_file((fx.models / "demo.edpm").string());
    ASSERT_EQ(model.epoch_time_values.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(model.epoch_time_values[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "x1=" << model.modeling_xs[i] << ": "
            << model.epoch_time_values[i] << " vs " << want[i];
    }
}

TEST(FleetService, RestartServesPreviousExports) {
    Fixture fx("restart");
    for (const int r : modeling_ranks()) {
        ingest_ok(*fx.service, "persisted", run_edp_bytes(r, 0));
    }
    fx.service->drain();
    ASSERT_TRUE(fs::exists(fx.models / "persisted.edpm"));

    // A second service over the same models_dir (the restarted daemon)
    // serves the previous export before any run arrives.
    const auto registry2 = std::make_shared<serve::ModelRegistry>();
    fleet::FleetOptions opts;
    opts.models_dir = fx.models.string();
    opts.spec = test_spec();
    const auto service2 =
        std::make_shared<fleet::FleetService>(opts, registry2);
    EXPECT_NE(registry2->find("persisted"), nullptr);
}

TEST(FleetService, FewerThanMinimumConfigsSkipsRefit) {
    Fixture fx("skip");
    // Two distinct x1 values < kMinModelingPoints: the fit must be skipped,
    // not attempted-and-failed.
    ingest_ok(*fx.service, "thin", run_edp_bytes(2, 0));
    ingest_ok(*fx.service, "thin", run_edp_bytes(4, 0));
    fx.service->drain();
    const fleet::FleetStats stats = fx.service->stats();
    EXPECT_EQ(stats.refits, 0u);
    EXPECT_GE(stats.refits_skipped, 1u);
    EXPECT_EQ(stats.refit_failures, 0u);
    EXPECT_FALSE(fs::exists(fx.models / "thin.edpm"));
}

// ---------------------------------------------------------------------------
// Quarantine: corrupt input never perturbs the aggregate or the models

TEST(FleetService, QuarantineNeverPoisons) {
    Fixture fx("quarantine");
    for (const int r : modeling_ranks()) {
        ingest_ok(*fx.service, "guarded", run_edp_bytes(r, 0));
    }
    fx.service->drain();
    const std::string bytes_before = read_file(fx.models / "guarded.edpm");
    ASSERT_FALSE(bytes_before.empty());

    const auto reason_of = [&](const std::string& payload) {
        try {
            ingest_ok(*fx.service, "guarded", payload);
        } catch (const Error& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    const std::string good = run_edp_bytes(6, 1);
    std::string no_marks;  // every step window gone
    {
        std::istringstream is(good);
        for (std::string line; std::getline(is, line);) {
            if (line.rfind("M\t", 0) != 0) {
                no_marks += line + "\n";
            }
        }
    }
    const std::string x1_line = "P\tx1\t6\n";
    std::string zero_x1 = good;
    zero_x1.replace(zero_x1.find(x1_line), x1_line.size(), "P\tx1\t0\n");
    // Runs of another parameter vector: one without x1, and one with an
    // extra x2 against the existing configuration x1=6.
    ExperimentSpec other = test_spec();
    other.seed = 99;
    const ExperimentRunner runner(other);
    const sim::TrainingSimulator simulator(runner.workload_for(6));
    const profiling::Profiler profiler(other.sampling);
    const auto edp_of = [&](const std::map<std::string, double>& params) {
        std::ostringstream os;
        profiling::write_edp(os, profiler.profile(simulator, params, 0,
                                                  other.seed));
        return os.str();
    };

    // Each payload with the exact reason it is quarantined for.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {good.substr(0, good.size() / 2),
         "quarantined: push: parse: EDP: truncated file (missing END)"},
        {"EDP\t9" + good.substr(good.find('\n')),
         "quarantined: push: parse: EDP: unsupported version 9"},
        {"not an edp payload at all",
         "quarantined: push: parse: EDP: missing header"},
        {no_marks,
         "quarantined: push: validation: validate_run: only 0 complete step "
         "window(s), need 1"},
        {zero_x1,
         "quarantined: push: parameter x1 must be a positive integer"},
        {edp_of({{"x2", 6.0}}), "quarantined: push: missing parameter x1"},
        {edp_of({{"x1", 6.0}, {"x2", 6.0}}),
         "quarantined: push: params mismatch with configuration x1=6"},
    };
    for (const auto& [payload, reason] : cases) {
        EXPECT_EQ(reason_of(payload), reason);
    }

    fx.service->drain();
    const fleet::FleetStats stats = fx.service->stats();
    EXPECT_EQ(stats.quarantined, cases.size());
    EXPECT_EQ(stats.accepted, modeling_ranks().size());
    EXPECT_EQ(read_file(fx.models / "guarded.edpm"), bytes_before);

    // The loop survives: a subsequent good run is still accepted.
    EXPECT_EQ(ingest_ok(*fx.service, "guarded", good)
                  .rfind("accepted=1", 0),
              0u);
}

TEST(FleetService, RejectsBadNamesAndOversizedPayloads) {
    Fixture fx("limits");
    EXPECT_THROW(fx.service->handle_ingest("bad/name", "x"), Error);
    const auto error_of = [&](const std::string& payload) {
        try {
            fx.service->handle_ingest("demo", payload);
        } catch (const Error& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    // One byte over the cap is refused before parsing; at the cap the
    // payload reaches the parser (and is quarantined as not EDP).
    const std::size_t cap = fleet::kMaxPayloadBytes;
    const std::string over = error_of(std::string(cap + 1, 'x'));
    EXPECT_EQ(over.rfind("payload too large", 0), 0u) << over;
    const std::string at = error_of(std::string(cap, 'x'));
    EXPECT_EQ(at.find("too large"), std::string::npos) << at;
    EXPECT_EQ(fx.service->stats().accepted, 0u);
}

// ---------------------------------------------------------------------------
// Debounce policy (deterministic via FakeClock)

TEST(FleetService, DebounceMinRunsAndQuiescence) {
    obs::FakeClock clock(1'000'000'000, 0);
    fleet::FleetOptions opts;
    opts.min_runs = 3;
    opts.quiescence_ns = 1'000'000'000;  // 1s, advanced manually
    opts.clock = &clock;
    Fixture fx("debounce", opts);

    // Below min_runs and inside the quiescence window: nothing dispatches.
    ingest_ok(*fx.service, "d", run_edp_bytes(2, 0));
    ingest_ok(*fx.service, "d", run_edp_bytes(4, 0));
    EXPECT_EQ(fx.service->poll_once(), 0);

    // Third run reaches min_runs: exactly one job dispatches.
    ingest_ok(*fx.service, "d", run_edp_bytes(6, 0));
    EXPECT_EQ(fx.service->poll_once(), 1);
    fx.service->drain();

    // A single new run dispatches only after it waits out the quiescence
    // window with no newer arrival.
    ingest_ok(*fx.service, "d", run_edp_bytes(8, 0));
    EXPECT_EQ(fx.service->poll_once(), 0);
    clock.advance(2'000'000'000);
    EXPECT_EQ(fx.service->poll_once(), 1);
    fx.service->drain();

    // With only 4 distinct x1 values (< kMinModelingPoints) both jobs are
    // skipped rather than fitted, so nothing installs and the staleness
    // gauge honestly reports every accepted run as not-yet-served.
    const fleet::FleetStats stats = fx.service->stats();
    EXPECT_GE(stats.refits_skipped, 2u);
    EXPECT_EQ(stats.refits, 0u);
    EXPECT_EQ(stats.staleness_runs, stats.accepted);
}

// The started loop dispatches a refit when it falls due, not on its poll
// interval: both tests start it with a 60 s interval, which a loop that
// only checks the debounce on that tick cannot meet within the 10 s bound.

/// Polls `done` every few milliseconds for up to 10 s.
template <typename Done>
bool within_10s(Done done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

TEST(FleetService, StartedLoopDispatchesAtMinRuns) {
    fleet::FleetOptions opts;
    opts.min_runs = static_cast<int>(modeling_ranks().size());
    opts.quiescence_ns = 60'000'000'000;  // never reached in this test
    Fixture fx("started-min-runs", opts);
    fx.service->start(60'000);
    for (const int r : modeling_ranks()) {
        ingest_ok(*fx.service, "live", run_edp_bytes(r, 0));
    }
    EXPECT_TRUE(within_10s([&] { return fx.registry->find("live"); }));
    fx.service->stop();
    EXPECT_EQ(fx.service->stats().refits, 1u);
}

TEST(FleetService, StartedLoopDispatchesStragglerAtQuiescence) {
    fleet::FleetOptions opts;
    opts.quiescence_ns = 50'000'000;
    Fixture fx("started-straggler", opts);
    fx.service->start(60'000);
    ingest_ok(*fx.service, "straggler", run_edp_bytes(2, 0));
    // One configuration is below kMinModelingPoints: the job runs and is
    // skipped, and the skip is what shows that it ran.
    EXPECT_TRUE(within_10s(
        [&] { return fx.service->stats().refits_skipped == 1; }));
    fx.service->stop();
}

// ---------------------------------------------------------------------------
// Stale-fit guard: generation-ordered installs

TEST(FleetService, StaleFitNeverOverwritesNewerModel) {
    Fixture fx("stale");
    const ExperimentResult result = ExperimentRunner(test_spec()).run();
    const serve::ServableModel newer =
        serve::make_servable(test_spec(), result, "gen");
    EXPECT_TRUE(fx.service->install_model("gen", 2, newer));
    const std::string installed_bytes = read_file(fx.models / "gen.edpm");

    // An older fit finishing late must be discarded, byte for byte.
    const serve::ServableModel older =
        serve::make_servable(test_spec(), result, "gen");
    EXPECT_FALSE(fx.service->install_model("gen", 1, older));
    EXPECT_FALSE(fx.service->install_model("gen", 2, older));  // ties lose
    EXPECT_EQ(fx.service->stats().stale_discarded, 2u);
    EXPECT_EQ(read_file(fx.models / "gen.edpm"), installed_bytes);

    // A genuinely newer generation still installs.
    EXPECT_TRUE(fx.service->install_model("gen", 3, newer));
    EXPECT_EQ(fx.service->stats().swaps, 2u);
    EXPECT_NE(fx.registry->find("gen"), nullptr);
}

// ---------------------------------------------------------------------------
// Spool ingestion through poll_once

TEST(FleetService, SpoolPickupToServable) {
    const fs::path spool = fresh_dir("spoolsvc");
    fleet::FleetOptions opts;
    opts.spool_dir = spool.string();
    opts.min_runs = static_cast<int>(modeling_ranks().size());
    Fixture fx("spoolsvc-m", opts);

    fs::create_directories(spool / "spooled");
    int seq = 0;
    for (const int r : modeling_ranks()) {
        // The writer half of the crash-consistency contract: tmp + rename.
        const fs::path tmp =
            spool / "spooled" / ("run" + std::to_string(seq) + ".tmp");
        const fs::path dst =
            spool / "spooled" / ("run" + std::to_string(seq) + ".edp");
        write_file(tmp, run_edp_bytes(r, 0));
        fs::rename(tmp, dst);
        ++seq;
    }
    EXPECT_EQ(fx.service->poll_once(), 1);  // scan ingests, min_runs met
    fx.service->drain();

    const fleet::FleetStats stats = fx.service->stats();
    EXPECT_EQ(stats.spool_files, modeling_ranks().size());
    EXPECT_EQ(stats.accepted, modeling_ranks().size());
    EXPECT_NE(fx.registry->find("spooled"), nullptr);

    // A corrupt spool file is quarantined without killing the loop.
    write_file(spool / "spooled" / "bad.edp", "garbage");
    fx.service->poll_once();
    EXPECT_EQ(fx.service->stats().quarantined, 1u);
}

// ---------------------------------------------------------------------------
// Engine integration: verbs, err-line mapping, metrics exposition

TEST(FleetEngine, VerbsRequireHandler) {
    const auto registry = std::make_shared<serve::ModelRegistry>();
    serve::QueryEngine engine(registry);
    EXPECT_EQ(engine.execute("ingest demo payload"),
              "err fleet mode disabled");
    EXPECT_EQ(engine.execute("fleet-stats"), "err fleet mode disabled");
}

TEST(FleetEngine, ErrLineMappingAndStats) {
    Fixture fx("engine");
    serve::QueryEngine engine(fx.registry);
    engine.set_fleet_handler(fx.service);
    EXPECT_THROW(engine.set_fleet_handler(fx.service), Error);

    // Usage errors and quarantines map to single err lines; the engine
    // stays alive throughout.
    EXPECT_EQ(engine.execute("ingest").substr(0, 4), "err ");
    EXPECT_EQ(engine.execute("ingest onlyname").substr(0, 4), "err ");
    const std::string corrupt =
        engine.execute("ingest demo " + serve::escape_lines("garbage"));
    EXPECT_EQ(corrupt.substr(0, 4), "err ");
    EXPECT_NE(corrupt.find("quarantined"), std::string::npos) << corrupt;
    EXPECT_EQ(engine.execute("ping"), "ok pong");

    // Good pushes through the verb; fleet-stats reflects them.
    for (const int r : modeling_ranks()) {
        const std::string response = engine.execute(
            "ingest demo " + serve::escape_lines(run_edp_bytes(r, 0)));
        EXPECT_EQ(response.substr(0, 3), "ok ") << response;
    }
    fx.service->drain();
    const std::string stats = engine.execute("fleet-stats");
    EXPECT_EQ(stats.substr(0, 3), "ok ");
    EXPECT_NE(stats.find("accepted=5"), std::string::npos) << stats;
    EXPECT_NE(stats.find("quarantined=1"), std::string::npos) << stats;
    EXPECT_NE(stats.find("staleness=0"), std::string::npos) << stats;
    EXPECT_EQ(engine.execute("predict demo 10").substr(0, 5), "ok t=");
}

TEST(FleetEngine, MetricsExposition) {
    Fixture fx("metrics");
    serve::QueryEngine engine(fx.registry);
    engine.set_fleet_handler(fx.service);
    for (const int r : modeling_ranks()) {
        engine.execute("ingest demo " +
                       serve::escape_lines(run_edp_bytes(r, 0)));
    }
    fx.service->drain();

    const std::string response = engine.execute("metrics");
    ASSERT_EQ(response.substr(0, 3), "ok ");
    const std::string text = serve::unescape_lines(response.substr(3));
    for (const char* needle :
         {"extradeep_fleet_runs_total{state=\"accepted\"} 5",
          "extradeep_fleet_runs_total{state=\"quarantined\"} 0",
          "extradeep_fleet_refits_total", "extradeep_fleet_swaps_total",
          "extradeep_fleet_stale_fits_total",
          "extradeep_fleet_pool_queued_tasks",
          "extradeep_fleet_staleness_runs 0",
          "extradeep_fleet_refit_latency_us_bucket",
          "extradeep_fleet_swap_latency_us_bucket"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }

    // One registry gauge sample line, refreshed by the verb to the registry
    // size (1: the fitted "demo" model).
    std::size_t gauge_lines = 0;
    std::size_t pos = 0;
    const std::string prefix = "\nextradeep_serve_registry_models ";
    while ((pos = text.find(prefix, pos)) != std::string::npos) {
        ++gauge_lines;
        pos += prefix.size();
    }
    EXPECT_EQ(gauge_lines, 1u);
    EXPECT_NE(text.find(prefix + std::to_string(fx.registry->size()) + "\n"),
              std::string::npos);
    EXPECT_EQ(fx.registry->size(), 1u);
}
