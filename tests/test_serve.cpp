// Tests of the serving subsystem (src/serve): EDPM serialization round-trip,
// registry lifecycle, query engine semantics, and the TCP daemon — including
// the headline property that a serialize -> load -> query cycle answers every
// query kind byte-identically to the in-memory model it came from.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/clock.hpp"
#include "serve/query.hpp"
#include "serve/registry.hpp"
#include "serve/serialize.hpp"
#include "serve/server.hpp"
#include "serve/socket_util.hpp"

using namespace extradeep;

namespace {

namespace fs = std::filesystem;

/// One small fitted experiment, shared across the suite (fitting is fast but
/// there is no reason to repeat it per test).
const ExperimentSpec& test_spec() {
    static const ExperimentSpec spec = [] {
        ExperimentSpec s;
        s.repetitions = 2;
        s.seed = 7;
        return s;
    }();
    return spec;
}

const ExperimentResult& test_result() {
    static const ExperimentResult result = ExperimentRunner(test_spec()).run();
    return result;
}

serve::ServableModel test_model(const std::string& name = "cifar10-weak") {
    return serve::make_servable(test_spec(), test_result(), name);
}

std::string edpm_text(const serve::ServableModel& model) {
    std::ostringstream os;
    serve::write_edpm(os, model);
    return os.str();
}

/// A fresh empty directory under the gtest temp root.
fs::path fresh_dir(const std::string& tag) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("serve-" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/// Requests covering every query kind the protocol defines.
std::vector<std::string> all_kind_requests(const std::string& model) {
    return {
        "ping",
        "list",
        "predict " + model + " 16",
        "predict " + model + " 16 communication",
        "predict " + model + " 16 epoch 0.99",
        "speedup " + model + " 2 4 8 16 32",
        "efficiency " + model + " 2 4 8 16 32",
        "cost " + model + " 16",
        "cost " + model + " 16 4",
        "search " + model + " 1e6 1e6 2 4 8 16 32",
        "search " + model + " 0.001 1e6 2 4 8 16",
        "whatif " + model + " 16 interconnect:2+overlap:0.5",
        "whatif " + model + " 8 collective:tree",
        "whatif " + model + " 16 fuse:4",
        "advise " + model + " 16 3",
        "advise " + model + " 16",
    };
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(EdpmSerialize, RoundTripIsBitExact) {
    const serve::ServableModel original = test_model();
    std::istringstream is(edpm_text(original));
    const serve::ServableModel loaded = serve::read_edpm(is);

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.provenance, original.provenance);
    EXPECT_EQ(loaded.seed, original.seed);
    EXPECT_EQ(loaded.dataset, original.dataset);
    EXPECT_EQ(loaded.system_name, original.system_name);
    EXPECT_EQ(loaded.strategy, original.strategy);
    EXPECT_EQ(loaded.scaling, original.scaling);
    EXPECT_EQ(loaded.batch_per_worker, original.batch_per_worker);
    EXPECT_EQ(loaded.model_parallel_degree, original.model_parallel_degree);
    EXPECT_EQ(loaded.cores_per_rank, original.cores_per_rank);
    ASSERT_EQ(loaded.modeling_xs.size(), original.modeling_xs.size());
    for (std::size_t i = 0; i < loaded.modeling_xs.size(); ++i) {
        // EXPECT_EQ, not NEAR: hexfloat encoding round-trips every bit.
        EXPECT_EQ(loaded.modeling_xs[i], original.modeling_xs[i]);
        EXPECT_EQ(loaded.epoch_time_values[i], original.epoch_time_values[i]);
    }
    for (const double x : {2.0, 10.0, 16.0, 64.0, 1024.0}) {
        EXPECT_EQ(loaded.epoch_time.evaluate(x),
                  original.epoch_time.evaluate(x));
        const auto li = loaded.epoch_time.predict_interval(x);
        const auto oi = original.epoch_time.predict_interval(x);
        EXPECT_EQ(li.lower, oi.lower);
        EXPECT_EQ(li.upper, oi.upper);
        for (int p = 0; p < trace::kPhaseCount; ++p) {
            EXPECT_EQ(loaded.phase_time[p].evaluate(x),
                      original.phase_time[p].evaluate(x));
        }
    }
    for (const int ranks : {2, 6, 48, 512}) {
        const parallel::StepMath a = loaded.step_math(ranks);
        const parallel::StepMath b = original.step_math(ranks);
        EXPECT_EQ(a.train_steps, b.train_steps);
        EXPECT_EQ(a.val_steps, b.val_steps);
    }
}

TEST(EdpmSerialize, SecondGenerationRoundTripIsByteIdentical) {
    const std::string first = edpm_text(test_model());
    std::istringstream is(first);
    const serve::ServableModel loaded = serve::read_edpm(is);
    EXPECT_EQ(edpm_text(loaded), first);
}

TEST(EdpmSerialize, RejectsInvalidModelNames) {
    for (const char* bad : {"", "has space", "tab\tname", "weird!"}) {
        EXPECT_THROW(test_model(bad), InvalidArgumentError) << bad;
    }
    EXPECT_THROW(test_model(std::string(129, 'a')), InvalidArgumentError);
    EXPECT_NO_THROW(test_model("ok.name_v2-final"));
}

TEST(EdpmSerialize, StrictRejectsVersionMismatch) {
    std::string text = edpm_text(test_model());
    text.replace(text.find("EDPM\t1"), 6, "EDPM\t2");
    std::istringstream is(text);
    EXPECT_THROW(serve::read_edpm(is), ParseError);
}

TEST(EdpmSerialize, StrictRejectsTruncation) {
    const std::string text = edpm_text(test_model());
    std::istringstream is(text.substr(0, text.size() / 2));
    EXPECT_THROW(serve::read_edpm(is), ParseError);
}

TEST(EdpmSerialize, StrictRejectsTrailingData) {
    std::istringstream is(edpm_text(test_model()) + "EXTRA\tstuff\n");
    EXPECT_THROW(serve::read_edpm(is), ParseError);
}

TEST(EdpmSerialize, TolerantQuarantinesCorruptConst) {
    std::string text = edpm_text(test_model());
    const std::size_t pos = text.find("CONST\t");
    text.replace(pos, 6, "CONST\tzz");
    std::istringstream is(text);
    serve::EdpmReadResult result;
    EXPECT_NO_THROW(result = serve::read_edpm_diagnosed(is));
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.diagnostics.has_errors());
}

TEST(EdpmSerialize, TolerantDegradesCorruptQualityWithWarning) {
    std::string text = edpm_text(test_model());
    const std::size_t pos = text.find("QUALITY\t");
    text.replace(pos, 8, "QUALITY\tzz\t");
    std::istringstream is(text);
    const serve::EdpmReadResult result = serve::read_edpm_diagnosed(is);
    ASSERT_TRUE(result.model.has_value());
    EXPECT_FALSE(result.diagnostics.has_errors());
    EXPECT_GE(result.diagnostics.count(Severity::Warning), 1u);
    // Prediction-affecting state is untouched by the degraded metadata.
    EXPECT_EQ(result.model->epoch_time.evaluate(16.0),
              test_model().epoch_time.evaluate(16.0));
}

TEST(EdpmSerialize, TolerantSkipsUnknownModelSections) {
    std::string text = edpm_text(test_model());
    const std::string extra =
        "MODEL\tphase.future.train\nPARAMS\t1\tx1\nCONST\t0x1p+0\nENDMODEL\n";
    text.insert(text.find("END\n"), extra);
    std::istringstream is(text);
    const serve::EdpmReadResult result = serve::read_edpm_diagnosed(is);
    ASSERT_TRUE(result.model.has_value());
    EXPECT_FALSE(result.diagnostics.has_errors());
}

TEST(EdpmSerialize, UnknownDatasetQuarantines) {
    std::string text = edpm_text(test_model());
    // The dataset name also appears in the free-text PROV line; only the
    // SPEC record feeds the step-math reconstruction.
    const std::size_t pos = text.find("SPEC\tCIFAR-10");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos + 5, 8, "NOSUCH-1");
    std::istringstream is(text);
    const serve::EdpmReadResult result = serve::read_edpm_diagnosed(is);
    EXPECT_FALSE(result.ok());
}

TEST(EdpmSerialize, NegativeSeedAfterABlankIsMalformed) {
    // std::stoull skips leading blanks and negates in unsigned arithmetic,
    // so " -5" must be refused like "-5", not loaded as 2^64 - 5.
    const std::string text = edpm_text(test_model());
    const std::size_t pos = text.find("SEED\t");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t eol = text.find('\n', pos);
    for (const char* seed : {"-5", " -5"}) {
        SCOPED_TRACE(std::string("SEED value '") + seed + "'");
        std::string bad = text;
        bad.replace(pos + 5, eol - pos - 5, seed);
        std::istringstream is(bad);
        const serve::EdpmReadResult result = serve::read_edpm_diagnosed(is);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.model->seed, 0u);
        ASSERT_EQ(result.diagnostics.total(), 1u);
        EXPECT_EQ(result.diagnostics.entries().front().reason,
                  "EDPM: malformed SEED record, defaulting to 0");
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ModelRegistry, LoadsDirectoryAndQuarantinesCorruptFiles) {
    const fs::path dir = fresh_dir("load");
    serve::write_edpm_file((dir / "a.edpm").string(), test_model("model-a"));
    serve::write_edpm_file((dir / "b.edpm").string(), test_model("model-b"));
    std::ofstream(dir / "broken.edpm") << "EDPM\t1\ngarbage\n";
    std::ofstream(dir / "notamodel.txt") << "ignored\n";

    serve::ModelRegistry registry;
    const serve::RegistryLoadReport report =
        registry.load_directory(dir.string());
    EXPECT_EQ(report.loaded, 2);
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_NE(registry.find("model-a"), nullptr);
    EXPECT_NE(registry.find("model-b"), nullptr);
    EXPECT_EQ(registry.find("nosuch"), nullptr);
    EXPECT_TRUE(report.diagnostics.has_errors());
}

TEST(ModelRegistry, FileDiagnosticsKeepTheirOverflowCounts) {
    // 1,500 unknown records: one warning each, more than a log stores.
    std::string text = edpm_text(test_model("model-a"));
    std::string unknown;
    for (int i = 0; i < 1500; ++i) {
        unknown += "WAT\t" + std::to_string(i) + "\n";
    }
    text.insert(text.rfind("END\n"), unknown);
    const fs::path dir = fresh_dir("overflow");
    std::ofstream(dir / "a.edpm") << text;

    serve::ModelRegistry registry;
    const serve::RegistryLoadReport report =
        registry.load_directory(dir.string());
    EXPECT_EQ(report.loaded, 1);
    EXPECT_EQ(report.diagnostics.count(Severity::Warning), 1500u);
    EXPECT_EQ(report.diagnostics.total(), 1500u);
    EXPECT_EQ(report.diagnostics.entries().size(),
              DiagnosticLog::kDefaultCapacity);
    EXPECT_EQ(report.diagnostics.entries().front().reason,
              (dir / "a.edpm").string() + ": EDPM: unknown record 'WAT' skipped");
}

TEST(ModelRegistry, DuplicateNameFirstFileWins) {
    const fs::path dir = fresh_dir("dup");
    serve::write_edpm_file((dir / "a.edpm").string(), test_model("same"));
    serve::write_edpm_file((dir / "b.edpm").string(), test_model("same"));
    serve::ModelRegistry registry;
    const auto report = registry.load_directory(dir.string());
    EXPECT_EQ(report.loaded, 1);
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, ReloadPicksUpNewAndRemovedFiles) {
    const fs::path dir = fresh_dir("reload");
    serve::write_edpm_file((dir / "a.edpm").string(), test_model("model-a"));
    serve::ModelRegistry registry;
    registry.load_directory(dir.string());
    EXPECT_EQ(registry.size(), 1u);

    serve::write_edpm_file((dir / "b.edpm").string(), test_model("model-b"));
    fs::remove(dir / "a.edpm");
    const auto report = registry.reload();
    EXPECT_EQ(report.loaded, 1);
    EXPECT_EQ(report.removed, 1);
    EXPECT_EQ(registry.find("model-a"), nullptr);
    EXPECT_NE(registry.find("model-b"), nullptr);
}

TEST(ModelRegistry, ReloadRemovesVanishedFileUnderTrailingSlashDir) {
    // `--models DIR/` names the same directory as `--models DIR`: a file
    // deleted from it must still take its entry with it on reload.
    const fs::path dir = fresh_dir("trailing-slash");
    serve::write_edpm_file((dir / "a.edpm").string(), test_model("model-a"));
    serve::write_edpm_file((dir / "b.edpm").string(), test_model("model-b"));
    serve::ModelRegistry registry;
    registry.load_directory(dir.string() + "/");
    EXPECT_EQ(registry.size(), 2u);

    fs::remove(dir / "a.edpm");
    const auto report = registry.reload();
    EXPECT_EQ(report.removed, 1);
    EXPECT_EQ(registry.find("model-a"), nullptr);
    EXPECT_NE(registry.find("model-b"), nullptr);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, CorruptReloadKeepsPreviousGoodModel) {
    const fs::path dir = fresh_dir("corrupt-reload");
    serve::write_edpm_file((dir / "a.edpm").string(), test_model("model-a"));
    serve::ModelRegistry registry;
    registry.load_directory(dir.string());
    const auto before = registry.find("model-a");
    ASSERT_NE(before, nullptr);

    std::ofstream(dir / "a.edpm") << "EDPM\t1\nbroken beyond repair\n";
    const auto report = registry.reload();
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_EQ(report.removed, 0);
    // The previous good model keeps serving (a bad deploy cannot take down
    // the registry), and handed-out pointers stay valid.
    const auto after = registry.find("model-a");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after, before);
}

TEST(ModelRegistry, RejectsMissingDirectory) {
    serve::ModelRegistry registry;
    EXPECT_THROW(registry.load_directory("/nonexistent/serve-models"), Error);
    EXPECT_THROW(registry.reload(), Error);
}

// ---------------------------------------------------------------------------
// Query engine
// ---------------------------------------------------------------------------

std::shared_ptr<serve::QueryEngine> engine_over(serve::ServableModel model) {
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->add(std::make_shared<const serve::ServableModel>(std::move(model)));
    return std::make_shared<serve::QueryEngine>(std::move(registry));
}

TEST(QueryEngine, SerializeLoadQueryIsByteIdenticalForEveryKind) {
    // The headline round-trip property: answers from a model that went
    // through the on-disk format match the in-memory model byte for byte,
    // for every query kind.
    auto memory_engine = engine_over(test_model());
    std::istringstream is(edpm_text(test_model()));
    auto loaded_engine = engine_over(serve::read_edpm(is));
    for (const auto& request : all_kind_requests("cifar10-weak")) {
        EXPECT_EQ(loaded_engine->execute(request),
                  memory_engine->execute(request))
            << request;
    }
}

TEST(QueryEngine, ResponsesAreWellFormed) {
    auto engine = engine_over(test_model());
    EXPECT_EQ(engine->execute("ping"), "ok pong");
    EXPECT_EQ(engine->execute("list"), "ok 1 cifar10-weak");
    EXPECT_EQ(engine->execute("predict cifar10-weak 16").substr(0, 5), "ok t=");
    EXPECT_EQ(engine->execute("cost cifar10-weak 16").substr(0, 8), "ok cost=");
    EXPECT_EQ(engine->execute("search cifar10-weak 1e6 1e6 2 4 8")
                  .substr(0, 8),
              "ok best=");
    EXPECT_EQ(engine->execute("whatif cifar10-weak 16 interconnect:2")
                  .substr(0, 8),
              "ok base=");
    EXPECT_EQ(engine->execute("advise cifar10-weak 16 3").substr(0, 5),
              "ok n=");
}

TEST(QueryEngine, WhatifIdentityIsBitExactAndErrorsNameTheScenario) {
    auto engine = engine_over(test_model());
    // A zero-magnitude scenario reports a saving of exactly 0 and a scenario
    // time byte-identical to the baseline (shortest-round-trip formatting of
    // equal doubles is equal text).
    const std::string response =
        engine->execute("whatif cifar10-weak 16 identity");
    EXPECT_NE(response.find(" saving=0 "), std::string::npos) << response;
    const std::size_t base_pos = response.find("base=");
    const std::size_t time_pos = response.find(" time=");
    ASSERT_NE(base_pos, std::string::npos);
    ASSERT_NE(time_pos, std::string::npos);
    const std::string base = response.substr(
        base_pos + 5, time_pos - (base_pos + 5));
    EXPECT_NE(response.find(" time=" + base + " "), std::string::npos)
        << response;
    // Malformed scenarios map to err lines that name the offending piece.
    const std::string bad = engine->execute("whatif cifar10-weak 16 bogus:2");
    EXPECT_EQ(bad.substr(0, 4), "err ");
    EXPECT_NE(bad.find("bogus"), std::string::npos) << bad;
    const std::string conflict = engine->execute(
        "whatif cifar10-weak 16 collective:ring+collective:tree");
    EXPECT_EQ(conflict.substr(0, 4), "err ");
    EXPECT_NE(conflict.find("collective"), std::string::npos) << conflict;
}

TEST(QueryEngine, ErrorsAreResponsesNotExceptions) {
    auto engine = engine_over(test_model());
    for (const char* bad : {
             "",
             "bogus",
             "predict",
             "predict nosuch 16",
             "predict cifar10-weak notanumber",
             "predict cifar10-weak -4",
             "predict cifar10-weak 16 badphase",
             "speedup cifar10-weak 2",
             "cost cifar10-weak 16 0",
             "search cifar10-weak 1e6",
             "whatif cifar10-weak 16",
             "whatif cifar10-weak 16 bogus:2",
             "whatif cifar10-weak 16 interconnect:0",
             "whatif cifar10-weak 16 overlap:1.5",
             "whatif cifar10-weak 16 collective:ring+collective:tree",
             "whatif cifar10-weak 16 interconnect:2 extra",
             "whatif cifar10-weak 1 interconnect:2",
             "whatif nosuch 16 interconnect:2",
             "advise cifar10-weak 16 0",
             "advise cifar10-weak 16 999",
             "advise cifar10-weak 16 2.5",
             "advise nosuch 16",
         }) {
        std::string response;
        EXPECT_NO_THROW(response = engine->execute(bad)) << bad;
        EXPECT_EQ(response.substr(0, 4), "err ") << bad;
    }
}

TEST(QueryEngine, CountsRequestsLatencyAndErrors) {
    auto engine = engine_over(test_model());
    engine->execute("predict cifar10-weak 16");
    engine->execute("predict nosuch 16");
    engine->execute("ping");
    const auto counters = engine->counters();
    const auto& predict =
        counters[static_cast<int>(serve::QueryKind::Predict)];
    EXPECT_EQ(predict.requests, 2u);
    EXPECT_EQ(predict.errors, 1u);
    EXPECT_GE(predict.total_latency_us, predict.max_latency_us);
    EXPECT_EQ(counters[static_cast<int>(serve::QueryKind::Ping)].requests, 1u);
    const std::string stats = engine->execute("stats");
    EXPECT_EQ(stats.substr(0, 3), "ok ");
    EXPECT_NE(stats.find("predict=2:1:"), std::string::npos) << stats;
}

TEST(QueryEngine, StatsFieldsEqualCounters) {
    // One tally per request: the `stats` line and counters() read the same
    // instruments. Every request takes exactly 2 us on the fake clock (two
    // readings 2500 ns apart), so the totals are known too.
    const obs::FakeClock clock(0, 2500);
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->add(std::make_shared<const serve::ServableModel>(test_model()));
    serve::QueryEngine engine(registry, &clock);
    for (const char* request :
         {"predict cifar10-weak 16", "predict nosuch 16", "bogus",
          "predict cifar10-weak 8", "ping", "ping"}) {
        engine.execute(request);
    }
    const auto counters = engine.counters();
    const std::string stats = engine.execute("stats");
    ASSERT_EQ(stats.substr(0, 3), "ok ");
    for (int k = 0; k < serve::kQueryKindCount; ++k) {
        const auto& c = counters[static_cast<std::size_t>(k)];
        const std::string fields =
            ' ' + std::string(serve::query_kind_name(
                      static_cast<serve::QueryKind>(k))) +
            '=' + std::to_string(c.requests) + ':' +
            std::to_string(c.errors) + ':' +
            std::to_string(c.total_latency_us) + ':' +
            std::to_string(c.max_latency_us) + ':';
        EXPECT_NE(stats.find(fields), std::string::npos) << fields << stats;
    }
    EXPECT_NE(stats.find(" predict=3:1:6:2:"), std::string::npos) << stats;
    EXPECT_NE(stats.find(" other=1:1:2:2:"), std::string::npos) << stats;
    EXPECT_NE(stats.find(" ping=2:0:4:2:"), std::string::npos) << stats;
    EXPECT_NE(stats.find(" stats=0:0:0:0:"), std::string::npos) << stats;
}

TEST(QueryEngine, ReloadRequestRefreshesTheRegistry) {
    const fs::path dir = fresh_dir("engine-reload");
    serve::write_edpm_file((dir / "a.edpm").string(), test_model("model-a"));
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->load_directory(dir.string());
    serve::QueryEngine engine(registry);
    EXPECT_EQ(engine.execute("list"), "ok 1 model-a");
    serve::write_edpm_file((dir / "b.edpm").string(), test_model("model-b"));
    EXPECT_EQ(engine.execute("reload").substr(0, 3), "ok ");
    EXPECT_EQ(engine.execute("list"), "ok 2 model-a model-b");
}

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

TEST(ServeDaemon, AnswersMatchLibraryByteForByte) {
    auto engine = engine_over(test_model());
    serve::ServerOptions options;
    options.threads = 2;
    serve::ServeDaemon daemon(engine, options);
    daemon.start();
    ASSERT_GT(daemon.port(), 0);

    std::vector<std::string> requests = all_kind_requests("cifar10-weak");
    requests.emplace_back("predict nosuch 16");  // errors travel too
    const std::vector<std::string> responses =
        serve::query_daemon("127.0.0.1", daemon.port(), requests);
    auto reference = engine_over(test_model());
    ASSERT_EQ(responses.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(responses[i], reference->execute(requests[i]))
            << requests[i];
    }
    daemon.stop();
    daemon.wait();
    EXPECT_FALSE(daemon.running());
}

TEST(ServeDaemon, ConcurrentClientsGetDeterministicAnswers) {
    auto engine = engine_over(test_model());
    serve::ServerOptions options;
    options.threads = 4;
    serve::ServeDaemon daemon(engine, options);
    daemon.start();

    const std::vector<std::string> requests =
        all_kind_requests("cifar10-weak");
    auto reference = engine_over(test_model());
    std::vector<std::string> expected;
    for (const auto& r : requests) {
        expected.push_back(reference->execute(r));
    }

    constexpr int kClients = 8;
    std::vector<std::vector<std::string>> got(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            got[c] = serve::query_daemon("127.0.0.1", daemon.port(), requests);
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(got[c], expected) << "client " << c;
    }
    daemon.stop();
    daemon.wait();
}

TEST(ServeDaemon, ShutdownRequestStopsTheDaemon) {
    auto engine = engine_over(test_model());
    serve::ServeDaemon daemon(engine, serve::ServerOptions{});
    daemon.start();
    const auto responses =
        serve::query_daemon("127.0.0.1", daemon.port(), {"ping", "shutdown"});
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0], "ok pong");
    EXPECT_EQ(responses[1], "ok bye");
    daemon.wait();
    EXPECT_FALSE(daemon.running());
}

// ---------------------------------------------------------------------------
// Event-loop robustness (adversarial clients)
// ---------------------------------------------------------------------------

std::uint64_t now_ns() { return obs::steady_clock_instance().now_ns(); }

TEST(ServeDaemon, StalledConnectionDoesNotBlockOtherClients) {
    // The head-of-line regression test: with the old batch-accept-and-barrier
    // loop, a connection that sends nothing pinned every later client until
    // the recv timeout. With the event loop, a fast client on a second
    // connection must be served immediately while the stalled one idles.
    auto engine = engine_over(test_model());
    serve::ServerOptions options;
    options.threads = 2;
    options.recv_timeout_ms = 30000;  // a stalled HOL would cost ~30s
    serve::ServeDaemon daemon(engine, options);
    daemon.start();

    serve::FdGuard stalled(
        serve::connect_to("127.0.0.1", daemon.port(), 5000));
    // Half a request line, never completed: the connection stays open and
    // request-less for the whole test.
    serve::send_all(stalled.get(), "predict cifar10-");

    const std::uint64_t begin = now_ns();
    const std::vector<std::string> requests =
        all_kind_requests("cifar10-weak");
    const std::vector<std::string> responses =
        serve::query_daemon("127.0.0.1", daemon.port(), requests);
    const double elapsed_s =
        static_cast<double>(now_ns() - begin) / 1e9;

    auto reference = engine_over(test_model());
    ASSERT_EQ(responses.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(responses[i], reference->execute(requests[i]));
    }
    // Far below the 30s idle timeout the stalled connection is sitting on.
    EXPECT_LT(elapsed_s, 10.0);
    // Close the half-sent connection first: the drain keeps a partial line
    // alive until recv_timeout_ms, so wait() would otherwise take 30 s.
    stalled.reset();
    daemon.stop();
    daemon.wait();
}

TEST(ServeDaemon, SlowLorisByteAtATimeIsServed) {
    auto engine = engine_over(test_model());
    serve::ServeDaemon daemon(engine, serve::ServerOptions{});
    daemon.start();
    serve::FdGuard fd(serve::connect_to("127.0.0.1", daemon.port(), 5000));
    const std::string request = "predict cifar10-weak 16\n";
    for (const char byte : request) {
        serve::send_all(fd.get(), std::string(1, byte));
        ::usleep(1000);
    }
    serve::LineReader reader(fd.get(), serve::kMaxRequestLine);
    std::string line;
    ASSERT_TRUE(reader.next_line(line));
    auto reference = engine_over(test_model());
    EXPECT_EQ(line, reference->execute("predict cifar10-weak 16"));
    daemon.stop();
    daemon.wait();
}

TEST(ServeDaemon, LineAtExactlyMaxLengthIsServed) {
    auto engine = engine_over(test_model());
    serve::ServeDaemon daemon(engine, serve::ServerOptions{});
    daemon.start();
    serve::FdGuard fd(serve::connect_to("127.0.0.1", daemon.port(), 5000));
    // Exactly kMaxRequestLine bytes before the newline: still a legal line.
    serve::send_all(fd.get(),
                    std::string(serve::kMaxRequestLine, 'a') + "\n");
    // The error response echoes the command, so it is longer than the
    // request; give the client-side reader comfortable headroom.
    serve::LineReader reader(fd.get(), serve::kMaxRequestLine + 256);
    std::string line;
    ASSERT_TRUE(reader.next_line(line));
    EXPECT_EQ(line.substr(0, 4), "err ");
    daemon.stop();
    daemon.wait();
}

TEST(ServeDaemon, OversizedLineClosesTheConnection) {
    auto engine = engine_over(test_model());
    serve::ServeDaemon daemon(engine, serve::ServerOptions{});
    daemon.start();
    serve::FdGuard fd(serve::connect_to("127.0.0.1", daemon.port(), 5000));
    // One byte past the limit: the daemon must drop the connection without
    // answering rather than buffer an unbounded line.
    serve::send_all(fd.get(),
                    std::string(serve::kMaxRequestLine + 1, 'a') + "\n");
    serve::LineReader reader(fd.get(), serve::kMaxRequestLine + 16);
    std::string line;
    EXPECT_FALSE(reader.next_line(line));
    EXPECT_EQ(reader.status(), serve::ReadStatus::Eof);
    daemon.stop();
    daemon.wait();
}

TEST(ServeDaemon, UnterminatedTrailingLineIsServed) {
    // A client may send its last request without a newline and half-close;
    // EOF terminates the line.
    auto engine = engine_over(test_model());
    serve::ServeDaemon daemon(engine, serve::ServerOptions{});
    daemon.start();
    serve::FdGuard fd(serve::connect_to("127.0.0.1", daemon.port(), 5000));
    serve::send_all(fd.get(), "ping\nping");
    ::shutdown(fd.get(), SHUT_WR);
    serve::LineReader reader(fd.get(), serve::kMaxRequestLine);
    std::string line;
    ASSERT_TRUE(reader.next_line(line));
    EXPECT_EQ(line, "ok pong");
    ASSERT_TRUE(reader.next_line(line));
    EXPECT_EQ(line, "ok pong");
    EXPECT_FALSE(reader.next_line(line));
    EXPECT_EQ(reader.status(), serve::ReadStatus::Eof);
    daemon.stop();
    daemon.wait();
}

TEST(ServeDaemon, ShutdownDrainsPipelinedRequestsOnLiveConnections) {
    // A `shutdown` from one client must not abort another client's already-
    // sent requests: the drain serves them all before the daemon exits.
    auto engine = engine_over(test_model());
    serve::ServerOptions options;
    options.threads = 2;
    serve::ServeDaemon daemon(engine, options);
    daemon.start();

    serve::FdGuard pipelined(
        serve::connect_to("127.0.0.1", daemon.port(), 5000));
    constexpr int kPipelined = 10;
    std::string burst;
    for (int i = 0; i < kPipelined; ++i) {
        burst += "predict cifar10-weak 16\n";
    }
    serve::send_all(pipelined.get(), burst);

    const auto shutdown_response =
        serve::query_daemon("127.0.0.1", daemon.port(), {"shutdown"});
    ASSERT_EQ(shutdown_response.size(), 1u);
    EXPECT_EQ(shutdown_response[0], "ok bye");

    auto reference = engine_over(test_model());
    const std::string expected = reference->execute("predict cifar10-weak 16");
    serve::LineReader reader(pipelined.get(), serve::kMaxRequestLine);
    std::string line;
    for (int i = 0; i < kPipelined; ++i) {
        ASSERT_TRUE(reader.next_line(line)) << "response " << i;
        EXPECT_EQ(line, expected);
    }
    daemon.wait();
    EXPECT_FALSE(daemon.running());
}

std::atomic<int> g_sigusr1_count{0};

void count_sigusr1(int) { g_sigusr1_count.fetch_add(1); }

TEST(ServeDaemon, ClientSurvivesSignalInterruption) {
    // EINTR robustness: pepper the client thread with SIGUSR1 (handler
    // installed *without* SA_RESTART, so every blocking connect/send/recv
    // can fail with EINTR) while it runs full query batches. Every syscall
    // wrapper in socket_util must retry, so all responses still arrive.
    struct sigaction action {};
    action.sa_handler = count_sigusr1;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // deliberately no SA_RESTART
    struct sigaction previous {};
    ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

    auto engine = engine_over(test_model());
    serve::ServeDaemon daemon(engine, serve::ServerOptions{});
    daemon.start();

    const std::vector<std::string> requests =
        all_kind_requests("cifar10-weak");
    auto reference = engine_over(test_model());
    std::vector<std::string> expected;
    for (const auto& r : requests) {
        expected.push_back(reference->execute(r));
    }

    std::vector<std::vector<std::string>> got;
    std::atomic<bool> finished{false};
    std::atomic<bool> pepper_done{false};
    std::thread client([&] {
        for (int round = 0; round < 10; ++round) {
            got.push_back(
                serve::query_daemon("127.0.0.1", daemon.port(), requests));
        }
        finished.store(true);
        while (!pepper_done.load()) {  // stay alive while signals incoming
            ::usleep(200);
        }
    });
    while (!finished.load()) {
        pthread_kill(client.native_handle(), SIGUSR1);
        ::usleep(200);
    }
    pepper_done.store(true);
    client.join();
    ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);

    EXPECT_GT(g_sigusr1_count.load(), 0);
    ASSERT_EQ(got.size(), 10u);
    for (const auto& round : got) {
        EXPECT_EQ(round, expected);
    }
    daemon.stop();
    daemon.wait();
}

// ---------------------------------------------------------------------------
// Cheap verbs on the event loop, reads gated on queued requests
// ---------------------------------------------------------------------------

/// Fleet handler whose `ingest` blocks until release(): it holds a pool
/// worker for as long as a test needs one held.
class BlockingFleetHandler : public serve::FleetHandler {
public:
    std::string handle_ingest(const std::string&, const std::string&) override {
        std::unique_lock<std::mutex> lock(mutex_);
        ++entered_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        return "held";
    }
    std::string fleet_stats_line() override { return "blocking"; }
    void attach_metrics(obs::MetricsRegistry&) override {}
    void update_metrics() override {}

    /// Waits (up to 10 s) until `n` ingests are blocked in the handler.
    bool wait_entered(int n) {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, std::chrono::seconds(10),
                            [&] { return entered_ >= n; });
    }

    void release() {
        std::lock_guard<std::mutex> lock(mutex_);
        released_ = true;
        cv_.notify_all();
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int entered_ = 0;
    bool released_ = false;
};

/// Releases the handler when a test leaves, failed assertions included, so
/// the daemon's destructor never joins a worker that is still held. Declare
/// it after the daemon: it must be destroyed first.
struct ReleaseOnExit {
    BlockingFleetHandler& handler;
    ~ReleaseOnExit() { handler.release(); }
};

/// The largest value of the last field of a /proc/sys/net/ipv4/tcp_*mem
/// file (the autotuning ceiling of a socket buffer), or 0 if unreadable.
std::size_t tcp_buffer_ceiling(const char* path) {
    std::ifstream in(path);
    std::size_t min = 0;
    std::size_t def = 0;
    std::size_t max = 0;
    return (in >> min >> def >> max) ? max : 0;
}

TEST(ServeDaemon, PipelinedRequestsBehindAHeldOneStopBeingRead) {
    // Without read gating, every byte a client pipelines behind a slow
    // request lands in the daemon's per-connection queue, without limit.
    // With it, the daemon stops reading after one readable event, the
    // kernel buffers fill and the client's send() blocks.
    const std::size_t rmem = tcp_buffer_ceiling("/proc/sys/net/ipv4/tcp_rmem");
    const std::size_t wmem = tcp_buffer_ceiling("/proc/sys/net/ipv4/tcp_wmem");
    if (rmem == 0 || wmem == 0) {
        GTEST_SKIP() << "TCP buffer ceilings unreadable";
    }
    auto engine = engine_over(test_model());
    auto handler = std::make_shared<BlockingFleetHandler>();
    engine->set_fleet_handler(handler);
    serve::ServerOptions options;
    options.threads = 2;
    serve::ServeDaemon daemon(engine, options);
    daemon.start();
    ReleaseOnExit release{*handler};

    serve::FdGuard fd(serve::connect_to("127.0.0.1", daemon.port(), 10000));
    ASSERT_TRUE(serve::send_all(fd.get(), "ingest exp payload\n"));
    ASSERT_TRUE(handler->wait_entered(1));
    ASSERT_TRUE(serve::set_nonblocking(fd.get()));

    // Padded lines (the grammar skips repeated spaces) keep the number of
    // requests low for the bytes sent.
    const std::string request =
        "predict cifar10-weak 16" + std::string(1000, ' ');
    const std::string line = request + "\n";
    // Everything the client can get sent while the daemon does not read:
    // both socket buffers at their ceilings, one readable event (16 x 4 KiB)
    // in the queue and one partial line in the input buffer.
    const std::size_t bound = rmem + wmem + 16 * 4096 + line.size();
    std::size_t sent = 0;
    bool blocked = false;
    while (!blocked && sent < 2 * bound) {
        const std::size_t offset = sent % line.size();
        const ssize_t n = ::send(fd.get(), line.data() + offset,
                                 line.size() - offset, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            << std::strerror(errno);
        pollfd writable{fd.get(), POLLOUT, 0};
        blocked = ::poll(&writable, 1, 500) == 0;
    }
    EXPECT_TRUE(blocked) << "daemon kept reading: " << sent << " bytes sent";
    EXPECT_LE(sent, bound);

    // Released, the held request answers first, then every pipelined one,
    // in order.
    handler->release();
    const int flags = ::fcntl(fd.get(), F_GETFL);
    ASSERT_EQ(::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK), 0);
    const std::size_t partial = sent % line.size();
    if (partial > 0) {
        ASSERT_TRUE(serve::send_all(fd.get(), line.substr(partial)));
    }
    ::shutdown(fd.get(), SHUT_WR);
    const std::size_t pipelined = (sent + line.size() - 1) / line.size();
    const std::string expected = engine_over(test_model())->execute(request);
    serve::LineReader reader(fd.get(), serve::kMaxRequestLine);
    std::string response;
    ASSERT_TRUE(reader.next_line(response));
    EXPECT_EQ(response, "ok held");
    for (std::size_t i = 0; i < pipelined; ++i) {
        ASSERT_TRUE(reader.next_line(response)) << "response " << i;
        ASSERT_EQ(response, expected) << "response " << i;
    }
    EXPECT_FALSE(reader.next_line(response));
    EXPECT_EQ(reader.status(), serve::ReadStatus::Eof);
}

TEST(ServeDaemon, CheapVerbsAreAnsweredWhileEveryWorkerIsHeld) {
    auto engine = engine_over(test_model());
    auto handler = std::make_shared<BlockingFleetHandler>();
    engine->set_fleet_handler(handler);
    serve::ServerOptions options;
    options.threads = 2;
    serve::ServeDaemon daemon(engine, options);
    daemon.start();
    ReleaseOnExit release{*handler};

    serve::FdGuard held(serve::connect_to("127.0.0.1", daemon.port(), 10000));
    serve::FdGuard other(serve::connect_to("127.0.0.1", daemon.port(), 10000));
    ASSERT_TRUE(serve::send_all(
        held.get(), "ingest exp payload\npredict cifar10-weak 16\n"));
    ASSERT_TRUE(serve::send_all(other.get(), "ingest exp payload\n"));
    ASSERT_TRUE(handler->wait_entered(2));

    // Both pool workers are held: the loop itself answers cheap verbs.
    auto reference = engine_over(test_model());
    const std::vector<std::string> cheap = {
        "predict cifar10-weak 16", "speedup cifar10-weak 4 8",
        "efficiency cifar10-weak 4 8", "cost cifar10-weak 8"};
    const std::vector<std::string> answers =
        serve::query_daemon("127.0.0.1", daemon.port(), cheap, 10000);
    ASSERT_EQ(answers.size(), cheap.size());
    for (std::size_t i = 0; i < cheap.size(); ++i) {
        EXPECT_EQ(answers[i], reference->execute(cheap[i])) << cheap[i];
    }

    // The predict pipelined behind the held ingest waits its turn.
    pollfd readable{held.get(), POLLIN, 0};
    EXPECT_EQ(::poll(&readable, 1, 200), 0);
    handler->release();
    serve::LineReader reader(held.get(), serve::kMaxRequestLine);
    std::string response;
    ASSERT_TRUE(reader.next_line(response));
    EXPECT_EQ(response, "ok held");
    ASSERT_TRUE(reader.next_line(response));
    EXPECT_EQ(response, reference->execute("predict cifar10-weak 16"));
}

TEST(QueryEngine, CheapRequestsAreTheFourClosedFormVerbs) {
    for (const char* cheap :
         {"predict m 4", "speedup m 4 8", "efficiency m 4 8", "cost m 4",
          "  predict m 4", "predict", "cost"}) {
        EXPECT_TRUE(serve::is_cheap_request(cheap)) << cheap;
    }
    for (const char* heavy :
         {"search m 10 10 4", "whatif m 4 interconnect:2", "advise m 4",
          "plan m 4 8", "ingest e p", "list", "stats", "metrics", "ping",
          "reload", "fleet-stats", "quit", "shutdown", "", "   ",
          "predictx m 4", "costs m 4"}) {
        EXPECT_FALSE(serve::is_cheap_request(heavy)) << heavy;
    }
}

// ---------------------------------------------------------------------------
// Registry concurrency
// ---------------------------------------------------------------------------

TEST(ModelRegistry, NamesAreSortedAcrossShards) {
    serve::ModelRegistry registry;
    std::vector<std::string> expected;
    for (int i = 0; i < 40; ++i) {
        const std::string name = "model-" + std::to_string(i);
        registry.add(std::make_shared<const serve::ServableModel>(
            test_model(name)));
        expected.push_back(name);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(registry.names(), expected);
    EXPECT_EQ(registry.size(), 40u);
}

TEST(ModelRegistry, ConcurrentReadersDuringReloadAlwaysFindModels) {
    // Readers racing hot reloads must never observe a missing or null model:
    // a reload swaps under one exclusive lock and keeps the last good model.
    const fs::path dir = fresh_dir("reload-race");
    std::vector<std::string> names;
    for (int i = 0; i < 8; ++i) {
        const std::string name = "race-" + std::to_string(i);
        serve::write_edpm_file((dir / (name + ".edpm")).string(),
                               test_model(name));
        names.push_back(name);
    }
    serve::ModelRegistry registry;
    registry.load_directory(dir.string());

    std::atomic<bool> stop{false};
    std::atomic<int> misses{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                for (const auto& name : names) {
                    if (registry.find(name) == nullptr) {
                        misses.fetch_add(1);
                    }
                }
                const auto all = registry.names();
                if (!std::is_sorted(all.begin(), all.end())) {
                    misses.fetch_add(1);
                }
            }
        });
    }
    for (int round = 0; round < 20; ++round) {
        registry.reload();
        registry.add(std::make_shared<const serve::ServableModel>(
            test_model("programmatic-" + std::to_string(round))));
    }
    stop.store(true);
    for (auto& t : readers) {
        t.join();
    }
    EXPECT_EQ(misses.load(), 0);
    EXPECT_EQ(registry.size(), names.size() + 20u);
}

TEST(ModelRegistry, ReloadIsAtomicAcrossNames) {
    // The directory alternates between two disjoint 8-name sets; a reader
    // racing the reloads sees exactly one of them, never a mix.
    const fs::path stage = fresh_dir("atomic-stage");
    const fs::path dir = fresh_dir("atomic");
    std::vector<std::string> set_a;
    std::vector<std::string> set_b;
    for (int i = 0; i < 8; ++i) {
        set_a.push_back("a-" + std::to_string(i));
        set_b.push_back("b-" + std::to_string(i));
    }
    for (const auto* set : {&set_a, &set_b}) {
        for (const auto& name : *set) {
            serve::write_edpm_file((stage / (name + ".edpm")).string(),
                                   test_model(name));
        }
    }
    const auto deploy = [&](const std::vector<std::string>& set) {
        for (const auto& entry : fs::directory_iterator(dir)) {
            fs::remove(entry.path());
        }
        for (const auto& name : set) {
            fs::copy_file(stage / (name + ".edpm"), dir / (name + ".edpm"));
        }
    };
    deploy(set_a);
    serve::ModelRegistry registry;
    registry.load_directory(dir.string());
    ASSERT_EQ(registry.names(), set_a);

    std::atomic<bool> stop{false};
    std::atomic<int> mixed{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                const auto all = registry.names();
                if (all != set_a && all != set_b) {
                    mixed.fetch_add(1);
                }
            }
        });
    }
    for (int round = 0; round < 200; ++round) {
        deploy(round % 2 == 0 ? set_b : set_a);
        registry.reload();
    }
    stop.store(true);
    for (auto& t : readers) {
        t.join();
    }
    EXPECT_EQ(mixed.load(), 0);
    EXPECT_EQ(registry.names(), set_a);
}

}  // namespace
