// Fault injection against the fleet `ingest` verb: every seeded mutator in
// the edpfuzz library is thrown at a live QueryEngine + FleetService and
// the loop must hold three properties for every mutant:
//
//   1. the response is exactly one line, `ok ...` or `err ...` - never a
//      crash, never a multi-line reply that would desynchronise the
//      protocol framing;
//   2. the engine keeps answering afterwards (the loop is never poisoned);
//   3. with refit dispatch held off, the exported model bytes never move -
//      no mutant, accepted or quarantined, may perturb served models
//      without going through a legitimate refit.
//
// Counter consistency is checked per push: an `ok` response bumps exactly
// `accepted`, an `err` response bumps `quarantined` at most once (payloads
// rejected at the protocol-usage layer bump neither).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault_injection.hpp"
#include "fleet/continuous.hpp"
#include "profiling/edp_io.hpp"
#include "serve/query.hpp"
#include "serve/registry.hpp"

using namespace extradeep;

namespace {

namespace fs = std::filesystem;

const ExperimentSpec& test_spec() {
    static const ExperimentSpec spec = [] {
        ExperimentSpec s;
        s.repetitions = 1;
        s.seed = 23;
        return s;
    }();
    return spec;
}

std::string run_edp_bytes(int ranks, int rep) {
    const ExperimentSpec& spec = test_spec();
    const ExperimentRunner runner(spec);
    const sim::TrainingSimulator simulator(runner.workload_for(ranks));
    const profiling::Profiler profiler(spec.sampling);
    const profiling::ProfiledRun run = profiler.profile(
        simulator, {{"x1", static_cast<double>(ranks)}}, rep, spec.seed);
    std::ostringstream os;
    profiling::write_edp(os, run);
    return os.str();
}

std::string read_file(const fs::path& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/// Engine + fleet service over a fresh models dir. min_runs is set far
/// above anything the suite pushes and nothing calls poll_once/drain during
/// fuzzing, so no refit can be dispatched: the exported bytes are an
/// invariant of the whole fuzz run by construction.
struct FuzzRig {
    std::shared_ptr<serve::ModelRegistry> registry;
    std::shared_ptr<fleet::FleetService> service;
    std::unique_ptr<serve::QueryEngine> engine;
    fs::path models;

    FuzzRig() {
        // One directory per test: ctest runs the tests of this suite as
        // concurrent processes, which must not wipe each other's models.
        const ::testing::TestInfo* test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        models = fs::path(::testing::TempDir()) /
                 (std::string("fleet-fuzz-models-") + test->name());
        fs::remove_all(models);
        fleet::FleetOptions opts;
        opts.models_dir = models.string();
        opts.spec = test_spec();
        opts.min_runs = 1;
        registry = std::make_shared<serve::ModelRegistry>();
        service = std::make_shared<fleet::FleetService>(opts, registry);
        engine = std::make_unique<serve::QueryEngine>(registry);
        engine->set_fleet_handler(service);
    }

    /// Seeds one fitted model, then rebuilds the service with dispatch held
    /// off (min_runs huge) so fuzz pushes can never trigger a refit.
    void fit_baseline() {
        for (const int r : {2, 4, 6, 8, 10}) {
            engine->execute("ingest fuzz " +
                            serve::escape_lines(run_edp_bytes(r, 0)));
        }
        service->drain();
        ASSERT_NE(registry->find("fuzz"), nullptr);

        engine.reset();
        service.reset();
        fleet::FleetOptions opts;
        opts.models_dir = models.string();
        opts.spec = test_spec();
        opts.min_runs = 1'000'000;
        service = std::make_shared<fleet::FleetService>(opts, registry);
        engine = std::make_unique<serve::QueryEngine>(registry);
        engine->set_fleet_handler(service);
    }

    std::string push(const std::string& payload) {
        return engine->execute("ingest fuzz " + serve::escape_lines(payload));
    }
};

}  // namespace

TEST(FleetFaults, EveryMutatorEverySeed) {
    FuzzRig rig;
    rig.fit_baseline();
    const std::string model_path = (rig.models / "fuzz.edpm").string();
    const std::string baseline_bytes = read_file(model_path);
    ASSERT_FALSE(baseline_bytes.empty());

    const std::string good = run_edp_bytes(6, 1);
    int accepted_mutants = 0;
    int quarantined_mutants = 0;
    for (const auto& [name, mutate] : edpfuzz::mutators()) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            Rng rng(seed);
            const std::string mutant = mutate(good, rng);
            const fleet::FleetStats before = rig.service->stats();

            std::string response;
            ASSERT_NO_THROW(response = rig.push(mutant))
                << name << " seed " << seed;

            // Exactly one line, ok or err.
            EXPECT_EQ(response.find('\n'), std::string::npos)
                << name << " seed " << seed;
            const bool ok = response.rfind("ok ", 0) == 0;
            const bool err = response.rfind("err ", 0) == 0;
            EXPECT_TRUE(ok || err)
                << name << " seed " << seed << ": " << response;

            // Counter consistency per push.
            const fleet::FleetStats after = rig.service->stats();
            if (ok) {
                ++accepted_mutants;
                EXPECT_EQ(after.accepted, before.accepted + 1)
                    << name << " seed " << seed;
                EXPECT_EQ(after.quarantined, before.quarantined)
                    << name << " seed " << seed;
            } else {
                ++quarantined_mutants;
                EXPECT_EQ(after.accepted, before.accepted)
                    << name << " seed " << seed;
                EXPECT_LE(after.quarantined, before.quarantined + 1)
                    << name << " seed " << seed;
            }

            // The engine is alive after every mutant.
            ASSERT_EQ(rig.engine->execute("ping"), "ok pong")
                << name << " seed " << seed;
        }
    }
    // The corpus must exercise both outcomes: some mutants survive
    // validation (e.g. a shuffled comment line), most do not.
    EXPECT_GT(quarantined_mutants, 0);
    EXPECT_GT(accepted_mutants + quarantined_mutants, 0);

    // No refit was dispatched, so no mutant - accepted or not - moved the
    // served model bytes.
    EXPECT_EQ(read_file(model_path), baseline_bytes);
    EXPECT_EQ(rig.service->stats().refits, 0u);
    EXPECT_EQ(rig.service->stats().swaps, 0u);
}

TEST(FleetFaults, StackedMutationsAndRecovery) {
    FuzzRig rig;
    rig.fit_baseline();
    const std::string model_path = (rig.models / "fuzz.edpm").string();
    const std::string baseline_bytes = read_file(model_path);

    const std::string good = run_edp_bytes(8, 1);
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        const std::string mutant = edpfuzz::apply_random_mutations(
            good, rng, 1 + static_cast<int>(seed % 5));
        std::string response;
        ASSERT_NO_THROW(response = rig.push(mutant)) << "seed " << seed;
        EXPECT_TRUE(response.rfind("ok ", 0) == 0 ||
                    response.rfind("err ", 0) == 0)
            << "seed " << seed << ": " << response;
        ASSERT_EQ(rig.engine->execute("ping"), "ok pong") << "seed " << seed;
    }
    EXPECT_EQ(read_file(model_path), baseline_bytes);

    // After the storm, a pristine run is still accepted - the aggregate was
    // never poisoned into rejecting good input.
    const std::string response = rig.push(run_edp_bytes(10, 2));
    EXPECT_EQ(response.rfind("ok accepted=1", 0), 0u) << response;
    EXPECT_EQ(rig.service->stats().refit_failures, 0u);
}
