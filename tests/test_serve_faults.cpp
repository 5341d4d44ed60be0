// Fault injection against the EDPM model format, reusing the seeded EDP
// mutator library (tests/fault_injection): whatever bytes arrive, the
// diagnosing loader must never throw or crash, the throwing loader must
// either succeed or raise a structured ParseError, and any model that does
// load must be fully usable. Crucially, a load that reports a clean log
// yields predictions bit-identical to the original model — corruption can
// quarantine a file or degrade metadata, but it can never silently change
// what the model predicts.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault_injection.hpp"
#include "serve/query.hpp"
#include "serve/registry.hpp"
#include "serve/serialize.hpp"

using namespace extradeep;

namespace {

const serve::ServableModel& original_model() {
    static const serve::ServableModel model = [] {
        ExperimentSpec spec;
        spec.repetitions = 2;
        spec.seed = 11;
        const ExperimentResult result = ExperimentRunner(spec).run();
        return serve::make_servable(spec, result, "fuzz-target");
    }();
    return model;
}

const std::string& clean_text() {
    static const std::string text = [] {
        std::ostringstream os;
        serve::write_edpm(os, original_model());
        return os.str();
    }();
    return text;
}

/// Exercises every access path of a loaded model; ASan/UBSan turn latent
/// memory bugs in partially-degraded models into failures here.
void use_model(const serve::ServableModel& model) {
    for (const double x : {2.0, 16.0, 128.0}) {
        const double t = model.epoch_time.evaluate(x);
        (void)t;
        (void)model.epoch_time.predict_interval(x);
        for (int p = 0; p < trace::kPhaseCount; ++p) {
            (void)model.phase_time[p].evaluate(x);
        }
    }
    for (const double x : model.modeling_xs) {
        (void)model.step_math(static_cast<int>(std::lround(x)));
    }
}

void check_mutated(const std::string& mutated) {
    // The diagnosing read never throws, whatever the bytes.
    serve::EdpmReadResult result;
    {
        std::istringstream is(mutated);
        ASSERT_NO_THROW(result = serve::read_edpm_diagnosed(is));
    }
    if (result.model.has_value()) {
        use_model(*result.model);
    } else {
        EXPECT_TRUE(result.diagnostics.has_errors())
            << "quarantined without an error diagnostic";
    }

    // The throwing read: clean parse or a structured ParseError, nothing
    // else. A success means the input had no detectable problem at all, so
    // the diagnosing read must agree bit for bit.
    try {
        std::istringstream is(mutated);
        const serve::ServableModel model = serve::read_edpm(is);
        use_model(model);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.model->epoch_time.evaluate(16.0),
                  model.epoch_time.evaluate(16.0));
        EXPECT_TRUE(result.diagnostics.empty());
    } catch (const ParseError&) {
        // expected for most mutations
    }
}

TEST(EdpmFaults, EveryMutatorEverySeed) {
    for (const auto& [name, mutator] : edpfuzz::mutators()) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            Rng rng(seed);
            const std::string mutated = mutator(clean_text(), rng);
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            check_mutated(mutated);
        }
    }
}

TEST(EdpmFaults, StackedRandomMutations) {
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        Rng rng(seed);
        const std::string mutated =
            edpfuzz::apply_random_mutations(clean_text(), rng, 3);
        SCOPED_TRACE("seed " + std::to_string(seed));
        check_mutated(mutated);
    }
}

/// The throwing read_edpm raises the first problem the diagnosing read
/// records, as "reason (line N)", and throws nothing when that log is empty.
void expect_throw_matches_first_diagnostic(const std::string& text) {
    std::istringstream diagnosed(text);
    const serve::EdpmReadResult result =
        serve::read_edpm_diagnosed(diagnosed);
    std::string want = "(no throw)";
    if (!result.diagnostics.entries().empty()) {
        const Diagnostic& first = result.diagnostics.entries().front();
        want = first.reason;
        if (first.line > 0) {
            want += " (line " + std::to_string(first.line) + ")";
        }
    }
    std::string got = "(no throw)";
    try {
        std::istringstream is(text);
        (void)serve::read_edpm(is);
    } catch (const ParseError& e) {
        got = e.what();
    }
    EXPECT_EQ(got, want);
}

TEST(EdpmFaults, ThrowingReadRaisesTheFirstDiagnostic) {
    expect_throw_matches_first_diagnostic(clean_text());
    for (const auto& [name, mutator] : edpfuzz::mutators()) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            Rng rng(seed);
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            expect_throw_matches_first_diagnostic(mutator(clean_text(), rng));
        }
    }
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        Rng rng(seed);
        SCOPED_TRACE("stacked seed " + std::to_string(seed));
        expect_throw_matches_first_diagnostic(
            edpfuzz::apply_random_mutations(clean_text(), rng, 3));
    }
}

TEST(EdpmFaults, TolerantSurvivesDegenerateInputs) {
    for (const std::string& text : {
             std::string(),
             std::string("\n\n\n"),
             std::string("EDPM\t1\n"),
             std::string("EDPM\t1\nEND\n"),
             std::string("garbage"),
             std::string(1 << 16, '\t'),
             std::string("EDPM\t1\nMODEL\t\nENDMODEL\nEND\n"),
         }) {
        std::istringstream is(text);
        serve::EdpmReadResult result;
        ASSERT_NO_THROW(result = serve::read_edpm_diagnosed(is));
        EXPECT_FALSE(result.ok());
    }
}

TEST(ScenarioFaults, MutatedSpecsAlwaysGetAProtocolResponse) {
    // Fault injection on what-if scenario specs: run the same seeded mutator
    // library over a well-formed spec and push every mutant through the query
    // engine. Whatever the bytes, the engine must answer with a protocol line
    // ("ok ..." or "err ...") and never throw or crash.
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->add(
        std::make_shared<const serve::ServableModel>(original_model()));
    serve::QueryEngine engine(std::move(registry));

    const std::string clean_spec =
        "interconnect:2+latency:4+overlap:0.5+collective:ring+fuse:4";
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        const std::string mutated =
            edpfuzz::apply_random_mutations(clean_spec, rng, 2);
        SCOPED_TRACE("seed " + std::to_string(seed) + " spec " + mutated);
        std::string response;
        ASSERT_NO_THROW(
            response = engine.execute("whatif fuzz-target 8 " + mutated));
        EXPECT_TRUE(response.rfind("ok ", 0) == 0 ||
                    response.rfind("err ", 0) == 0)
            << response;
    }
}

TEST(EdpmFaults, DiagnosticStorageIsCapped) {
    // A pathological file with thousands of bad records must not blow up the
    // diagnostic log (storage is capped, counts keep accumulating).
    std::string text = "EDPM\t1\n";
    for (int i = 0; i < 5000; ++i) {
        text += "WAT\t" + std::to_string(i) + "\n";
    }
    text += "END\n";
    std::istringstream is(text);
    const serve::EdpmReadResult result = serve::read_edpm_diagnosed(is);
    EXPECT_FALSE(result.ok());
    EXPECT_LE(result.diagnostics.entries().size(),
              DiagnosticLog::kDefaultCapacity);
    EXPECT_GE(result.diagnostics.total(), 5000u);
}

}  // namespace
