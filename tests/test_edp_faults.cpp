#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "aggregation/validate.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault_injection.hpp"
#include "profiling/edp_io.hpp"
#include "profiling/profiler.hpp"
#include "profiling/sampling.hpp"
#include "sim/simulator.hpp"

// Seeded fault-injection and property tests for the EDP ingestion path.
// Every randomized case derives from an explicit integer seed, so a failure
// message names the exact seed that reproduces it.

using namespace extradeep;

namespace {

std::string to_edp(const profiling::ProfiledRun& run) {
    std::ostringstream os;
    profiling::write_edp(os, run);
    return os.str();
}

profiling::EdpReadResult tolerant_read(const std::string& bytes) {
    std::istringstream is(bytes);
    return profiling::read_edp(is, profiling::EdpReadOptions{});
}

void expect_runs_equal(const profiling::ProfiledRun& a,
                       const profiling::ProfiledRun& b, std::uint64_t seed) {
    EXPECT_EQ(a.params, b.params) << "seed " << seed;
    EXPECT_EQ(a.repetition, b.repetition) << "seed " << seed;
    EXPECT_EQ(a.profiling_wall_time, b.profiling_wall_time) << "seed " << seed;
    ASSERT_EQ(a.ranks.size(), b.ranks.size()) << "seed " << seed;
    for (std::size_t r = 0; r < a.ranks.size(); ++r) {
        const trace::RankTrace& ra = a.ranks[r];
        const trace::RankTrace& rb = b.ranks[r];
        EXPECT_EQ(ra.rank, rb.rank) << "seed " << seed;
        ASSERT_EQ(ra.events.size(), rb.events.size()) << "seed " << seed;
        for (std::size_t e = 0; e < ra.events.size(); ++e) {
            EXPECT_EQ(ra.events[e].name, rb.events[e].name) << "seed " << seed;
            EXPECT_EQ(ra.events[e].category, rb.events[e].category)
                << "seed " << seed;
            EXPECT_EQ(ra.events[e].start, rb.events[e].start)
                << "seed " << seed;
            EXPECT_EQ(ra.events[e].duration, rb.events[e].duration)
                << "seed " << seed;
            EXPECT_EQ(ra.events[e].bytes, rb.events[e].bytes)
                << "seed " << seed;
            EXPECT_EQ(ra.events[e].visits, rb.events[e].visits)
                << "seed " << seed;
        }
        ASSERT_EQ(ra.marks.size(), rb.marks.size()) << "seed " << seed;
        for (std::size_t m = 0; m < ra.marks.size(); ++m) {
            EXPECT_EQ(ra.marks[m].kind, rb.marks[m].kind) << "seed " << seed;
            EXPECT_EQ(ra.marks[m].epoch, rb.marks[m].epoch) << "seed " << seed;
            EXPECT_EQ(ra.marks[m].step, rb.marks[m].step) << "seed " << seed;
            EXPECT_EQ(ra.marks[m].step_kind, rb.marks[m].step_kind)
                << "seed " << seed;
            EXPECT_EQ(ra.marks[m].time, rb.marks[m].time) << "seed " << seed;
        }
    }
}

/// The parser's output contract: whatever survives a tolerant parse must be
/// safe to hand to aggregation - finite values, non-negative where the
/// format requires it, no control characters in names.
void expect_run_sane(const profiling::ProfiledRun& run, std::uint64_t seed) {
    for (const auto& [name, value] : run.params) {
        EXPECT_TRUE(std::isfinite(value)) << "seed " << seed;
        EXPECT_EQ(name.find_first_of("\t\n\r"), std::string::npos)
            << "seed " << seed;
    }
    EXPECT_GE(run.repetition, 0) << "seed " << seed;
    EXPECT_TRUE(std::isfinite(run.profiling_wall_time)) << "seed " << seed;
    EXPECT_GE(run.profiling_wall_time, 0.0) << "seed " << seed;
    for (const trace::RankTrace& rank : run.ranks) {
        EXPECT_GE(rank.rank, 0) << "seed " << seed;
        for (const trace::TraceEvent& e : rank.events) {
            EXPECT_EQ(e.name.find_first_of("\t\n\r"), std::string::npos)
                << "seed " << seed;
            EXPECT_TRUE(std::isfinite(e.start)) << "seed " << seed;
            EXPECT_GE(e.start, 0.0) << "seed " << seed;
            EXPECT_TRUE(std::isfinite(e.duration)) << "seed " << seed;
            EXPECT_GE(e.duration, 0.0) << "seed " << seed;
            EXPECT_TRUE(std::isfinite(e.bytes)) << "seed " << seed;
            EXPECT_GE(e.bytes, 0.0) << "seed " << seed;
            EXPECT_GE(e.visits, 0) << "seed " << seed;
        }
        for (const trace::NvtxMark& m : rank.marks) {
            EXPECT_GE(m.epoch, 0) << "seed " << seed;
            EXPECT_GE(m.step, -1) << "seed " << seed;
            EXPECT_TRUE(std::isfinite(m.time)) << "seed " << seed;
            EXPECT_GE(m.time, 0.0) << "seed " << seed;
        }
    }
}

void expect_config_finite(const aggregation::ConfigurationData& config,
                          std::uint64_t seed) {
    for (const aggregation::KernelStats& k : config.kernels) {
        for (int m = 0; m < aggregation::kMetricCount; ++m) {
            EXPECT_TRUE(std::isfinite(k.train[m])) << "seed " << seed;
            EXPECT_TRUE(std::isfinite(k.val[m])) << "seed " << seed;
            EXPECT_GE(k.train[m], 0.0) << "seed " << seed;
            EXPECT_GE(k.val[m], 0.0) << "seed " << seed;
        }
    }
    for (int p = 0; p < trace::kPhaseCount; ++p) {
        for (int m = 0; m < aggregation::kMetricCount; ++m) {
            EXPECT_TRUE(std::isfinite(config.phase_train[p][m]))
                << "seed " << seed;
            EXPECT_TRUE(std::isfinite(config.phase_val[p][m]))
                << "seed " << seed;
        }
    }
}

template <typename T>
void seeded_shuffle(std::vector<T>& v, Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(v[i - 1], v[j]);
    }
}

void expect_configs_identical(const aggregation::ConfigurationData& a,
                              const aggregation::ConfigurationData& b,
                              std::uint64_t seed) {
    ASSERT_EQ(a.kernels.size(), b.kernels.size()) << "seed " << seed;
    for (std::size_t k = 0; k < a.kernels.size(); ++k) {
        EXPECT_EQ(a.kernels[k].name, b.kernels[k].name) << "seed " << seed;
        EXPECT_EQ(a.kernels[k].category, b.kernels[k].category)
            << "seed " << seed;
        for (int m = 0; m < aggregation::kMetricCount; ++m) {
            // EXPECT_EQ, not NEAR: the medians must be bit-identical, since
            // reordering ranks/repetitions must not change what is computed.
            EXPECT_EQ(a.kernels[k].train[m], b.kernels[k].train[m])
                << a.kernels[k].name << " seed " << seed;
            EXPECT_EQ(a.kernels[k].val[m], b.kernels[k].val[m])
                << a.kernels[k].name << " seed " << seed;
        }
    }
    for (int p = 0; p < trace::kPhaseCount; ++p) {
        for (int m = 0; m < aggregation::kMetricCount; ++m) {
            EXPECT_EQ(a.phase_train[p][m], b.phase_train[p][m])
                << "seed " << seed;
            EXPECT_EQ(a.phase_val[p][m], b.phase_val[p][m]) << "seed " << seed;
        }
    }
}

}  // namespace

TEST(EdpRoundTrip, FuzzedRunsRoundTripExactly) {
    // 250 randomized runs (including zero-rank and zero-event shapes): the
    // write->read->write cycle must reproduce both the struct and the bytes
    // exactly. All generated doubles sit on a 1/16 grid, so the
    // 12-significant-digit text encoding loses nothing.
    for (std::uint64_t seed = 0; seed < 250; ++seed) {
        Rng rng(seed);
        const profiling::ProfiledRun original = edpfuzz::random_run(rng);
        const std::string bytes = to_edp(original);
        std::istringstream is(bytes);
        const profiling::ProfiledRun reread = profiling::read_edp(is);
        expect_runs_equal(original, reread, seed);
        EXPECT_EQ(to_edp(reread), bytes) << "seed " << seed;
        if (::testing::Test::HasFailure()) break;
    }
}

TEST(EdpRoundTrip, TolerantEqualsStrictOnCleanInput) {
    // The tolerant parser on clean input must be byte-for-byte the strict
    // parser: same run, zero diagnostics.
    for (std::uint64_t seed = 0; seed < 250; ++seed) {
        Rng rng(seed);
        const profiling::ProfiledRun original = edpfuzz::random_run(rng);
        const std::string bytes = to_edp(original);
        const profiling::EdpReadResult result = tolerant_read(bytes);
        EXPECT_TRUE(result.ok()) << "seed " << seed;
        EXPECT_EQ(result.diagnostics.total(), 0u)
            << "seed " << seed << ": " << result.diagnostics.summary();
        expect_runs_equal(original, result.run, seed);
        EXPECT_EQ(to_edp(result.run), bytes) << "seed " << seed;
        if (::testing::Test::HasFailure()) break;
    }
}

TEST(EdpFaultInjection, EveryMutatorCorpusParsesWithoutThrowing) {
    // Each mutator applied to a structurally coherent profile: the tolerant
    // parser must terminate normally, and whatever it salvages must satisfy
    // the finite/non-negative output contract. Mutated input that still
    // parses clean is fine; mutated input must never escape as an exception.
    for (const auto& [name, mutate] : edpfuzz::mutators()) {
        for (std::uint64_t seed = 0; seed < 40; ++seed) {
            Rng rng(mix64(seed, std::hash<std::string>{}(name)));
            const profiling::ProfiledRun run =
                edpfuzz::coherent_run(rng, {{"x1", 4.0}}, 0, 2);
            const std::string mutated = mutate(to_edp(run), rng);
            profiling::EdpReadResult result;
            ASSERT_NO_THROW(result = tolerant_read(mutated))
                << name << " seed " << seed;
            expect_run_sane(result.run, seed);
            if (::testing::Test::HasFailure()) {
                FAIL() << "mutator " << name << " seed " << seed;
            }
        }
    }
}

TEST(EdpFaultInjection, CompoundMutationsParseWithoutThrowing) {
    // Stacked corruption (1-3 random mutators per case, 200 cases).
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(seed * 2654435761u + 17);
        const profiling::ProfiledRun run =
            edpfuzz::coherent_run(rng, {{"x1", 8.0}}, 1, 3);
        const int count = static_cast<int>(rng.uniform_int(1, 3));
        const std::string mutated =
            edpfuzz::apply_random_mutations(to_edp(run), rng, count);
        profiling::EdpReadResult result;
        ASSERT_NO_THROW(result = tolerant_read(mutated)) << "seed " << seed;
        expect_run_sane(result.run, seed);
        if (::testing::Test::HasFailure()) break;
    }
}

TEST(EdpFaultInjection, SurvivingRunsAggregateWithoutThrowing) {
    // Pipeline property: if a mutated profile still passes validate_run,
    // aggregation over it must neither throw nor produce non-finite output.
    // This is the end-to-end guarantee behind graceful degradation.
    int aggregated = 0;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
        const profiling::ProfiledRun run =
            edpfuzz::coherent_run(rng, {{"x1", 2.0}}, 0, 2);
        const std::string mutated =
            edpfuzz::apply_random_mutations(to_edp(run), rng, 2);
        profiling::EdpReadResult result;
        ASSERT_NO_THROW(result = tolerant_read(mutated)) << "seed " << seed;
        if (!result.ok()) continue;
        const aggregation::RunVerdict verdict =
            aggregation::validate_run(result.run);
        if (!verdict.keep) continue;
        const std::vector<profiling::ProfiledRun> runs = {result.run};
        aggregation::ConfigurationData config;
        ASSERT_NO_THROW(config = aggregation::aggregate_runs(runs))
            << "seed " << seed;
        expect_config_finite(config, seed);
        ++aggregated;
        if (::testing::Test::HasFailure()) break;
    }
    // The property must actually exercise the aggregation branch: plenty of
    // mutations (e.g. duplicated event lines, corrupted numbers on skipped
    // records) leave a validatable run behind.
    EXPECT_GT(aggregated, 10);
}

TEST(AggregationInvariance, RankAndRepetitionOrderDoNotMatter) {
    // Property over seeded coherent runs: permuting the rank order inside
    // every repetition and the repetition order itself must leave every
    // kernel median and phase total bit-identical (satellite: medians are
    // order statistics, not accumulation order artifacts).
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        Rng rng(7000 + seed);
        std::vector<profiling::ProfiledRun> runs;
        for (int rep = 0; rep < 4; ++rep) {
            runs.push_back(edpfuzz::coherent_run(rng, {{"x1", 16.0}}, rep, 3));
        }
        const aggregation::ConfigurationData baseline =
            aggregation::aggregate_runs(runs);

        Rng shuffle_rng(rng.fork(99));
        std::vector<profiling::ProfiledRun> shuffled = runs;
        for (profiling::ProfiledRun& run : shuffled) {
            seeded_shuffle(run.ranks, shuffle_rng);
        }
        seeded_shuffle(shuffled, shuffle_rng);
        const aggregation::ConfigurationData permuted =
            aggregation::aggregate_runs(shuffled);

        expect_configs_identical(baseline, permuted, seed);
        if (::testing::Test::HasFailure()) break;
    }
}

TEST(AggregationInvariance, HoldsForSimulatorProfiles) {
    // The same invariance over real Profiler output rather than synthetic
    // traces, so the property covers the simulator's event shapes too.
    const sim::TrainingSimulator simulator(
        sim::Workload::make("CIFAR-10", hw::SystemSpec::deep(),
                            parallel::ParallelConfig::data(3),
                            parallel::ScalingMode::Weak, 256));
    const profiling::Profiler profiler(profiling::SamplingStrategy::efficient());
    std::vector<profiling::ProfiledRun> runs;
    for (int rep = 0; rep < 3; ++rep) {
        runs.push_back(profiler.profile(simulator, {{"x1", 3.0}}, rep));
    }
    const aggregation::ConfigurationData baseline =
        aggregation::aggregate_runs(runs);

    Rng rng(424242);
    std::vector<profiling::ProfiledRun> shuffled = runs;
    for (profiling::ProfiledRun& run : shuffled) {
        seeded_shuffle(run.ranks, rng);
    }
    seeded_shuffle(shuffled, rng);
    const aggregation::ConfigurationData permuted =
        aggregation::aggregate_runs(shuffled);
    expect_configs_identical(baseline, permuted, 424242);
}

TEST(EdpFaultInjection, MutatorsAreDeterministic) {
    // Reproducibility guarantee of the harness itself: same seed, same
    // mutated corpus, byte for byte.
    Rng gen(31337);
    const profiling::ProfiledRun run =
        edpfuzz::coherent_run(gen, {{"x1", 4.0}}, 0, 2);
    const std::string bytes = to_edp(run);
    for (const auto& [name, mutate] : edpfuzz::mutators()) {
        Rng a(555), b(555);
        EXPECT_EQ(mutate(bytes, a), mutate(bytes, b)) << name;
    }
    Rng a(556), b(556);
    EXPECT_EQ(edpfuzz::apply_random_mutations(bytes, a, 3),
              edpfuzz::apply_random_mutations(bytes, b, 3));
}

TEST(EdpNameGuard, CarriageReturnInNameRejectedInBothModes) {
    // A field of a line split on tabs cannot hold a tab or a newline, so the
    // read-path guard scans only for '\r'; its message still names all
    // three, in strict mode (thrown) and tolerant mode (a Warning on the
    // line, record skipped).
    const std::string header = "EDP\t1\nP\tx1\t4\nREP\t0\nWALL\t2.5\n";
    const std::string event = "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n";
    struct Case {
        std::string text;
        long long line;
        std::string reason;
    };
    const std::vector<Case> cases = {
        {header + "RANK\t0\nE\tge\rmm\tCUDA kernel\t0.5\t0.25\t3\t0\n" +
             event + "END\n",
         6, "EDP: event name contains tab/newline/carriage-return"},
        {header + "P\tx\r2\t8\nRANK\t0\n" + event + "END\n", 5,
         "EDP: param name contains tab/newline/carriage-return"},
    };
    for (const Case& c : cases) {
        std::istringstream strict(c.text);
        try {
            profiling::read_edp(strict);
            ADD_FAILURE() << "strict read accepted " << c.reason;
        } catch (const ParseError& e) {
            EXPECT_EQ(std::string(e.what()), c.reason);
        }

        const profiling::EdpReadResult result = tolerant_read(c.text);
        EXPECT_TRUE(result.ok()) << result.diagnostics.summary();
        ASSERT_EQ(result.diagnostics.total(), 1u)
            << result.diagnostics.summary();
        const Diagnostic& d = result.diagnostics.entries()[0];
        EXPECT_EQ(d.severity, Severity::Warning);
        EXPECT_EQ(d.line, c.line);
        EXPECT_EQ(d.reason, c.reason);
        EXPECT_EQ(result.run.params.count("x\r2"), 0u);
        ASSERT_EQ(result.run.ranks.size(), 1u);
        ASSERT_EQ(result.run.ranks[0].events.size(), 1u);
        EXPECT_EQ(result.run.ranks[0].events[0].name, "gemm");
    }

    // The write path refuses the same names, with the message its header
    // documents.
    profiling::ProfiledRun run;
    run.params = {{"x\r1", 1.0}};
    std::ostringstream os;
    try {
        profiling::write_edp(os, run);
        ADD_FAILURE() << "write_edp accepted a carriage return";
    } catch (const InvalidArgumentError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "EDP: name contains tab/newline/carriage-return: x\r1");
    }
}
