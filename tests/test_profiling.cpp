#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault_injection.hpp"
#include "profiling/edp_io.hpp"
#include "profiling/edp_stream.hpp"
#include "profiling/profiler.hpp"
#include "profiling/sampling.hpp"

using namespace extradeep;
using namespace extradeep::profiling;

namespace {

sim::Workload small_workload(int ranks = 2) {
    return sim::Workload::make("CIFAR-10", hw::SystemSpec::deep(),
                               parallel::ParallelConfig::data(ranks),
                               parallel::ScalingMode::Weak, 256);
}

}  // namespace

TEST(Sampling, EfficientDefaultsMatchPaper) {
    const SamplingStrategy s = SamplingStrategy::efficient();
    EXPECT_EQ(s.epochs, 2);
    EXPECT_EQ(s.train_steps_per_epoch, 5);
    EXPECT_EQ(s.discard_warmup_epochs, 1);
}

TEST(Sampling, StandardProfilesFullEpochs) {
    const SamplingStrategy s = SamplingStrategy::standard();
    EXPECT_EQ(s.train_steps_per_epoch, -1);
    EXPECT_EQ(s.val_steps_per_epoch, -1);
}

TEST(Sampling, TraceOptionsCarrySeed) {
    const auto o = SamplingStrategy::efficient().trace_options(77);
    EXPECT_EQ(o.run_seed, 77u);
    EXPECT_EQ(o.train_steps_per_epoch, 5);
}

TEST(Profiler, ProfilesAllRanks) {
    const sim::TrainingSimulator sim(small_workload(3));
    const Profiler profiler(SamplingStrategy::efficient());
    const ProfiledRun run = profiler.profile(sim, {{"x1", 3.0}}, 0);
    ASSERT_EQ(run.ranks.size(), 3u);
    for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(run.ranks[r].rank, r);
        EXPECT_FALSE(run.ranks[r].events.empty());
    }
    EXPECT_GT(run.profiling_wall_time, 0.0);
    EXPECT_EQ(run.params.at("x1"), 3.0);
}

TEST(Profiler, RepetitionsDiffer) {
    const sim::TrainingSimulator sim(small_workload());
    const Profiler profiler(SamplingStrategy::efficient());
    const ProfiledRun a = profiler.profile(sim, {{"x1", 2.0}}, 0);
    const ProfiledRun b = profiler.profile(sim, {{"x1", 2.0}}, 1);
    EXPECT_NE(a.profiling_wall_time, b.profiling_wall_time);
}

TEST(Profiler, EfficientMuchCheaperThanStandard) {
    // The headline Fig. 8 property: ~95 % profiling-time reduction.
    const sim::TrainingSimulator sim(small_workload());
    const double efficient =
        Profiler(SamplingStrategy::efficient()).profiling_cost(sim);
    const double standard =
        Profiler(SamplingStrategy::standard()).profiling_cost(sim);
    EXPECT_LT(efficient, 0.15 * standard);
}

TEST(Profiler, OverheadFractionApplied) {
    const sim::TrainingSimulator sim(small_workload());
    const double with = Profiler(SamplingStrategy::efficient(), 0.10)
                            .profiling_cost(sim);
    const double without = Profiler(SamplingStrategy::efficient(), 0.0)
                               .profiling_cost(sim);
    EXPECT_NEAR(with / without, 1.10, 1e-9);
    EXPECT_THROW(Profiler(SamplingStrategy::efficient(), -0.1),
                 InvalidArgumentError);
}

TEST(RunSeed, DependsOnAllComponents) {
    const std::map<std::string, double> p1 = {{"x1", 4.0}};
    const std::map<std::string, double> p2 = {{"x1", 8.0}};
    EXPECT_NE(run_seed_for(p1, 0, 0), run_seed_for(p2, 0, 0));
    EXPECT_NE(run_seed_for(p1, 0, 0), run_seed_for(p1, 1, 0));
    EXPECT_NE(run_seed_for(p1, 0, 0), run_seed_for(p1, 0, 1));
    EXPECT_EQ(run_seed_for(p1, 3, 9), run_seed_for(p1, 3, 9));
}

TEST(EdpIo, RoundTripPreservesEverything) {
    const sim::TrainingSimulator sim(small_workload());
    const Profiler profiler(SamplingStrategy::efficient());
    const ProfiledRun run = profiler.profile(sim, {{"x1", 2.0}}, 1);

    std::stringstream buffer;
    write_edp(buffer, run);
    const ProfiledRun back = read_edp(buffer);

    EXPECT_EQ(back.params, run.params);
    EXPECT_EQ(back.repetition, run.repetition);
    // Bit-exact: the writer emits shortest-round-trip decimals, so a
    // write/read cycle is the identity on every double.
    EXPECT_EQ(back.profiling_wall_time, run.profiling_wall_time);
    ASSERT_EQ(back.ranks.size(), run.ranks.size());
    for (std::size_t r = 0; r < run.ranks.size(); ++r) {
        ASSERT_EQ(back.ranks[r].events.size(), run.ranks[r].events.size());
        ASSERT_EQ(back.ranks[r].marks.size(), run.ranks[r].marks.size());
        for (std::size_t i = 0; i < run.ranks[r].events.size(); ++i) {
            const auto& a = run.ranks[r].events[i];
            const auto& b = back.ranks[r].events[i];
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.category, b.category);
            EXPECT_EQ(a.visits, b.visits);
            EXPECT_EQ(a.start, b.start);
            EXPECT_EQ(a.duration, b.duration);
        }
    }
}

TEST(EdpIo, RoundTripIsBitExactOffTheTwelveDigitGrid) {
    // Regression: the writer used a fixed 12-significant-digit encoding, so
    // any value off that grid (0.1 + 0.2, 1/3, nextafter(1, 2), ...) came
    // back with its low mantissa bits changed. The shortest-round-trip
    // encoding must reproduce every bit.
    const double awkward[] = {0.1 + 0.2,
                              1.0 / 3.0,
                              std::nextafter(1.0, 2.0),
                              3.141592653589793,
                              6.02214076e23,
                              2.2250738585072014e-308 /* DBL_MIN */};
    ProfiledRun run;
    run.params = {{"x1", 2.0}};
    run.repetition = 0;
    run.profiling_wall_time = awkward[0];
    trace::RankTrace rank;
    rank.rank = 0;
    for (const double v : awkward) {
        trace::TraceEvent e;
        e.name = "k";
        e.category = trace::KernelCategory::CudaKernel;
        e.start = v;
        e.duration = v;
        e.bytes = v;
        rank.events.push_back(e);
    }
    run.ranks.push_back(rank);

    std::stringstream buffer;
    write_edp(buffer, run);
    const ProfiledRun back = read_edp(buffer);
    EXPECT_EQ(back.profiling_wall_time, run.profiling_wall_time);
    ASSERT_EQ(back.ranks.size(), 1u);
    ASSERT_EQ(back.ranks[0].events.size(), std::size(awkward));
    for (std::size_t i = 0; i < std::size(awkward); ++i) {
        EXPECT_EQ(back.ranks[0].events[i].start, awkward[i]) << i;
        EXPECT_EQ(back.ranks[0].events[i].duration, awkward[i]) << i;
        EXPECT_EQ(back.ranks[0].events[i].bytes, awkward[i]) << i;
    }
}

TEST(EdpIo, FileRoundTrip) {
    const sim::TrainingSimulator sim(small_workload());
    const ProfiledRun run = Profiler(SamplingStrategy::efficient())
                                .profile(sim, {{"x1", 2.0}}, 0);
    const std::string path = ::testing::TempDir() + "/run.edp";
    write_edp_file(path, run);
    const ProfiledRun back = read_edp_file(path);
    EXPECT_EQ(back.ranks.size(), run.ranks.size());
    std::remove(path.c_str());
}

TEST(EdpIo, RejectsMissingHeader) {
    std::stringstream s("nonsense\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsWrongVersion) {
    std::stringstream s("EDP\t99\nEND\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsTruncatedFile) {
    std::stringstream s("EDP\t1\nRANK\t0\n");  // no END
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsEventBeforeRank) {
    std::stringstream s(
        "EDP\t1\nE\tk\tCUDA kernel\t0\t1\t1\t0\nEND\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsMalformedNumbers) {
    std::stringstream s(
        "EDP\t1\nRANK\t0\nE\tk\tCUDA kernel\tabc\t1\t1\t0\nEND\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsUnknownCategory) {
    std::stringstream s(
        "EDP\t1\nRANK\t0\nE\tk\tWarpDrive\t0\t1\t1\t0\nEND\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsUnknownTag) {
    std::stringstream s("EDP\t1\nXYZ\t1\nEND\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsTabInKernelName) {
    ProfiledRun run;
    trace::RankTrace t;
    trace::TraceEvent e;
    e.name = "bad\tname";
    t.events.push_back(e);
    run.ranks.push_back(t);
    std::stringstream s;
    EXPECT_THROW(write_edp(s, run), InvalidArgumentError);
}

TEST(EdpIo, MissingFileThrows) {
    EXPECT_THROW(read_edp_file("/nonexistent/path/profile.edp"), Error);
}

TEST(EdpIo, EmptyRunRoundTrips) {
    ProfiledRun run;
    run.repetition = 7;
    std::stringstream s;
    write_edp(s, run);
    const ProfiledRun back = read_edp(s);
    EXPECT_EQ(back.repetition, 7);
    EXPECT_TRUE(back.ranks.empty());
}

namespace {

EdpReadResult tolerant_parse(const std::string& text) {
    std::istringstream is(text);
    return read_edp(is, EdpReadOptions{});
}

const char* const kCleanEdp =
    "EDP\t1\n"
    "P\tx1\t4\n"
    "REP\t0\n"
    "WALL\t2.5\n"
    "RANK\t0\n"
    "M\tepoch_start\t0\t-1\ttrain\t0\n"
    "M\tepoch_end\t0\t-1\ttrain\t2\n"
    "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n"
    "END\n";

}  // namespace

TEST(EdpTolerant, SkipsCorruptEventLineAndKeepsTheRest) {
    const EdpReadResult result = tolerant_parse(
        "EDP\t1\n"
        "P\tx1\t4\n"
        "REP\t0\n"
        "WALL\t2.5\n"
        "RANK\t0\n"
        "E\tgemm\tCUDA kernel\tabc\t0.25\t3\t0\n"
        "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n"
        "END\n");
    EXPECT_TRUE(result.ok()) << result.diagnostics.summary();
    EXPECT_EQ(result.diagnostics.count(Severity::Warning), 1u);
    ASSERT_EQ(result.run.ranks.size(), 1u);
    ASSERT_EQ(result.run.ranks[0].events.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events[0].start, 0.5);
    const auto& d = result.diagnostics.entries()[0];
    EXPECT_EQ(d.line, 6);
    EXPECT_EQ(d.rank, 0);
}

TEST(EdpTolerant, DuplicateRankBlockIsQuarantined) {
    const std::string text =
        "EDP\t1\n"
        "RANK\t0\n"
        "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n"
        "RANK\t0\n"
        "E\tother\tCUDA kernel\t1\t1\t1\t0\n"
        "END\n";
    const EdpReadResult result = tolerant_parse(text);
    EXPECT_TRUE(result.ok());
    ASSERT_EQ(result.run.ranks.size(), 1u);
    ASSERT_EQ(result.run.ranks[0].events.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events[0].name, "gemm");
    EXPECT_GE(result.diagnostics.count(Severity::Warning), 1u);
    EXPECT_GE(result.diagnostics.count(Severity::Info), 1u);

    std::istringstream is(text);
    EXPECT_THROW(read_edp(is), ParseError);
}

TEST(EdpTolerant, BadRankHeaderQuarantinesBlockThenRecovers) {
    const EdpReadResult result = tolerant_parse(
        "EDP\t1\n"
        "RANK\tabc\n"
        "M\tepoch_start\t0\t-1\ttrain\t0\n"
        "E\tlost\tCUDA kernel\t0\t1\t1\t0\n"
        "RANK\t1\n"
        "E\tkept\tCUDA kernel\t0\t1\t1\t0\n"
        "END\n");
    EXPECT_TRUE(result.ok());
    ASSERT_EQ(result.run.ranks.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].rank, 1);
    ASSERT_EQ(result.run.ranks[0].events.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events[0].name, "kept");
    // One warning for the header, one for the first quarantined record, one
    // info summarising the quarantined block.
    EXPECT_EQ(result.diagnostics.count(Severity::Warning), 2u);
    EXPECT_EQ(result.diagnostics.count(Severity::Info), 1u);
}

TEST(EdpStrict, RejectsNonFiniteAndNegativeMetrics) {
    const char* const bad_lines[] = {
        "E\tk\tCUDA kernel\t0\tnan\t1\t0",    // NaN duration
        "E\tk\tCUDA kernel\t-1\t1\t1\t0",     // negative start
        "E\tk\tCUDA kernel\t0\t1\t1\tinf",    // infinite bytes
        "E\tk\tCUDA kernel\t0\t1\t-3\t0",     // negative visits
        "M\tepoch_start\t-1\t-1\ttrain\t0",   // negative epoch
        "M\tstep_start\t0\t-2\ttrain\t0",     // step below -1
        "M\tstep_start\t0\t0\ttrain\tinf",    // non-finite mark time
        "WALL\t-1",                           // negative wall time
        "REP\t-1",                            // negative repetition
        "RANK\t-1",                           // negative rank id
    };
    for (const char* bad : bad_lines) {
        std::stringstream s("EDP\t1\nRANK\t0\n" + std::string(bad) + "\nEND\n");
        EXPECT_THROW(read_edp(s), ParseError) << bad;
    }
}

TEST(EdpStrict, RejectsTrailingDataAfterEnd) {
    std::stringstream s(std::string(kCleanEdp) + "E\tk\tMPI\t0\t1\t1\t0\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpTolerant, WarnsOnTrailingDataAfterEnd) {
    const EdpReadResult result =
        tolerant_parse(std::string(kCleanEdp) + "E\tk\tMPI\t0\t1\t1\t0\n");
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.diagnostics.count(Severity::Warning), 1u);
    ASSERT_EQ(result.run.ranks.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events.size(), 1u);  // trailing E ignored
}

TEST(EdpIo, RejectsCarriageReturnInNameOnBothPaths) {
    ProfiledRun run;
    trace::RankTrace t;
    trace::TraceEvent e;
    e.name = "bad\rname";
    t.events.push_back(e);
    run.ranks.push_back(t);
    std::stringstream w;
    EXPECT_THROW(write_edp(w, run), InvalidArgumentError);

    // Mid-line CR is not CRLF tolerance; the read path rejects it too.
    std::stringstream r(
        "EDP\t1\nRANK\t0\nE\tbad\rname\tCUDA kernel\t0\t1\t1\t0\nEND\n");
    EXPECT_THROW(read_edp(r), ParseError);
}

TEST(EdpIo, ParsesCrlfLineEndings) {
    std::string crlf(kCleanEdp);
    std::string::size_type pos = 0;
    while ((pos = crlf.find('\n', pos)) != std::string::npos) {
        crlf.replace(pos, 1, "\r\n");
        pos += 2;
    }
    std::stringstream s(crlf);
    const ProfiledRun run = read_edp(s);
    ASSERT_EQ(run.ranks.size(), 1u);
    EXPECT_EQ(run.ranks[0].events[0].name, "gemm");
    EXPECT_EQ(run.params.at("x1"), 4.0);
}

TEST(EdpTolerant, EmptyInputIsAnError) {
    const EdpReadResult result = tolerant_parse("");
    EXPECT_FALSE(result.ok());
}

TEST(EdpTolerant, MissingHeaderSalvagesRecordsButQuarantinesRun) {
    const EdpReadResult result = tolerant_parse(
        "P\tx1\t4\n"
        "RANK\t0\n"
        "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n"
        "END\n");
    EXPECT_FALSE(result.ok());  // header loss makes the file untrustworthy
    EXPECT_EQ(result.run.params.at("x1"), 4.0);  // still salvaged
    ASSERT_EQ(result.run.ranks.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events.size(), 1u);
}

TEST(EdpTolerant, MissingEndIsAnErrorButDataIsKept) {
    const EdpReadResult result = tolerant_parse(
        "EDP\t1\n"
        "RANK\t0\n"
        "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n");
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.run.ranks.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events.size(), 1u);
}

TEST(EdpTolerant, EventFieldCountIsCheckedBeforeItsNumbers) {
    // Lines one field short or long, some of whose fields would still read
    // as seven numbers-and-names if a number could end anywhere but at a
    // tab: each is one "malformed E line" warning and no event.
    const char* const bad_lines[] = {
        "E\tk\tCUDA kernel\t1x2\t3\t0",        // "1x2" is not two fields
        "E\tk\tCUDA kernel\t0 1\t1\t0",        // nor is "0 1"
        "E\tk\tCUDA kernel\t0\t1\t1",          // bytes missing
        "E\tk\tCUDA kernel\t0\t1\t1\t0\t9",    // one field too many
        "E\tk\tCUDA kernel\t0\t1\t1\t0\t",     // empty eighth field
    };
    for (const char* bad : bad_lines) {
        const EdpReadResult result =
            tolerant_parse("EDP\t1\nRANK\t0\n" + std::string(bad) + "\nEND\n");
        ASSERT_EQ(result.diagnostics.entries().size(), 1u) << bad;
        EXPECT_EQ(result.diagnostics.entries()[0].reason,
                  "EDP: malformed E line")
            << bad;
        ASSERT_EQ(result.run.ranks.size(), 1u) << bad;
        EXPECT_TRUE(result.run.ranks[0].events.empty()) << bad;
    }
}

TEST(EdpStrict, RejectsMalformedEndLine) {
    std::stringstream s("EDP\t1\nEND\textra\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpTolerant, OrphanRecordsBeforeAnyRankAreCounted) {
    const EdpReadResult result = tolerant_parse(
        "EDP\t1\n"
        "M\tepoch_start\t0\t-1\ttrain\t0\n"
        "E\tk\tCUDA kernel\t0\t1\t1\t0\n"
        "RANK\t0\n"
        "END\n");
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.run.ranks.size(), 1u);
    EXPECT_TRUE(result.run.ranks[0].events.empty());
    EXPECT_EQ(result.diagnostics.count(Severity::Warning), 1u);
    EXPECT_EQ(result.diagnostics.count(Severity::Info), 1u);
}

namespace {

std::string edp_text(const ProfiledRun& run) {
    std::ostringstream os;
    write_edp(os, run);
    return os.str();
}

/// The throwing read_edp_file raises the first problem the diagnosing read
/// of the same file reports, word for word, and throws nothing when that
/// read is clean.
void expect_strict_matches_tolerant(const std::string& text) {
    const std::string path = ::testing::TempDir() + "/strict_vs_tolerant.edp";
    {
        std::ofstream os(path, std::ios::binary);
        os << text;
    }
    const EdpReadResult parsed = read_edp_file(path, EdpReadOptions{});
    const std::string want = parsed.diagnostics.entries().empty()
                                 ? "(no throw)"
                                 : parsed.diagnostics.entries().front().reason;
    std::string got = "(no throw)";
    try {
        read_edp_file(path);
    } catch (const ParseError& e) {
        got = e.what();
    }
    EXPECT_EQ(got, want);
    std::remove(path.c_str());
}

}  // namespace

TEST(EdpStrict, ThrowsTheFirstProblemTolerantModeReports) {
    for (const auto& [name, mutate] : edpfuzz::mutators()) {
        for (const std::uint64_t seed : {5u, 6u, 7u}) {
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            Rng rng(seed * 31 + 7);
            const std::string clean = edp_text(
                edpfuzz::coherent_run(rng, {{"x1", 4.0}}, 0, 2));
            expect_strict_matches_tolerant(mutate(clean, rng));
        }
    }
    for (const std::uint64_t seed : {10u, 20u, 30u}) {
        SCOPED_TRACE("stacked seed " + std::to_string(seed));
        Rng rng(seed);
        const std::string clean =
            edp_text(edpfuzz::coherent_run(rng, {{"x1", 2.0}}, 1, 3));
        expect_strict_matches_tolerant(
            edpfuzz::apply_random_mutations(clean, rng, 3));
    }
}

TEST(EdpStrict, RejectsForeignFileThatTolerantModeQuarantines) {
    const std::string path = ::testing::TempDir() + "/foreign.edp";
    {
        std::ofstream os(path);
        os << "this is\nnot an EDP file\n";
    }
    EXPECT_THROW(read_edp_file(path), ParseError);
    EXPECT_FALSE(read_edp_file(path, EdpReadOptions{}).ok());
    std::remove(path.c_str());
}

namespace {

/// Hands out its bytes `piece` at a time, through underflow and through
/// sgetn, so a reader pulling whole blocks gets a short read at every
/// piece edge.
class PieceBuf : public std::streambuf {
public:
    PieceBuf(std::string bytes, std::size_t piece)
        : bytes_(std::move(bytes)), piece_(piece) {}

protected:
    int_type underflow() override {
        if (gptr() < egptr()) {
            return traits_type::to_int_type(*gptr());
        }
        if (pos_ == bytes_.size()) {
            return traits_type::eof();
        }
        const std::size_t n = std::min(piece_, bytes_.size() - pos_);
        char* const p = bytes_.data() + pos_;
        setg(p, p, p + n);
        pos_ += n;
        return traits_type::to_int_type(*p);
    }

    std::streamsize xsgetn(char* s, std::streamsize n) override {
        if (gptr() == egptr() &&
            traits_type::eq_int_type(underflow(), traits_type::eof())) {
            return 0;
        }
        const std::streamsize k =
            std::min<std::streamsize>(n, egptr() - gptr());
        std::memcpy(s, gptr(), static_cast<std::size_t>(k));
        gbump(static_cast<int>(k));
        return k;
    }

private:
    std::string bytes_;
    std::size_t piece_;
    std::size_t pos_ = 0;
};

std::string bits(double v) {
    return std::to_string(std::bit_cast<std::uint64_t>(v));
}

/// Everything the reader hands out, in order: each record with its doubles
/// as bit patterns, the diagnostics (severity, line, rank, text) and
/// saw_end().
std::string transcript(std::istream& is) {
    EdpStreamReader reader(is, EdpReadOptions{});
    std::ostringstream os;
    EdpRecord rec;
    while (reader.next(rec)) {
        os << static_cast<int>(rec.kind);
        switch (rec.kind) {
            case EdpRecord::Kind::Param:
                os << ' ' << rec.name << ' ' << bits(rec.number);
                break;
            case EdpRecord::Kind::WallTime:
                os << ' ' << bits(rec.number);
                break;
            case EdpRecord::Kind::Repetition:
            case EdpRecord::Kind::RankBegin:
                os << ' ' << rec.index;
                break;
            case EdpRecord::Kind::Mark:
                os << ' ' << static_cast<int>(rec.mark.kind) << ' '
                   << rec.mark.epoch << ' ' << rec.mark.step << ' '
                   << static_cast<int>(rec.mark.step_kind) << ' '
                   << bits(rec.mark.time);
                break;
            case EdpRecord::Kind::Event:
                os << ' ' << rec.name << ' '
                   << static_cast<int>(rec.event.category) << ' '
                   << bits(rec.event.start) << ' '
                   << bits(rec.event.duration) << ' '
                   << bits(rec.event.bytes) << ' ' << rec.event.visits;
                break;
            case EdpRecord::Kind::End:
                break;
        }
        os << '\n';
    }
    for (const Diagnostic& d : reader.diagnostics().entries()) {
        os << "diag " << static_cast<int>(d.severity) << ' ' << d.line << ' '
           << d.rank << ' ' << d.reason << '\n';
    }
    os << "saw_end " << reader.saw_end() << '\n';
    return os.str();
}

std::string transcript(const std::string& bytes) {
    std::istringstream is(bytes);
    return transcript(is);
}

/// What the throwing read_edp makes of the input: the run written back as
/// EDP (bit-exact), or the exception text.
std::string throwing_transcript(std::istream& is) {
    try {
        return edp_text(read_edp(is));
    } catch (const ParseError& e) {
        return std::string("throw ") + e.what() + '\n';
    }
}

std::string throwing_transcript(const std::string& bytes) {
    std::istringstream is(bytes);
    return throwing_transcript(is);
}

/// Reading `bytes` 1 byte at a time, or in prime-sized pieces smaller and
/// larger than the reader's block, yields exactly the one-piece read, both
/// through the reader and through the throwing read_edp.
void expect_piece_invariant(const std::string& bytes) {
    const std::string whole = transcript(bytes);
    const std::string thrown = throwing_transcript(bytes);
    for (const std::size_t piece : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4093}, std::size_t{65537}}) {
        PieceBuf reader_buf(bytes, piece);
        std::istream reader_is(&reader_buf);
        EXPECT_EQ(transcript(reader_is), whole) << "piece " << piece;
        PieceBuf throwing_buf(bytes, piece);
        std::istream throwing_is(&throwing_buf);
        EXPECT_EQ(throwing_transcript(throwing_is), thrown)
            << "piece " << piece;
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string golden_path(const std::string& name) {
    return std::string(EXTRADEEP_TEST_DATA_DIR) + "/golden/" + name;
}

constexpr std::size_t kBlock = EdpStreamReader::kBlockBytes;

const std::string kEventTail = "\tCUDA kernel\t0.5\t0.25\t3\t0";

/// A clean single-rank profile whose event lines fill `events` bytes.
std::string event_profile(const std::vector<std::string>& names,
                          const std::string& eol = "\n") {
    std::string text = "EDP\t1" + eol + "P\tx1\t4" + eol + "RANK\t0" + eol +
                       "M\tepoch_start\t0\t-1\ttrain\t0" + eol;
    for (const std::string& name : names) {
        text += "E\t" + name + kEventTail + eol;
    }
    return text + "M\tepoch_end\t0\t-1\ttrain\t2" + eol + "END" + eol;
}

}  // namespace

TEST(EdpChunks, PieceSizesDoNotChangeWhatIsRead) {
    for (const char* name :
         {"golden_x2_rep0.edp", "golden_x2_rep1.edp", "golden_x4_rep0.edp",
          "golden_x4_rep1.edp", "golden_corrupt.edp"}) {
        SCOPED_TRACE(name);
        const std::string bytes = read_file(golden_path(name));
        ASSERT_FALSE(bytes.empty());
        expect_piece_invariant(bytes);
    }
    // Forty ranks make each clean corpus longer than one block.
    for (const auto& [name, mutate] : edpfuzz::mutators()) {
        for (const std::uint64_t seed : {1u, 2u}) {
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            Rng rng(seed * 977 + 13);
            const std::string clean = edp_text(
                edpfuzz::coherent_run(rng, {{"x1", 8.0}}, 0, 40));
            ASSERT_GT(clean.size(), kBlock);
            expect_piece_invariant(mutate(clean, rng));
        }
    }
    for (const std::uint64_t seed : {10u, 20u}) {
        SCOPED_TRACE("stacked seed " + std::to_string(seed));
        Rng rng(seed);
        const std::string clean =
            edp_text(edpfuzz::coherent_run(rng, {{"x1", 8.0}}, 1, 40));
        ASSERT_GT(clean.size(), kBlock);
        expect_piece_invariant(edpfuzz::apply_random_mutations(clean, rng, 3));
    }
}

TEST(EdpChunks, CrlfSplitAcrossBlockEdge) {
    // Pad the last event's name so that its line's "\r\n" straddles the
    // first block edge.
    std::vector<std::string> names(1000, "gemm");
    const std::size_t before =
        event_profile(names, "\r\n").size() -
        std::string("M\tepoch_end\t0\t-1\ttrain\t2\r\nEND\r\n").size();
    const std::size_t bare = std::string("E\t" + kEventTail + "\r\n").size();
    ASSERT_LT(before + bare, kBlock);
    names.push_back(std::string(kBlock + 1 - before - bare, 'k'));
    const std::string crlf = event_profile(names, "\r\n");
    ASSERT_EQ(crlf[kBlock - 1], '\r');
    ASSERT_EQ(crlf[kBlock], '\n');

    const std::string lf = event_profile(names);
    EXPECT_EQ(transcript(crlf), transcript(lf));
    std::istringstream is(crlf);
    const ProfiledRun run = read_edp(is);
    ASSERT_EQ(run.ranks.size(), 1u);
    ASSERT_EQ(run.ranks[0].events.size(), names.size());
    EXPECT_EQ(run.ranks[0].events.back().name, names.back());
    expect_piece_invariant(crlf);
}

TEST(EdpChunks, LastLineWithoutNewline) {
    const std::string text = event_profile({"gemm", "conv"});
    ASSERT_EQ(text.back(), '\n');
    const std::string cut = text.substr(0, text.size() - 1);
    EXPECT_EQ(throwing_transcript(cut), throwing_transcript(text));
    EXPECT_NE(transcript(cut).find("saw_end 1"), std::string::npos);
    expect_piece_invariant(cut);
}

TEST(EdpChunks, LineLongerThanTheBlock) {
    const std::string long_name(3 * kBlock + 5, 'n');
    const std::string text = event_profile({"gemm", long_name, "conv"});
    std::istringstream is(text);
    const ProfiledRun run = read_edp(is);
    ASSERT_EQ(run.ranks.size(), 1u);
    ASSERT_EQ(run.ranks[0].events.size(), 3u);
    EXPECT_EQ(run.ranks[0].events[1].name, long_name);
    EXPECT_EQ(run.ranks[0].events[2].name, "conv");
    expect_piece_invariant(text);
}

TEST(EdpChunks, EmptyInput) {
    EXPECT_EQ(transcript(""), "diag 2 -1 -1 EDP: empty input\nsaw_end 0\n");
    EXPECT_EQ(throwing_transcript(""), "throw EDP: empty input\n");
    expect_piece_invariant("");
}

TEST(EdpChunks, TrailingDataAfterEnd) {
    // The trailing lines span more than one block after END.
    std::string text = event_profile({"gemm"});
    const long long end_line = 7;
    const std::size_t trailing = kBlock / 2 + 11;
    for (std::size_t i = 0; i < trailing; ++i) {
        text += "x\n";
    }
    const std::string got = transcript(text);
    EXPECT_NE(got.find("diag 1 " + std::to_string(end_line + trailing) +
                       " -1 EDP: ignored " + std::to_string(trailing) +
                       " line(s) of trailing data after END\n"),
              std::string::npos)
        << got;
    EXPECT_NE(got.find("saw_end 1"), std::string::npos);
    EXPECT_EQ(throwing_transcript(text),
              "throw EDP: ignored " + std::to_string(trailing) +
                  " line(s) of trailing data after END\n");
    expect_piece_invariant(text);
}

TEST(EdpChunks, HeaderlessFirstLine) {
    const std::string text = event_profile({"gemm"}).substr(6);
    ASSERT_EQ(text.rfind("P\tx1\t4\n", 0), 0u);
    const std::string got = transcript(text);
    EXPECT_EQ(got.rfind("0 x1 " + bits(4.0) + "\n", 0), 0u) << got;
    EXPECT_NE(got.find("diag 2 1 -1 EDP: missing header\n"), std::string::npos)
        << got;
    expect_piece_invariant(text);
}
