// Differential harness for ingestion: ingest_edp_files streams each file
// and reduces it one rank block at a time, and ingest_runs reduces each run
// up front. Both must be *bit-identical* to a materialising reference built
// in this file from the library's own stages (read_edp_file in path order,
// validate_experiment, aggregate_runs) — same aggregates down to the last
// mantissa bit, same diagnostic sequence, same counts — on clean corpora,
// on every fault-injection mutator at several seeds, at every thread
// count. Plus the memory-ceiling regression test:
// ingesting a corpus of hundreds of MB must not grow peak RSS by more than
// a fixed budget.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "aggregation/validate.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "extradeep/ingest.hpp"
#include "fault_injection.hpp"
#include "profiling/edp_io.hpp"

using namespace extradeep;
using profiling::ProfiledRun;

namespace {

// The sanitizers' shadow memory and quarantines make RSS accounting
// meaningless and everything ~10x slower, so the ceiling test shrinks its
// corpus and skips the RSS assertion under ASan.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Self-cleaning scratch directory for corpus files.
struct TempDir {
    std::string path;
    TempDir() {
        char tmpl[] = "/tmp/extradeep-stream-test-XXXXXX";
        if (mkdtemp(tmpl) == nullptr) {
            throw Error("mkdtemp failed");
        }
        path = tmpl;
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string file(const std::string& name) const {
        return path + "/" + name;
    }
};

void write_text(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << path;
    out << text;
}

std::string edp_text(const ProfiledRun& run) {
    std::ostringstream os;
    profiling::write_edp(os, run);
    return os.str();
}

/// A small coherent corpus: `configs` measurement points (x1 = 2, 4, ...)
/// with `reps` repetitions each, one file per run, deterministic from
/// `seed`. Returns the paths in an interleaved (non-grouped) order so
/// grouping is exercised too.
std::vector<std::string> write_corpus(const TempDir& dir, std::uint64_t seed,
                                      int configs = 2, int reps = 2) {
    Rng rng(seed);
    std::vector<std::string> paths;
    for (int rep = 0; rep < reps; ++rep) {
        for (int c = 0; c < configs; ++c) {
            const double x1 = 2.0 * (c + 1);
            const ProfiledRun run =
                edpfuzz::coherent_run(rng, {{"x1", x1}}, rep, 2);
            const std::string path =
                dir.file("c" + std::to_string(c) + "_r" + std::to_string(rep) +
                         ".edp");
            write_text(path, edp_text(run));
            paths.push_back(path);
        }
    }
    return paths;
}

void expect_bits(double a, double b, const std::string& what) {
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
        << what << ": " << a << " vs " << b;
}

void expect_params_identical(const std::map<std::string, double>& a,
                             const std::map<std::string, double>& b) {
    ASSERT_EQ(a.size(), b.size());
    auto ia = a.begin();
    auto ib = b.begin();
    for (; ia != a.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        expect_bits(ia->second, ib->second, "param " + ia->first);
    }
}

void expect_diagnostics_identical(const DiagnosticLog& a,
                                  const DiagnosticLog& b) {
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.count(Severity::Info), b.count(Severity::Info));
    EXPECT_EQ(a.count(Severity::Warning), b.count(Severity::Warning));
    EXPECT_EQ(a.count(Severity::Error), b.count(Severity::Error));
    ASSERT_EQ(a.entries().size(), b.entries().size());
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        const Diagnostic& da = a.entries()[i];
        const Diagnostic& db = b.entries()[i];
        EXPECT_EQ(da.severity, db.severity) << "diag " << i;
        EXPECT_EQ(da.line, db.line) << "diag " << i;
        EXPECT_EQ(da.rank, db.rank) << "diag " << i;
        EXPECT_EQ(da.reason, db.reason) << "diag " << i;
    }
}

/// The differential core: every field of the two ingest results, bitwise.
void expect_results_identical(const IngestResult& a, const IngestResult& b) {
    EXPECT_EQ(a.runs_total, b.runs_total);
    EXPECT_EQ(a.runs_kept, b.runs_kept);
    EXPECT_EQ(a.configs_total, b.configs_total);
    EXPECT_EQ(a.configs_kept, b.configs_kept);
    EXPECT_EQ(a.summary(), b.summary());
    expect_diagnostics_identical(a.diagnostics, b.diagnostics);

    EXPECT_EQ(a.data.primary_parameter(), b.data.primary_parameter());
    ASSERT_EQ(a.data.configs().size(), b.data.configs().size());
    for (std::size_t c = 0; c < a.data.configs().size(); ++c) {
        const auto& ca = a.data.configs()[c];
        const auto& cb = b.data.configs()[c];
        const std::string where = "config " + std::to_string(c);
        expect_params_identical(ca.params, cb.params);
        EXPECT_EQ(ca.repetitions, cb.repetitions) << where;
        ASSERT_EQ(ca.kernels.size(), cb.kernels.size()) << where;
        for (std::size_t k = 0; k < ca.kernels.size(); ++k) {
            const auto& ka = ca.kernels[k];
            const auto& kb = cb.kernels[k];
            const std::string kw = where + " kernel " + ka.name;
            EXPECT_EQ(ka.name, kb.name) << where;
            EXPECT_EQ(ka.category, kb.category) << kw;
            EXPECT_EQ(ka.ranks_seen, kb.ranks_seen) << kw;
            EXPECT_EQ(ka.reps_seen, kb.reps_seen) << kw;
            for (int m = 0; m < aggregation::kMetricCount; ++m) {
                expect_bits(ka.train[m], kb.train[m], kw + " train");
                expect_bits(ka.val[m], kb.val[m], kw + " val");
            }
        }
        for (int p = 0; p < trace::kPhaseCount; ++p) {
            for (int m = 0; m < aggregation::kMetricCount; ++m) {
                expect_bits(ca.phase_train[p][m], cb.phase_train[p][m],
                            where + " phase_train");
                expect_bits(ca.phase_val[p][m], cb.phase_val[p][m],
                            where + " phase_val");
            }
        }
    }
}

/// Materialising reference for ingest_runs: validate_experiment over the
/// full runs, then aggregate_runs over each kept configuration's kept
/// repetitions.
IngestResult reference_ingest_runs(
    std::span<const std::vector<ProfiledRun>> configs,
    const IngestOptions& options) {
    IngestResult result;
    result.data = aggregation::ExperimentData(options.primary_parameter);
    result.configs_total = configs.size();
    for (const auto& runs : configs) {
        result.runs_total += runs.size();
    }
    const aggregation::ExperimentVerdict verdict =
        aggregation::validate_experiment(configs);
    result.diagnostics.merge(verdict.diagnostics);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        if (!verdict.keep_config[c]) {
            continue;
        }
        std::vector<ProfiledRun> kept;
        for (std::size_t r = 0; r < configs[c].size(); ++r) {
            if (verdict.keep_run[c][r]) {
                kept.push_back(configs[c][r]);
            }
        }
        try {
            result.data.add(
                aggregation::aggregate_runs(kept, options.aggregation));
        } catch (const Error& e) {
            result.diagnostics.add(
                Severity::Error,
                "configuration " + std::to_string(c) + " dropped: " + e.what());
            continue;
        }
        result.configs_kept += 1;
        result.runs_kept += kept.size();
    }
    return result;
}

/// Materialising reference for ingest_edp_files: tolerant read_edp_file in
/// path order, path-scoped parse diagnostics, quarantine of broken files,
/// grouping by parameter map with configurations ordered by x1 and
/// repetitions by index, then reference_ingest_runs.
IngestResult reference_ingest(const std::vector<std::string>& paths) {
    const IngestOptions options;
    DiagnosticLog parse_log;
    std::size_t dropped_files = 0;
    std::map<std::map<std::string, double>, std::vector<ProfiledRun>> groups;
    for (const std::string& path : paths) {
        profiling::EdpReadResult parsed;
        try {
            parsed =
                profiling::read_edp_file(path, profiling::EdpReadOptions{});
        } catch (const Error& e) {
            parse_log.add(Severity::Error, path + ": " + e.what());
            ++dropped_files;
            continue;
        }
        for (const auto& d : parsed.diagnostics.entries()) {
            Diagnostic scoped = d;
            scoped.reason = path + ": " + d.reason;
            parse_log.add(std::move(scoped));
        }
        if (!parsed.ok()) {
            parse_log.add(Severity::Error,
                          path + ": file quarantined (" +
                              parsed.diagnostics.summary() + ")");
            ++dropped_files;
            continue;
        }
        if (parsed.run.params.find(options.primary_parameter) ==
            parsed.run.params.end()) {
            parse_log.add(Severity::Error,
                          path + ": run lacks primary parameter '" +
                              options.primary_parameter + "'");
            ++dropped_files;
            continue;
        }
        groups[parsed.run.params].push_back(std::move(parsed.run));
    }

    std::vector<std::vector<ProfiledRun>> configs;
    for (auto& [params, runs] : groups) {
        std::stable_sort(runs.begin(), runs.end(),
                         [](const ProfiledRun& a, const ProfiledRun& b) {
                             return a.repetition < b.repetition;
                         });
        configs.push_back(std::move(runs));
    }
    std::stable_sort(configs.begin(), configs.end(),
                     [&](const auto& a, const auto& b) {
                         return a.front().params.at(
                                    options.primary_parameter) <
                                b.front().params.at(options.primary_parameter);
                     });

    IngestResult result = reference_ingest_runs(configs, options);
    result.runs_total += dropped_files;
    DiagnosticLog merged(DiagnosticLog::kDefaultCapacity);
    merged.merge(parse_log);
    merged.merge(result.diagnostics);
    result.diagnostics = std::move(merged);
    return result;
}

IngestResult ingest(const std::vector<std::string>& paths, int threads = 1) {
    IngestOptions options;
    options.num_threads = threads;
    return ingest_edp_files(paths, options);
}

double peak_rss_mb() {
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

TEST(StreamDifferential, CleanMultiConfigCorpus) {
    const TempDir dir;
    const auto paths = write_corpus(dir, 42, 3, 3);
    const IngestResult reference = reference_ingest(paths);
    EXPECT_GT(reference.configs_kept, 0u);
    expect_results_identical(reference, ingest(paths));
}

TEST(StreamDifferential, EveryMutatorEverySeed) {
    // One corpus file gets mutated per (mutator, seed); the others stay
    // clean, so recovery around a poisoned file is compared too.
    for (const auto& [name, mutate] : edpfuzz::mutators()) {
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            const TempDir dir;
            auto paths = write_corpus(dir, seed);
            // Deterministically pick and corrupt one file.
            Rng rng(seed * 977 + 13);
            const std::size_t victim =
                static_cast<std::size_t>(rng.next_u64() % paths.size());
            std::ifstream in(paths[victim], std::ios::binary);
            std::ostringstream buf;
            buf << in.rdbuf();
            in.close();
            write_text(paths[victim], mutate(buf.str(), rng));

            expect_results_identical(reference_ingest(paths), ingest(paths));
        }
    }
}

TEST(StreamDifferential, StackedRandomMutations) {
    // Multiple mutators stacked on multiple files: deep corruption, where
    // tolerant recovery produces long diagnostic transcripts. The streamed
    // transcript must match the reference entry for entry.
    for (const std::uint64_t seed : {10u, 20u, 30u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const TempDir dir;
        auto paths = write_corpus(dir, seed, 2, 3);
        Rng rng(seed);
        for (std::size_t i = 0; i < paths.size(); i += 2) {
            std::ifstream in(paths[i], std::ios::binary);
            std::ostringstream buf;
            buf << in.rdbuf();
            in.close();
            write_text(paths[i], edpfuzz::apply_random_mutations(
                                     buf.str(), rng, 3));
        }
        expect_results_identical(reference_ingest(paths), ingest(paths));
    }
}

TEST(StreamDifferential, ThreadCountsAllBitIdentical) {
    // Three thread counts, one mutated file: every result must equal the
    // materialising reference.
    const TempDir dir;
    auto paths = write_corpus(dir, 77, 3, 2);
    Rng rng(99);
    std::ifstream in(paths[2], std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    in.close();
    write_text(paths[2], edpfuzz::corrupt_number(buf.str(), rng));

    const IngestResult reference = reference_ingest(paths);
    for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expect_results_identical(reference, ingest(paths, threads));
    }
}

TEST(StreamDifferential, IngestRunsInMemoryEquivalence) {
    // Pre-grouped in-memory runs are reduced up front (no copies of kept
    // runs); results must match the reference, including a dropped
    // repetition.
    Rng rng(8);
    std::vector<std::vector<ProfiledRun>> configs;
    for (const double x1 : {2.0, 4.0, 8.0}) {
        std::vector<ProfiledRun> reps;
        for (int rep = 0; rep < 3; ++rep) {
            reps.push_back(edpfuzz::coherent_run(rng, {{"x1", x1}}, rep, 2));
        }
        configs.push_back(std::move(reps));
    }
    configs[1][2].ranks.clear();  // dropped by validation in both paths

    const IngestOptions options;
    const IngestResult reference = reference_ingest_runs(configs, options);
    EXPECT_EQ(reference.runs_kept, 8u);
    expect_results_identical(reference, ingest_runs(configs, options));
}

namespace {

/// Writes a large single-configuration EDP file by amplifying one coherent
/// rank: `n_ranks` copies of the rank block (distinct rank ids), each event
/// line repeated `event_repeat` times. Streams straight to disk, so
/// generation itself needs O(one small run) memory.
std::uintmax_t write_amplified_file(const std::string& path,
                                    std::uint64_t seed, int repetition,
                                    int n_ranks, int event_repeat) {
    Rng rng(seed);
    const ProfiledRun base =
        edpfuzz::coherent_run(rng, {{"x1", 8.0}}, repetition, 1);
    const std::string text = edp_text(base);

    // Split into header lines / first rank block lines / END.
    std::vector<std::string> header;
    std::vector<std::string> block;
    std::istringstream is(text);
    std::string line;
    bool in_block = false;
    while (std::getline(is, line)) {
        if (line.rfind("RANK\t", 0) == 0) {
            in_block = true;
            continue;  // re-emitted per amplified rank below
        }
        if (line == "END") {
            break;
        }
        (in_block ? block : header).push_back(line);
    }

    std::ofstream out(path, std::ios::binary);
    for (const auto& h : header) {
        out << h << "\n";
    }
    for (int r = 0; r < n_ranks; ++r) {
        out << "RANK\t" << r << "\n";
        for (const auto& b : block) {
            const int repeat = b.rfind("E\t", 0) == 0 ? event_repeat : 1;
            for (int i = 0; i < repeat; ++i) {
                out << b << "\n";
            }
        }
    }
    out << "END\n";
    out.close();
    return std::filesystem::file_size(path);
}

}  // namespace

TEST(StreamMemoryCeiling, LargeCorpusStaysUnderBudget) {
    // Corpus: 3 repetitions of one configuration, amplified to hundreds of
    // MB total (a few MB under sanitizers). Ingest must keep its peak-RSS
    // growth bounded by the largest rank block, orders of magnitude below
    // the corpus size.
    const int n_ranks = kSanitized ? 4 : 24;
    const int event_repeat = kSanitized ? 40 : 3200;
    const TempDir dir;
    std::vector<std::string> paths;
    std::uintmax_t total_bytes = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const std::string path = dir.file("big_r" + std::to_string(rep) +
                                          ".edp");
        total_bytes +=
            write_amplified_file(path, 1000 + rep, rep, n_ranks, event_repeat);
        paths.push_back(path);
    }
    const double total_mb =
        static_cast<double>(total_bytes) / (1024.0 * 1024.0);
    if (!kSanitized) {
        ASSERT_GE(total_mb, 200.0)
            << "corpus too small to prove an out-of-core ceiling";
    }

    const double rss_before = peak_rss_mb();
    const IngestResult result = ingest(paths);
    const double rss_delta = peak_rss_mb() - rss_before;

    EXPECT_EQ(result.configs_kept, 1u);
    EXPECT_EQ(result.runs_kept, 3u);
    EXPECT_TRUE(result.diagnostics.empty()) << result.summary();

    if (!kSanitized) {
        // Hard ceiling: far below both the corpus (> 200 MB) and what
        // materialising even a single repetition would need. The budget has
        // ~10x headroom over the observed ~6 MB rank-block working set.
        EXPECT_LE(rss_delta, 64.0)
            << "ingest peak-RSS delta " << rss_delta
            << " MB over a " << total_mb << " MB corpus";
    }
}
