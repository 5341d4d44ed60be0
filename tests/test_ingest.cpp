#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "aggregation/validate.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "extradeep/ingest.hpp"
#include "fault_injection.hpp"
#include "profiling/edp_io.hpp"

// Run/experiment validation verdicts and the graceful-degradation ingestion
// pipeline built on top of them.

using namespace extradeep;
using profiling::ProfiledRun;

namespace {

ProfiledRun good_run(double x1 = 4.0, int repetition = 0, int n_ranks = 2,
                     std::uint64_t seed = 1) {
    Rng rng(seed);
    return edpfuzz::coherent_run(rng, {{"x1", x1}}, repetition, n_ranks);
}

}  // namespace

TEST(ValidateRun, AcceptsCoherentRun) {
    const aggregation::RunVerdict v = aggregation::validate_run(good_run());
    EXPECT_TRUE(v.keep) << v.diagnostics.summary();
    EXPECT_FALSE(v.diagnostics.has_errors());
}

TEST(ValidateRun, RejectsRunWithoutRanks) {
    ProfiledRun run = good_run();
    run.ranks.clear();
    const aggregation::RunVerdict v = aggregation::validate_run(run);
    EXPECT_FALSE(v.keep);
    EXPECT_TRUE(v.diagnostics.has_errors());
}

TEST(ValidateRun, RejectsEmptyParams) {
    ProfiledRun run = good_run();
    run.params.clear();
    EXPECT_FALSE(aggregation::validate_run(run).keep);
}

TEST(ValidateRun, RejectsNonFiniteParam) {
    ProfiledRun run = good_run();
    run.params["x1"] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(aggregation::validate_run(run).keep);
}

TEST(ValidateRun, RejectsDuplicateRankIds) {
    ProfiledRun run = good_run();
    run.ranks[1].rank = run.ranks[0].rank;
    EXPECT_FALSE(aggregation::validate_run(run).keep);
}

TEST(ValidateRun, RejectsNanEventDuration) {
    ProfiledRun run = good_run();
    run.ranks[0].events[0].duration =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(aggregation::validate_run(run).keep);
}

TEST(ValidateRun, RejectsNegativeEventStart) {
    ProfiledRun run = good_run();
    run.ranks[0].events[0].start = -0.5;
    EXPECT_FALSE(aggregation::validate_run(run).keep);
}

TEST(ValidateRun, RejectsUnmatchedStepMarks) {
    // Removing one StepEnd breaks NVTX pairing; segment_steps throws and
    // validation converts that into a drop verdict.
    ProfiledRun run = good_run();
    auto& marks = run.ranks[0].marks;
    for (std::size_t i = 0; i < marks.size(); ++i) {
        if (marks[i].kind == trace::NvtxMark::Kind::StepEnd) {
            marks.erase(marks.begin() + static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
    const aggregation::RunVerdict v = aggregation::validate_run(run);
    EXPECT_FALSE(v.keep);
    EXPECT_TRUE(v.diagnostics.has_errors());
}

TEST(ValidateRun, RejectsNonMonotonicStepIndices) {
    // Step indices within (epoch, kind) must strictly increase; swapping two
    // step indices (keeping the times valid) models a collector that wrote
    // records out of order.
    ProfiledRun run = good_run();
    for (auto& mark : run.ranks[0].marks) {
        if (mark.step == 0) {
            mark.step = 1;
        } else if (mark.step == 1) {
            mark.step = 0;
        }
    }
    const aggregation::RunVerdict v = aggregation::validate_run(run);
    EXPECT_FALSE(v.keep);
}

TEST(ValidateRun, RejectsRunWithoutStepWindows) {
    ProfiledRun run = good_run();
    for (auto& rank : run.ranks) rank.marks.clear();
    EXPECT_FALSE(aggregation::validate_run(run).keep);
}

TEST(ValidateExperiment, DropsBadRepetitionKeepsConfiguration) {
    std::vector<std::vector<ProfiledRun>> configs(1);
    configs[0].push_back(good_run(4.0, 0));
    configs[0].push_back(good_run(4.0, 1, 2, 2));
    configs[0][1].ranks[0].events[0].bytes =
        std::numeric_limits<double>::infinity();
    const aggregation::ExperimentVerdict v =
        aggregation::validate_experiment(configs);
    ASSERT_EQ(v.keep_run.size(), 1u);
    EXPECT_TRUE(v.keep_run[0][0]);
    EXPECT_FALSE(v.keep_run[0][1]);
    EXPECT_TRUE(v.keep_config[0]);
    EXPECT_EQ(v.runs_kept, 1u);
    EXPECT_EQ(v.runs_dropped, 1u);
    EXPECT_EQ(v.configs_kept, 1u);
}

TEST(ValidateExperiment, MinRepetitionsFloorDropsConfiguration) {
    // The floor is one surviving repetition: a configuration whose every
    // repetition is unusable is dropped whole, with one error naming it.
    std::vector<std::vector<ProfiledRun>> configs(1);
    configs[0].push_back(good_run(4.0, 0));
    configs[0].push_back(good_run(4.0, 1, 2, 2));
    for (auto& run : configs[0]) run.ranks.clear();
    const aggregation::ExperimentVerdict v =
        aggregation::validate_experiment(configs);
    EXPECT_FALSE(v.keep_config[0]);
    EXPECT_FALSE(v.keep_run[0][0]);
    EXPECT_EQ(v.configs_dropped, 1u);
    EXPECT_EQ(v.runs_dropped, 2u);
    EXPECT_FALSE(v.any_usable());
    bool named = false;
    for (const auto& d : v.diagnostics.entries()) {
        named = named || d.reason == "configuration 0: dropped: only 0 of 2 "
                                     "repetition(s) usable, need 1";
    }
    EXPECT_TRUE(named);
}

TEST(ValidateExperiment, DropsRepetitionWithMismatchedParams) {
    std::vector<std::vector<ProfiledRun>> configs(1);
    configs[0].push_back(good_run(4.0, 0));
    configs[0].push_back(good_run(8.0, 1, 2, 2));  // wrong measurement point
    const aggregation::ExperimentVerdict v =
        aggregation::validate_experiment(configs);
    EXPECT_TRUE(v.keep_run[0][0]);
    EXPECT_FALSE(v.keep_run[0][1]);
    EXPECT_TRUE(v.keep_config[0]);
}

TEST(ValidateExperiment, EnforcesUniformRankCounts) {
    std::vector<std::vector<ProfiledRun>> configs(1);
    configs[0].push_back(good_run(4.0, 0, 2, 1));
    configs[0].push_back(good_run(4.0, 1, 2, 2));
    configs[0].push_back(good_run(4.0, 2, 3, 3));  // lost/extra rank
    const aggregation::ExperimentVerdict v =
        aggregation::validate_experiment(configs);
    EXPECT_TRUE(v.keep_run[0][0]);
    EXPECT_TRUE(v.keep_run[0][1]);
    EXPECT_FALSE(v.keep_run[0][2]);
    EXPECT_EQ(v.runs_dropped, 1u);
}

TEST(ValidateExperiment, DuplicateRepetitionIndexIsOnlyAWarning) {
    std::vector<std::vector<ProfiledRun>> configs(1);
    configs[0].push_back(good_run(4.0, 0, 2, 1));
    configs[0].push_back(good_run(4.0, 0, 2, 2));
    const aggregation::ExperimentVerdict v =
        aggregation::validate_experiment(configs);
    EXPECT_TRUE(v.keep_run[0][0]);
    EXPECT_TRUE(v.keep_run[0][1]);
    EXPECT_GE(v.diagnostics.count(Severity::Warning), 1u);
    EXPECT_FALSE(v.diagnostics.has_errors());
}

TEST(IngestRuns, HappyPathKeepsEverything) {
    std::vector<std::vector<ProfiledRun>> configs;
    std::uint64_t seed = 1;
    for (const double x1 : {2.0, 4.0, 8.0}) {
        std::vector<ProfiledRun> reps;
        for (int rep = 0; rep < 2; ++rep) {
            reps.push_back(good_run(x1, rep, 2, seed++));
        }
        configs.push_back(std::move(reps));
    }
    const IngestResult result = ingest_runs(configs);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.runs_total, 6u);
    EXPECT_EQ(result.runs_kept, 6u);
    EXPECT_EQ(result.configs_kept, 3u);
    EXPECT_FALSE(result.diagnostics.has_errors());
    EXPECT_EQ(result.data.parameter_values(),
              (std::vector<double>{2.0, 4.0, 8.0}));
    ASSERT_NE(result.data.find(4.0), nullptr);
    EXPECT_EQ(result.data.find(4.0)->repetitions, 2);
}

TEST(IngestRuns, FullyCorruptConfigurationIsDropped) {
    std::vector<std::vector<ProfiledRun>> configs;
    configs.push_back({good_run(2.0, 0, 2, 1), good_run(2.0, 1, 2, 2)});
    configs.push_back({good_run(4.0, 0, 2, 3)});
    configs[1][0].ranks.clear();
    const IngestResult result = ingest_runs(configs);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.configs_total, 2u);
    EXPECT_EQ(result.configs_kept, 1u);
    EXPECT_EQ(result.runs_kept, 2u);
    EXPECT_TRUE(result.diagnostics.has_errors());
    EXPECT_EQ(result.data.find(4.0), nullptr);
}

TEST(IngestRuns, ModelabilityCountsOnlySurvivingConfigurations) {
    // "rare" appears in 5 of 6 configurations, but one of those 5 is fully
    // corrupt and gets dropped - so only 4 surviving configurations carry it
    // and it must NOT be modelable under the paper's >= 5 rule. "gemm"
    // (present everywhere) stays modelable.
    std::vector<std::vector<ProfiledRun>> configs;
    for (int c = 0; c < 6; ++c) {
        const double x1 = static_cast<double>(2 << c);
        ProfiledRun run = good_run(x1, 0, 2, 10 + static_cast<std::uint64_t>(c));
        if (c < 5) {
            trace::TraceEvent rare;
            rare.name = "rare";
            rare.category = trace::KernelCategory::Nccl;
            // Inside the first step window of epoch 1 - epoch 0 is warmup
            // and would be discarded before the kernel is ever seen.
            for (const trace::NvtxMark& m : run.ranks[0].marks) {
                if (m.epoch == 1 &&
                    m.kind == trace::NvtxMark::Kind::StepStart) {
                    rare.start = m.time + 0.125;
                    break;
                }
            }
            rare.duration = 0.0625;
            rare.visits = 1;
            run.ranks[0].events.push_back(rare);
        }
        configs.push_back({std::move(run)});
    }
    configs[4][0].params["x1"] = std::numeric_limits<double>::infinity();

    const IngestResult result = ingest_runs(configs);
    EXPECT_EQ(result.configs_kept, 5u);
    EXPECT_TRUE(result.modelable());
    const auto modelable = result.data.modelable_kernels();
    EXPECT_NE(std::find(modelable.begin(), modelable.end(), "gemm"),
              modelable.end());
    EXPECT_EQ(std::find(modelable.begin(), modelable.end(), "rare"),
              modelable.end());
}

TEST(IngestRuns, DuplicatePrimaryValueDropsLaterConfiguration) {
    std::vector<std::vector<ProfiledRun>> configs;
    configs.push_back({good_run(2.0, 0, 2, 1)});
    configs.push_back({good_run(2.0, 0, 2, 2)});
    const IngestResult result = ingest_runs(configs);
    EXPECT_EQ(result.configs_kept, 1u);
    EXPECT_TRUE(result.diagnostics.has_errors());
    EXPECT_EQ(result.data.size(), 1u);
}

TEST(IngestRuns, MissingPrimaryParameterIsDroppedNotThrown) {
    Rng rng(5);
    std::vector<std::vector<ProfiledRun>> configs;
    configs.push_back({good_run(2.0, 0, 2, 1)});
    configs.push_back(
        {edpfuzz::coherent_run(rng, {{"x2", 3.0}}, 0, 2)});
    const IngestResult result = ingest_runs(configs);
    EXPECT_EQ(result.configs_kept, 1u);
    EXPECT_TRUE(result.diagnostics.has_errors());
    EXPECT_NE(result.summary().find("1/2 configurations"), std::string::npos)
        << result.summary();
}

TEST(IngestFiles, ToleratesCorruptAndForeignFiles) {
    const std::string dir = ::testing::TempDir();
    std::vector<std::string> paths;
    std::uint64_t seed = 20;
    for (const double x1 : {2.0, 4.0}) {
        for (int rep = 0; rep < 2; ++rep) {
            Rng rng(seed++);
            const ProfiledRun run =
                edpfuzz::coherent_run(rng, {{"x1", x1}}, rep, 2);
            const std::string path = dir + "/ingest_x" +
                                     std::to_string(static_cast<int>(x1)) +
                                     "_r" + std::to_string(rep) + ".edp";
            profiling::write_edp_file(path, run);
            paths.push_back(path);
        }
    }
    {
        std::ofstream os(dir + "/ingest_corrupt.edp");
        os << "this is\nnot an EDP file\n";
    }
    paths.push_back(dir + "/ingest_corrupt.edp");
    {
        Rng rng(99);
        profiling::write_edp_file(
            dir + "/ingest_no_x1.edp",
            edpfuzz::coherent_run(rng, {{"x9", 1.0}}, 0, 2));
    }
    paths.push_back(dir + "/ingest_no_x1.edp");
    paths.push_back(dir + "/ingest_does_not_exist.edp");

    const IngestResult result = ingest_edp_files(paths);
    EXPECT_EQ(result.configs_kept, 2u);
    EXPECT_EQ(result.runs_kept, 4u);
    EXPECT_EQ(result.runs_total, 7u);
    EXPECT_TRUE(result.diagnostics.has_errors());
    EXPECT_EQ(result.data.parameter_values(),
              (std::vector<double>{2.0, 4.0}));
}

TEST(IngestFiles, FileDiagnosticsKeepTheirOverflowCounts) {
    // 1,500 undecodable event lines in one rank block: one warning each,
    // more than a log stores.
    Rng rng(7);
    std::ostringstream os;
    profiling::write_edp(os, edpfuzz::coherent_run(rng, {{"x1", 2.0}}, 0, 2));
    std::string text = os.str();
    std::string bad;
    for (int i = 0; i < 1500; ++i) {
        bad += "E\tk\tCUDA kernel\tzz\t1\t1\t0\n";
    }
    text.insert(text.find('\n', text.find("RANK\t0")) + 1, bad);
    const std::string path = ::testing::TempDir() + "/ingest_overflow.edp";
    std::ofstream(path) << text;

    const profiling::EdpReadResult read = profiling::read_edp_file(
        path, profiling::EdpReadOptions{});
    ASSERT_EQ(read.diagnostics.count(Severity::Warning), 1500u);
    const std::vector<std::string> paths = {path};
    const IngestResult result = ingest_edp_files(paths);
    EXPECT_EQ(result.runs_kept, 1u);
    EXPECT_EQ(result.diagnostics.count(Severity::Warning), 1500u);
    EXPECT_EQ(result.diagnostics.total(), read.diagnostics.total());
    ASSERT_FALSE(result.diagnostics.entries().empty());
    EXPECT_EQ(result.diagnostics.entries().front().reason,
              path + ": " + read.diagnostics.entries().front().reason);
}

TEST(IngestFiles, RepetitionsAreOrderedByIndexNotByPath) {
    const std::string dir = ::testing::TempDir();
    std::vector<std::string> paths;
    for (const int rep : {1, 0}) {  // listed out of order on purpose
        Rng rng(40 + static_cast<std::uint64_t>(rep));
        const std::string path =
            dir + "/ingest_order_r" + std::to_string(rep) + ".edp";
        profiling::write_edp_file(
            path, edpfuzz::coherent_run(rng, {{"x1", 2.0}}, rep, 2));
        paths.push_back(path);
    }
    const IngestResult result = ingest_edp_files(paths);
    EXPECT_EQ(result.configs_kept, 1u);
    EXPECT_EQ(result.runs_kept, 2u);
    EXPECT_FALSE(result.diagnostics.has_errors());
}
