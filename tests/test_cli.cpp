// The command-line front door shared by the tool mains: the flag cursor's
// typed getters, the list/system parsers, the --case filter, the checked
// report writer and the --thresholds runner.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "eval/oracle.hpp"
#include "eval/report.hpp"

using namespace extradeep;

namespace {

namespace fs = std::filesystem;

/// Runs `fn` on a cursor over {"tool", tokens...} and returns the message
/// of the InvalidArgumentError it throws ("" if it does not throw).
template <typename Fn>
std::string flag_error(std::vector<std::string> tokens, Fn fn) {
    tokens.insert(tokens.begin(), "tool");
    std::vector<char*> argv;
    for (std::string& t : tokens) {
        argv.push_back(t.data());
    }
    cli::Args args(static_cast<int>(argv.size()), argv.data());
    std::string flag;
    args.next(flag);
    try {
        fn(args, flag);
    } catch (const InvalidArgumentError& e) {
        return e.what();
    }
    return "";
}

std::string int_error(const std::string& flag, const std::string& value) {
    return flag_error({flag, value}, [](cli::Args& a, const std::string& f) {
        a.int_value(f);
    });
}

TEST(CliArgs, TypedGettersReadTheWholeToken) {
    std::vector<std::string> tokens = {"tool", "--threads", "4",  "--seed",
                                       "7",    "--width",   "0.5", "--out",
                                       "f.json"};
    std::vector<char*> argv;
    for (std::string& t : tokens) {
        argv.push_back(t.data());
    }
    cli::Args args(static_cast<int>(argv.size()), argv.data());
    std::string flag;
    ASSERT_TRUE(args.next(flag));
    EXPECT_EQ(args.int_value(flag), 4);
    ASSERT_TRUE(args.next(flag));
    EXPECT_EQ(args.u64_value(flag), 7u);
    ASSERT_TRUE(args.next(flag));
    EXPECT_DOUBLE_EQ(args.double_value(flag), 0.5);
    ASSERT_TRUE(args.next(flag));
    EXPECT_EQ(args.value(flag), "f.json");
    EXPECT_FALSE(args.next(flag));
}

TEST(CliArgs, TrailingGarbageIsRejectedWithFlagAndValue) {
    // `--threads 4x` used to mean 4 threads, `--port 80abc` port 80.
    EXPECT_EQ(int_error("--threads", "4x"),
              "--threads: expected an integer, got '4x'");
    EXPECT_EQ(int_error("--port", "80abc"),
              "--port: expected an integer, got '80abc'");
}

TEST(CliArgs, NonNumbersFailWithContextNotABareStoi) {
    EXPECT_EQ(int_error("--threads", "abc"),
              "--threads: expected an integer, got 'abc'");
    EXPECT_EQ(int_error("--threads", ""),
              "--threads: expected an integer, got ''");
    EXPECT_EQ(int_error("--threads", "99999999999"),
              "--threads: expected an integer, got '99999999999'");
    EXPECT_EQ(flag_error({"--seed", "-1"},
                         [](cli::Args& a, const std::string& f) {
                             a.u64_value(f);
                         }),
              "--seed: expected a non-negative integer, got '-1'");
    for (const char* bad : {"0.5x", "x", "inf", "nan", ""}) {
        EXPECT_EQ(flag_error({"--tol", bad},
                             [](cli::Args& a, const std::string& f) {
                                 a.double_value(f);
                             }),
                  std::string("--tol: expected a number, got '") + bad + "'");
    }
}

TEST(CliArgs, MissingValueNamesTheFlag) {
    EXPECT_EQ(flag_error({"--out"}, [](cli::Args& a, const std::string& f) {
                  a.value(f);
              }),
              "--out requires a value");
}

TEST(CliParsers, RankList) {
    EXPECT_EQ(cli::parse_rank_list("2,4,8"), (std::vector<int>{2, 4, 8}));
    // `--ranks 2,,4` used to die with a bare "stoi".
    try {
        cli::parse_rank_list("2,,4");
        FAIL() << "empty entry accepted";
    } catch (const InvalidArgumentError& e) {
        EXPECT_STREQ(e.what(), "--ranks: empty entry in '2,,4'");
    }
    EXPECT_THROW(cli::parse_rank_list(""), InvalidArgumentError);
    EXPECT_THROW(cli::parse_rank_list("2,"), InvalidArgumentError);
    EXPECT_THROW(cli::parse_rank_list("0"), InvalidArgumentError);
    try {
        cli::parse_rank_list("2,4x");
        FAIL() << "partial rank accepted";
    } catch (const InvalidArgumentError& e) {
        EXPECT_STREQ(e.what(), "--ranks: bad rank count '4x'");
    }
}

TEST(CliParsers, NoiseList) {
    EXPECT_EQ(cli::parse_noise_list("0,0.05"),
              (std::vector<double>{0.0, 0.05}));
    EXPECT_THROW(cli::parse_noise_list("0,,0.05"), InvalidArgumentError);
    EXPECT_THROW(cli::parse_noise_list("-0.1"), InvalidArgumentError);
    EXPECT_THROW(cli::parse_noise_list("0.1x"), InvalidArgumentError);
    EXPECT_THROW(cli::parse_noise_list("nan"), InvalidArgumentError);
}

TEST(CliParsers, SystemAndRevision) {
    EXPECT_EQ(cli::parse_system("jureca").name, hw::SystemSpec::jureca().name);
    EXPECT_EQ(cli::parse_system("DEEP").name, hw::SystemSpec::deep().name);
    EXPECT_THROW(cli::parse_system("summit"), InvalidArgumentError);
    EXPECT_FALSE(cli::git_revision().empty());
    EXPECT_THROW(cli::read_text_file("/nonexistent/file", "test"), Error);
}

TEST(CliCaseFilter, RepeatedCaseSelectsItOnce) {
    // `--case linear --case linear` used to report "unknown case name".
    const auto cases = eval::select_oracle_cases({"linear", "linear"});
    ASSERT_EQ(cases.size(), 1u);
    EXPECT_EQ(cases[0].name, "linear");
}

TEST(CliCaseFilter, KeepsSuiteOrderAndNamesTheUnknownCase) {
    const auto cases = eval::select_oracle_cases({"xlogx", "linear"});
    ASSERT_EQ(cases.size(), 2u);
    EXPECT_EQ(cases[0].name, "linear");
    EXPECT_EQ(cases[1].name, "xlogx");
    try {
        eval::select_oracle_cases({"linear", "nosuch"});
        FAIL() << "unknown case accepted";
    } catch (const InvalidArgumentError& e) {
        EXPECT_NE(std::string(e.what()).find("'nosuch'"), std::string::npos);
    }
}

/// A fresh scratch directory under the system temp dir.
class CliFiles : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("extradeep_test_cli_" + std::to_string(::getpid()));
        fs::create_directories(dir_);
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string write(const std::string& name, const std::string& text) {
        const std::string path = (dir_ / name).string();
        std::ofstream(path) << text;
        return path;
    }
    fs::path dir_;
};

TEST_F(CliFiles, WriteReportRoundTrips) {
    const std::string path = (dir_ / "bench.json").string();
    eval::write_report(path, "{}\n");
    EXPECT_EQ(cli::read_text_file(path, "test"), "{}\n");
    EXPECT_THROW(eval::write_report((dir_ / "no/such/dir.json").string(), "x"),
                 Error);
}

TEST_F(CliFiles, AtomicWriteReplacesTheFileAndLeavesNoTmp) {
    const std::string path = write("model.edpm", "old\n");
    write_file_atomically(path, [](const std::string& tmp) {
        std::ofstream(tmp) << "new\n";
    });
    EXPECT_EQ(cli::read_text_file(path, "test"), "new\n");
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(CliFiles, AtomicWriteThatThrowsKeepsTheOldFileAndNoTmp) {
    const std::string path = write("model.edpm", "old\n");
    EXPECT_THROW(write_file_atomically(path,
                                       [](const std::string& tmp) {
                                           std::ofstream(tmp) << "half";
                                           throw Error("writer failed");
                                       }),
                 Error);
    EXPECT_EQ(cli::read_text_file(path, "test"), "old\n");
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    // A rename that cannot happen (the target is a non-empty directory)
    // throws and removes the tmp file too.
    const std::string blocked = (dir_ / "blocked").string();
    fs::create_directories(blocked + "/inside");
    EXPECT_THROW(write_file_atomically(blocked,
                                       [](const std::string& tmp) {
                                           std::ofstream(tmp) << "x";
                                       }),
                 Error);
    EXPECT_FALSE(fs::exists(blocked + ".tmp"));
}

TEST(CliReport, WriteFailureOnAFullDeviceThrows) {
    if (!fs::exists("/dev/full")) {
        GTEST_SKIP() << "/dev/full not available";
    }
    // Opening succeeds; only the flush reveals ENOSPC.
    EXPECT_THROW(eval::write_report("/dev/full", std::string(1 << 16, 'x')),
                 Error);
}

std::vector<eval::MetricRecord> gate_records() {
    return {{"linear", 0.0, "exponent_recovery", 1.0, 1},
            {"linear", 0.05, "smape_in_range", 2.5, 1}};
}

TEST_F(CliFiles, ThresholdsRunnerExitCodeMatchesItsReport) {
    const std::string passing = write("pass.json", R"({"thresholds": [
        {"case": "*", "metric": "exponent_recovery", "min": 1.0}]})");
    const std::string breached = write("breach.json", R"({"thresholds": [
        {"case": "*", "metric": "smape_in_range", "max": 1.0}]})");
    const std::string unmatched = write("stale.json", R"({"thresholds": [
        {"case": "*", "metric": "no_such_metric", "min": 0.0}]})");

    struct Run {
        int code;
        std::string out;
        std::string err;
    };
    const auto run = [](const std::string& path) {
        testing::internal::CaptureStdout();
        testing::internal::CaptureStderr();
        const int code = eval::run_thresholds(gate_records(), path, "test");
        Run r{code, testing::internal::GetCapturedStdout(),
              testing::internal::GetCapturedStderr()};
        return r;
    };

    const Run ok = run(passing);
    EXPECT_EQ(ok.code, 0);
    EXPECT_NE(ok.out.find("gate: 1 rules, 1 records matched"),
              std::string::npos);
    EXPECT_NE(ok.out.find("test gate passed"), std::string::npos);
    EXPECT_EQ(ok.err.find("GATE VIOLATION"), std::string::npos);

    for (const std::string& path : {breached, unmatched}) {
        const Run bad = run(path);
        EXPECT_NE(bad.err.find("GATE VIOLATION: "), std::string::npos) << path;
        EXPECT_NE(bad.code, 0) << "reported a violation but exited 0: "
                               << path;
        EXPECT_NE(bad.err.find("test gate FAILED (1 violations)"),
                  std::string::npos);
    }
    // A malformed thresholds file is an error, not a violation report.
    const std::string malformed = write("bad.json", R"({"rules": []})");
    EXPECT_THROW(eval::run_thresholds(gate_records(), malformed, "test"),
                 ParseError);
}

}  // namespace
