#include "common/student_t.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace stats = extradeep::stats;
using extradeep::InvalidArgumentError;

TEST(LogGamma, IntegerFactorials) {
    // Gamma(n) = (n-1)!
    EXPECT_NEAR(stats::log_gamma(1.0), 0.0, 1e-12);
    EXPECT_NEAR(stats::log_gamma(2.0), 0.0, 1e-12);
    EXPECT_NEAR(stats::log_gamma(5.0), std::log(24.0), 1e-10);
    EXPECT_NEAR(stats::log_gamma(11.0), std::log(3628800.0), 1e-8);
}

TEST(LogGamma, HalfInteger) {
    // Gamma(1/2) = sqrt(pi)
    EXPECT_NEAR(stats::log_gamma(0.5), 0.5 * std::log(M_PI), 1e-12);
}

TEST(IncompleteBeta, Endpoints) {
    EXPECT_DOUBLE_EQ(stats::incomplete_beta(2.0, 3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(stats::incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBeta, SymmetryRelation) {
    // I_x(a, b) == 1 - I_{1-x}(b, a)
    const double v1 = stats::incomplete_beta(2.5, 1.5, 0.3);
    const double v2 = stats::incomplete_beta(1.5, 2.5, 0.7);
    EXPECT_NEAR(v1, 1.0 - v2, 1e-12);
}

TEST(IncompleteBeta, UniformCase) {
    // I_x(1, 1) == x
    EXPECT_NEAR(stats::incomplete_beta(1.0, 1.0, 0.42), 0.42, 1e-12);
}

TEST(IncompleteBeta, ThrowsOnBadInput) {
    EXPECT_THROW(stats::incomplete_beta(0.0, 1.0, 0.5), InvalidArgumentError);
    EXPECT_THROW(stats::incomplete_beta(1.0, 1.0, 1.5), InvalidArgumentError);
}

TEST(StudentTCdf, SymmetricAroundZero) {
    EXPECT_NEAR(stats::student_t_cdf(0.0, 5.0), 0.5, 1e-12);
    EXPECT_NEAR(stats::student_t_cdf(1.3, 7.0) + stats::student_t_cdf(-1.3, 7.0),
                1.0, 1e-12);
}

TEST(StudentTCdf, KnownValueDof1) {
    // For dof=1 (Cauchy): CDF(1) = 3/4.
    EXPECT_NEAR(stats::student_t_cdf(1.0, 1.0), 0.75, 1e-10);
}

TEST(StudentTQuantile, InvertsCdf) {
    for (const double p : {0.05, 0.3, 0.5, 0.8, 0.975}) {
        const double q = stats::student_t_quantile(p, 6.0);
        EXPECT_NEAR(stats::student_t_cdf(q, 6.0), p, 1e-9);
    }
}

// Textbook two-sided 95 % critical values.
struct TCritCase {
    double dof;
    double expected;
};

class StudentTCriticalTest : public ::testing::TestWithParam<TCritCase> {};

TEST_P(StudentTCriticalTest, MatchesTable) {
    const auto [dof, expected] = GetParam();
    EXPECT_NEAR(stats::student_t_critical(0.95, dof), expected, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Table, StudentTCriticalTest,
    ::testing::Values(TCritCase{1, 12.706}, TCritCase{2, 4.303},
                      TCritCase{3, 3.182}, TCritCase{4, 2.776},
                      TCritCase{5, 2.571}, TCritCase{10, 2.228},
                      TCritCase{30, 2.042}, TCritCase{100, 1.984}));

TEST(StudentTCritical, ApproachesNormalForLargeDof) {
    EXPECT_NEAR(stats::student_t_critical(0.95, 1e6), 1.960, 1e-3);
}

TEST(StudentTQuantile, ThrowsOnBadInput) {
    EXPECT_THROW(stats::student_t_quantile(0.0, 5.0), InvalidArgumentError);
    EXPECT_THROW(stats::student_t_quantile(1.0, 5.0), InvalidArgumentError);
    EXPECT_THROW(stats::student_t_quantile(0.5, 0.0), InvalidArgumentError);
}

TEST(StudentTQuantile, MedianIsZero) {
    EXPECT_DOUBLE_EQ(stats::student_t_quantile(0.5, 3.0), 0.0);
}

// The memoised critical value must be the direct quantile bit for bit, on
// both sides of the memo bound and for confidences that bypass the memo.
TEST(StudentTCritical, MemoEqualsQuantileBitForBit) {
    for (const double confidence : {0.9, 0.95, 0.99}) {
        for (int dof = 1; dof <= stats::kCriticalMemoMaxDof + 8; ++dof) {
            const double want =
                stats::student_t_quantile(0.5 + confidence / 2.0, dof);
            // Twice: the first call may fill the slot, the second reads it.
            for (int pass = 0; pass < 2; ++pass) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              stats::student_t_critical(confidence, dof)),
                          std::bit_cast<std::uint64_t>(want))
                    << "confidence " << confidence << " dof " << dof;
            }
        }
    }
    // Non-integer dof bypasses the memo.
    EXPECT_EQ(stats::student_t_critical(0.95, 2.5),
              stats::student_t_quantile(0.975, 2.5));
}

TEST(StudentTCritical, FirstUseRaceFromFourThreads) {
    std::vector<std::vector<std::uint64_t>> seen(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&seen, t] {
            for (int dof = 1; dof <= stats::kCriticalMemoMaxDof; ++dof) {
                seen[t].push_back(std::bit_cast<std::uint64_t>(
                    stats::student_t_critical(0.95, dof)));
            }
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }
    for (int dof = 1; dof <= stats::kCriticalMemoMaxDof; ++dof) {
        const std::uint64_t want = std::bit_cast<std::uint64_t>(
            stats::student_t_quantile(0.975, dof));
        for (const auto& values : seen) {
            EXPECT_EQ(values[static_cast<std::size_t>(dof - 1)], want)
                << "dof " << dof;
        }
    }
}

TEST(StudentTCritical, ValidatesBeforeTheMemo) {
    EXPECT_THROW(stats::student_t_critical(0.0, 5.0), InvalidArgumentError);
    EXPECT_THROW(stats::student_t_critical(1.0, 5.0), InvalidArgumentError);
    EXPECT_THROW(stats::student_t_critical(0.95, 0.0), InvalidArgumentError);
}
