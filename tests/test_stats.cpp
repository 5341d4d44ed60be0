#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.hpp"

namespace stats = extradeep::stats;
using extradeep::InvalidArgumentError;

TEST(Mean, SimpleValues) {
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::mean(v), 2.5);
}

TEST(Mean, SingleValue) {
    const std::vector<double> v = {7.0};
    EXPECT_DOUBLE_EQ(stats::mean(v), 7.0);
}

TEST(Mean, ThrowsOnEmpty) {
    EXPECT_THROW(stats::mean({}), InvalidArgumentError);
}

TEST(Sum, KahanCompensationKeepsPrecision) {
    // Many tiny values next to one huge value: naive summation in the other
    // order would lose them entirely (1e10 + 1e-10 == 1e10 in double).
    std::vector<double> v(1000000, 1e-10);
    v.push_back(1e10);
    const double result = stats::sum(v);
    // The final rounding at magnitude 1e10 has ulp ~1.9e-6; Kahan keeps the
    // tiny contributions up to that limit.
    EXPECT_NEAR(result - 1e10, 1e-4, 2e-6);
    double naive = 1e10;
    for (int i = 0; i < 1000000; ++i) {
        naive += 1e-10;
    }
    EXPECT_DOUBLE_EQ(naive, 1e10);  // the naive order drops everything
}

TEST(Median, OddCount) {
    const std::vector<double> v = {5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(stats::median(v), 3.0);
}

TEST(Median, EvenCountAveragesMiddlePair) {
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(stats::median(v), 2.5);
}

TEST(Median, DoesNotModifyInput) {
    const std::vector<double> v = {3.0, 1.0, 2.0};
    stats::median(v);
    EXPECT_EQ(v[0], 3.0);
    EXPECT_EQ(v[1], 1.0);
}

TEST(Median, InPlaceMatchesSortedCopy) {
    // Bit-level: the in-place selection must return exactly what the
    // sorting median returns, and only permute its input.
    const auto check = [](const std::vector<double>& values) {
        std::vector<double> column = values;
        const double got = stats::median_in_place(column);
        const double want = stats::median(values);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "n=" << values.size() << " got " << got << " want " << want;
        std::vector<double> a = values;
        std::sort(a.begin(), a.end());
        std::sort(column.begin(), column.end());
        EXPECT_EQ(a, column) << "n=" << values.size();
    };
    check({7.5});                             // single element
    check({5.0, 1.0, 3.0});                   // odd
    check({4.0, 1.0, 3.0, 2.0});              // even
    check({2.0, 2.0, 2.0, 1.0, 3.0, 2.0});    // ties around the middle
    check({1.0, 2.0, 2.0, 3.0});              // even, tied middle pair
    check({0.1, 0.2});                        // 0.5 * (0.1 + 0.2) rounding
    check({1e300, 1e300, -1e300, 5e-324});    // extreme magnitudes
    std::mt19937_64 gen(7);
    std::uniform_int_distribution<int> size(1, 64);
    std::uniform_int_distribution<int> small(0, 4);
    std::uniform_real_distribution<double> wide(-1e6, 1e6);
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<double> v(static_cast<std::size_t>(size(gen)));
        const bool ties = trial % 2 == 0;
        for (double& x : v) {
            x = ties ? 0.25 * small(gen) : wide(gen);
        }
        check(v);
    }
    std::vector<double> empty;
    EXPECT_THROW(stats::median_in_place(empty), InvalidArgumentError);
}

TEST(Median, RobustToOutlier) {
    const std::vector<double> v = {1.0, 1.1, 0.9, 1.05, 1000.0};
    EXPECT_NEAR(stats::median(v), 1.05, 1e-12);
}

TEST(Quantile, Endpoints) {
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(stats::quantile(v, 1.0), 4.0);
}

TEST(Quantile, LinearInterpolation) {
    const std::vector<double> v = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(stats::quantile(v, 0.25), 2.5);
}

TEST(Quantile, MedianAgreement) {
    const std::vector<double> v = {1.0, 9.0, 5.0, 3.0, 7.0};
    EXPECT_DOUBLE_EQ(stats::quantile(v, 0.5), stats::median(v));
}

TEST(Quantile, ThrowsOutOfRange) {
    const std::vector<double> v = {1.0};
    EXPECT_THROW(stats::quantile(v, -0.1), InvalidArgumentError);
    EXPECT_THROW(stats::quantile(v, 1.1), InvalidArgumentError);
}

TEST(Stddev, KnownValue) {
    const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    // Population variance is 4; sample variance is 32/7.
    EXPECT_NEAR(stats::stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stddev, ZeroForSingleValue) {
    const std::vector<double> v = {42.0};
    EXPECT_DOUBLE_EQ(stats::stddev(v), 0.0);
}

TEST(CoefficientOfVariation, Basic) {
    const std::vector<double> v = {9.0, 10.0, 11.0};
    EXPECT_NEAR(stats::coefficient_of_variation(v), 0.1, 1e-12);
}

TEST(CoefficientOfVariation, ThrowsOnZeroMean) {
    const std::vector<double> v = {-1.0, 1.0};
    EXPECT_THROW(stats::coefficient_of_variation(v), InvalidArgumentError);
}

TEST(Smape, PerfectPredictionIsZero) {
    const std::vector<double> a = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(stats::smape(a, a), 0.0);
}

TEST(Smape, SymmetricInArguments) {
    const std::vector<double> p = {1.0, 2.0};
    const std::vector<double> a = {2.0, 3.0};
    EXPECT_DOUBLE_EQ(stats::smape(p, a), stats::smape(a, p));
}

TEST(Smape, BothZeroContributesNothing) {
    const std::vector<double> p = {0.0, 1.0};
    const std::vector<double> a = {0.0, 1.0};
    EXPECT_DOUBLE_EQ(stats::smape(p, a), 0.0);
}

TEST(Smape, BoundedBy200Percent) {
    const std::vector<double> p = {100.0};
    const std::vector<double> a = {0.001};
    EXPECT_LE(stats::smape(p, a), 200.0);
    EXPECT_GT(stats::smape(p, a), 199.0);
}

TEST(Smape, ThrowsOnSizeMismatch) {
    EXPECT_THROW(stats::smape(std::vector<double>{1.0},
                              std::vector<double>{1.0, 2.0}),
                 InvalidArgumentError);
}

TEST(Mape, KnownValue) {
    const std::vector<double> p = {110.0, 90.0};
    const std::vector<double> a = {100.0, 100.0};
    EXPECT_NEAR(stats::mape(p, a), 10.0, 1e-12);
}

TEST(Mape, SkipsZeroActuals) {
    const std::vector<double> p = {5.0, 110.0};
    const std::vector<double> a = {0.0, 100.0};
    EXPECT_NEAR(stats::mape(p, a), 10.0, 1e-12);
}

TEST(Mape, ThrowsWhenAllActualsZero) {
    const std::vector<double> p = {1.0};
    const std::vector<double> a = {0.0};
    EXPECT_THROW(stats::mape(p, a), InvalidArgumentError);
}

TEST(PercentError, Basic) {
    EXPECT_DOUBLE_EQ(stats::percent_error(110.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(stats::percent_error(90.0, 100.0), 10.0);
}

TEST(PercentError, ThrowsOnZeroActual) {
    EXPECT_THROW(stats::percent_error(1.0, 0.0), InvalidArgumentError);
}

TEST(Rss, KnownValue) {
    const std::vector<double> p = {1.0, 2.0};
    const std::vector<double> a = {0.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::rss(p, a), 5.0);
}

TEST(RSquared, PerfectFit) {
    const std::vector<double> a = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(stats::r_squared(a, a), 1.0);
}

TEST(RSquared, MeanPredictorScoresZero) {
    const std::vector<double> a = {1.0, 2.0, 3.0};
    const std::vector<double> p = {2.0, 2.0, 2.0};
    EXPECT_NEAR(stats::r_squared(p, a), 0.0, 1e-12);
}

TEST(RSquared, ConstantActuals) {
    const std::vector<double> a = {2.0, 2.0};
    EXPECT_DOUBLE_EQ(stats::r_squared(a, a), 1.0);
    const std::vector<double> p = {1.0, 3.0};
    EXPECT_DOUBLE_EQ(stats::r_squared(p, a), 0.0);
}

TEST(MinMax, Basic) {
    const std::vector<double> v = {3.0, -1.0, 2.0};
    EXPECT_DOUBLE_EQ(stats::min(v), -1.0);
    EXPECT_DOUBLE_EQ(stats::max(v), 3.0);
}

TEST(RunToRunVariation, KnownValue) {
    const std::vector<double> v = {90.0, 100.0, 110.0};
    EXPECT_NEAR(stats::run_to_run_variation(v), 20.0, 1e-12);
}

TEST(RunToRunVariation, ZeroForIdenticalRuns) {
    const std::vector<double> v = {5.0, 5.0, 5.0};
    EXPECT_DOUBLE_EQ(stats::run_to_run_variation(v), 0.0);
}

TEST(RunToRunVariation, ThrowsOnZeroMedian) {
    const std::vector<double> v = {-1.0, 0.0, 1.0};
    EXPECT_THROW(stats::run_to_run_variation(v), InvalidArgumentError);
}

// Property sweep: the median of any symmetric three-point set is the center.
class MedianSymmetryTest : public ::testing::TestWithParam<double> {};

TEST_P(MedianSymmetryTest, CenterOfSymmetricTriple) {
    const double c = GetParam();
    const std::vector<double> v = {c - 1.0, c, c + 1.0};
    EXPECT_DOUBLE_EQ(stats::median(v), c);
}

INSTANTIATE_TEST_SUITE_P(Centers, MedianSymmetryTest,
                         ::testing::Values(-100.0, -1.0, 0.0, 0.5, 3.0, 1e6));

// Property sweep: quantile is monotone in q.
class QuantileMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(QuantileMonotoneTest, MonotoneInQ) {
    const std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 0.5};
    const double q = GetParam();
    EXPECT_LE(stats::quantile(v, q * 0.5), stats::quantile(v, q));
    EXPECT_LE(stats::quantile(v, q), stats::quantile(v, 0.5 + q * 0.5));
}

INSTANTIATE_TEST_SUITE_P(Qs, QuantileMonotoneTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));
