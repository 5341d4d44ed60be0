#include "common/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "reference_least_squares.hpp"

using namespace extradeep::linalg;
using extradeep::InvalidArgumentError;
using extradeep::NumericalError;
using extradeep::Rng;

TEST(Matrix, ConstructionAndIndexing) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 1) = -2.0;
    EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, Transpose) {
    Matrix m(2, 3);
    m(0, 0) = 1;
    m(0, 1) = 2;
    m(0, 2) = 3;
    m(1, 0) = 4;
    m(1, 1) = 5;
    m(1, 2) = 6;
    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, Multiply) {
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    Matrix b(2, 2);
    b(0, 0) = 5;
    b(0, 1) = 6;
    b(1, 0) = 7;
    b(1, 1) = 8;
    const Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
    Matrix a(2, 3);
    Matrix b(2, 2);
    EXPECT_THROW(a * b, InvalidArgumentError);
}

TEST(SolveSpd, Identity) {
    Matrix s(2, 2);
    s(0, 0) = 1.0;
    s(1, 1) = 1.0;
    const auto x = solve_spd(s, {3.0, -4.0});
    EXPECT_DOUBLE_EQ(x[0], 3.0);
    EXPECT_DOUBLE_EQ(x[1], -4.0);
}

TEST(SolveSpd, KnownSystem) {
    // [[4,1],[1,3]] x = [1, 2]  ->  x = [1/11, 7/11]
    Matrix s(2, 2);
    s(0, 0) = 4;
    s(0, 1) = 1;
    s(1, 0) = 1;
    s(1, 1) = 3;
    const auto x = solve_spd(s, {1.0, 2.0});
    EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-12);
    EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-12);
}

TEST(SolveSpd, ThrowsOnIndefinite) {
    Matrix s(2, 2);
    s(0, 0) = 1;
    s(0, 1) = 2;
    s(1, 0) = 2;
    s(1, 1) = 1;  // eigenvalues 3, -1
    EXPECT_THROW(solve_spd(s, {1.0, 1.0}), NumericalError);
}

TEST(InvertSpd, InverseTimesOriginalIsIdentity) {
    Matrix s(3, 3);
    s(0, 0) = 4;
    s(0, 1) = 1;
    s(0, 2) = 0.5;
    s(1, 0) = 1;
    s(1, 1) = 3;
    s(1, 2) = 0.2;
    s(2, 0) = 0.5;
    s(2, 1) = 0.2;
    s(2, 2) = 2;
    const Matrix inv = invert_spd(s);
    const Matrix prod = s * inv;
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-10);
        }
    }
}

TEST(LeastSquares, ExactLineRecovery) {
    // y = 2 + 3x on 4 points: exact solution, zero residual.
    Matrix a(4, 2);
    std::vector<double> b(4);
    for (int i = 0; i < 4; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = i;
        b[i] = 2.0 + 3.0 * i;
    }
    const auto r = least_squares(a, b);
    ASSERT_FALSE(r.rank_deficient);
    EXPECT_NEAR(r.coefficients[0], 2.0, 1e-10);
    EXPECT_NEAR(r.coefficients[1], 3.0, 1e-10);
    EXPECT_NEAR(r.residual_norm, 0.0, 1e-9);
}

TEST(LeastSquares, OverdeterminedMinimizesResidual) {
    // Points (0,0), (1,1), (2,1): LS line is y = 1/6 + x/2.
    Matrix a(3, 2);
    a(0, 0) = 1;
    a(0, 1) = 0;
    a(1, 0) = 1;
    a(1, 1) = 1;
    a(2, 0) = 1;
    a(2, 1) = 2;
    const auto r = least_squares(a, {0.0, 1.0, 1.0});
    EXPECT_NEAR(r.coefficients[0], 1.0 / 6.0, 1e-10);
    EXPECT_NEAR(r.coefficients[1], 0.5, 1e-10);
}

TEST(LeastSquares, ResidualOrthogonalToColumns) {
    // Normal-equation property: A^T (A beta - b) == 0.
    Rng rng(7);
    Matrix a(8, 3);
    std::vector<double> b(8);
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            a(i, j) = rng.uniform(-2.0, 2.0);
        }
        b[i] = rng.uniform(-5.0, 5.0);
    }
    const auto r = least_squares(a, b);
    ASSERT_FALSE(r.rank_deficient);
    for (std::size_t j = 0; j < 3; ++j) {
        double dot = 0.0;
        for (std::size_t i = 0; i < 8; ++i) {
            double pred = 0.0;
            for (std::size_t c = 0; c < 3; ++c) {
                pred += a(i, c) * r.coefficients[c];
            }
            dot += a(i, j) * (pred - b[i]);
        }
        EXPECT_NEAR(dot, 0.0, 1e-9);
    }
}

TEST(LeastSquares, FlagsRankDeficiency) {
    // Duplicate columns.
    Matrix a(4, 2);
    for (int i = 0; i < 4; ++i) {
        a(i, 0) = i + 1.0;
        a(i, 1) = 2.0 * (i + 1.0);
    }
    const auto r = least_squares(a, {1.0, 2.0, 3.0, 4.0});
    EXPECT_TRUE(r.rank_deficient);
}

TEST(LeastSquares, ThrowsOnUnderdetermined) {
    Matrix a(2, 3);
    EXPECT_THROW(least_squares(a, {1.0, 2.0}), InvalidArgumentError);
}

TEST(LeastSquares, CovarianceMatchesNormalEquations) {
    Matrix a(5, 2);
    std::vector<double> b(5);
    for (int i = 0; i < 5; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = i + 1.0;
        b[i] = 3.0 * (i + 1.0) + (i % 2 ? 0.1 : -0.1);
    }
    const auto r = least_squares(a, b);
    ASSERT_FALSE(r.rank_deficient);
    // (A^T A) * cov == I
    const Matrix ata = a.transposed() * a;
    const Matrix prod = ata * r.covariance_unscaled;
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
        }
    }
}

TEST(LeastSquares, CovarianceBitIdenticalToColumnLoopNormalEquations) {
    // The covariance's A^T A is accumulated as row outer products; per
    // element that must be the same addition sequence as the classic
    // column-dot loop with its zero-skip, so the covariance is bit for bit
    // what invert_spd of the loop's result gives. The data mixes magnitudes
    // across ~30 orders with exact zeros and negatives, so any
    // reassociation or skipped element changes some bit.
    const std::size_t rows = 9, cols = 4;
    Rng rng(77);
    Matrix a(rows, cols);
    std::vector<double> b(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const double mag = std::pow(10.0, rng.uniform(-15.0, 15.0));
            const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
            a(r, c) = rng.bernoulli(0.1) ? 0.0 : sign * mag * rng.uniform01();
        }
        b[r] = rng.uniform(-1.0, 1.0);
    }
    Matrix reference(cols, cols);
    for (std::size_t i = 0; i < cols; ++i) {
        for (std::size_t k = 0; k < rows; ++k) {
            const double v = a(k, i);
            if (v == 0.0) continue;
            for (std::size_t j = 0; j < cols; ++j) {
                reference(i, j) += v * a(k, j);
            }
        }
    }
    const Matrix expected = invert_spd(reference);

    const auto result = least_squares(a, b);
    ASSERT_FALSE(result.rank_deficient);
    const Matrix& cov = result.covariance_unscaled;
    ASSERT_EQ(cov.rows(), cols);
    ASSERT_EQ(cov.cols(), cols);
    for (std::size_t i = 0; i < cols; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            const double x = expected(i, j);
            const double y = cov(i, j);
            EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
                << "(" << i << ", " << j << "): " << x << " vs " << y;
        }
    }
}

// Property sweep: random well-conditioned systems are solved to high
// accuracy.
class LeastSquaresRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LeastSquaresRandomTest, RecoversPlantedCoefficients) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 10;
    const std::size_t k = 3;
    Matrix a(n, k);
    std::vector<double> truth = {rng.uniform(-3, 3), rng.uniform(-3, 3),
                                 rng.uniform(-3, 3)};
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = rng.uniform(0.5, 4.0);
        a(i, 2) = a(i, 1) * a(i, 1) + rng.uniform(0.0, 1.0);
        for (std::size_t c = 0; c < k; ++c) {
            b[i] += a(i, c) * truth[c];
        }
    }
    const auto r = least_squares(a, b);
    ASSERT_FALSE(r.rank_deficient);
    for (std::size_t c = 0; c < k; ++c) {
        EXPECT_NEAR(r.coefficients[c], truth[c], 1e-7);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeastSquaresRandomTest,
                         ::testing::Range(1, 11));

namespace {

bool same_bits(double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void expect_same_bits(const std::vector<double>& x,
                      const std::vector<double>& y, const char* what) {
    ASSERT_EQ(x.size(), y.size()) << what;
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_TRUE(same_bits(x[i], y[i]))
            << what << "[" << i << "]: " << x[i] << " vs " << y[i];
    }
}

void expect_same_bits(const Matrix& x, const Matrix& y, const char* what) {
    ASSERT_EQ(x.rows(), y.rows()) << what;
    ASSERT_EQ(x.cols(), y.cols()) << what;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
            EXPECT_TRUE(same_bits(x(r, c), y(r, c)))
                << what << "(" << r << ", " << c << "): " << x(r, c)
                << " vs " << y(r, c);
        }
    }
}

void expect_same_result(const LeastSquaresResult& got,
                        const LeastSquaresResult& want) {
    expect_same_bits(got.coefficients, want.coefficients, "coefficients");
    EXPECT_TRUE(same_bits(got.residual_norm, want.residual_norm))
        << got.residual_norm << " vs " << want.residual_norm;
    EXPECT_EQ(got.rank_deficient, want.rank_deficient);
    expect_same_bits(got.covariance_unscaled, want.covariance_unscaled,
                     "covariance");
}

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
    Matrix a(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const double mag = std::pow(10.0, rng.uniform(-6.0, 6.0));
            a(r, c) = (rng.bernoulli(0.5) ? 1.0 : -1.0) * mag;
        }
    }
    return a;
}

}  // namespace

TEST(LeastSquares, QrSolveBitIdenticalToLeastSquares) {
    // One factorisation, many right-hand sides: every solve must match the
    // one-shot least_squares and the reference routine bit for bit -
    // coefficients, residual, rank flag and covariance - so a factorisation
    // can be shared across series without changing any fit.
    Rng rng(2024);
    std::vector<Matrix> systems;
    for (const auto& [rows, cols] :
         {std::pair<std::size_t, std::size_t>{5, 1}, {5, 2}, {6, 3},
          {10, 3}, {9, 4}, {4, 4}}) {
        systems.push_back(random_matrix(rng, rows, cols));
    }
    {
        // Exactly collinear: column 2 is 3 x column 1.
        Matrix a = random_matrix(rng, 7, 3);
        for (std::size_t r = 0; r < 7; ++r) {
            a(r, 2) = 3.0 * a(r, 1);
        }
        systems.push_back(a);
    }
    {
        // A zero column: no reflection, a zero pivot.
        Matrix a = random_matrix(rng, 6, 3);
        for (std::size_t r = 0; r < 6; ++r) {
            a(r, 1) = 0.0;
        }
        systems.push_back(a);
    }
    {
        // Rank deficient by rows: two distinct rows repeated.
        Matrix a(6, 3);
        for (std::size_t r = 0; r < 6; ++r) {
            const double x = r % 2 == 0 ? 2.0 : 8.0;
            a(r, 0) = 1.0;
            a(r, 1) = x;
            a(r, 2) = x * x;
        }
        systems.push_back(a);
    }
    {
        // Nearly collinear at 1e-8: R passes the pivot tolerance but A^T A
        // fails the Cholesky test, so the rank flag comes from Cholesky.
        Matrix a(5, 2);
        for (std::size_t r = 0; r < 5; ++r) {
            a(r, 0) = 1.0;
            a(r, 1) = 2.0 * (1.0 + 1e-8 * static_cast<double>(r));
        }
        const QrFactors f = qr_factor(a);
        EXPECT_TRUE(f.rank_deficient);
        EXPECT_EQ(f.a.rows(), 0u) << "expected no zero pivot in R";
        systems.push_back(a);
    }

    bool saw_zero_pivot = false;
    bool saw_full_rank = false;
    std::vector<double> x;
    std::vector<double> rhs;
    for (const Matrix& a : systems) {
        const QrFactors factors = qr_factor(a);
        saw_zero_pivot = saw_zero_pivot || factors.a.rows() != 0;
        saw_full_rank = saw_full_rank || !factors.rank_deficient;
        for (int series = 0; series < 25; ++series) {
            std::vector<double> b(a.rows());
            for (double& v : b) {
                v = rng.uniform(-1e3, 1e3);
            }
            const LeastSquaresResult want = reference::least_squares(a, b);
            expect_same_result(qr_solve(factors, b), want);
            expect_same_result(least_squares(a, b), want);
            // The buffer form, reusing x and rhs across series.
            const double residual = qr_solve(factors, b, x, rhs);
            expect_same_bits(x, want.coefficients, "x");
            EXPECT_TRUE(same_bits(residual, want.residual_norm));
        }
    }
    EXPECT_TRUE(saw_zero_pivot);
    EXPECT_TRUE(saw_full_rank);
}

TEST(LeastSquares, QrSolveRejectsRhsSizeMismatch) {
    Matrix a(4, 2, 1.0);
    a(1, 1) = 2.0;
    const QrFactors f = qr_factor(a);
    EXPECT_THROW(qr_solve(f, {1.0, 2.0}), InvalidArgumentError);
}
