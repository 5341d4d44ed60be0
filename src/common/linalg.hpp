#pragma once

#include <cstddef>
#include <vector>

namespace extradeep::linalg {

/// Minimal dense row-major matrix used by the PMNF fitting code. Sizes are
/// tiny (design matrices of ~5-30 rows, 2-5 columns), so the implementation
/// favours clarity over blocking/vectorisation.
class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    double& operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /// Pointer to the contiguous storage of row r.
    double* row(std::size_t r) { return data_.data() + r * cols_; }
    const double* row(std::size_t r) const { return data_.data() + r * cols_; }

    Matrix transposed() const;
    Matrix operator*(const Matrix& rhs) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// Result of an ordinary-least-squares solve.
struct LeastSquaresResult {
    std::vector<double> coefficients;  ///< beta minimising ||A beta - b||_2
    double residual_norm = 0.0;        ///< ||A beta - b||_2 at the solution
    /// Unscaled parameter covariance (A^T A)^{-1}; multiply by the residual
    /// variance s^2 to obtain Var(beta). Row-major, cols x cols.
    Matrix covariance_unscaled;
    bool rank_deficient = false;  ///< true if A was (numerically) rank deficient
};

/// Solves the overdetermined system A x ~= b in the least-squares sense via
/// Householder QR with column norm checks. A must have rows >= cols. If A is
/// numerically rank deficient the affected coefficients are set to zero and
/// `rank_deficient` is flagged rather than throwing, because the PMNF search
/// legitimately generates collinear hypotheses that should simply score badly.
LeastSquaresResult least_squares(const Matrix& a, const std::vector<double>& b);

/// Solves the square symmetric positive definite system S x = b via Cholesky.
/// Throws NumericalError if S is not SPD.
std::vector<double> solve_spd(const Matrix& s, const std::vector<double>& b);

/// Inverse of a small SPD matrix via Cholesky. Throws NumericalError if the
/// matrix is not SPD.
Matrix invert_spd(const Matrix& s);

}  // namespace extradeep::linalg
