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

/// Householder QR factorisation of a tall matrix A (rows >= cols), with
/// everything least_squares derives from A alone: the reflectors, R, the
/// rank decision and the covariance. One factorisation serves any number of
/// right-hand sides through qr_solve, bit-identical to least_squares on each.
struct QrFactors {
    /// Row-major rows x cols: R on and above the diagonal; below it, the
    /// tail v[1..] of each column's Householder vector.
    Matrix qr;
    /// Per column k: the head v[0] of its Householder vector and v^T v.
    /// v^T v == 0 marks a column that needed no reflection.
    std::vector<double> v_head;
    std::vector<double> v_norm2;
    /// |R(k,k)| at or below this is a zero pivot: its coefficient solves to 0.
    double rank_tol = 0.0;
    /// A zero pivot in R, or A^T A failing the Cholesky test; qr_solve
    /// reports it as LeastSquaresResult::rank_deficient.
    bool rank_deficient = false;
    /// (A^T A)^{-1}; empty when rank_deficient.
    Matrix covariance_unscaled;
    /// A itself, kept only when R has a zero pivot: the residual of such a
    /// system is recomputed from A.
    Matrix a;
};

/// Factors A for least squares. A must have rows >= cols. Rank deficiency
/// is flagged rather than thrown, because the PMNF search legitimately
/// generates collinear hypotheses that should simply score badly.
QrFactors qr_factor(const Matrix& a);

/// Solves A x ~= b in the least-squares sense with the factors of A: the
/// reflections applied to b, then back substitution on R. Writes the
/// coefficients into `x` (zero for zero pivots), uses `rhs` as scratch, and
/// returns ||A x - b||_2. Allocates nothing once the buffers have capacity,
/// so a loop over many right-hand sides can reuse them.
double qr_solve(const QrFactors& factors, const std::vector<double>& b,
                std::vector<double>& x, std::vector<double>& rhs);

/// The same solve as a full LeastSquaresResult, with the covariance and the
/// rank flag of the factorisation.
LeastSquaresResult qr_solve(const QrFactors& factors,
                            const std::vector<double>& b);

/// Solves the overdetermined system A x ~= b in the least-squares sense:
/// exactly qr_solve(qr_factor(a), b).
LeastSquaresResult least_squares(const Matrix& a, const std::vector<double>& b);

/// Solves the square symmetric positive definite system S x = b via Cholesky.
/// Throws NumericalError if S is not SPD.
std::vector<double> solve_spd(const Matrix& s, const std::vector<double>& b);

/// Inverse of a small SPD matrix via Cholesky. Throws NumericalError if the
/// matrix is not SPD.
Matrix invert_spd(const Matrix& s);

}  // namespace extradeep::linalg
