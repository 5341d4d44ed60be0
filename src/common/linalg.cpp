#include "common/linalg.hpp"

#include <cmath>

#include "common/error.hpp"

namespace extradeep::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            t(c, r) = (*this)(r, c);
        }
    }
    return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
    if (cols_ != rhs.rows_) {
        throw InvalidArgumentError("Matrix multiply: dimension mismatch");
    }
    Matrix out(rows_, rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double v = (*this)(r, k);
            if (v == 0.0) continue;
            for (std::size_t c = 0; c < rhs.cols_; ++c) {
                out(r, c) += v * rhs(k, c);
            }
        }
    }
    return out;
}

namespace {

// Cholesky factor L with S = L L^T, in-place into a copy. Returns false if
// not SPD (within a relative tolerance on the diagonal).
bool cholesky(const Matrix& s, Matrix& l) {
    const std::size_t n = s.rows();
    if (s.cols() != n) return false;
    l = Matrix(n, n);
    double max_diag = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        max_diag = std::max(max_diag, std::abs(s(i, i)));
    }
    const double tol = 1e-13 * (max_diag > 0 ? max_diag : 1.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double acc = s(i, j);
            for (std::size_t k = 0; k < j; ++k) {
                acc -= l(i, k) * l(j, k);
            }
            if (i == j) {
                if (acc <= tol) return false;
                l(i, i) = std::sqrt(acc);
            } else {
                l(i, j) = acc / l(j, j);
            }
        }
    }
    return true;
}

std::vector<double> cholesky_solve(const Matrix& l, const std::vector<double>& b) {
    const std::size_t n = l.rows();
    std::vector<double> y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k) {
            acc -= l(i, k) * y[k];
        }
        y[i] = acc / l(i, i);
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k) {
            acc -= l(k, ii) * x[k];
        }
        x[ii] = acc / l(ii, ii);
    }
    return x;
}

/// A^T A, accumulated as row outer products in row order with the classic
/// zero-skip (rows whose i-th entry is exactly 0.0 add nothing to row i):
/// per output element this is the same addition sequence as the column loop
/// out(i, j) = sum_r a(r, i) * a(r, j), so the covariance is bit-identical
/// to it while the inner loop runs along contiguous rows.
Matrix normal_equations(const Matrix& a) {
    const std::size_t n = a.cols();
    Matrix out(n, n);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const double* row = a.row(r);
        for (std::size_t i = 0; i < n; ++i) {
            const double v = row[i];
            if (v == 0.0) {
                continue;
            }
            double* out_i = out.row(i);
            for (std::size_t j = 0; j < n; ++j) {
                out_i[j] += v * row[j];
            }
        }
    }
    return out;
}

}  // namespace

std::vector<double> solve_spd(const Matrix& s, const std::vector<double>& b) {
    if (s.rows() != s.cols() || s.rows() != b.size()) {
        throw InvalidArgumentError("solve_spd: dimension mismatch");
    }
    Matrix l;
    if (!cholesky(s, l)) {
        throw NumericalError("solve_spd: matrix is not positive definite");
    }
    return cholesky_solve(l, b);
}

Matrix invert_spd(const Matrix& s) {
    const std::size_t n = s.rows();
    if (s.cols() != n) {
        throw InvalidArgumentError("invert_spd: matrix not square");
    }
    Matrix l;
    if (!cholesky(s, l)) {
        throw NumericalError("invert_spd: matrix is not positive definite");
    }
    Matrix inv(n, n);
    std::vector<double> e(n, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
        e.assign(n, 0.0);
        e[c] = 1.0;
        const std::vector<double> col = cholesky_solve(l, e);
        for (std::size_t r = 0; r < n; ++r) {
            inv(r, c) = col[r];
        }
    }
    return inv;
}

LeastSquaresResult least_squares(const Matrix& a, const std::vector<double>& b) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m < n) {
        throw InvalidArgumentError("least_squares: fewer rows than columns");
    }
    if (b.size() != m) {
        throw InvalidArgumentError("least_squares: rhs size mismatch");
    }

    // Householder QR, overwriting a working copy of A; b is transformed along.
    Matrix r = a;
    std::vector<double> rhs = b;
    std::vector<double> dots;
    double col_norm_max = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        // Column norm below the pivot.
        double norm = 0.0;
        for (std::size_t i = k; i < m; ++i) {
            norm += r(i, k) * r(i, k);
        }
        norm = std::sqrt(norm);
        col_norm_max = std::max(col_norm_max, norm);
        if (norm == 0.0) {
            continue;  // handled as rank deficiency in back substitution
        }
        const double alpha = r(k, k) >= 0.0 ? -norm : norm;
        // Householder vector v = x - alpha*e1, stored temporarily.
        std::vector<double> v(m - k, 0.0);
        v[0] = r(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i) {
            v[i - k] = r(i, k);
        }
        double vnorm2 = 0.0;
        for (double x : v) vnorm2 += x * x;
        if (vnorm2 == 0.0) {
            continue;
        }
        // Apply H = I - 2 v v^T / (v^T v) to the trailing block and to rhs.
        // Loop-interchanged so the inner traversal runs along contiguous row
        // segments: dots[c - k] accumulates v^T R(:, c) in the same
        // ascending-i order as a per-column loop, so the result is
        // bit-identical to the column-at-a-time formulation.
        dots.assign(n - k, 0.0);
        for (std::size_t i = k; i < m; ++i) {
            const double vi = v[i - k];
            const double* ri = r.row(i) + k;
            for (std::size_t j = 0; j < n - k; ++j) {
                dots[j] += vi * ri[j];
            }
        }
        for (std::size_t j = 0; j < n - k; ++j) {
            dots[j] = 2.0 * dots[j] / vnorm2;
        }
        for (std::size_t i = k; i < m; ++i) {
            const double vi = -v[i - k];
            double* ri = r.row(i) + k;
            for (std::size_t j = 0; j < n - k; ++j) {
                ri[j] += vi * dots[j];
            }
        }
        {
            double dot = 0.0;
            for (std::size_t i = k; i < m; ++i) {
                dot += v[i - k] * rhs[i];
            }
            const double f = 2.0 * dot / vnorm2;
            for (std::size_t i = k; i < m; ++i) {
                rhs[i] -= f * v[i - k];
            }
        }
    }

    LeastSquaresResult out;
    out.coefficients.assign(n, 0.0);
    const double rank_tol = 1e-11 * (col_norm_max > 0 ? col_norm_max : 1.0);
    // Back substitution on the upper-triangular R.
    for (std::size_t ii = n; ii-- > 0;) {
        if (std::abs(r(ii, ii)) <= rank_tol) {
            out.coefficients[ii] = 0.0;
            out.rank_deficient = true;
            continue;
        }
        double acc = rhs[ii];
        for (std::size_t c = ii + 1; c < n; ++c) {
            acc -= r(ii, c) * out.coefficients[c];
        }
        out.coefficients[ii] = acc / r(ii, ii);
    }
    double res2 = 0.0;
    for (std::size_t i = n; i < m; ++i) {
        res2 += rhs[i] * rhs[i];
    }
    // Rank-deficient rows above n also contribute residual; recompute directly
    // for robustness when flagged.
    if (out.rank_deficient) {
        res2 = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            double pred = 0.0;
            for (std::size_t c = 0; c < n; ++c) {
                pred += a(i, c) * out.coefficients[c];
            }
            const double d = pred - b[i];
            res2 += d * d;
        }
    }
    out.residual_norm = std::sqrt(res2);

    // Unscaled covariance (A^T A)^{-1}; skip when rank deficient (the
    // hypothesis will be rejected by the model selector anyway).
    if (!out.rank_deficient) {
        try {
            out.covariance_unscaled = invert_spd(normal_equations(a));
        } catch (const NumericalError&) {
            out.rank_deficient = true;
        }
    }
    return out;
}

}  // namespace extradeep::linalg
