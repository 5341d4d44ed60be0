#include "common/linalg.hpp"

#include <algorithm>
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

/// S^{-1} from the Cholesky factor L of S, one cholesky_solve per unit
/// column.
Matrix cholesky_inverse(const Matrix& l) {
    const std::size_t n = l.rows();
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
    if (s.cols() != s.rows()) {
        throw InvalidArgumentError("invert_spd: matrix not square");
    }
    Matrix l;
    if (!cholesky(s, l)) {
        throw NumericalError("invert_spd: matrix is not positive definite");
    }
    return cholesky_inverse(l);
}

QrFactors qr_factor(const Matrix& a) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m < n) {
        throw InvalidArgumentError("qr_factor: fewer rows than columns");
    }

    // Householder QR, overwriting a working copy of A. Column k's reflector
    // v = (v_head[k], r(k+1.., k)) keeps its tail in place below the
    // diagonal, which nothing reads once column k is reduced.
    QrFactors f;
    f.qr = a;
    f.v_head.assign(n, 0.0);
    f.v_norm2.assign(n, 0.0);
    Matrix& r = f.qr;
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
        // Householder vector v = x - alpha*e1.
        const double head = r(k, k) - alpha;
        double vnorm2 = 0.0;
        vnorm2 += head * head;
        for (std::size_t i = k + 1; i < m; ++i) {
            vnorm2 += r(i, k) * r(i, k);
        }
        if (vnorm2 == 0.0) {
            continue;
        }
        f.v_head[k] = head;
        f.v_norm2[k] = vnorm2;
        // Apply H = I - 2 v v^T / (v^T v) to the trailing columns, then to
        // column k's diagonal last, since v's tail is column k itself.
        for (std::size_t c = k + 1; c < n; ++c) {
            double dot = 0.0;
            dot += head * r(k, c);
            for (std::size_t i = k + 1; i < m; ++i) {
                dot += r(i, k) * r(i, c);
            }
            const double d = 2.0 * dot / vnorm2;
            r(k, c) += -head * d;
            for (std::size_t i = k + 1; i < m; ++i) {
                r(i, c) += -r(i, k) * d;
            }
        }
        double dot = 0.0;
        dot += head * r(k, k);
        for (std::size_t i = k + 1; i < m; ++i) {
            dot += r(i, k) * r(i, k);
        }
        r(k, k) += -head * (2.0 * dot / vnorm2);
    }

    f.rank_tol = 1e-11 * (col_norm_max > 0 ? col_norm_max : 1.0);
    for (std::size_t k = 0; k < n; ++k) {
        if (std::abs(r(k, k)) <= f.rank_tol) {
            f.rank_deficient = true;
        }
    }
    if (f.rank_deficient) {
        f.a = a;
        return f;
    }
    // Unscaled covariance (A^T A)^{-1}. The Cholesky test of A^T A is part
    // of the rank decision: a system whose R passes but whose A^T A is not
    // numerically SPD is flagged too.
    Matrix l;
    if (cholesky(normal_equations(a), l)) {
        f.covariance_unscaled = cholesky_inverse(l);
    } else {
        f.rank_deficient = true;
    }
    return f;
}

double qr_solve(const QrFactors& factors, const std::vector<double>& b,
                std::vector<double>& x, std::vector<double>& rhs) {
    const Matrix& r = factors.qr;
    const std::size_t m = r.rows();
    const std::size_t n = r.cols();
    if (b.size() != m) {
        throw InvalidArgumentError("qr_solve: rhs size mismatch");
    }
    rhs.assign(b.begin(), b.end());
    for (std::size_t k = 0; k < n; ++k) {
        const double vnorm2 = factors.v_norm2[k];
        if (vnorm2 == 0.0) {
            continue;
        }
        const double head = factors.v_head[k];
        double dot = 0.0;
        dot += head * rhs[k];
        for (std::size_t i = k + 1; i < m; ++i) {
            dot += r(i, k) * rhs[i];
        }
        const double s = 2.0 * dot / vnorm2;
        rhs[k] -= s * head;
        for (std::size_t i = k + 1; i < m; ++i) {
            rhs[i] -= s * r(i, k);
        }
    }

    // Back substitution on the upper-triangular R.
    x.assign(n, 0.0);
    bool zero_pivot = false;
    for (std::size_t ii = n; ii-- > 0;) {
        if (std::abs(r(ii, ii)) <= factors.rank_tol) {
            x[ii] = 0.0;
            zero_pivot = true;
            continue;
        }
        double acc = rhs[ii];
        for (std::size_t c = ii + 1; c < n; ++c) {
            acc -= r(ii, c) * x[c];
        }
        x[ii] = acc / r(ii, ii);
    }
    double res2 = 0.0;
    if (!zero_pivot) {
        for (std::size_t i = n; i < m; ++i) {
            res2 += rhs[i] * rhs[i];
        }
    } else {
        // Zero pivots leave part of b out of the transformed tail, so the
        // residual comes from A directly.
        const Matrix& a = factors.a;
        for (std::size_t i = 0; i < m; ++i) {
            double pred = 0.0;
            for (std::size_t c = 0; c < n; ++c) {
                pred += a(i, c) * x[c];
            }
            const double d = pred - b[i];
            res2 += d * d;
        }
    }
    return std::sqrt(res2);
}

LeastSquaresResult qr_solve(const QrFactors& factors,
                            const std::vector<double>& b) {
    LeastSquaresResult out;
    std::vector<double> rhs;
    out.residual_norm = qr_solve(factors, b, out.coefficients, rhs);
    out.covariance_unscaled = factors.covariance_unscaled;
    out.rank_deficient = factors.rank_deficient;
    return out;
}

LeastSquaresResult least_squares(const Matrix& a, const std::vector<double>& b) {
    return qr_solve(qr_factor(a), b);
}

}  // namespace extradeep::linalg
