#pragma once

// Reference one-shot least squares for the differential tests of
// linalg::qr_factor / linalg::qr_solve and of the fitter's shared designs:
// the single Householder routine that factored and solved in one pass,
// before the factorisation was split from the solve. It must stay
// arithmetically identical to that routine; the production code is
// compared against it bit for bit.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/linalg.hpp"

namespace reference {

using extradeep::linalg::invert_spd;
using extradeep::linalg::LeastSquaresResult;
using extradeep::linalg::Matrix;

/// A^T A as row outer products with the zero-skip.
inline Matrix normal_equations(const Matrix& a) {
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


inline LeastSquaresResult least_squares(const Matrix& a,
                                         const std::vector<double>& b) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m < n) {
        throw extradeep::InvalidArgumentError(
            "least_squares: fewer rows than columns");
    }
    if (b.size() != m) {
        throw extradeep::InvalidArgumentError(
            "least_squares: rhs size mismatch");
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
        } catch (const extradeep::NumericalError&) {
            out.rank_deficient = true;
        }
    }
    return out;
}

}  // namespace reference
