#include "common/student_t.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace extradeep::stats {

double log_gamma(double x) {
    // Lanczos approximation with g = 7, n = 9 coefficients.
    static const double coeffs[] = {
        0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
        771.32342877765313,   -176.61502916214059, 12.507343278686905,
        -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
    if (x < 0.5) {
        // Reflection formula keeps the approximation in its accurate range.
        return std::log(M_PI / std::sin(M_PI * x)) - log_gamma(1.0 - x);
    }
    x -= 1.0;
    double a = coeffs[0];
    const double t = x + 7.5;
    for (int i = 1; i < 9; ++i) {
        a += coeffs[i] / (x + static_cast<double>(i));
    }
    return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t + std::log(a);
}

namespace {

// Continued fraction for the incomplete beta function (Numerical Recipes
// style modified Lentz algorithm).
double beta_cf(double a, double b, double x) {
    constexpr int kMaxIter = 300;
    constexpr double kEps = 3.0e-14;
    constexpr double kFpMin = 1.0e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::abs(d) < kFpMin) d = kFpMin;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= kMaxIter; ++m) {
        const double m2 = 2.0 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::abs(d) < kFpMin) d = kFpMin;
        c = 1.0 + aa / c;
        if (std::abs(c) < kFpMin) c = kFpMin;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::abs(d) < kFpMin) d = kFpMin;
        c = 1.0 + aa / c;
        if (std::abs(c) < kFpMin) c = kFpMin;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::abs(del - 1.0) < kEps) {
            return h;
        }
    }
    throw NumericalError("incomplete_beta: continued fraction did not converge");
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
    if (a <= 0.0 || b <= 0.0) {
        throw InvalidArgumentError("incomplete_beta: a, b must be positive");
    }
    if (x < 0.0 || x > 1.0) {
        throw InvalidArgumentError("incomplete_beta: x outside [0, 1]");
    }
    if (x == 0.0) return 0.0;
    if (x == 1.0) return 1.0;
    const double ln_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                            a * std::log(x) + b * std::log(1.0 - x);
    const double front = std::exp(ln_front);
    // Use the symmetry relation to stay in the fast-converging region.
    if (x < (a + 1.0) / (a + b + 2.0)) {
        return front * beta_cf(a, b, x) / a;
    }
    return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double student_t_cdf(double t, double dof) {
    if (dof <= 0.0) {
        throw InvalidArgumentError("student_t_cdf: dof must be positive");
    }
    const double x = dof / (dof + t * t);
    const double p = 0.5 * incomplete_beta(dof / 2.0, 0.5, x);
    return t >= 0.0 ? 1.0 - p : p;
}

double student_t_quantile(double p, double dof) {
    if (p <= 0.0 || p >= 1.0) {
        throw InvalidArgumentError("student_t_quantile: p outside (0, 1)");
    }
    if (dof <= 0.0) {
        throw InvalidArgumentError("student_t_quantile: dof must be positive");
    }
    if (p == 0.5) return 0.0;
    // Bisection on the CDF: monotone, so this is robust for all dof.
    double lo = -1.0;
    double hi = 1.0;
    while (student_t_cdf(lo, dof) > p) lo *= 2.0;
    while (student_t_cdf(hi, dof) < p) hi *= 2.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (student_t_cdf(mid, dof) < p) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-12 * (1.0 + std::abs(hi))) {
            break;
        }
    }
    return 0.5 * (lo + hi);
}

namespace {

// Memo of the two-sided 95 % critical values, indexed by integer dof. A
// slot holds the bit pattern of the direct student_t_quantile result, or 0
// while not yet computed (no critical value is +0.0). Threads racing on a
// first use compute and store the same bits, so no lock is needed.
std::array<std::atomic<std::uint64_t>, kCriticalMemoMaxDof + 1> g_t95_memo{};

}  // namespace

double student_t_critical(double confidence, double dof) {
    if (confidence <= 0.0 || confidence >= 1.0) {
        throw InvalidArgumentError("student_t_critical: confidence outside (0, 1)");
    }
    const double p = 0.5 + confidence / 2.0;
    if (confidence != 0.95 || !(dof >= 1.0 && dof <= kCriticalMemoMaxDof) ||
        dof != std::floor(dof)) {
        return student_t_quantile(p, dof);
    }
    std::atomic<std::uint64_t>& slot =
        g_t95_memo[static_cast<std::size_t>(dof)];
    std::uint64_t bits = slot.load();
    if (bits == 0) {
        bits = std::bit_cast<std::uint64_t>(student_t_quantile(p, dof));
        slot.store(bits);
    }
    return std::bit_cast<double>(bits);
}

}  // namespace extradeep::stats
