#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace extradeep::stats {

namespace {

void require_non_empty(std::span<const double> values, const char* fn) {
    if (values.empty()) {
        throw InvalidArgumentError(std::string(fn) + ": empty input");
    }
}

std::vector<double> sorted_copy(std::span<const double> values) {
    std::vector<double> v(values.begin(), values.end());
    std::sort(v.begin(), v.end());
    return v;
}

}  // namespace

double sum(std::span<const double> values) {
    // Kahan summation: aggregation sums thousands of kernel durations whose
    // magnitudes span microseconds to minutes.
    double s = 0.0;
    double c = 0.0;
    for (double x : values) {
        double y = x - c;
        double t = s + y;
        c = (t - s) - y;
        s = t;
    }
    return s;
}

double mean(std::span<const double> values) {
    require_non_empty(values, "mean");
    return sum(values) / static_cast<double>(values.size());
}

double median(std::span<const double> values) {
    require_non_empty(values, "median");
    std::vector<double> v = sorted_copy(values);
    const std::size_t n = v.size();
    if (n % 2 == 1) {
        return v[n / 2];
    }
    return 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double median_in_place(std::span<double> values) {
    require_non_empty(values, "median");
    const std::size_t n = values.size();
    const auto mid = values.begin() + static_cast<std::ptrdiff_t>(n / 2);
    std::nth_element(values.begin(), mid, values.end());
    if (n % 2 == 1) {
        return *mid;
    }
    // Everything before mid is <= *mid; its maximum is the lower middle.
    return 0.5 * (*std::max_element(values.begin(), mid) + *mid);
}

double quantile(std::span<const double> values, double q) {
    require_non_empty(values, "quantile");
    if (q < 0.0 || q > 1.0) {
        throw InvalidArgumentError("quantile: q outside [0, 1]");
    }
    std::vector<double> v = sorted_copy(values);
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double stddev(std::span<const double> values) {
    require_non_empty(values, "stddev");
    if (values.size() == 1) {
        return 0.0;
    }
    const double m = mean(values);
    double acc = 0.0;
    for (double x : values) {
        acc += (x - m) * (x - m);
    }
    return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double coefficient_of_variation(std::span<const double> values) {
    const double m = mean(values);
    if (m == 0.0) {
        throw InvalidArgumentError("coefficient_of_variation: zero mean");
    }
    return stddev(values) / std::abs(m);
}

double smape(std::span<const double> predicted, std::span<const double> actual) {
    if (predicted.size() != actual.size()) {
        throw InvalidArgumentError("smape: size mismatch");
    }
    require_non_empty(actual, "smape");
    double acc = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        const double denom = (std::abs(predicted[i]) + std::abs(actual[i])) / 2.0;
        if (denom > 0.0) {
            acc += std::abs(predicted[i] - actual[i]) / denom;
        }
    }
    return 100.0 * acc / static_cast<double>(actual.size());
}

double mape(std::span<const double> predicted, std::span<const double> actual) {
    if (predicted.size() != actual.size()) {
        throw InvalidArgumentError("mape: size mismatch");
    }
    require_non_empty(actual, "mape");
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (actual[i] != 0.0) {
            acc += std::abs(predicted[i] - actual[i]) / std::abs(actual[i]);
            ++n;
        }
    }
    if (n == 0) {
        throw InvalidArgumentError("mape: all actual values are zero");
    }
    return 100.0 * acc / static_cast<double>(n);
}

double percent_error(double predicted, double actual) {
    if (actual == 0.0) {
        throw InvalidArgumentError("percent_error: actual value is zero");
    }
    return 100.0 * std::abs(predicted - actual) / std::abs(actual);
}

double rss(std::span<const double> predicted, std::span<const double> actual) {
    if (predicted.size() != actual.size()) {
        throw InvalidArgumentError("rss: size mismatch");
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        const double d = predicted[i] - actual[i];
        acc += d * d;
    }
    return acc;
}

double r_squared(std::span<const double> predicted, std::span<const double> actual) {
    require_non_empty(actual, "r_squared");
    const double residual = rss(predicted, actual);
    const double m = mean(actual);
    double tss = 0.0;
    for (double a : actual) {
        tss += (a - m) * (a - m);
    }
    if (tss == 0.0) {
        return residual == 0.0 ? 1.0 : 0.0;
    }
    return 1.0 - residual / tss;
}

double min(std::span<const double> values) {
    require_non_empty(values, "min");
    return *std::min_element(values.begin(), values.end());
}

double max(std::span<const double> values) {
    require_non_empty(values, "max");
    return *std::max_element(values.begin(), values.end());
}

double run_to_run_variation(std::span<const double> values) {
    require_non_empty(values, "run_to_run_variation");
    const double med = median(values);
    if (med == 0.0) {
        throw InvalidArgumentError("run_to_run_variation: zero median");
    }
    return 100.0 * (max(values) - min(values)) / std::abs(med);
}

}  // namespace extradeep::stats
