#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace extradeep::stats {

/// Arithmetic mean of a non-empty sample. Throws InvalidArgumentError on
/// empty input.
double mean(std::span<const double> values);

/// Median of a non-empty sample (average of the two middle elements for even
/// sizes). Does not require the input to be sorted. Throws on empty input.
double median(std::span<const double> values);

/// median() without the copy: selects the one or two middle elements of
/// `values` in place (std::nth_element), leaving them in an unspecified
/// order. For input without both signed zeros it returns the same bits as
/// median(), which sorts a copy: the selected elements compare equal to
/// the sorted copy's middle ones, and equal finite doubles other than
/// +0.0/-0.0 have equal bits. Throws on empty input.
double median_in_place(std::span<double> values);

/// Linear-interpolation quantile (type-7, the numpy default). `q` must lie in
/// [0, 1]. Throws on empty input or out-of-range `q`.
double quantile(std::span<const double> values, double q);

/// Unbiased (n-1) sample standard deviation; returns 0 for samples of size 1.
double stddev(std::span<const double> values);

/// Coefficient of variation: stddev / |mean|. Throws if the mean is zero.
double coefficient_of_variation(std::span<const double> values);

/// Symmetric mean absolute percentage error between predictions and
/// actuals, in percent, following the Extra-P convention:
///   SMAPE = 100/n * sum |p_i - a_i| / ((|p_i| + |a_i|) / 2)
/// Pairs where both values are zero contribute zero error. Throws if the
/// spans differ in length or are empty.
double smape(std::span<const double> predicted, std::span<const double> actual);

/// Mean absolute percentage error in percent, |p - a| / |a| averaged.
/// Pairs with a == 0 are skipped; throws if all pairs are skipped.
double mape(std::span<const double> predicted, std::span<const double> actual);

/// Percentage error of a single prediction against a single actual value,
/// in percent: 100 * |p - a| / |a|. Throws if `actual` is zero.
double percent_error(double predicted, double actual);

/// Residual sum of squares.
double rss(std::span<const double> predicted, std::span<const double> actual);

/// Coefficient of determination R^2 = 1 - RSS/TSS. Returns 1.0 when the
/// actuals are constant and perfectly predicted, 0.0 when constant but
/// mispredicted.
double r_squared(std::span<const double> predicted, std::span<const double> actual);

/// Sum of all values (Kahan-compensated).
double sum(std::span<const double> values);

/// Minimum / maximum of a non-empty sample.
double min(std::span<const double> values);
double max(std::span<const double> values);

/// Run-to-run variation of repeated measurements of the same configuration,
/// in percent: 100 * (max - min) / median. Used to report noise levels as in
/// the paper's case study (Sec. 2.3). Throws on empty input or zero median.
double run_to_run_variation(std::span<const double> values);

}  // namespace extradeep::stats
