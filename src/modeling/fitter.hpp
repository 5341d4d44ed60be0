#pragma once

#include <string>
#include <vector>

#include "modeling/model.hpp"
#include "modeling/search_space.hpp"

namespace extradeep::modeling {

struct FitOptions {
    SearchSpace space;
    /// Minimum measurement points required per fit (paper Sec. 2.3: five
    /// points are the minimum to tell logarithmic, linear and polynomial
    /// growth apart).
    int min_points = 5;
    /// Mild parsimony bias: the selection score is
    /// cv_smape * (1 + term_penalty * #terms), so a more complex hypothesis
    /// must beat a simpler one by a margin.
    double term_penalty = 0.005;
    /// Number of best per-parameter factors combined into multi-parameter
    /// hypotheses.
    int multi_param_top_factors = 3;
    /// Threads model_kernels spends across kernels; ModelGenerator::fit never
    /// reads it. 1 = serial; 0 or negative = hardware concurrency.
    int num_threads = 1;
};

/// Creates PMNF performance models from empirical measurements, following
/// Extra-P's methodology (paper Sec. 2.3.1): instantiate the PMNF with
/// exponents from the search space, fit coefficients by ordinary least
/// squares, and select the hypothesis with the smallest cross-validated
/// SMAPE (leave-one-out).
class ModelGenerator {
public:
    ModelGenerator() = default;
    explicit ModelGenerator(FitOptions options);

    const FitOptions& options() const { return options_; }

    /// Fits a model to measurement points with one or more parameters.
    /// `points[i]` holds the parameter values of measurement i (all the same
    /// dimension), `values[i]` the derived metric value (e.g. F_kernel per
    /// epoch). Throws InvalidArgumentError on inconsistent input or fewer
    /// than min_points measurements.
    PerformanceModel fit(const std::vector<std::vector<double>>& points,
                         const std::vector<double>& values,
                         std::vector<std::string> param_names = {"x1"}) const;

    /// Single-parameter convenience overload.
    PerformanceModel fit(const std::vector<double>& xs,
                         const std::vector<double>& ys,
                         const std::string& param_name = "x1") const;

private:
    FitOptions options_;
};

}  // namespace extradeep::modeling
