#pragma once

#include <memory>
#include <string>
#include <vector>

#include "modeling/model.hpp"
#include "modeling/search_space.hpp"

namespace extradeep::modeling {

namespace detail {
struct DesignData;
}  // namespace detail

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

    /// Everything a single-parameter fit derives from its points alone: per
    /// hypothesis of the search space, the basis and the QR factorisations
    /// (with the rank decision) of the full system and of every
    /// leave-one-out subset. Immutable once built, so any number of threads
    /// may fit series on the same xs against one Design.
    class Design {
    public:
        Design(Design&&) noexcept;
        ~Design();

    private:
        friend class ModelGenerator;
        explicit Design(std::unique_ptr<const detail::DesignData> data);
        std::unique_ptr<const detail::DesignData> data_;
    };

    /// Factors this generator's single-parameter hypothesis space on `xs`.
    /// Throws InvalidArgumentError for fewer than min_points points.
    Design design(const std::vector<double>& xs) const;

    /// Fits `ys`, measured at the design's xs, against a design built by
    /// this generator: the same model, bit for bit, as fit(xs, ys), without
    /// factoring again.
    PerformanceModel fit(const Design& design, const std::vector<double>& ys,
                         const std::string& param_name = "x1") const;

private:
    FitOptions options_;
};

}  // namespace extradeep::modeling
