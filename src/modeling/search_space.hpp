#pragma once

#include <vector>

#include "modeling/model.hpp"

namespace extradeep::modeling {

/// Hypothesis search-space configuration for the PMNF (Eq. 5). The defaults
/// are Extra-P's standard exponent sets; they can be narrowed or widened by
/// the user to trade search cost against expressiveness.
struct SearchSpace {
    /// Polynomial exponents I (0 is allowed inside terms only when combined
    /// with a logarithm).
    std::vector<double> poly_exponents = default_poly_exponents();
    /// Logarithmic exponents J.
    std::vector<int> log_exponents = {0, 1, 2};
    /// Maximum number of non-constant terms per hypothesis (h in Eq. 5).
    /// Extra-P's default is a single term plus the constant; two-term
    /// hypotheses widen the space but overfit easily on five noisy points
    /// (see bench/ablation_modeling_points).
    int max_terms = 1;

    static std::vector<double> default_poly_exponents();

    /// All distinct single-parameter factors x^i log2(x)^j with
    /// (i, j) != (0, 0), for parameter index `param`.
    std::vector<Factor> single_parameter_factors(int param) const;

    /// All hypotheses for a single-parameter model: the constant-only
    /// hypothesis (empty term list), all 1-term hypotheses, and, when
    /// max_terms >= 2, all unordered 2-term combinations. Each hypothesis is
    /// a list of terms whose coefficients are still to be fitted.
    std::vector<std::vector<Term>> single_parameter_hypotheses(int param) const;

    /// Multi-parameter hypotheses built from the best per-parameter factors
    /// (Extra-P's heuristic): additive combinations (one term per parameter)
    /// and multiplicative combinations (one term joining all parameters).
    /// `best_factors[p]` are candidate factors for parameter p.
    std::vector<std::vector<Term>> multi_parameter_hypotheses(
        const std::vector<std::vector<Factor>>& best_factors) const;
};

}  // namespace extradeep::modeling
