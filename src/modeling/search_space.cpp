#include "modeling/search_space.hpp"

namespace extradeep::modeling {

std::vector<double> SearchSpace::default_poly_exponents() {
    // Extra-P's default exponent set, covering sublinear through cubic
    // growth with common fractional exponents.
    return {0.0,       1.0 / 4.0, 1.0 / 3.0, 1.0 / 2.0, 2.0 / 3.0,
            3.0 / 4.0, 1.0,       5.0 / 4.0, 4.0 / 3.0, 3.0 / 2.0,
            5.0 / 3.0, 7.0 / 4.0, 2.0,       9.0 / 4.0, 7.0 / 3.0,
            5.0 / 2.0, 8.0 / 3.0, 3.0};
}

std::vector<Factor> SearchSpace::single_parameter_factors(int param) const {
    std::vector<Factor> out;
    for (const double i : poly_exponents) {
        for (const int j : log_exponents) {
            if (i == 0.0 && j == 0) {
                continue;  // the constant is handled separately
            }
            Factor f;
            f.param = param;
            f.poly_exp = i;
            f.log_exp = j;
            out.push_back(f);
        }
    }
    return out;
}

std::vector<std::vector<Term>> SearchSpace::single_parameter_hypotheses(
    int param) const {
    const std::vector<Factor> factors = single_parameter_factors(param);
    std::vector<std::vector<Term>> out;
    out.push_back({});  // constant-only hypothesis
    for (const auto& f : factors) {
        Term t;
        t.factors = {f};
        out.push_back({t});
    }
    if (max_terms >= 2) {
        for (std::size_t a = 0; a < factors.size(); ++a) {
            for (std::size_t b = a + 1; b < factors.size(); ++b) {
                Term t1;
                t1.factors = {factors[a]};
                Term t2;
                t2.factors = {factors[b]};
                out.push_back({t1, t2});
            }
        }
    }
    return out;
}

std::vector<std::vector<Term>> SearchSpace::multi_parameter_hypotheses(
    const std::vector<std::vector<Factor>>& best_factors) const {
    std::vector<std::vector<Term>> out;
    const std::size_t m = best_factors.size();
    if (m < 2) {
        return out;
    }
    // Cartesian product over per-parameter candidate factors; for each
    // combination emit an additive hypothesis (one term per parameter) and a
    // multiplicative one (a single joint term).
    std::vector<std::size_t> idx(m, 0);
    while (true) {
        std::vector<Term> additive;
        Term joint;
        bool any = false;
        for (std::size_t p = 0; p < m; ++p) {
            if (best_factors[p].empty()) {
                continue;
            }
            const Factor& f = best_factors[p][idx[p]];
            Term t;
            t.factors = {f};
            additive.push_back(t);
            joint.factors.push_back(f);
            any = true;
        }
        if (any) {
            out.push_back(additive);
            if (joint.factors.size() >= 2) {
                out.push_back({joint});
                // Mixed: joint term plus each single-parameter term.
                for (const auto& t : additive) {
                    out.push_back({joint, t});
                }
            }
        }
        // Advance the product counter.
        std::size_t p = 0;
        while (p < m) {
            if (best_factors[p].empty()) {
                ++p;
                continue;
            }
            if (++idx[p] < best_factors[p].size()) {
                break;
            }
            idx[p] = 0;
            ++p;
        }
        if (p == m) {
            break;
        }
    }
    return out;
}

}  // namespace extradeep::modeling
