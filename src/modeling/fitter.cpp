#include "modeling/fitter.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace extradeep::modeling {

namespace {

/// Number of best per-parameter factors combined into multi-parameter
/// hypotheses.
constexpr std::size_t kMultiParamTopFactors = 3;

struct HypothesisFit {
    bool valid = false;
    std::vector<double> coefficients;  ///< [constant, c_1, ..., c_k]
    double fit_smape = std::numeric_limits<double>::infinity();
    double cv_smape = std::numeric_limits<double>::infinity();
    double rss = 0.0;
};

/// Shared per-point-set cache of factor basis columns. Across the PMNF
/// hypothesis space the same factor x^i log2(x)^j appears in many hypotheses
/// (every 2-term combination re-uses the single factors); evaluating each
/// distinct factor once per point set and assembling hypothesis basis
/// matrices from the cached columns removes the repeated pow/log work from
/// the search hot loop. Multiplication order when combining a term's factor
/// columns matches Term::basis exactly, so cached and direct evaluation are
/// bit-identical.
class FactorColumnCache {
public:
    FactorColumnCache(const std::vector<std::vector<Term>>& hypotheses,
                      const std::vector<std::vector<double>>& points)
        : num_points_(points.size()) {
        for (const auto& h : hypotheses) {
            for (const auto& t : h) {
                for (const auto& f : t.factors) {
                    if (find(f) != nullptr) {
                        continue;
                    }
                    if (f.param < 0 ||
                        static_cast<std::size_t>(f.param) >=
                            (points.empty() ? 0 : points.front().size())) {
                        throw InvalidArgumentError(
                            "FactorColumnCache: parameter index out of range");
                    }
                    std::vector<double> column;
                    column.reserve(points.size());
                    for (const auto& p : points) {
                        column.push_back(f.evaluate(p[f.param]));
                    }
                    factors_.push_back(f);
                    columns_.push_back(std::move(column));
                }
            }
        }
    }

    std::size_t num_points() const { return num_points_; }

    const std::vector<double>& column(const Factor& f) const {
        const std::vector<double>* col = find(f);
        if (col == nullptr) {
            throw InvalidArgumentError("FactorColumnCache: unknown factor");
        }
        return *col;
    }

private:
    const std::vector<double>* find(const Factor& f) const {
        // The distinct-factor count is small (~100 for the default space), so
        // a linear scan beats hashing here.
        for (std::size_t i = 0; i < factors_.size(); ++i) {
            if (factors_[i] == f) {
                return &columns_[i];
            }
        }
        return nullptr;
    }

    std::size_t num_points_ = 0;
    std::vector<Factor> factors_;
    std::vector<std::vector<double>> columns_;
};

/// Scratch buffers of one fit loop, reused across hypotheses instead of
/// reallocated: the leave-one-out row subsets and the solve and prediction
/// vectors. Every cell a fit reads is overwritten first, so reuse cannot
/// leak state between hypotheses.
struct FitScratch {
    linalg::Matrix a;
    std::vector<double> b;
    std::vector<double> x;
    std::vector<double> rhs;
    std::vector<double> predicted;
    std::vector<double> cv_pred;
};

void ensure_shape(linalg::Matrix& m, std::size_t rows, std::size_t cols) {
    if (m.rows() != rows || m.cols() != cols) {
        m = linalg::Matrix(rows, cols);
    }
}

/// Assembles a hypothesis's basis matrix from cached factor columns: column
/// 0 is the constant, column t+1 the t-th term's basis value at each point.
void basis_matrix(const std::vector<Term>& terms,
                  const FactorColumnCache& cache, linalg::Matrix& b) {
    const std::size_t n = cache.num_points();
    ensure_shape(b, n, terms.size() + 1);
    for (std::size_t r = 0; r < n; ++r) {
        b(r, 0) = 1.0;
    }
    // Each term column is the product of its cached factor columns, taken
    // in Term::basis factor order (the same per-element multiply chain).
    for (std::size_t t = 0; t < terms.size(); ++t) {
        for (std::size_t r = 0; r < n; ++r) {
            b(r, t + 1) = 1.0;
        }
        for (const auto& f : terms[t].factors) {
            const std::vector<double>& col = cache.column(f);
            for (std::size_t r = 0; r < n; ++r) {
                b(r, t + 1) *= col[r];
            }
        }
    }
}

/// Whether a hypothesis with `num_terms` terms can be judged on n points.
/// Exact-interpolation fits (n == k with at least one term) are rejected:
/// they leave no residual, so every such hypothesis scores a near-zero SMAPE
/// regardless of its functional form and selection among them would be
/// arbitrary. Only the degenerate constant-through-one-point case is kept as
/// an ultimate fallback.
bool enough_points(std::size_t n, std::size_t num_terms) {
    const std::size_t k = num_terms + 1;
    return n >= k + 1 || (n == k && num_terms == 0);
}

}  // namespace

namespace detail {

/// The factor half of one hypothesis fit: everything it derives from the
/// points alone.
struct HypothesisFactors {
    /// False when no values can make the hypothesis fit: too few points, a
    /// non-finite basis, or a rank-deficient full system or leave-one-out
    /// subset. Then nothing else is kept.
    bool valid = false;
    linalg::Matrix basis;
    linalg::QrFactors full;
    /// loo[i] factors the system without row i; empty for n == k.
    std::vector<linalg::QrFactors> loo;
};

struct DesignData {
    std::vector<std::vector<double>> points;
    std::vector<std::vector<Term>> hypotheses;
    std::vector<HypothesisFactors> factors;
};

}  // namespace detail

namespace {

using detail::HypothesisFactors;

/// Copies `basis` without row `excluded_row` into `a`.
void drop_row(const linalg::Matrix& basis, std::size_t excluded_row,
              linalg::Matrix& a) {
    const std::size_t n = basis.rows();
    const std::size_t k = basis.cols();
    ensure_shape(a, n - 1, k);
    std::size_t r = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i == excluded_row) {
            continue;
        }
        std::memcpy(a.row(r), basis.row(i), k * sizeof(double));
        ++r;
    }
}

/// Factors one hypothesis into `out`, reusing its buffers.
void factor_hypothesis(const std::vector<Term>& terms,
                       const FactorColumnCache& cache, FitScratch& scratch,
                       HypothesisFactors& out) {
    out.valid = false;
    out.loo.clear();
    const std::size_t n = cache.num_points();
    if (!enough_points(n, terms.size())) {
        return;
    }
    basis_matrix(terms, cache, out.basis);
    const linalg::Matrix& basis = out.basis;
    for (std::size_t r = 0; r < basis.rows(); ++r) {
        for (std::size_t c = 0; c < basis.cols(); ++c) {
            if (!std::isfinite(basis(r, c))) {
                return;
            }
        }
    }
    out.full = linalg::qr_factor(basis);
    if (out.full.rank_deficient) {
        return;
    }
    // Leave-one-out subsets, the paper's selection criterion. Each must pass
    // the same rank decision (QR pivots and the Cholesky test of A^T A) as
    // the full system, or the hypothesis cannot be cross-validated.
    if (n >= basis.cols() + 1) {
        for (std::size_t leave = 0; leave < n; ++leave) {
            drop_row(basis, leave, scratch.a);
            out.loo.push_back(linalg::qr_factor(scratch.a));
            if (out.loo.back().rank_deficient) {
                return;
            }
        }
    }
    out.valid = true;
}

/// The solve half of one hypothesis fit: least squares on the full system
/// and the leave-one-out subsets, then the fit and cross-validated SMAPE.
HypothesisFit solve_hypothesis(const HypothesisFactors& factors,
                               const std::vector<double>& values,
                               FitScratch& scratch) {
    HypothesisFit out;
    if (!factors.valid) {
        return out;
    }
    const linalg::Matrix& basis = factors.basis;
    const std::size_t n = basis.rows();
    const std::size_t k = basis.cols();
    const double residual_norm =
        linalg::qr_solve(factors.full, values, scratch.x, scratch.rhs);
    for (const double c : scratch.x) {
        if (!std::isfinite(c)) {
            return out;
        }
    }

    scratch.predicted.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        double v = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
            v += basis(i, c) * scratch.x[c];
        }
        scratch.predicted[i] = v;
    }
    out.fit_smape = stats::smape(scratch.predicted, values);
    out.rss = residual_norm * residual_norm;
    out.coefficients = scratch.x;

    if (n >= k + 1) {
        scratch.cv_pred.resize(n);
        scratch.b.resize(n - 1);
        for (std::size_t leave = 0; leave < n; ++leave) {
            std::size_t r = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (i != leave) {
                    scratch.b[r++] = values[i];
                }
            }
            linalg::qr_solve(factors.loo[leave], scratch.b, scratch.x,
                             scratch.rhs);
            double v = 0.0;
            for (std::size_t c = 0; c < k; ++c) {
                v += basis(leave, c) * scratch.x[c];
            }
            if (!std::isfinite(v)) {
                return out;
            }
            scratch.cv_pred[leave] = v;
        }
        out.cv_smape = stats::smape(scratch.cv_pred, values);
    } else {
        // Only reachable for the constant hypothesis at n == 1 (see
        // enough_points): no spare point for cross-validation, fall back to
        // the fit error with a stiff penalty so validated models win.
        out.cv_smape = out.fit_smape * 4.0 + 1.0;
    }
    out.valid = true;
    return out;
}

/// Fits every hypothesis and selects by (penalised) cross-validated SMAPE:
/// the first strict minimum wins, so ties go to the smaller hypothesis
/// index. `factors_of(i, scratch)` yields hypothesis i's factors, either
/// from a Design or factored on the spot. One fit is serial; callers spend
/// threads across fits.
template <class FactorsOf>
PerformanceModel select_model(const std::vector<std::vector<Term>>& hypotheses,
                              const std::vector<std::vector<double>>& points,
                              const std::vector<double>& values,
                              std::vector<std::string> param_names,
                              const FitOptions& options,
                              FactorsOf&& factors_of) {
    if (obs::trace_enabled()) {
        obs::global_metrics()
            .counter("extradeep_fit_hypotheses_total")
            .increment(hypotheses.size());
        obs::global_metrics().counter("extradeep_fit_models_total").increment();
    }
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best_index = 0;
    HypothesisFit best_fit;
    linalg::Matrix best_cov;
    {
        // One span around the whole search; obs_smoke and the ledger's
        // modeling.chunk_self_ms read it under this name.
        const obs::Span chunk_span{"fit.hypothesis_chunk"};
        FitScratch scratch;
        for (std::size_t i = 0; i < hypotheses.size(); ++i) {
            const HypothesisFactors& factors = factors_of(i, scratch);
            auto f = solve_hypothesis(factors, values, scratch);
            if (!f.valid) {
                continue;
            }
            const double score =
                f.cv_smape *
                (1.0 + options.term_penalty *
                           static_cast<double>(hypotheses[i].size()));
            if (!best_fit.valid || score < best_score) {
                best_score = score;
                best_index = i;
                best_fit = std::move(f);
                best_cov = factors.full.covariance_unscaled;
            }
        }
    }
    if (!best_fit.valid) {
        throw NumericalError("ModelGenerator::fit: no hypothesis could be fitted");
    }
    const int searched = static_cast<int>(hypotheses.size());

    std::vector<Term> terms = hypotheses[best_index];
    for (std::size_t t = 0; t < terms.size(); ++t) {
        terms[t].coefficient = best_fit.coefficients[t + 1];
    }
    PerformanceModel model(best_fit.coefficients[0], std::move(terms),
                           std::move(param_names));

    ModelQuality q;
    q.fit_smape = best_fit.fit_smape;
    q.cv_smape = best_fit.cv_smape;
    q.rss = best_fit.rss;
    q.hypotheses_searched = searched;
    {
        std::vector<double> predicted(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            predicted[i] = model.evaluate(points[i]);
        }
        q.r_squared = stats::r_squared(predicted, values);
    }
    model.set_quality(q);

    const int dof = static_cast<int>(points.size()) -
                    static_cast<int>(model.terms().size()) - 1;
    if (dof >= 1) {
        model.set_fit_info(std::move(best_cov), best_fit.rss / dof, dof);
    }
    return model;
}

void require_min_points(std::size_t n, int min_points) {
    if (n < static_cast<std::size_t>(min_points)) {
        throw InvalidArgumentError(
            "ModelGenerator::fit: at least " + std::to_string(min_points) +
            " measurement points are required (got " + std::to_string(n) +
            ")");
    }
}

void require_finite(const std::vector<double>& values) {
    for (const double v : values) {
        if (!std::isfinite(v)) {
            throw InvalidArgumentError("ModelGenerator::fit: non-finite value");
        }
    }
}

/// Canonical order-independent key of a hypothesis, used to deduplicate the
/// multi-parameter candidate list: the multi-parameter generator can re-emit
/// hypotheses that are already present as single-parameter candidates (e.g.
/// when a parameter contributes no usable factor), and term order within a
/// hypothesis carries no meaning. Exponent doubles come verbatim from the
/// search space, so comparing them exactly is well defined.
using FactorKey = std::tuple<int, double, int>;
using HypothesisKey = std::vector<std::vector<FactorKey>>;

HypothesisKey hypothesis_key(const std::vector<Term>& h) {
    HypothesisKey key;
    key.reserve(h.size());
    for (const auto& t : h) {
        std::vector<FactorKey> factors;
        factors.reserve(t.factors.size());
        for (const auto& f : t.factors) {
            factors.emplace_back(f.param, f.poly_exp, f.log_exp);
        }
        std::sort(factors.begin(), factors.end());
        key.push_back(std::move(factors));
    }
    std::sort(key.begin(), key.end());
    return key;
}

void dedupe_hypotheses(std::vector<std::vector<Term>>& hypotheses) {
    std::set<HypothesisKey> seen;
    std::vector<std::vector<Term>> unique;
    unique.reserve(hypotheses.size());
    for (auto& h : hypotheses) {
        if (seen.insert(hypothesis_key(h)).second) {
            unique.push_back(std::move(h));
        }
    }
    hypotheses = std::move(unique);
}

}  // namespace

ModelGenerator::ModelGenerator(FitOptions options) : options_(std::move(options)) {}

ModelGenerator::Design::Design(std::unique_ptr<const detail::DesignData> data)
    : data_(std::move(data)) {}
ModelGenerator::Design::Design(Design&&) noexcept = default;
ModelGenerator::Design::~Design() = default;

PerformanceModel ModelGenerator::fit(
    const std::vector<std::vector<double>>& points,
    const std::vector<double>& values,
    std::vector<std::string> param_names) const {
    const obs::Span fit_span{"fit.model"};
    if (points.size() != values.size()) {
        throw InvalidArgumentError("ModelGenerator::fit: size mismatch");
    }
    require_min_points(points.size(), options_.min_points);
    const std::size_t dims = points.front().size();
    if (dims == 0) {
        throw InvalidArgumentError("ModelGenerator::fit: zero-dimensional points");
    }
    for (const auto& p : points) {
        if (p.size() != dims) {
            throw InvalidArgumentError(
                "ModelGenerator::fit: inconsistent point dimensions");
        }
    }
    param_names.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
        if (param_names[d].empty()) {
            param_names[d] = std::string("x") + std::to_string(d + 1);
        }
    }
    require_finite(values);

    // Collect hypotheses: single-parameter spaces per parameter, plus
    // multi-parameter combinations of each parameter's best factors.
    std::vector<std::vector<Term>> hypotheses;
    if (dims == 1) {
        hypotheses = options_.space.single_parameter_hypotheses(0);
    } else {
        hypotheses.push_back({});  // constant
        std::vector<std::vector<Factor>> best_factors(dims);
        for (std::size_t d = 0; d < dims; ++d) {
            auto single = options_.space.single_parameter_hypotheses(
                static_cast<int>(d));
            // Extra-P's heuristic: rank this parameter's factors on the
            // subset of points where all *other* parameters are held at
            // their most frequent combination, so the other parameters'
            // influence does not distort the ranking.
            std::vector<std::vector<double>> rank_points;
            std::vector<double> rank_values;
            {
                std::map<std::vector<double>, int> combos;
                for (const auto& p : points) {
                    std::vector<double> key = p;
                    key[d] = 0.0;
                    ++combos[key];
                }
                const auto best_combo = std::max_element(
                    combos.begin(), combos.end(),
                    [](const auto& a, const auto& b) {
                        return a.second < b.second;
                    });
                for (std::size_t i = 0; i < points.size(); ++i) {
                    std::vector<double> key = points[i];
                    key[d] = 0.0;
                    if (key == best_combo->first) {
                        rank_points.push_back(points[i]);
                        rank_values.push_back(values[i]);
                    }
                }
                if (rank_points.size() < 3) {
                    rank_points = points;  // fall back to the full data
                    rank_values = values;
                }
            }
            // Rank this parameter's 1-term hypotheses by CV error, sharing
            // one factor-column cache over the ranking subset.
            const FactorColumnCache rank_cache(single, rank_points);
            FitScratch rank_scratch;
            HypothesisFactors rank_factors;
            std::vector<std::pair<double, Factor>> ranked;
            for (const auto& h : single) {
                if (h.size() != 1) {
                    continue;
                }
                factor_hypothesis(h, rank_cache, rank_scratch, rank_factors);
                const auto f =
                    solve_hypothesis(rank_factors, rank_values, rank_scratch);
                if (f.valid) {
                    ranked.emplace_back(f.cv_smape, h.front().factors.front());
                }
                hypotheses.push_back(h);  // keep single-param candidates too
            }
            std::sort(ranked.begin(), ranked.end(),
                      [](const auto& a, const auto& b) {
                          return a.first < b.first;
                      });
            const std::size_t top =
                std::min(ranked.size(), kMultiParamTopFactors);
            for (std::size_t i = 0; i < top; ++i) {
                best_factors[d].push_back(ranked[i].second);
            }
        }
        const auto multi =
            options_.space.multi_parameter_hypotheses(best_factors);
        hypotheses.insert(hypotheses.end(), multi.begin(), multi.end());
        // Only the multi-parameter generator can emit duplicates; the
        // single-parameter spaces are duplicate-free by construction.
        dedupe_hypotheses(hypotheses);
    }

    // A one-off fit keeps no design: each hypothesis is factored into
    // reused buffers just before it is solved.
    const FactorColumnCache cache(hypotheses, points);
    HypothesisFactors factors;
    return select_model(
        hypotheses, points, values, std::move(param_names), options_,
        [&](std::size_t i, FitScratch& scratch) -> const HypothesisFactors& {
            factor_hypothesis(hypotheses[i], cache, scratch, factors);
            return factors;
        });
}

PerformanceModel ModelGenerator::fit(const std::vector<double>& xs,
                                     const std::vector<double>& ys,
                                     const std::string& param_name) const {
    std::vector<std::vector<double>> points;
    points.reserve(xs.size());
    for (const double x : xs) {
        points.push_back({x});
    }
    return fit(points, ys, {param_name});
}

ModelGenerator::Design ModelGenerator::design(
    const std::vector<double>& xs) const {
    const obs::Span design_span{"fit.design"};
    require_min_points(xs.size(), options_.min_points);
    auto data = std::make_unique<detail::DesignData>();
    data->points.reserve(xs.size());
    for (const double x : xs) {
        data->points.push_back({x});
    }
    data->hypotheses = options_.space.single_parameter_hypotheses(0);
    const FactorColumnCache cache(data->hypotheses, data->points);
    FitScratch scratch;
    data->factors.resize(data->hypotheses.size());
    for (std::size_t i = 0; i < data->hypotheses.size(); ++i) {
        HypothesisFactors& factors = data->factors[i];
        factor_hypothesis(data->hypotheses[i], cache, scratch, factors);
        if (!factors.valid) {
            factors = HypothesisFactors{};
        }
    }
    return Design(std::move(data));
}

PerformanceModel ModelGenerator::fit(const Design& design,
                                     const std::vector<double>& ys,
                                     const std::string& param_name) const {
    const obs::Span fit_span{"fit.model"};
    if (design.data_ == nullptr) {
        throw InvalidArgumentError("ModelGenerator::fit: moved-from design");
    }
    const detail::DesignData& data = *design.data_;
    if (ys.size() != data.points.size()) {
        throw InvalidArgumentError("ModelGenerator::fit: size mismatch");
    }
    require_finite(ys);
    return select_model(
        data.hypotheses, data.points, ys,
        {param_name.empty() ? std::string("x1") : param_name}, options_,
        [&](std::size_t i, FitScratch&) -> const HypothesisFactors& {
            return data.factors[i];
        });
}

}  // namespace extradeep::modeling
