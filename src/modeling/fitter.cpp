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

struct HypothesisFit {
    bool valid = false;
    std::vector<double> coefficients;  ///< [constant, c_1, ..., c_k]
    double fit_smape = std::numeric_limits<double>::infinity();
    double cv_smape = std::numeric_limits<double>::infinity();
    double rss = 0.0;
    linalg::Matrix cov_unscaled;
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

/// Per-thread scratch buffers for the hypothesis-fit loop: the basis matrix,
/// the row-subset system of the leave-one-out refits, and the prediction
/// vectors are reused across hypotheses instead of reallocated per fit.
/// Every cell the fit reads is overwritten first, so reuse cannot leak state
/// between hypotheses (and results stay bit-identical to fresh buffers).
struct FitScratch {
    linalg::Matrix basis;
    linalg::Matrix a;
    std::vector<double> b;
    std::vector<double> predicted;
    std::vector<double> cv_pred;
};

void ensure_shape(linalg::Matrix& m, std::size_t rows, std::size_t cols) {
    if (m.rows() != rows || m.cols() != cols) {
        m = linalg::Matrix(rows, cols);
    }
}

/// Assembles a hypothesis's basis matrix from cached factor columns into
/// `scratch.basis`: column 0 is the constant, column t+1 the t-th term's
/// basis value at each point.
void basis_matrix(const std::vector<Term>& terms,
                  const FactorColumnCache& cache, FitScratch& scratch) {
    const std::size_t n = cache.num_points();
    ensure_shape(scratch.basis, n, terms.size() + 1);
    linalg::Matrix& b = scratch.basis;
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

/// Least squares on a row subset (rows with index == excluded_row excluded).
linalg::LeastSquaresResult fit_rows(const linalg::Matrix& basis,
                                    const std::vector<double>& values,
                                    std::size_t excluded_row,
                                    FitScratch& scratch) {
    const std::size_t n = basis.rows();
    const std::size_t k = basis.cols();
    const std::size_t rows = excluded_row < n ? n - 1 : n;
    ensure_shape(scratch.a, rows, k);
    scratch.b.resize(rows);
    std::size_t r = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i == excluded_row) {
            continue;
        }
        std::memcpy(scratch.a.row(r), basis.row(i), k * sizeof(double));
        scratch.b[r] = values[i];
        ++r;
    }
    return linalg::least_squares(scratch.a, scratch.b);
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

/// Fits one hypothesis given its prebuilt basis matrix (in scratch.basis).
/// The caller must have checked enough_points already.
HypothesisFit fit_basis(std::size_t num_terms,
                        const std::vector<double>& values,
                        FitScratch& scratch) {
    HypothesisFit out;
    const linalg::Matrix& basis = scratch.basis;
    const std::size_t n = basis.rows();
    const std::size_t k = num_terms + 1;
    for (std::size_t r = 0; r < basis.rows(); ++r) {
        for (std::size_t c = 0; c < basis.cols(); ++c) {
            if (!std::isfinite(basis(r, c))) {
                return out;
            }
        }
    }
    const auto full = fit_rows(basis, values, n, scratch);
    if (full.rank_deficient) {
        return out;
    }
    for (const double c : full.coefficients) {
        if (!std::isfinite(c)) {
            return out;
        }
    }

    scratch.predicted.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        double v = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
            v += basis(i, c) * full.coefficients[c];
        }
        scratch.predicted[i] = v;
    }
    out.fit_smape = stats::smape(scratch.predicted, values);
    out.rss = full.residual_norm * full.residual_norm;
    out.coefficients = full.coefficients;
    out.cov_unscaled = full.covariance_unscaled;

    // Leave-one-out cross-validation, the paper's selection criterion.
    if (n >= k + 1) {
        scratch.cv_pred.resize(n);
        bool cv_ok = true;
        for (std::size_t leave = 0; leave < n; ++leave) {
            const auto part = fit_rows(basis, values, leave, scratch);
            if (part.rank_deficient) {
                cv_ok = false;
                break;
            }
            double v = 0.0;
            for (std::size_t c = 0; c < k; ++c) {
                v += basis(leave, c) * part.coefficients[c];
            }
            if (!std::isfinite(v)) {
                cv_ok = false;
                break;
            }
            scratch.cv_pred[leave] = v;
        }
        if (cv_ok) {
            out.cv_smape = stats::smape(scratch.cv_pred, values);
        } else {
            return out;
        }
    } else {
        // Only reachable for the constant hypothesis at n == 1 (see
        // enough_points): no spare point for cross-validation, fall back to
        // the fit error with a stiff penalty so validated models win.
        out.cv_smape = out.fit_smape * 4.0 + 1.0;
    }
    out.valid = true;
    return out;
}

HypothesisFit fit_hypothesis(const std::vector<Term>& terms,
                             const FactorColumnCache& cache,
                             const std::vector<double>& values,
                             FitScratch& scratch) {
    if (!enough_points(cache.num_points(), terms.size())) {
        return {};
    }
    basis_matrix(terms, cache, scratch);
    return fit_basis(terms.size(), values, scratch);
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

PerformanceModel ModelGenerator::fit(
    const std::vector<std::vector<double>>& points,
    const std::vector<double>& values,
    std::vector<std::string> param_names) const {
    const obs::Span fit_span{"fit.model"};
    if (points.size() != values.size()) {
        throw InvalidArgumentError("ModelGenerator::fit: size mismatch");
    }
    if (points.size() < static_cast<std::size_t>(options_.min_points)) {
        throw InvalidArgumentError(
            "ModelGenerator::fit: at least " +
            std::to_string(options_.min_points) +
            " measurement points are required (got " +
            std::to_string(points.size()) + ")");
    }
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
    for (const double v : values) {
        if (!std::isfinite(v)) {
            throw InvalidArgumentError("ModelGenerator::fit: non-finite value");
        }
    }

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
            std::vector<std::pair<double, Factor>> ranked;
            for (const auto& h : single) {
                if (h.size() != 1) {
                    continue;
                }
                const auto f =
                    fit_hypothesis(h, rank_cache, rank_values, rank_scratch);
                if (f.valid) {
                    ranked.emplace_back(f.cv_smape, h.front().factors.front());
                }
                hypotheses.push_back(h);  // keep single-param candidates too
            }
            std::sort(ranked.begin(), ranked.end(),
                      [](const auto& a, const auto& b) {
                          return a.first < b.first;
                      });
            const std::size_t top = std::min<std::size_t>(
                ranked.size(),
                static_cast<std::size_t>(options_.multi_param_top_factors));
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

    // Fit all hypotheses and select by (penalised) cross-validated SMAPE:
    // the first strict minimum wins, so ties go to the smaller hypothesis
    // index. One fit is serial; callers spend threads across fits.
    const FactorColumnCache cache(hypotheses, points);
    if (obs::trace_enabled()) {
        obs::global_metrics()
            .counter("extradeep_fit_hypotheses_total")
            .increment(hypotheses.size());
        obs::global_metrics().counter("extradeep_fit_models_total").increment();
    }
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best_index = 0;
    HypothesisFit best_fit;
    {
        // One span around the whole search; obs_smoke and the ledger's
        // modeling.chunk_self_ms read it under this name.
        const obs::Span chunk_span{"fit.hypothesis_chunk"};
        FitScratch scratch;
        for (std::size_t i = 0; i < hypotheses.size(); ++i) {
            auto f = fit_hypothesis(hypotheses[i], cache, values, scratch);
            if (!f.valid) {
                continue;
            }
            const double score =
                f.cv_smape *
                (1.0 + options_.term_penalty *
                           static_cast<double>(hypotheses[i].size()));
            if (!best_fit.valid || score < best_score) {
                best_score = score;
                best_index = i;
                best_fit = std::move(f);
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
        model.set_fit_info(best_fit.cov_unscaled, best_fit.rss / dof, dof);
    }
    return model;
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

}  // namespace extradeep::modeling
