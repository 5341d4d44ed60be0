#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "modeling/fitter.hpp"
#include "modeling/model.hpp"
#include "modeling/search_space.hpp"
#include "reference_least_squares.hpp"

using namespace extradeep::modeling;
using extradeep::InvalidArgumentError;
using extradeep::Rng;

namespace {

const std::vector<double> kXs = {2, 4, 8, 16, 32, 64};

std::vector<double> map_values(const std::vector<double>& xs,
                          double (*f)(double)) {
    std::vector<double> ys;
    for (const double x : xs) ys.push_back(f(x));
    return ys;
}

}  // namespace

TEST(Factor, Evaluate) {
    Factor f{0, 2.0, 1};
    EXPECT_DOUBLE_EQ(f.evaluate(4.0), 16.0 * 2.0);  // 4^2 * log2(4)
    Factor constant{0, 0.0, 0};
    EXPECT_DOUBLE_EQ(constant.evaluate(4.0), 1.0);
    EXPECT_DOUBLE_EQ(constant.evaluate(-1.0), 1.0);  // never touches the value
    EXPECT_THROW(f.evaluate(0.0), InvalidArgumentError);
}

TEST(Factor, FractionalExponent) {
    Factor f{0, 2.0 / 3.0, 0};
    EXPECT_NEAR(f.evaluate(8.0), 4.0, 1e-12);
}

TEST(Factor, ToStringRendering) {
    EXPECT_EQ((Factor{0, 1.0, 0}).to_string("x1"), "x1");
    EXPECT_EQ((Factor{0, 2.0, 0}).to_string("x1"), "x1^2");
    EXPECT_EQ((Factor{0, 0.0, 1}).to_string("x1"), "log2(x1)");
    EXPECT_EQ((Factor{0, 2.0 / 3.0, 2}).to_string("x1"),
              "x1^(2/3) * log2(x1)^2");
    EXPECT_EQ((Factor{0, 0.0, 0}).to_string("x1"), "1");
}

TEST(Term, EvaluateProductOfFactors) {
    Term t;
    t.coefficient = 1.5;
    t.factors = {Factor{0, 1.0, 0}, Factor{1, 0.0, 1}};
    const std::vector<double> point = {4.0, 8.0};
    EXPECT_DOUBLE_EQ(t.evaluate(point), 1.5 * 4.0 * 3.0);
    EXPECT_THROW(
        t.evaluate(std::vector<double>{4.0}),  // missing parameter 1
        InvalidArgumentError);
}

TEST(Model, EvaluateAndToString) {
    Term t;
    t.coefficient = 0.58;
    t.factors = {Factor{0, 2.0 / 3.0, 2}};
    PerformanceModel m(158.58, {t}, {"x1"});
    // The paper's case-study model: T(40) ~ 352 s.
    EXPECT_NEAR(m.evaluate(40.0), 352.0, 2.0);
    EXPECT_EQ(m.to_string(), "158.6 + 0.58 * x1^(2/3) * log2(x1)^2");
}

TEST(Model, GrowthComparison) {
    Term linear;
    linear.coefficient = 1.0;
    linear.factors = {Factor{0, 1.0, 0}};
    Term quad;
    quad.coefficient = 0.001;
    quad.factors = {Factor{0, 2.0, 0}};
    Term logt;
    logt.coefficient = 100.0;
    logt.factors = {Factor{0, 0.0, 1}};
    PerformanceModel ml(0, {linear}, {"x1"});
    PerformanceModel mq(0, {quad}, {"x1"});
    PerformanceModel mlog(0, {logt}, {"x1"});
    EXPECT_LT(ml.compare_growth(mq), 0);
    EXPECT_GT(mq.compare_growth(mlog), 0);
    EXPECT_EQ(ml.compare_growth(ml), 0);
    EXPECT_EQ(mq.growth_to_string(), "O(x1^2)");
    EXPECT_EQ(mlog.growth_to_string(), "O(log2(x1))");
}

TEST(Model, NegativeCoefficientTermsDoNotDriveGrowth) {
    Term shrink;
    shrink.coefficient = -2.0;
    shrink.factors = {Factor{0, 3.0, 0}};
    PerformanceModel m(10.0, {shrink}, {"x1"});
    EXPECT_EQ(m.dominant_growth(), (std::pair<double, int>{0.0, 0}));
    EXPECT_EQ(m.growth_to_string(), "O(1)");
}

TEST(SearchSpace, DefaultExponentsSaneAndSorted) {
    const auto exps = SearchSpace::default_poly_exponents();
    EXPECT_EQ(exps.front(), 0.0);
    EXPECT_EQ(exps.back(), 3.0);
    for (std::size_t i = 1; i < exps.size(); ++i) {
        EXPECT_LT(exps[i - 1], exps[i]);
    }
}

TEST(SearchSpace, SingleParameterHypothesisCount) {
    SearchSpace space;
    space.max_terms = 1;
    const auto h = space.single_parameter_hypotheses(0);
    // constant + (|I| * |J| - 1) one-term hypotheses
    const std::size_t factors =
        space.poly_exponents.size() * space.log_exponents.size() - 1;
    EXPECT_EQ(h.size(), 1 + factors);
    space.max_terms = 2;
    const auto h2 = space.single_parameter_hypotheses(0);
    EXPECT_EQ(h2.size(), 1 + factors + factors * (factors - 1) / 2);
}

// --- Recovery sweeps: fit exact PMNF functions and verify the selected
// model reproduces them (the core Extra-P property). ---

struct RecoveryCase {
    double poly;
    int log;
};

class RecoveryTest : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(RecoveryTest, RecoversPlantedSingleTermModel) {
    const auto [poly, log] = GetParam();
    std::vector<double> ys;
    for (const double x : kXs) {
        ys.push_back(10.0 + 2.5 * std::pow(x, poly) *
                                std::pow(std::log2(x), log));
    }
    const ModelGenerator gen;
    const PerformanceModel m = gen.fit(kXs, ys);
    // Perfect recovery on the sampled range and beyond.
    for (const double x : {3.0, 24.0, 128.0, 256.0}) {
        const double truth =
            10.0 + 2.5 * std::pow(x, poly) * std::pow(std::log2(x), log);
        EXPECT_NEAR(m.evaluate(x), truth, 0.02 * truth)
            << "poly=" << poly << " log=" << log << " x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ExponentGrid, RecoveryTest,
    ::testing::Values(RecoveryCase{0.0, 1}, RecoveryCase{0.0, 2},
                      RecoveryCase{0.5, 0}, RecoveryCase{0.5, 1},
                      RecoveryCase{1.0, 0}, RecoveryCase{1.0, 1},
                      RecoveryCase{2.0 / 3.0, 2}, RecoveryCase{1.5, 0},
                      RecoveryCase{2.0, 0}, RecoveryCase{2.0, 1},
                      RecoveryCase{3.0, 0}, RecoveryCase{1.0 / 3.0, 1}));

TEST(Fitter, ConstantDataYieldsConstantModel) {
    const std::vector<double> ys(kXs.size(), 7.5);
    const PerformanceModel m = ModelGenerator().fit(kXs, ys);
    EXPECT_TRUE(m.terms().empty());
    EXPECT_NEAR(m.constant(), 7.5, 1e-9);
    EXPECT_NEAR(m.evaluate(1000.0), 7.5, 1e-9);
}

TEST(Fitter, NearConstantNoisyDataStaysBounded) {
    // Noise around a constant must not produce an exploding polynomial.
    Rng rng(3);
    std::vector<double> ys;
    for (std::size_t i = 0; i < kXs.size(); ++i) {
        ys.push_back(100.0 * rng.lognormal_factor(0.02));
    }
    const PerformanceModel m = ModelGenerator().fit(kXs, ys);
    EXPECT_LT(std::abs(m.evaluate(256.0)), 300.0);
    EXPECT_GT(m.evaluate(256.0), 30.0);
}

TEST(Fitter, NoiseRobustRecovery) {
    // 3 % multiplicative noise on a linear trend: the model must stay within
    // a few percent of the truth at 4x extrapolation.
    Rng rng(11);
    std::vector<double> ys;
    for (const double x : kXs) {
        ys.push_back((5.0 + 2.0 * x) * rng.lognormal_factor(0.03));
    }
    const PerformanceModel m = ModelGenerator().fit(kXs, ys);
    const double truth = 5.0 + 2.0 * 256.0;
    EXPECT_NEAR(m.evaluate(256.0), truth, 0.15 * truth);
}

TEST(Fitter, QualityMetricsPopulated) {
    const auto ys = map_values(kXs, [](double x) { return 3.0 * x + 1.0; });
    const PerformanceModel m = ModelGenerator().fit(kXs, ys);
    EXPECT_LT(m.quality().fit_smape, 0.01);
    EXPECT_GT(m.quality().r_squared, 0.9999);
    EXPECT_GT(m.quality().hypotheses_searched, 30);
}

TEST(Fitter, RequiresMinimumPoints) {
    // Paper Sec. 2.3: at least five measurement points per parameter.
    const std::vector<double> xs = {2, 4, 8, 16};
    const std::vector<double> ys = {1, 2, 3, 4};
    EXPECT_THROW(ModelGenerator().fit(xs, ys), InvalidArgumentError);
}

TEST(Fitter, RejectsInconsistentInput) {
    EXPECT_THROW(ModelGenerator().fit(std::vector<double>{1, 2, 3, 4, 5},
                                      std::vector<double>{1, 2}),
                 InvalidArgumentError);
    const std::vector<std::vector<double>> pts = {
        {1.0}, {2.0}, {3.0, 4.0}, {4.0}, {5.0}};
    EXPECT_THROW(ModelGenerator().fit(pts, {1, 2, 3, 4, 5}),
                 InvalidArgumentError);
    EXPECT_THROW(
        ModelGenerator().fit(kXs, {1.0, 2.0, std::nan(""), 4.0, 5.0, 6.0}),
        InvalidArgumentError);
}

TEST(Fitter, PredictionIntervalCoversTruth) {
    // With noisy data, the 95 % interval at a modeling point should contain
    // the noise-free truth in the vast majority of trials.
    int covered = 0;
    const int trials = 60;
    for (int trial = 0; trial < trials; ++trial) {
        Rng rng(1000 + trial);
        std::vector<double> ys;
        for (const double x : kXs) {
            ys.push_back((10.0 + 3.0 * x) * rng.lognormal_factor(0.05));
        }
        const PerformanceModel m = ModelGenerator().fit(kXs, ys);
        const auto pi = m.predict_interval(16.0, 0.95);
        const double truth = 10.0 + 3.0 * 16.0;
        if (truth >= pi.lower && truth <= pi.upper) {
            ++covered;
        }
        EXPECT_LT(pi.lower, pi.upper);
    }
    EXPECT_GE(covered, trials * 8 / 10);
}

TEST(Fitter, PredictionIntervalWidensWithExtrapolation) {
    Rng rng(5);
    std::vector<double> ys;
    for (const double x : kXs) {
        ys.push_back((10.0 + 3.0 * x) * rng.lognormal_factor(0.05));
    }
    const PerformanceModel m = ModelGenerator().fit(kXs, ys);
    const auto near = m.predict_interval(16.0);
    const auto far = m.predict_interval(512.0);
    EXPECT_GT(far.upper - far.lower, near.upper - near.lower);
}

// --- Uncertainty API: prediction_stddev / interval_half_width /
// coefficient_covariance, including the degenerate fits the adaptive
// planner must survive (no fit info, zero residual variance). ---

TEST(Uncertainty, HandConstructedModelHasCollapsedIntervals) {
    // A model built from truth terms (the oracle pattern) carries no OLS
    // fit information: every uncertainty quantity must degrade to zero
    // rather than throw or emit garbage.
    const PerformanceModel m(10.0, {}, {"x1"});
    EXPECT_DOUBLE_EQ(m.prediction_stddev(16.0), 0.0);
    EXPECT_DOUBLE_EQ(m.interval_half_width(16.0), 0.0);
    EXPECT_EQ(m.coefficient_covariance().rows(), 0u);
    const auto pi = m.predict_interval(16.0);
    EXPECT_DOUBLE_EQ(pi.lower, pi.prediction);
    EXPECT_DOUBLE_EQ(pi.upper, pi.prediction);
}

TEST(Uncertainty, ZeroVarianceFitHasZeroWidth) {
    // Exact data: residual variance is zero, so the interval collapses even
    // though the fit info (covariance, dof) is present.
    const auto ys = map_values(kXs, [](double x) { return 3.0 * x + 1.0; });
    const PerformanceModel m = ModelGenerator().fit(kXs, ys);
    EXPECT_NEAR(m.prediction_stddev(16.0), 0.0, 1e-9);
    EXPECT_NEAR(m.interval_half_width(512.0), 0.0, 1e-6);
}

TEST(Uncertainty, PredictIntervalIsPredictionPlusMinusHalfWidth) {
    Rng rng(17);
    std::vector<double> ys;
    for (const double x : kXs) {
        ys.push_back((10.0 + 3.0 * x) * rng.lognormal_factor(0.05));
    }
    const PerformanceModel m = ModelGenerator().fit(kXs, ys);
    for (const double x : {4.0, 16.0, 256.0}) {
        for (const double conf : {0.8, 0.95, 0.99}) {
            const auto pi = m.predict_interval(x, conf);
            const double half = m.interval_half_width(x, conf);
            // Bit-for-bit: predict_interval is defined as +- half width.
            EXPECT_EQ(pi.lower, pi.prediction - half);
            EXPECT_EQ(pi.upper, pi.prediction + half);
            EXPECT_GT(half, 0.0);
        }
        // Wider confidence, wider interval.
        EXPECT_LT(m.interval_half_width(x, 0.8),
                  m.interval_half_width(x, 0.99));
    }
    // The half width is Student-t scaled prediction stddev.
    EXPECT_GT(m.prediction_stddev(16.0), 0.0);
    EXPECT_NEAR(m.interval_half_width(16.0, 0.95) /
                    m.prediction_stddev(16.0),
                m.interval_half_width(256.0, 0.95) /
                    m.prediction_stddev(256.0),
                1e-9);
}

TEST(Uncertainty, CoefficientCovarianceIsSymmetricKxK) {
    Rng rng(23);
    std::vector<double> ys;
    for (const double x : kXs) {
        ys.push_back((4.0 + 0.5 * x) * rng.lognormal_factor(0.05));
    }
    const PerformanceModel m = ModelGenerator().fit(kXs, ys);
    const auto cov = m.coefficient_covariance();
    const std::size_t k = m.terms().size() + 1;  // constant + terms
    ASSERT_EQ(cov.rows(), k);
    ASSERT_EQ(cov.cols(), k);
    for (std::size_t r = 0; r < k; ++r) {
        EXPECT_GE(cov(r, r), 0.0);  // variances on the diagonal
        for (std::size_t c = 0; c < k; ++c) {
            EXPECT_NEAR(cov(r, c), cov(c, r), 1e-12);
        }
    }
}

TEST(Fitter, MultiParameterAdditiveRecovery) {
    // f(x, y) = 5 + 2x + 3*log2(y) on a 5x5 grid.
    std::vector<std::vector<double>> pts;
    std::vector<double> ys;
    for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        for (const double y : {2.0, 4.0, 8.0, 16.0, 32.0}) {
            pts.push_back({x, y});
            ys.push_back(5.0 + 2.0 * x + 3.0 * std::log2(y));
        }
    }
    const PerformanceModel m = ModelGenerator().fit(pts, ys, {"x1", "x2"});
    const std::vector<double> probe = {64.0, 64.0};
    const double truth = 5.0 + 2.0 * 64.0 + 3.0 * 6.0;
    EXPECT_NEAR(m.evaluate(probe), truth, 0.05 * truth);
}

TEST(Fitter, MultiParameterMultiplicativeRecovery) {
    // f(x, y) = 1 + 0.5 * x * log2(y).
    std::vector<std::vector<double>> pts;
    std::vector<double> ys;
    for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        for (const double y : {2.0, 4.0, 8.0, 16.0, 32.0}) {
            pts.push_back({x, y});
            ys.push_back(1.0 + 0.5 * x * std::log2(y));
        }
    }
    const PerformanceModel m = ModelGenerator().fit(pts, ys, {"x1", "x2"});
    const std::vector<double> probe = {64.0, 16.0};
    EXPECT_NEAR(m.evaluate(probe), 1.0 + 0.5 * 64.0 * 4.0, 8.0);
}

TEST(Fitter, TwoTermSearchRecoversTwoTermFunction) {
    // With max_terms = 2 and clean data, f = 4 + x + 0.1 x^2 is recovered.
    FitOptions opts;
    opts.space.max_terms = 2;
    const std::vector<double> xs = {2, 4, 8, 12, 16, 24, 32, 48};
    std::vector<double> ys;
    for (const double x : xs) {
        ys.push_back(4.0 + x + 0.1 * x * x);
    }
    const PerformanceModel m = ModelGenerator(opts).fit(xs, ys);
    const double truth = 4.0 + 96.0 + 0.1 * 96.0 * 96.0;
    EXPECT_NEAR(m.evaluate(96.0), truth, 0.05 * truth);
}

TEST(Fitter, ParamNamesAutofilled) {
    std::vector<std::vector<double>> pts;
    std::vector<double> ys;
    for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        pts.push_back({x, x});
        ys.push_back(x);
    }
    const PerformanceModel m = ModelGenerator().fit(pts, ys, {});
    ASSERT_EQ(m.param_names().size(), 2u);
    EXPECT_EQ(m.param_names()[0], "x1");
    EXPECT_EQ(m.param_names()[1], "x2");
}

TEST(Fitter, EmptyParamNamesDefaultedEvenWhenCorrectlySized) {
    // Regression: a correctly-sized vector of empty names used to pass
    // through untouched, producing unlabeled models.
    std::vector<std::vector<double>> pts;
    std::vector<double> ys;
    for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        pts.push_back({x, x});
        ys.push_back(x);
    }
    const PerformanceModel m = ModelGenerator().fit(pts, ys, {"", ""});
    ASSERT_EQ(m.param_names().size(), 2u);
    EXPECT_EQ(m.param_names()[0], "x1");
    EXPECT_EQ(m.param_names()[1], "x2");
    // Partially-named input keeps the given names and fills only the gaps.
    const PerformanceModel m2 = ModelGenerator().fit(pts, ys, {"ranks", ""});
    EXPECT_EQ(m2.param_names()[0], "ranks");
    EXPECT_EQ(m2.param_names()[1], "x2");
}

TEST(Fitter, ExactInterpolationHypothesesAreExcluded) {
    // Regression: with n == k the model interpolates exactly, fit_smape ~ 0,
    // and the old fallback score (fit_smape * 4 + 1) collapsed to ~1 % for
    // *every* richest hypothesis — beating genuinely cross-validated simpler
    // models whose CV error exceeds 1 % and making the winner arbitrary.
    // Exact-interpolation fits are now rejected, so with 3 noisy linear
    // points the search must pick a cross-validatable model (<= 1 term), not
    // a 2-term interpolator.
    FitOptions opts;
    opts.min_points = 3;
    opts.space.max_terms = 2;
    const std::vector<double> xs = {2, 4, 8};
    const std::vector<double> ys = {3.2, 5.4, 8.7};  // noisy 1 + x
    const PerformanceModel m = ModelGenerator(opts).fit(xs, ys);
    EXPECT_LE(m.terms().size(), 1u);
    // The selected model must stay sane under extrapolation instead of
    // following an arbitrary interpolator.
    EXPECT_GT(m.evaluate(64.0), 0.0);
    EXPECT_LT(m.evaluate(64.0), 10.0 * (1.0 + 64.0));
}

TEST(Fitter, ExactLinearDataPinsLinearModelAtMinimumPoints) {
    // With exactly linear data on 3 points, leave-one-out reproduces the
    // third point exactly only for the linear hypothesis, so the selection
    // is pinned: constant + x with cv_smape == 0.
    FitOptions opts;
    opts.min_points = 3;
    opts.space.max_terms = 2;
    const std::vector<double> xs = {2, 4, 8};
    const std::vector<double> ys = {3, 5, 9};  // exactly 1 + x
    const PerformanceModel m = ModelGenerator(opts).fit(xs, ys);
    ASSERT_EQ(m.terms().size(), 1u);
    EXPECT_EQ(m.dominant_growth(), (std::pair<double, int>{1.0, 0}));
    EXPECT_NEAR(m.constant(), 1.0, 1e-8);
    EXPECT_NEAR(m.terms()[0].coefficient, 1.0, 1e-8);
    EXPECT_NEAR(m.quality().cv_smape, 0.0, 1e-8);
}

TEST(Fitter, DuplicateHypothesesAreSearchedOnce) {
    // Regression: with a constant second parameter, every x2 hypothesis is
    // rank deficient, so the multi-parameter generator re-emits the best x1
    // single-term candidates as "additive" hypotheses — duplicates that used
    // to inflate hypotheses_searched and waste fits.
    std::vector<std::vector<double>> pts;
    std::vector<double> ys;
    for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        pts.push_back({x, 4.0});
        ys.push_back(1.0 + 2.0 * x);
    }
    const ModelGenerator gen;
    const PerformanceModel m = gen.fit(pts, ys, {"x1", "x2"});
    const auto n_factors =
        gen.options().space.single_parameter_factors(0).size();
    // constant + one 1-term hypothesis per factor and per parameter; the
    // re-emitted additive duplicates must not be counted (or fitted) again.
    EXPECT_EQ(m.quality().hypotheses_searched,
              static_cast<int>(1 + 2 * n_factors));
}

TEST(Fitter, DecreasingDataGetsNegativeTerm) {
    // Strong-scaling runtimes decrease; the model must follow.
    const auto ys = map_values(kXs, [](double x) { return 100.0 / x + 5.0; });
    const PerformanceModel m = ModelGenerator().fit(kXs, ys);
    EXPECT_LT(m.evaluate(64.0), m.evaluate(2.0));
}

// ---------------------------------------------------------------------------
// Selection-score behaviour: the parsimony bias and the leave-one-out CV
// score that drive hypothesis selection (paper Sec. 2.3.1).

TEST(Selection, TermPenaltyPrefersSimplerHypothesisOnNearTie) {
    // A weak trend buried in alternating jitter: the linear hypothesis
    // scores a slightly better (but nonzero) cv_smape than the constant
    // one. With the penalty disabled the fitter must chase that margin;
    // with a strong penalty the constant hypothesis must win. This pins
    // the *direction* of the parsimony bias - a regression that flipped
    // the score to cv_smape / (1 + p*#terms) or dropped the term count
    // would invert one of the two outcomes. (The trend must not be exactly
    // representable, or the winning cv_smape would be 0 and a
    // multiplicative penalty could never flip the choice.)
    const std::vector<double> xs = {2, 4, 8, 16, 32, 64};
    std::vector<double> ys;
    double sign = 1.0;
    for (const double x : xs) {
        ys.push_back(100.0 + 0.05 * x + sign * 0.3);
        sign = -sign;
    }

    FitOptions greedy;
    greedy.term_penalty = 0.0;
    const auto complex_fit = ModelGenerator(greedy).fit(xs, ys);
    EXPECT_FALSE(complex_fit.terms().empty())
        << "without a penalty the marginally better non-constant hypothesis "
           "must be selected: " << complex_fit.to_string();

    FitOptions parsimonious;
    parsimonious.term_penalty = 10.0;
    const auto simple_fit = ModelGenerator(parsimonious).fit(xs, ys);
    EXPECT_TRUE(simple_fit.terms().empty())
        << "a strong penalty must make the constant hypothesis win: "
        << simple_fit.to_string();
    // The constant hypothesis fits the data mean: 100 + 0.05 * mean(xs).
    EXPECT_NEAR(simple_fit.constant(), 101.05, 0.01);

    // The default mild penalty must not override a *real* improvement:
    // clearly linear data still selects a linear term.
    std::vector<double> linear_ys;
    for (const double x : xs) linear_ys.push_back(100.0 + 5.0 * x);
    const auto default_fit = ModelGenerator().fit(xs, linear_ys);
    ASSERT_EQ(default_fit.terms().size(), 1u);
    EXPECT_DOUBLE_EQ(default_fit.terms()[0].factors[0].poly_exp, 1.0);
    EXPECT_EQ(default_fit.terms()[0].factors[0].log_exp, 0);
}

TEST(Selection, LeaveOneOutCvIsZeroOnExactData) {
    // y = 3 + 2x is inside the hypothesis space, so every leave-one-out
    // refit reproduces the held-out point exactly: cv_smape ~ 0 and the
    // exact exponents are recovered with the exact coefficients.
    const std::vector<double> xs = {2, 4, 8, 16, 32, 64};
    std::vector<double> ys;
    for (const double x : xs) ys.push_back(3.0 + 2.0 * x);
    const auto m = ModelGenerator().fit(xs, ys);
    ASSERT_EQ(m.terms().size(), 1u);
    EXPECT_DOUBLE_EQ(m.terms()[0].factors[0].poly_exp, 1.0);
    EXPECT_EQ(m.terms()[0].factors[0].log_exp, 0);
    EXPECT_NEAR(m.constant(), 3.0, 1e-6);
    EXPECT_NEAR(m.terms()[0].coefficient, 2.0, 1e-6);
    EXPECT_NEAR(m.quality().cv_smape, 0.0, 1e-6);
    EXPECT_NEAR(m.quality().fit_smape, 0.0, 1e-6);
    EXPECT_NEAR(m.quality().r_squared, 1.0, 1e-9);
}

TEST(Selection, CvScoreSeparatesInAndOutOfSpaceShapes) {
    // 1/x is outside the PMNF search space: its cv_smape must stay clearly
    // above the in-space linear case's, making the score a meaningful
    // ranking signal rather than a constant.
    const std::vector<double> xs = {2, 4, 8, 16, 32, 64};
    std::vector<double> inv_ys;
    for (const double x : xs) inv_ys.push_back(100.0 / x);
    const auto inv_fit = ModelGenerator().fit(xs, inv_ys);
    EXPECT_GT(inv_fit.quality().cv_smape, 1.0)
        << inv_fit.to_string();
}

namespace {

using extradeep::linalg::Matrix;

/// Outcome of the reference search: the selected hypothesis and its fit.
struct ReferenceFit {
    bool valid = false;
    std::size_t index = 0;
    std::vector<double> coefficients;
    double fit_smape = 0.0;
    double cv_smape = 0.0;
    double rss = 0.0;
    Matrix cov_unscaled;
};

/// The single-parameter hypothesis search as one loop per hypothesis:
/// basis from Term::basis, one-shot reference least squares on the full
/// system and on every leave-one-out subset, selection by the first strict
/// minimum of the penalised CV SMAPE. No factorisation is shared.
ReferenceFit reference_fit(const FitOptions& options,
                           const std::vector<double>& xs,
                           const std::vector<double>& ys) {
    const auto hypotheses = options.space.single_parameter_hypotheses(0);
    const std::size_t n = xs.size();
    ReferenceFit best;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t h = 0; h < hypotheses.size(); ++h) {
        const auto& terms = hypotheses[h];
        const std::size_t k = terms.size() + 1;
        if (!(n >= k + 1 || (n == k && terms.empty()))) {
            continue;
        }
        Matrix basis(n, k);
        bool finite = true;
        for (std::size_t r = 0; r < n; ++r) {
            basis(r, 0) = 1.0;
            for (std::size_t t = 0; t < terms.size(); ++t) {
                basis(r, t + 1) =
                    terms[t].basis(std::span<const double>(&xs[r], 1));
                finite = finite && std::isfinite(basis(r, t + 1));
            }
        }
        if (!finite) {
            continue;
        }
        const auto full = reference::least_squares(basis, ys);
        if (full.rank_deficient) {
            continue;
        }
        bool ok = true;
        for (const double c : full.coefficients) {
            ok = ok && std::isfinite(c);
        }
        if (!ok) {
            continue;
        }
        std::vector<double> predicted(n);
        for (std::size_t i = 0; i < n; ++i) {
            double v = 0.0;
            for (std::size_t c = 0; c < k; ++c) {
                v += basis(i, c) * full.coefficients[c];
            }
            predicted[i] = v;
        }
        const double fit_smape = extradeep::stats::smape(predicted, ys);
        double cv_smape = fit_smape * 4.0 + 1.0;
        if (n >= k + 1) {
            std::vector<double> cv_pred(n);
            for (std::size_t leave = 0; leave < n && ok; ++leave) {
                Matrix a(n - 1, k);
                std::vector<double> b;
                for (std::size_t i = 0, r = 0; i < n; ++i) {
                    if (i == leave) {
                        continue;
                    }
                    for (std::size_t c = 0; c < k; ++c) {
                        a(r, c) = basis(i, c);
                    }
                    b.push_back(ys[i]);
                    ++r;
                }
                const auto part = reference::least_squares(a, b);
                double v = 0.0;
                for (std::size_t c = 0; c < k; ++c) {
                    v += basis(leave, c) * part.coefficients[c];
                }
                ok = !part.rank_deficient && std::isfinite(v);
                cv_pred[leave] = v;
            }
            if (!ok) {
                continue;
            }
            cv_smape = extradeep::stats::smape(cv_pred, ys);
        }
        const double score =
            cv_smape *
            (1.0 + options.term_penalty * static_cast<double>(terms.size()));
        if (!best.valid || score < best_score) {
            best_score = score;
            best.valid = true;
            best.index = h;
            best.coefficients = full.coefficients;
            best.fit_smape = fit_smape;
            best.cv_smape = cv_smape;
            best.rss = full.residual_norm * full.residual_norm;
            best.cov_unscaled = full.covariance_unscaled;
        }
    }
    return best;
}

bool same_bits(double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// The model must be the reference's selection, bit for bit.
void expect_matches_reference(const PerformanceModel& m,
                              const ReferenceFit& ref,
                              const FitOptions& options, std::size_t n) {
    const auto hypotheses = options.space.single_parameter_hypotheses(0);
    const auto& terms = hypotheses[ref.index];
    ASSERT_EQ(m.terms().size(), terms.size());
    EXPECT_TRUE(same_bits(m.constant(), ref.coefficients[0]));
    for (std::size_t t = 0; t < terms.size(); ++t) {
        EXPECT_EQ(m.terms()[t].factors, terms[t].factors);
        EXPECT_TRUE(same_bits(m.terms()[t].coefficient, ref.coefficients[t + 1]));
    }
    EXPECT_TRUE(same_bits(m.quality().fit_smape, ref.fit_smape));
    EXPECT_TRUE(same_bits(m.quality().cv_smape, ref.cv_smape));
    EXPECT_TRUE(same_bits(m.quality().rss, ref.rss));
    EXPECT_EQ(m.quality().hypotheses_searched,
              static_cast<int>(hypotheses.size()));
    const int dof = static_cast<int>(n) - static_cast<int>(terms.size()) - 1;
    ASSERT_EQ(m.has_fit_info(), dof >= 1);
    if (dof >= 1) {
        EXPECT_TRUE(same_bits(m.residual_variance(), ref.rss / dof));
        const Matrix& cov = m.cov_unscaled();
        ASSERT_EQ(cov.rows(), ref.cov_unscaled.rows());
        ASSERT_EQ(cov.cols(), ref.cov_unscaled.cols());
        for (std::size_t r = 0; r < cov.rows(); ++r) {
            for (std::size_t c = 0; c < cov.cols(); ++c) {
                EXPECT_TRUE(same_bits(cov(r, c), ref.cov_unscaled(r, c)));
            }
        }
    }
}

}  // namespace

TEST(Fitter, SharedDesignBitIdenticalToDirectFit) {
    // One design per xs, many series: every fit against the shared design
    // and every one-off fit(xs, ys) must select and report exactly what the
    // per-hypothesis reference loop does.
    struct Case {
        const char* name;
        int max_terms;
        std::vector<double> xs;
    };
    // Four points at 2 * (1 + j 1e-8) and one far away: every non-constant
    // 1-term system with all five points is well conditioned, but leaving
    // out x = 64 leaves near-collinear columns whose R passes the pivot
    // tolerance while A^T A fails the Cholesky test.
    const std::vector<double> cholesky_xs = {2.0, 2.0 * (1.0 + 1e-8),
                                             2.0 * (1.0 + 2e-8),
                                             2.0 * (1.0 + 3e-8), 64.0};
    const std::vector<Case> cases = {
        {"1-term, min_points", 1, {2, 4, 8, 16, 32}},
        {"1-term, repeated xs", 1, {2, 2, 4, 4, 8, 8}},
        {"1-term, log2(x) = 0 at x = 1", 1, {1, 2, 4, 8, 16, 32}},
        {"1-term, non-finite basis", 1, {2, 4, 8, 16, 1e120}},
        {"1-term, LOO fails Cholesky only", 1, cholesky_xs},
        {"2-term", 2, {2, 4, 6, 8, 12, 16, 24}},
        {"2-term, log2(x) = 0 at x = 1", 2, {1, 2, 4, 8, 16, 32}},
    };
    {
        // The Cholesky-only case really occurs: x^1 passes on all five
        // points, and without x = 64 R keeps every pivot but A^T A is not
        // numerically SPD.
        Matrix full(5, 2);
        Matrix loo(4, 2);
        for (std::size_t r = 0; r < 5; ++r) {
            full(r, 0) = 1.0;
            full(r, 1) = cholesky_xs[r];
            if (r < 4) {
                loo(r, 0) = 1.0;
                loo(r, 1) = cholesky_xs[r];
            }
        }
        EXPECT_FALSE(extradeep::linalg::qr_factor(full).rank_deficient);
        const auto f = extradeep::linalg::qr_factor(loo);
        EXPECT_TRUE(f.rank_deficient);
        EXPECT_EQ(f.a.rows(), 0u) << "R has a zero pivot: not Cholesky-only";
    }

    Rng rng(17);
    int fitted = 0;
    int rejected = 0;
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        FitOptions options;
        options.space.max_terms = c.max_terms;
        const ModelGenerator gen(options);
        const ModelGenerator::Design design = gen.design(c.xs);

        std::vector<std::vector<double>> series;
        auto add = [&](auto f, double noise) {
            std::vector<double> ys;
            for (const double x : c.xs) {
                ys.push_back(f(x) * rng.lognormal_factor(noise));
            }
            series.push_back(ys);
        };
        add([](double x) { return 3.0 + 2.0 * x; }, 0.0);
        add([](double x) { return 10.0 + 3.0 * x; }, 0.03);
        add([](double x) { return 5.0 + std::log2(x); }, 0.05);
        add([](double x) { return 1.0 + 0.5 * x * std::sqrt(x); }, 0.02);
        add([](double x) { return 100.0 / x + 5.0; }, 0.02);
        add([](double) { return 7.0; }, 0.01);
        // Magnitudes near the double limit: reflections and back
        // substitution overflow, so coefficients turn non-finite.
        add([](double x) { return 1.7e308 / (1.0 + std::log2(x)); }, 0.0);
        series.push_back({});
        for (std::size_t i = 0; i < c.xs.size(); ++i) {
            series.back().push_back(i % 2 == 0 ? 1.7e308 : -1.7e308);
        }

        for (std::size_t s = 0; s < series.size(); ++s) {
            SCOPED_TRACE("series " + std::to_string(s));
            const auto& ys = series[s];
            const ReferenceFit ref = reference_fit(options, c.xs, ys);
            if (!ref.valid) {
                ++rejected;
                EXPECT_THROW(gen.fit(design, ys), extradeep::NumericalError);
                EXPECT_THROW(gen.fit(c.xs, ys), extradeep::NumericalError);
                continue;
            }
            ++fitted;
            const PerformanceModel shared = gen.fit(design, ys);
            const PerformanceModel direct = gen.fit(c.xs, ys);
            expect_matches_reference(shared, ref, options, c.xs.size());
            expect_matches_reference(direct, ref, options, c.xs.size());
            EXPECT_TRUE(same_bits(shared.quality().r_squared,
                                  direct.quality().r_squared));
            EXPECT_EQ(shared.to_string(), direct.to_string());
        }
    }
    EXPECT_GT(fitted, 40);
    EXPECT_GT(rejected, 0);
}

TEST(Fitter, DesignValidatesItsInputs) {
    const ModelGenerator gen;
    EXPECT_THROW(gen.design({1, 2, 3}), InvalidArgumentError);
    const auto design = gen.design({2, 4, 8, 16, 32});
    EXPECT_THROW(gen.fit(design, {1, 2, 3}), InvalidArgumentError);
    EXPECT_THROW(gen.fit(design, {1, 2, 3, 4, std::nan("")}),
                 InvalidArgumentError);
}
