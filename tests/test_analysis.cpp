#include <gtest/gtest.h>

#include <cmath>

#include "analysis/bottleneck.hpp"
#include "analysis/config_search.hpp"
#include "analysis/cost.hpp"
#include "analysis/speedup.hpp"
#include "common/error.hpp"

using namespace extradeep;
using namespace extradeep::analysis;
using extradeep::InvalidArgumentError;

namespace {

modeling::PerformanceModel one_term_model(double constant, double coeff,
                                          double poly, int log) {
    modeling::Term t;
    t.coefficient = coeff;
    t.factors = {modeling::Factor{0, poly, log}};
    return modeling::PerformanceModel(constant, {t}, {"x1"});
}

}  // namespace

TEST(Speedup, Eq11Definition) {
    // T1=100; T=50 -> +50 %; T=150 -> -50 %; baseline always 0.
    const std::vector<double> runtimes = {100.0, 50.0, 150.0};
    const auto d = speedups(runtimes);
    EXPECT_DOUBLE_EQ(d[0], 0.0);
    EXPECT_DOUBLE_EQ(d[1], 50.0);
    EXPECT_DOUBLE_EQ(d[2], -50.0);
}

TEST(Speedup, Validation) {
    EXPECT_THROW(speedups({}), InvalidArgumentError);
    EXPECT_THROW(speedups(std::vector<double>{0.0, 1.0}), InvalidArgumentError);
}

TEST(Efficiency, Eq13Definition) {
    // x: 2 -> 4 gives theoretical speedup 100 %; actual speedup 50 % ->
    // efficiency 50 %.
    const std::vector<double> ranks = {2.0, 4.0};
    const std::vector<double> runtimes = {100.0, 50.0};
    const auto e = efficiencies(ranks, runtimes);
    EXPECT_DOUBLE_EQ(e[0], 100.0);
    EXPECT_DOUBLE_EQ(e[1], 50.0);
}

TEST(Efficiency, WeakScalingPerfectRuntimeGivesZeroGain) {
    // Constant runtime under more ranks: Eq. 13 efficiency drops to 0.
    const std::vector<double> ranks = {2.0, 8.0};
    const std::vector<double> runtimes = {100.0, 100.0};
    const auto e = efficiencies(ranks, runtimes);
    EXPECT_DOUBLE_EQ(e[1], 0.0);
}

TEST(Efficiency, ClassicDefinition) {
    // Perfect strong scaling: T ~ 1/x -> 100 % classic efficiency.
    const std::vector<double> ranks = {2.0, 4.0, 8.0};
    const std::vector<double> runtimes = {100.0, 50.0, 25.0};
    const auto e = classic_efficiencies(ranks, runtimes);
    EXPECT_DOUBLE_EQ(e[0], 100.0);
    EXPECT_DOUBLE_EQ(e[1], 100.0);
    EXPECT_DOUBLE_EQ(e[2], 100.0);
}

TEST(Efficiency, ClassicDegradesWithOverhead) {
    const std::vector<double> ranks = {2.0, 8.0};
    const std::vector<double> runtimes = {100.0, 40.0};  // ideal would be 25
    const auto e = classic_efficiencies(ranks, runtimes);
    EXPECT_NEAR(e[1], 62.5, 1e-9);
}

TEST(Speedup, ModelFitsSpeedupCurve) {
    // Runtimes 200/x: the true speedup 100*(1 - 2/x) saturates at 100 %.
    // The 1/x shape is not in the PMNF space, so the fit is approximate -
    // the model must still be increasing and land near the saturation level.
    std::vector<double> ranks = {2, 4, 8, 16, 32};
    std::vector<double> runtimes;
    for (const double x : ranks) runtimes.push_back(200.0 / x);
    const auto m = model_speedup(ranks, runtimes);
    EXPECT_GT(m.evaluate(32.0), m.evaluate(4.0));
    EXPECT_NEAR(m.evaluate(32.0), 93.75, 20.0);
    EXPECT_NEAR(m.evaluate(2.0), 0.0, 20.0);
}

TEST(Cost, Eq14CoreHours) {
    // 3600 s on 4 ranks with 8 cores each = 32 core hours.
    EXPECT_DOUBLE_EQ(training_cost_core_hours(3600.0, 4.0, 8.0), 32.0);
    EXPECT_THROW(training_cost_core_hours(1.0, 0.0, 8.0), InvalidArgumentError);
}

TEST(Cost, CostFunctionFactory) {
    const CostFunction f = core_hours_cost(8.0);
    EXPECT_DOUBLE_EQ(f(3600.0, 2.0), 16.0);
    EXPECT_THROW(core_hours_cost(0.0), InvalidArgumentError);
}

TEST(Cost, ModelFollowsSuperlinearCost) {
    // Weak-scaling constant runtime: cost grows linearly with ranks.
    std::vector<double> ranks = {2, 4, 8, 16, 32};
    std::vector<double> runtimes(5, 100.0);
    const auto m = model_cost(ranks, runtimes, core_hours_cost(8.0));
    EXPECT_NEAR(m.evaluate(64.0), 100.0 * 64.0 * 8.0 / 3600.0, 1.5);
}

TEST(Bottleneck, RanksByAsymptoticGrowth) {
    std::vector<NamedModel> models;
    models.push_back({"const_kernel", one_term_model(5.0, 0.0, 0.0, 0)});
    models.push_back({"linear_kernel", one_term_model(0.0, 1.0, 1.0, 0)});
    models.push_back({"quadratic_kernel", one_term_model(0.0, 0.001, 2.0, 0)});
    models.push_back({"log_kernel", one_term_model(0.0, 50.0, 0.0, 1)});
    const auto ranked = rank_by_growth(models, 64.0);
    ASSERT_EQ(ranked.size(), 4u);
    EXPECT_EQ(ranked[0].name, "quadratic_kernel");
    EXPECT_EQ(ranked[1].name, "linear_kernel");
    EXPECT_EQ(ranked[2].name, "log_kernel");
    EXPECT_EQ(ranked[3].name, "const_kernel");
    EXPECT_EQ(ranked[0].growth, "O(x1^2)");
}

TEST(Bottleneck, GrowthTieBrokenByPredictedValue) {
    std::vector<NamedModel> models;
    models.push_back({"small_linear", one_term_model(0.0, 1.0, 1.0, 0)});
    models.push_back({"big_linear", one_term_model(0.0, 10.0, 1.0, 0)});
    const auto ranked = rank_by_growth(models, 64.0);
    EXPECT_EQ(ranked[0].name, "big_linear");
}

TEST(ConfigSearch, WeakScalingPicksSmallestFeasible) {
    // Weak scaling: runtime rises slowly; smallest allocation wins.
    const auto runtime = one_term_model(100.0, 10.0, 0.0, 1);
    const auto result = find_cost_effective_config(
        [&](double x) { return runtime.evaluate(x); }, {2, 4, 8, 16, 32},
        core_hours_cost(8.0), {}, parallel::ScalingMode::Weak);
    ASSERT_TRUE(result.best.has_value());
    EXPECT_DOUBLE_EQ(result.candidates[*result.best].ranks, 2.0);
}

TEST(ConfigSearch, WeakScalingRespectsTimeLimit) {
    const auto runtime = one_term_model(100.0, 10.0, 0.0, 1);  // 110 at x=2
    ConfigSearchLimits limits;
    limits.max_time_s = 125.0;  // excludes x=2 (110)? no: 110 <= 125 feasible
    limits.max_time_s = 105.0;  // now x=2 infeasible... T(2)=110
    const auto result = find_cost_effective_config(
        [&](double x) { return runtime.evaluate(x); }, {2, 4, 8},
        core_hours_cost(8.0), limits, parallel::ScalingMode::Weak);
    // All candidates exceed the time limit except none; with weak scaling
    // runtime only grows, so nothing is feasible.
    EXPECT_FALSE(result.best.has_value());
}

TEST(ConfigSearch, StrongScalingPicksHighestEfficiencyFeasible) {
    // Strong scaling T = 600/x + 10: time falls, cost rises.
    modeling::Term inv;  // approximate 1/x via -log? use explicit values.
    // Instead, fit a model through strong-scaling values.
    std::vector<double> ranks = {2, 4, 8, 16, 32};
    std::vector<double> runtimes;
    for (const double x : ranks) runtimes.push_back(600.0 / x + 10.0);
    const auto runtime = modeling::ModelGenerator().fit(ranks, runtimes);

    ConfigSearchLimits limits;
    limits.max_time_s = 200.0;   // excludes the smallest configs
    limits.max_cost = 10.0;      // core hours budget
    const auto result = find_cost_effective_config(
        [&](double x) { return runtime.evaluate(x); }, {2, 4, 8, 16, 32},
        core_hours_cost(8.0), limits, parallel::ScalingMode::Strong);
    ASSERT_TRUE(result.best.has_value());
    const auto& best = result.candidates[*result.best];
    EXPECT_TRUE(best.feasible());
    EXPECT_LE(best.time_s, 200.0);
    EXPECT_LE(best.cost, 10.0);
    // Every feasible candidate has efficiency <= the chosen one.
    for (const auto& c : result.candidates) {
        if (c.feasible()) {
            EXPECT_LE(c.efficiency_pct, best.efficiency_pct + 1e-9);
        }
    }
}

TEST(ConfigSearch, ReportsFeasibilityPerCandidate) {
    const auto runtime = one_term_model(100.0, 0.0, 0.0, 0);  // constant 100 s
    ConfigSearchLimits limits;
    limits.max_cost = 1.0;  // 100 s * x * 8 / 3600 <= 1  ->  x <= 4.5
    const auto result = find_cost_effective_config(
        [&](double x) { return runtime.evaluate(x); }, {2, 4, 8},
        core_hours_cost(8.0), limits, parallel::ScalingMode::Strong);
    EXPECT_TRUE(result.candidates[0].feasible_cost);
    EXPECT_TRUE(result.candidates[1].feasible_cost);
    EXPECT_FALSE(result.candidates[2].feasible_cost);
    EXPECT_TRUE(result.candidates[2].feasible_time);
}

TEST(ConfigSearch, SortsCandidates) {
    const auto runtime = one_term_model(10.0, 1.0, 1.0, 0);
    const auto result = find_cost_effective_config(
        [&](double x) { return runtime.evaluate(x); }, {8, 2, 4},
        core_hours_cost(1.0), {}, parallel::ScalingMode::Weak);
    ASSERT_EQ(result.candidates.size(), 3u);
    EXPECT_DOUBLE_EQ(result.candidates[0].ranks, 2.0);
    EXPECT_DOUBLE_EQ(result.candidates[2].ranks, 8.0);
}

TEST(ConfigSearch, Validation) {
    const auto runtime = one_term_model(1.0, 0.0, 0.0, 0);
    const RuntimeFn fn = [&](double x) { return runtime.evaluate(x); };
    EXPECT_THROW(find_cost_effective_config(fn, {}, core_hours_cost(1.0), {},
                                            parallel::ScalingMode::Weak),
                 InvalidArgumentError);
    EXPECT_THROW(find_cost_effective_config(fn, {0.0}, core_hours_cost(1.0),
                                            {}, parallel::ScalingMode::Weak),
                 InvalidArgumentError);
    EXPECT_THROW(find_cost_effective_config(RuntimeFn{}, {2.0},
                                            core_hours_cost(1.0), {},
                                            parallel::ScalingMode::Weak),
                 InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Property tests for the analysis equations (Eqs. 11-14): invariants that
// must hold for any measurement sweep, checked on seeded pseudo-random
// inputs, plus the exact error behaviour on degenerate inputs.

#include "common/rng.hpp"

namespace {

/// A reproducible strong-scaling-ish sweep: increasing ranks, positive
/// runtimes with bounded jitter around c/x + overhead.
struct Sweep {
    std::vector<double> ranks;
    std::vector<double> runtimes;
};

Sweep random_sweep(std::uint64_t seed) {
    extradeep::Rng rng(seed);
    Sweep s;
    double x = 1.0 + 3.0 * rng.uniform01();
    for (int i = 0; i < 6; ++i) {
        s.ranks.push_back(x);
        const double ideal = 500.0 / x + 5.0;
        s.runtimes.push_back(ideal * rng.lognormal_factor(0.1));
        x *= 1.5 + rng.uniform01();
    }
    return s;
}

}  // namespace

TEST(SpeedupProperty, BaselineNeutralAndScaleInvariant) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Sweep s = random_sweep(seed);
        const auto d = speedups(s.runtimes);
        ASSERT_EQ(d.size(), s.runtimes.size());
        EXPECT_DOUBLE_EQ(d[0], 0.0) << "Eq. 11: baseline speedup is 0";
        // Eq. 11 is equivalent to 100 * (1 - T_k/T_1).
        for (std::size_t k = 0; k < d.size(); ++k) {
            EXPECT_NEAR(d[k], 100.0 * (1.0 - s.runtimes[k] / s.runtimes[0]),
                        1e-9);
            EXPECT_LT(d[k], 100.0) << "finite runtimes cap speedup below 100%";
        }
        // Rescaling all runtimes (a unit change) must not move speedups.
        std::vector<double> scaled = s.runtimes;
        for (double& t : scaled) t *= 42.0;
        const auto d2 = speedups(scaled);
        for (std::size_t k = 0; k < d.size(); ++k) {
            EXPECT_NEAR(d[k], d2[k], 1e-9);
        }
    }
}

TEST(EfficiencyProperty, ConsistentWithSpeedupRatio) {
    // Eq. 13 is exactly (actual speedup) / (theoretical speedup): the three
    // quantities must satisfy the identity at every non-baseline point.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Sweep s = random_sweep(seed);
        const auto e = efficiencies(s.ranks, s.runtimes);
        const auto d = speedups(s.runtimes);
        EXPECT_DOUBLE_EQ(e[0], 100.0) << "Eq. 13: baseline efficiency is 100%";
        for (std::size_t k = 1; k < e.size(); ++k) {
            const double delta_t =
                (s.ranks[k] - s.ranks[0]) / (s.ranks[0] / 100.0);
            EXPECT_NEAR(e[k] * delta_t, 100.0 * d[k], 1e-6);
        }
    }
}

TEST(EfficiencyProperty, PerfectStrongScalingGivesKnownValues) {
    // T = c/x: Eq. 13 efficiency collapses to 100 * x1 / xk, the classic
    // efficiency stays pinned at 100 - and Eq. 13 never exceeds classic on
    // non-superlinear data.
    const std::vector<double> ranks = {2, 4, 8, 16, 32};
    std::vector<double> runtimes;
    for (const double x : ranks) runtimes.push_back(640.0 / x);
    const auto e = efficiencies(ranks, runtimes);
    const auto c = classic_efficiencies(ranks, runtimes);
    for (std::size_t k = 0; k < ranks.size(); ++k) {
        EXPECT_NEAR(e[k], 100.0 * ranks[0] / ranks[k], 1e-9);
        EXPECT_NEAR(c[k], 100.0, 1e-9);
        EXPECT_LE(e[k], c[k] + 1e-9);
    }
}

TEST(EfficiencyProperty, ClassicBoundedByScalingRegime) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Sweep s = random_sweep(seed);
        const auto c = classic_efficiencies(s.ranks, s.runtimes);
        EXPECT_DOUBLE_EQ(c[0], 100.0);
        for (std::size_t k = 0; k < c.size(); ++k) {
            EXPECT_GT(c[k], 0.0) << "positive inputs give positive efficiency";
            // Sublinear speedup (T_k >= T_1 * x_1 / x_k) iff efficiency <= 100.
            const double ideal = s.runtimes[0] * s.ranks[0] / s.ranks[k];
            if (s.runtimes[k] >= ideal) {
                EXPECT_LE(c[k], 100.0 + 1e-9);
            } else {
                EXPECT_GT(c[k], 100.0 - 1e-9);
            }
        }
    }
}

TEST(CostProperty, NonNegativeAndLinearInRho) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Sweep s = random_sweep(seed);
        for (std::size_t k = 0; k < s.ranks.size(); ++k) {
            const double c8 =
                training_cost_core_hours(s.runtimes[k], s.ranks[k], 8.0);
            const double c16 =
                training_cost_core_hours(s.runtimes[k], s.ranks[k], 16.0);
            const double c24 =
                training_cost_core_hours(s.runtimes[k], s.ranks[k], 24.0);
            EXPECT_GE(c8, 0.0);
            // Eq. 14 is linear in rho: additive and homogeneous.
            EXPECT_NEAR(c24, c8 + c16, 1e-9);
            EXPECT_NEAR(c16, 2.0 * c8, 1e-9);
            // And linear in runtime.
            EXPECT_NEAR(training_cost_core_hours(2.0 * s.runtimes[k],
                                                 s.ranks[k], 8.0),
                        2.0 * c8, 1e-9);
        }
    }
}

// ---------------------------------------------------------------------------
// Boundary regressions: Eqs. 11-14 pinned at the interpolation/extrapolation
// boundary (the largest modeling configuration). The what-if advisor leans on
// model evaluations right at and beyond this point, so the equations must be
// continuous across it and the fitted prediction intervals must not shrink
// once the model leaves its supported range.

namespace {

const std::vector<double>& boundary_ranks() {
    static const std::vector<double> ranks = {2, 4, 8, 16, 32};
    return ranks;
}

/// A noisy weak-scaling sweep over the modeling ranks, and the PMNF model
/// fitted through it. The ideal shape (c + a*x^1.25) lies inside the PMNF
/// search space, so the fit stays positive and well-behaved across the whole
/// range. The largest modeling x (32) is the boundary.
modeling::PerformanceModel boundary_model() {
    extradeep::Rng rng(17);
    std::vector<double> runtimes;
    for (const double x : boundary_ranks()) {
        runtimes.push_back((50.0 + 2.0 * std::pow(x, 1.25)) *
                           rng.lognormal_factor(0.05));
    }
    return modeling::ModelGenerator().fit(boundary_ranks(), runtimes);
}

}  // namespace

TEST(BoundaryRegression, EquationsAreContinuousAcrossTheModelingBoundary) {
    const modeling::PerformanceModel m = boundary_model();
    const double boundary = boundary_ranks().back();
    const double eps = 1e-6;

    // The runtime model itself must not jump at the boundary (guards against
    // anyone introducing a piecewise interpolation/extrapolation switch).
    const double inside = m.evaluate(boundary - eps);
    const double outside = m.evaluate(boundary + eps);
    EXPECT_NEAR(inside, outside, 1e-4 * (1.0 + std::fabs(inside)));

    // Eqs. 11, 13, 14 derived from model evaluations just inside vs just
    // outside the boundary agree to the same order.
    const std::vector<double> ranks_in = {2.0, boundary - eps};
    const std::vector<double> ranks_out = {2.0, boundary + eps};
    const std::vector<double> t_in = {m.evaluate(2.0), inside};
    const std::vector<double> t_out = {m.evaluate(2.0), outside};
    EXPECT_NEAR(speedups(t_in)[1], speedups(t_out)[1], 1e-4);
    EXPECT_NEAR(efficiencies(ranks_in, t_in)[1],
                efficiencies(ranks_out, t_out)[1], 1e-4);
    EXPECT_NEAR(classic_efficiencies(ranks_in, t_in)[1],
                classic_efficiencies(ranks_out, t_out)[1], 1e-4);
    EXPECT_NEAR(training_cost_core_hours(inside, boundary - eps, 8.0),
                training_cost_core_hours(outside, boundary + eps, 8.0), 1e-4);
}

TEST(BoundaryRegression, IntervalHalfWidthDoesNotShrinkBeyondTheBoundary) {
    const modeling::PerformanceModel m = boundary_model();
    const double boundary = boundary_ranks().back();

    // At the boundary itself the interval is a genuine band around the
    // prediction (the fit carries residual information).
    const auto at = m.predict_interval(boundary);
    EXPECT_LT(at.lower, at.prediction);
    EXPECT_GT(at.upper, at.prediction);

    // Extrapolating past the boundary can only widen the band: the advisor's
    // claim "these two options are distinguishable at x" would otherwise get
    // *more* confident the further it leaves the measured range.
    double prev_width = 0.0;
    for (const double x : {boundary, 1.5 * boundary, 2.0 * boundary,
                           4.0 * boundary, 8.0 * boundary}) {
        const auto pi = m.predict_interval(x);
        const double width = pi.upper - pi.lower;
        EXPECT_GE(width, prev_width * (1.0 - 1e-9)) << "x=" << x;
        EXPECT_LE(pi.lower, pi.prediction);
        EXPECT_GE(pi.upper, pi.prediction);
        prev_width = width;
    }

    // And an interpolation point is never wider than deep extrapolation.
    const double mid_width = [&] {
        const auto pi = m.predict_interval(0.5 * boundary);
        return pi.upper - pi.lower;
    }();
    const double far_width = [&] {
        const auto pi = m.predict_interval(8.0 * boundary);
        return pi.upper - pi.lower;
    }();
    EXPECT_LE(mid_width, far_width);
}

TEST(BoundaryRegression, ExactValuesPinnedAtTheBoundaryPoint) {
    // Noise-free T = 640/x + 10 evaluated exactly at the boundary config:
    // every derived quantity has a closed form. A change in any of Eqs. 11-14
    // at the edge of the modeling range trips these pins.
    std::vector<double> runtimes;
    for (const double x : boundary_ranks()) {
        runtimes.push_back(640.0 / x + 10.0);
    }
    // T(2) = 330, T(32) = 30.
    const auto d = speedups(runtimes);
    EXPECT_NEAR(d.back(), 100.0 * (1.0 - 30.0 / 330.0), 1e-9);
    const auto e = efficiencies(boundary_ranks(), runtimes);
    // Eq. 13: actual speedup / theoretical speedup; theoretical at x=32 with
    // baseline 2 is 100 * (32 - 2) / 2 = 1500 %.
    EXPECT_NEAR(e.back(), 100.0 * d.back() / 1500.0, 1e-9);
    const auto c = classic_efficiencies(boundary_ranks(), runtimes);
    // Classic: (330 * 2) / (30 * 32) = 0.6875.
    EXPECT_NEAR(c.back(), 68.75, 1e-9);
    // Eq. 14 at the boundary: 30 s on 32 ranks with 8 cores each.
    EXPECT_NEAR(training_cost_core_hours(runtimes.back(),
                                         boundary_ranks().back(), 8.0),
                30.0 * 32.0 * 8.0 / 3600.0, 1e-12);
}

TEST(AnalysisDegenerate, SingleConfiguration) {
    // One measurement point is a valid (if useless) sweep: baseline values.
    EXPECT_EQ(speedups(std::vector<double>{10.0}),
              std::vector<double>{0.0});
    EXPECT_EQ(efficiencies(std::vector<double>{4.0},
                           std::vector<double>{10.0}),
              std::vector<double>{100.0});
    EXPECT_EQ(classic_efficiencies(std::vector<double>{4.0},
                                   std::vector<double>{10.0}),
              std::vector<double>{100.0});
}

TEST(AnalysisDegenerate, RepeatedRanksFallBackToFullEfficiency) {
    // Identical rank counts make the theoretical speedup 0; Eq. 13 defines
    // the ratio as 100% rather than dividing by zero.
    const auto e = efficiencies(std::vector<double>{4.0, 4.0},
                                std::vector<double>{10.0, 12.0});
    EXPECT_DOUBLE_EQ(e[1], 100.0);
}

TEST(AnalysisDegenerate, ZeroAndNegativeInputsErrorExplicitly) {
    // Zero baseline runtime: speedup undefined -> throw, for both Eq. 11
    // directly and Eq. 13 through it.
    EXPECT_THROW(speedups(std::vector<double>{0.0, 1.0}),
                 InvalidArgumentError);
    EXPECT_THROW(efficiencies(std::vector<double>{2.0, 4.0},
                              std::vector<double>{0.0, 1.0}),
                 InvalidArgumentError);
    EXPECT_THROW(efficiencies(std::vector<double>{0.0, 4.0},
                              std::vector<double>{1.0, 1.0}),
                 InvalidArgumentError);
    // Classic efficiency rejects any non-positive measurement, not just the
    // baseline.
    EXPECT_THROW(classic_efficiencies(std::vector<double>{2.0, 4.0},
                                      std::vector<double>{1.0, 0.0}),
                 InvalidArgumentError);
    EXPECT_THROW(classic_efficiencies(std::vector<double>{2.0, -4.0},
                                      std::vector<double>{1.0, 1.0}),
                 InvalidArgumentError);
    // Eq. 14: zero runtime is a legal zero cost, negative inputs are not.
    EXPECT_DOUBLE_EQ(training_cost_core_hours(0.0, 4.0, 8.0), 0.0);
    EXPECT_THROW(training_cost_core_hours(-1.0, 4.0, 8.0),
                 InvalidArgumentError);
    EXPECT_THROW(training_cost_core_hours(1.0, 4.0, 0.0),
                 InvalidArgumentError);
    // Size mismatches never silently truncate.
    EXPECT_THROW(efficiencies(std::vector<double>{2.0},
                              std::vector<double>{1.0, 2.0}),
                 InvalidArgumentError);
    EXPECT_THROW(classic_efficiencies(std::vector<double>{2.0},
                                      std::vector<double>{1.0, 2.0}),
                 InvalidArgumentError);
    EXPECT_THROW(model_cost({2.0, 4.0}, {1.0}, core_hours_cost(8.0)),
                 InvalidArgumentError);
}
