#include "planner/planner.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace extradeep::planner {

namespace {

/// Arms with fewer than kTrustedPulls pulls face a stricter confidence bar
/// (target_rel_width * kUntrustedMargin): a single measurement that happens
/// to sit on the fitted curve must not retire its arm while the residual
/// scatter says the data is noisy. Noise-adaptive by construction - on
/// noise-free sources the interval collapses and even 1-pull arms clear the
/// stricter bar immediately.
constexpr int kTrustedPulls = 3;
constexpr double kUntrustedMargin = 0.02;
/// Confidence level of the acquisition intervals.
constexpr double kConfidence = 0.95;

/// Instruments of one run_plan invocation; null when metrics are disabled.
struct PlanInstruments {
    obs::Counter* arms_pulled = nullptr;
    obs::Counter* budget_spent = nullptr;
    obs::Histogram* refit_latency_us = nullptr;
};

PlanInstruments resolve_instruments(const PlanOptions& options) {
    obs::MetricsRegistry* registry = options.metrics;
    if (registry == nullptr && obs::trace_enabled()) {
        registry = &obs::global_metrics();
    }
    PlanInstruments out;
    if (registry != nullptr) {
        out.arms_pulled = &registry->counter("extradeep_plan_arms_pulled");
        out.budget_spent = &registry->counter("extradeep_plan_budget_spent");
        out.refit_latency_us = &registry->histogram(
            "extradeep_plan_refit_latency_us",
            obs::MetricsRegistry::default_latency_buckets_us());
    }
    return out;
}

std::string growth_string(const modeling::PerformanceModel& model,
                          std::size_t num_params) {
    std::ostringstream os;
    for (std::size_t d = 0; d < num_params; ++d) {
        os << (d == 0 ? "" : ", ") << model.growth_to_string(static_cast<int>(d));
    }
    return os.str();
}

}  // namespace

PlanResult run_plan(eval::MeasurementSource& source,
                    const PlanOptions& options) {
    const obs::Span plan_span{"plan.run"};
    const std::size_t num_arms = source.num_configs();
    const modeling::ModelGenerator generator;
    if (num_arms < static_cast<std::size_t>(generator.options().min_points)) {
        throw InvalidArgumentError(
            "run_plan: fewer candidate configurations than the fitter's "
            "min_points");
    }
    if (options.max_pulls_per_arm < 1) {
        throw InvalidArgumentError("run_plan: max_pulls_per_arm must be >= 1");
    }
    if (!(options.target_rel_width > 0.0)) {
        throw InvalidArgumentError("run_plan: target_rel_width must be > 0");
    }

    PlanResult result;
    result.param_names = source.param_names();
    double budget = static_cast<double>(options.budget);
    for (std::size_t a = 0; a < num_arms; ++a) {
        ArmState arm;
        arm.point = source.point(a);
        result.arms.push_back(std::move(arm));
        result.baseline_runs +=
            source.run_cost(a) * static_cast<double>(options.max_pulls_per_arm);
    }
    if (options.budget <= 0) {
        budget = result.baseline_runs;
    }

    const PlanInstruments instruments = resolve_instruments(options);
    const obs::Clock& clock =
        options.clock != nullptr ? *options.clock : obs::steady_clock_instance();

    const auto pull = [&](std::size_t a) {
        const obs::Span pull_span{"plan.pull"};
        ArmState& arm = result.arms[a];
        const double value = source.measure(a, arm.pulls);
        arm.values.push_back(value);
        ++arm.pulls;
        double sum = 0.0;
        for (const double v : arm.values) {
            sum += v;
        }
        arm.mean = sum / static_cast<double>(arm.values.size());
        result.runs_used += source.run_cost(a);
        if (instruments.arms_pulled != nullptr) {
            instruments.arms_pulled->increment(1);
            instruments.budget_spent->increment(static_cast<std::uint64_t>(
                std::llround(source.run_cost(a))));
        }
    };

    const auto refit = [&]() {
        const obs::Span refit_span{"plan.refit"};
        std::vector<std::vector<double>> points;
        std::vector<double> values;
        points.reserve(num_arms);
        values.reserve(num_arms);
        for (const ArmState& arm : result.arms) {
            points.push_back(arm.point);
            values.push_back(arm.mean);
        }
        const obs::ScopedLatencyTimer timer(clock, instruments.refit_latency_us);
        return generator.fit(points, values, result.param_names);
    };

    const auto rel_width = [&](const ArmState& arm) {
        const double half =
            result.model.interval_half_width(arm.point, kConfidence);
        const double scale =
            std::max(std::abs(result.model.evaluate(arm.point)), 1e-12);
        return half / (std::sqrt(static_cast<double>(arm.pulls)) * scale);
    };

    // Scores all arms after a refit, retires settled/exhausted ones, and
    // records the round. Returns the cumulative elimination count.
    std::string previous_growth;
    const auto close_round = [&](int round, int arm_pulled, int pulls) {
        PlanRound record;
        record.round = round;
        record.arm_pulled = arm_pulled;
        record.pulls_this_round = pulls;
        record.budget_spent = result.runs_used;
        record.fitted = result.model.to_string();
        record.growth = growth_string(result.model, result.param_names.size());
        record.growth_changed = record.growth != previous_growth && round > 0;
        previous_growth = record.growth;
        double max_active = 0.0;
        int eliminated_total = 0;
        for (ArmState& arm : result.arms) {
            if (arm.eliminated) {
                ++eliminated_total;
                continue;
            }
            arm.last_rel_width = rel_width(arm);
            const double bar =
                arm.pulls >= kTrustedPulls
                    ? options.target_rel_width
                    : options.target_rel_width * kUntrustedMargin;
            if (arm.last_rel_width <= bar) {
                arm.eliminated = true;
                arm.eliminated_round = round;
                arm.eliminated_reason = "confident";
                ++eliminated_total;
            } else if (arm.pulls >= options.max_pulls_per_arm) {
                arm.eliminated = true;
                arm.eliminated_round = round;
                arm.eliminated_reason = "exhausted";
                ++eliminated_total;
            } else {
                max_active = std::max(max_active, arm.last_rel_width);
            }
        }
        record.max_rel_width = max_active;
        record.eliminated_total = eliminated_total;
        result.rounds.push_back(std::move(record));
    };

    // Round 0: pull every arm once so the fit sees one mean per
    // configuration.
    {
        double seed_cost = 0.0;
        for (std::size_t a = 0; a < num_arms; ++a) {
            seed_cost += source.run_cost(a);
        }
        if (seed_cost > budget) {
            throw InvalidArgumentError(
                "run_plan: budget cannot cover the seed round");
        }
    }
    for (std::size_t a = 0; a < num_arms; ++a) {
        pull(a);
    }
    result.model = refit();
    close_round(0, -1, static_cast<int>(num_arms));

    // Racing loop: pull the least-certain surviving arm, refit, re-score.
    for (int round = 1;; ++round) {
        int next = -1;
        double best = -1.0;
        for (std::size_t a = 0; a < num_arms; ++a) {
            const ArmState& arm = result.arms[a];
            if (arm.eliminated) {
                continue;
            }
            // Strict > breaks score ties toward the lowest arm index; the
            // determinism suite pins this.
            if (arm.last_rel_width > best) {
                best = arm.last_rel_width;
                next = static_cast<int>(a);
            }
        }
        if (next < 0) {
            bool all_confident = true;
            for (const ArmState& arm : result.arms) {
                all_confident = all_confident &&
                                arm.eliminated_reason == "confident";
            }
            result.stop_reason = all_confident ? "confidence" : "exhausted";
            break;
        }
        if (result.runs_used + source.run_cost(static_cast<std::size_t>(next)) >
            budget) {
            result.stop_reason = "budget";
            break;
        }
        pull(static_cast<std::size_t>(next));
        result.model = refit();
        close_round(round, next, 1);
    }

    result.cost_reduction_pct =
        100.0 * (1.0 - result.runs_used /
                           std::max(result.baseline_runs, 1e-12));
    return result;
}

}  // namespace extradeep::planner
