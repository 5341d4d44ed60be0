#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aggregation/experiment.hpp"
#include "modeling/fitter.hpp"

namespace extradeep {

/// Computes the analytical step counts n_t/n_v (Eqs. 2-3) for a rank count.
using StepMathFn = std::function<parallel::StepMath(int ranks)>;

/// Builds the analytical step-count function from the experiment parameters
/// alone (Eqs. 2-3). This is the export/import hook of model persistence:
/// the .edpm format stores exactly these five values, and a loaded model
/// reconstructs a StepMathFn that is bit-identical to the one the runner
/// used at fit time (the step math is pure integer arithmetic over the
/// dataset spec). Throws InvalidArgumentError for unknown dataset names.
StepMathFn make_step_math_fn(const std::string& dataset,
                             parallel::StrategyKind strategy,
                             int model_parallel_degree,
                             parallel::ScalingMode scaling,
                             std::int64_t batch_per_worker);

/// A per-epoch performance model following Eqs. 2-5: PMNF models of the
/// per-step metric value, separately for training and validation steps,
/// scaled by the *analytically known* step counts,
///   F(x1) = n_t(x1) * Vt(x1) + n_v(x1) * Vv(x1).
/// The n_t factor carries the 1/x1 dependence of strong scaling (Eq. 2)
/// exactly, so only the smooth per-step behaviour has to be learned - this
/// is how the G/M/B analytical values "adapt the extrapolation methodology
/// to the employed parallel strategy" (paper Sec. 2.3.1).
class EpochModel {
public:
    EpochModel() = default;
    EpochModel(modeling::PerformanceModel train_step,
               modeling::PerformanceModel val_step, StepMathFn steps);

    /// Predicted per-epoch metric value at x1 ranks.
    double evaluate(double x1) const;

    /// Prediction interval: the per-step intervals scaled by n_t / n_v.
    modeling::PredictionInterval predict_interval(double x1,
                                                  double confidence = 0.95) const;

    /// Half-width of predict_interval at x1: the per-step half-widths
    /// scaled by n_t / n_v. Drives the serve `plan` verb's acquisition
    /// scores (which configuration is the model least certain about).
    double interval_half_width(double x1, double confidence = 0.95) const;

    /// Rendering, e.g. "n_t(x1) * [0.4 + 0.08 * log2(x1)] + n_v(x1) * [...]".
    std::string to_string() const;

    /// Goodness of fit of the training-step model (the dominant component).
    const modeling::ModelQuality& quality() const;

    /// The underlying per-step PMNF models (e.g. for growth ranking).
    const modeling::PerformanceModel& train_step_model() const {
        return train_step_;
    }
    const modeling::PerformanceModel& val_step_model() const { return val_step_; }

private:
    modeling::PerformanceModel train_step_;
    modeling::PerformanceModel val_step_;
    StepMathFn steps_;
};

/// One fitted kernel model: the kernel, the metric it models, and the
/// per-epoch model of its derived value (Eq. 4 + Eq. 5).
struct KernelModelEntry {
    std::string name;
    trace::KernelCategory category = trace::KernelCategory::CudaKernel;
    aggregation::Metric metric = aggregation::Metric::Time;
    EpochModel model;
};

/// Builds per-epoch models for every modelable kernel (Fig. 2 step (4):
/// present in at least five configurations) and each requested metric.
/// Metric series that are identically zero (e.g. bytes of pure compute
/// kernels) are skipped. `steps` provides n_t/n_v for any rank count.
/// Each distinct xs is factored once (ModelGenerator::design) and shared
/// read-only by its fits. Kernels are fitted on
/// generator.options().num_threads threads; each fit is serial, so the
/// result is the same at any thread count.
std::vector<KernelModelEntry> model_kernels(
    const aggregation::ExperimentData& data, const StepMathFn& steps,
    const std::vector<aggregation::Metric>& metrics,
    const modeling::ModelGenerator& generator = modeling::ModelGenerator(),
    int min_configs = aggregation::kMinModelingPoints);

}  // namespace extradeep
