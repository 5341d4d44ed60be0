#include "extradeep/models.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "dnn/datasets.hpp"
#include "parallel/steps.hpp"

namespace extradeep {

StepMathFn make_step_math_fn(const std::string& dataset,
                             parallel::StrategyKind strategy,
                             int model_parallel_degree,
                             parallel::ScalingMode scaling,
                             std::int64_t batch_per_worker) {
    const dnn::DatasetSpec spec = dnn::dataset_spec(dataset);
    const int m = model_parallel_degree;
    return [spec, strategy, m, scaling, batch_per_worker](int ranks) {
        parallel::ParallelConfig cfg;
        switch (strategy) {
            case parallel::StrategyKind::Data:
                cfg = parallel::ParallelConfig::data(ranks);
                break;
            case parallel::StrategyKind::Tensor:
                cfg = parallel::ParallelConfig::tensor(ranks, m);
                break;
            case parallel::StrategyKind::Pipeline:
                cfg = parallel::ParallelConfig::pipeline(ranks, m);
                break;
        }
        return parallel::compute_steps(spec, cfg, batch_per_worker, scaling);
    };
}

EpochModel::EpochModel(modeling::PerformanceModel train_step,
                       modeling::PerformanceModel val_step, StepMathFn steps)
    : train_step_(std::move(train_step)),
      val_step_(std::move(val_step)),
      steps_(std::move(steps)) {
    if (!steps_) {
        throw InvalidArgumentError("EpochModel: null StepMathFn");
    }
}

double EpochModel::evaluate(double x1) const {
    if (!steps_) {
        throw InvalidArgumentError("EpochModel: uninitialised model");
    }
    const parallel::StepMath sm = steps_(static_cast<int>(std::llround(x1)));
    return static_cast<double>(sm.train_steps) * train_step_.evaluate(x1) +
           static_cast<double>(sm.val_steps) * val_step_.evaluate(x1);
}

modeling::PredictionInterval EpochModel::predict_interval(
    double x1, double confidence) const {
    if (!steps_) {
        throw InvalidArgumentError("EpochModel: uninitialised model");
    }
    const parallel::StepMath sm = steps_(static_cast<int>(std::llround(x1)));
    const auto t = train_step_.predict_interval(x1, confidence);
    const auto v = val_step_.predict_interval(x1, confidence);
    const double nt = static_cast<double>(sm.train_steps);
    const double nv = static_cast<double>(sm.val_steps);
    modeling::PredictionInterval out;
    out.prediction = nt * t.prediction + nv * v.prediction;
    out.lower = nt * t.lower + nv * v.lower;
    out.upper = nt * t.upper + nv * v.upper;
    return out;
}

double EpochModel::interval_half_width(double x1, double confidence) const {
    if (!steps_) {
        throw InvalidArgumentError("EpochModel: uninitialised model");
    }
    const parallel::StepMath sm = steps_(static_cast<int>(std::llround(x1)));
    return static_cast<double>(sm.train_steps) *
               train_step_.interval_half_width(x1, confidence) +
           static_cast<double>(sm.val_steps) *
               val_step_.interval_half_width(x1, confidence);
}

std::string EpochModel::to_string() const {
    std::ostringstream os;
    os << "n_t(x1) * [" << train_step_.to_string() << "] + n_v(x1) * ["
       << val_step_.to_string() << "]";
    return os.str();
}

const modeling::ModelQuality& EpochModel::quality() const {
    return train_step_.quality();
}

std::vector<KernelModelEntry> model_kernels(
    const aggregation::ExperimentData& data, const StepMathFn& steps,
    const std::vector<aggregation::Metric>& metrics,
    const modeling::ModelGenerator& generator, int min_configs) {
    if (!steps) {
        throw InvalidArgumentError("model_kernels: null StepMathFn");
    }
    // Gather the per-(kernel, metric) fit inputs serially and factor one
    // hypothesis design per distinct xs, then run the independent PMNF fits
    // across the generator's thread budget. Each fit is serial and only
    // reads its shared design.
    struct FitTask {
        std::string name;
        trace::KernelCategory category;
        aggregation::Metric metric;
        std::vector<double> xs;
        std::vector<double> train_values;
        std::vector<double> val_values;
        std::size_t design = 0;  ///< index into designs
    };
    std::vector<FitTask> tasks;
    const auto kernel_names = data.modelable_kernels(min_configs);
    for (const auto& name : kernel_names) {
        for (const auto metric : metrics) {
            FitTask task;
            task.name = name;
            task.category = data.kernel_category(name);
            task.metric = metric;
            bool all_zero = true;
            for (const auto& config : data.configs()) {
                const aggregation::KernelStats* k = config.find_kernel(name);
                if (k == nullptr) {
                    continue;  // kernel absent at this point
                }
                task.xs.push_back(config.params.at("x1"));
                task.train_values.push_back(k->train_metric(metric));
                task.val_values.push_back(k->val_metric(metric));
                if (task.train_values.back() != 0.0 ||
                    task.val_values.back() != 0.0) {
                    all_zero = false;
                }
            }
            if (all_zero ||
                task.xs.size() < static_cast<std::size_t>(min_configs)) {
                continue;
            }
            tasks.push_back(std::move(task));
        }
    }

    // Kernels present at every configuration share one xs, so there is
    // usually a single design; a linear scan finds it.
    std::vector<const std::vector<double>*> design_xs;
    std::vector<modeling::ModelGenerator::Design> designs;
    for (FitTask& task : tasks) {
        std::size_t d = 0;
        while (d < design_xs.size() && *design_xs[d] != task.xs) {
            ++d;
        }
        if (d == design_xs.size()) {
            design_xs.push_back(&task.xs);
            designs.push_back(generator.design(task.xs));
        }
        task.design = d;
    }

    const int threads = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(
            resolve_num_threads(generator.options().num_threads)),
        std::max<std::size_t>(tasks.size(), 1)));
    std::vector<KernelModelEntry> out(tasks.size());
    ThreadPool pool(threads);
    pool.parallel_for(tasks.size(), [&](int, std::size_t begin,
                                        std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const FitTask& task = tasks[i];
            KernelModelEntry& entry = out[i];
            entry.name = task.name;
            entry.category = task.category;
            entry.metric = task.metric;
            const auto& design = designs[task.design];
            entry.model = EpochModel(generator.fit(design, task.train_values),
                                     generator.fit(design, task.val_values),
                                     steps);
        }
    });
    return out;
}

}  // namespace extradeep
