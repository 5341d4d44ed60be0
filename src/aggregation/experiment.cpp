#include "aggregation/experiment.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace extradeep::aggregation {

ExperimentData::ExperimentData(std::string primary_parameter)
    : primary_(std::move(primary_parameter)) {}

void ExperimentData::add(ConfigurationData config) {
    const auto it = config.params.find(primary_);
    if (it == config.params.end()) {
        throw InvalidArgumentError("ExperimentData::add: configuration lacks "
                                   "primary parameter '" + primary_ + "'");
    }
    const double value = it->second;
    for (const auto& c : configs_) {
        if (c.params.at(primary_) == value) {
            throw InvalidArgumentError(
                "ExperimentData::add: duplicate measurement point");
        }
    }
    configs_.push_back(std::move(config));
    std::sort(configs_.begin(), configs_.end(),
              [&](const ConfigurationData& a, const ConfigurationData& b) {
                  return a.params.at(primary_) < b.params.at(primary_);
              });
}

std::vector<double> ExperimentData::parameter_values() const {
    std::vector<double> out;
    out.reserve(configs_.size());
    for (const auto& c : configs_) {
        out.push_back(c.params.at(primary_));
    }
    return out;
}

const ConfigurationData* ExperimentData::find(double value) const {
    for (const auto& c : configs_) {
        if (c.params.at(primary_) == value) {
            return &c;
        }
    }
    return nullptr;
}

std::vector<std::string> ExperimentData::modelable_kernels(
    int min_configs) const {
    std::map<std::string, int> seen;
    for (const auto& c : configs_) {
        for (const auto& k : c.kernels) {
            ++seen[k.name];
        }
    }
    std::vector<std::string> out;
    for (const auto& [name, count] : seen) {
        if (count >= min_configs) {
            out.push_back(name);
        }
    }
    return out;
}

trace::KernelCategory ExperimentData::kernel_category(
    const std::string& name) const {
    for (const auto& c : configs_) {
        if (const KernelStats* k = c.find_kernel(name)) {
            return k->category;
        }
    }
    throw InvalidArgumentError("kernel_category: unknown kernel '" + name + "'");
}

double derived_kernel_epoch_value(const KernelStats& kernel,
                                  const parallel::StepMath& steps,
                                  Metric metric) {
    return static_cast<double>(steps.train_steps) * kernel.train_metric(metric) +
           static_cast<double>(steps.val_steps) * kernel.val_metric(metric);
}

namespace {

/// Eqs. 8-10: per-epoch total of one phase.
double derived_phase_epoch_value(const ConfigurationData& config,
                                 trace::Phase phase,
                                 const parallel::StepMath& steps,
                                 Metric metric) {
    return static_cast<double>(steps.train_steps) *
               config.phase_metric(phase, metric, true) +
           static_cast<double>(steps.val_steps) *
               config.phase_metric(phase, metric, false);
}

}  // namespace

double derived_epoch_total(const ConfigurationData& config,
                           const parallel::StepMath& steps, Metric metric) {
    double total = 0.0;
    for (int p = 0; p < trace::kPhaseCount; ++p) {
        total += derived_phase_epoch_value(config, static_cast<trace::Phase>(p),
                                           steps, metric);
    }
    return total;
}

}  // namespace extradeep::aggregation
