#pragma once

#include <optional>
#include <string>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "parallel/steps.hpp"

namespace extradeep::aggregation {

/// The minimum number of measurement points per parameter required for
/// modeling (paper Sec. 2.3: "we need at least five points to accurately
/// differentiate between logarithmic, linear, and polynomial complexity").
inline constexpr int kMinModelingPoints = 5;

/// All aggregated measurement points of one experiment, ordered by the
/// primary execution parameter (e.g. the number of MPI ranks x1). This is
/// the input to model creation.
class ExperimentData {
public:
    explicit ExperimentData(std::string primary_parameter = "x1");

    const std::string& primary_parameter() const { return primary_; }

    /// Adds one configuration; throws InvalidArgumentError if it lacks the
    /// primary parameter or duplicates an existing point.
    void add(ConfigurationData config);

    const std::vector<ConfigurationData>& configs() const { return configs_; }
    std::size_t size() const { return configs_.size(); }

    /// Primary-parameter values of all points, ascending.
    std::vector<double> parameter_values() const;

    /// Configuration at a primary-parameter value; nullptr if absent.
    const ConfigurationData* find(double value) const;

    /// Kernel filtering (Fig. 2 step (4)): the kernels that appear in at
    /// least `min_configs` configurations and are therefore modelable.
    /// Kernels seen in fewer configurations (e.g. scale-dependent collective
    /// algorithms, sporadic OS interruptions) are excluded.
    std::vector<std::string> modelable_kernels(
        int min_configs = kMinModelingPoints) const;

    /// Category of a kernel (first occurrence); throws if unknown.
    trace::KernelCategory kernel_category(const std::string& name) const;

private:
    std::string primary_;
    std::vector<ConfigurationData> configs_;
};

/// Eq. 4: the derived per-epoch metric value of a kernel,
/// F = n_t * Ṽ_t + n_v * Ṽ_v.
double derived_kernel_epoch_value(const KernelStats& kernel,
                                  const parallel::StepMath& steps,
                                  Metric metric);

/// Eq. 6: per-epoch total over all three phases (e.g. the training time per
/// epoch when `metric` is Time); each phase total (computation /
/// communication / memory operations) follows Eqs. 8-10.
double derived_epoch_total(const ConfigurationData& config,
                           const parallel::StepMath& steps, Metric metric);

}  // namespace extradeep::aggregation
