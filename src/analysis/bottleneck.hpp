#pragma once

#include <string>
#include <vector>

#include "modeling/model.hpp"

namespace extradeep::analysis {

/// One kernel/function with its fitted runtime model, ready for ranking.
struct NamedModel {
    std::string name;
    modeling::PerformanceModel model;
};

/// A ranked entry: the kernel, its Big-O growth rendering, and its predicted
/// share at a target scale.
struct RankedKernel {
    std::string name;
    std::string growth;          ///< e.g. "O(x1 * log2(x1))"
    double poly_exp = 0.0;       ///< dominant polynomial exponent
    int log_exp = 0;             ///< dominant logarithmic exponent
    double predicted_at_target = 0.0;  ///< model value at the target scale
};

/// Paper Sec. 3.1: ranks runtime models by their growth trend (Big-O), so
/// the kernels that will become the bottleneck at scale appear first.
/// Growth ties are broken by the predicted value at `target_scale` (larger
/// first), which is also how latent bottlenecks with equal asymptotics are
/// separated in practice.
std::vector<RankedKernel> rank_by_growth(const std::vector<NamedModel>& models,
                                         double target_scale, int param = 0);

}  // namespace extradeep::analysis
