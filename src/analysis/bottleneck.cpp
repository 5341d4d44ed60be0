#include "analysis/bottleneck.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace extradeep::analysis {

namespace {

RankedKernel make_entry(const NamedModel& nm, double target_scale, int param) {
    RankedKernel r;
    r.name = nm.name;
    r.growth = nm.model.growth_to_string(param);
    const auto [poly, log] = nm.model.dominant_growth(param);
    r.poly_exp = poly;
    r.log_exp = log;
    std::vector<double> point(static_cast<std::size_t>(param) + 1, 1.0);
    point[param] = target_scale;
    r.predicted_at_target = nm.model.evaluate(point);
    return r;
}

}  // namespace

std::vector<RankedKernel> rank_by_growth(const std::vector<NamedModel>& models,
                                         double target_scale, int param) {
    if (target_scale <= 0.0) {
        throw InvalidArgumentError("rank_by_growth: target scale must be positive");
    }
    std::vector<RankedKernel> out;
    out.reserve(models.size());
    for (const auto& nm : models) {
        out.push_back(make_entry(nm, target_scale, param));
    }
    std::sort(out.begin(), out.end(),
              [](const RankedKernel& a, const RankedKernel& b) {
                  if (a.poly_exp != b.poly_exp) return a.poly_exp > b.poly_exp;
                  if (a.log_exp != b.log_exp) return a.log_exp > b.log_exp;
                  return a.predicted_at_target > b.predicted_at_target;
              });
    return out;
}

}  // namespace extradeep::analysis
