#include "advisor/whatif.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "parallel/comm_plan.hpp"
#include "sim/kernel_schedule.hpp"

namespace extradeep::advisor {

namespace {

using trace::Phase;

constexpr int kComp = static_cast<int>(Phase::Computation);
constexpr int kComm = static_cast<int>(Phase::Communication);

double clamp_nonneg(double v) { return v > 0.0 ? v : 0.0; }

/// Deterministic per-step communication cost of a comm-op list on `w`'s
/// system (per_step_count-weighted sum of priced operations).
double priced_comm_total(const sim::Workload& w,
                         const std::vector<parallel::CommOp>& ops) {
    double total = 0.0;
    for (const auto& op : ops) {
        total += sim::price_comm(w, op).time *
                 static_cast<double>(op.per_step_count);
    }
    return total;
}

/// Communication scale factors (train, val) of a scenario's hardware-side
/// transforms. Uniform link scaling is exact for *any* model without
/// reconstruction; everything else reprices the reconstructed communication
/// plan under the mutated system.
struct CommScale {
    double train = 1.0;
    double val = 1.0;
};

CommScale comm_scale(const ModelSet& ms, int ranks, const Scenario& sc) {
    CommScale s;
    if (sc.latency_factor() == 1.0 && sc.bandwidth_factor() == 1.0 &&
        sc.collective == CollectiveAlgo::None) {
        return s;  // communication untouched
    }
    if (sc.is_uniform_link_scaling()) {
        // alpha/f and beta*f scale every alpha-beta closed form (and the
        // multiplicative contention/regime factors on top) by exactly 1/f.
        s.train = s.val = 1.0 / sc.latency_factor();
        return s;
    }
    const sim::Workload base = reconstruct_workload(ms, ranks);
    sim::Workload mutated = base;
    mutated.system = mutate_system(base.system, sc);
    const parallel::CommPlan plan = parallel::build_comm_plan(
        base.app.network, base.parallel, base.batch_per_worker);
    const double cur_t = priced_comm_total(base, plan.train_ops);
    const double alt_t = priced_comm_total(mutated, plan.train_ops);
    const double cur_v = priced_comm_total(base, plan.val_ops);
    const double alt_v = priced_comm_total(mutated, plan.val_ops);
    s.train = cur_t > 0.0 ? alt_t / cur_t : 1.0;
    s.val = cur_v > 0.0 ? alt_v / cur_v : 1.0;
    return s;
}

/// Per-step launch-overhead saving (train, val) of fusing the top-k on-GPU
/// compute kernels of the reconstructed schedule: every saved launch drops
/// one cudaLaunchKernel call and one framework dispatch.
struct FusionSaving {
    double train = 0.0;
    double val = 0.0;
    /// Saved launches (for the ground-truth mirror and tests).
    std::int64_t train_launches = 0;
    std::int64_t val_launches = 0;
};

FusionSaving fusion_saving(const sim::StepSchedule& schedule, int k) {
    FusionSaving out;
    if (k < 2) {
        return out;
    }
    std::vector<const sim::KernelDesc*> candidates;
    for (const auto& kd : schedule.kernels) {
        if (kd.on_gpu &&
            trace::phase_of(kd.category) == Phase::Computation) {
            candidates.push_back(&kd);
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const sim::KernelDesc* a, const sim::KernelDesc* b) {
                  if (a->train_time != b->train_time) {
                      return a->train_time > b->train_time;
                  }
                  return a->name < b->name;
              });
    if (candidates.size() > static_cast<std::size_t>(k)) {
        candidates.resize(static_cast<std::size_t>(k));
    }
    if (candidates.size() < 2) {
        return out;
    }
    std::int64_t train_visits = 0;
    std::int64_t val_visits = 0;
    for (const auto* kd : candidates) {
        train_visits += kd->train_visits;
        val_visits += kd->val_visits;
    }
    out.train_launches = std::max<std::int64_t>(0, train_visits - 1);
    out.val_launches = std::max<std::int64_t>(0, val_visits - 1);

    double launch_pv_t = 0.0, launch_pv_v = 0.0;
    double dispatch_pv_t = 0.0, dispatch_pv_v = 0.0;
    for (const auto& kd : schedule.kernels) {
        if (kd.name == "cudaLaunchKernel") {
            if (kd.train_visits > 0) {
                launch_pv_t = kd.train_time /
                              static_cast<double>(kd.train_visits);
            }
            if (kd.val_visits > 0) {
                launch_pv_v = kd.val_time /
                              static_cast<double>(kd.val_visits);
            }
        } else if (kd.name == "ExecutorState::Process" ||
                   kd.name == "aten::dispatch") {
            if (kd.train_visits > 0) {
                dispatch_pv_t = kd.train_time /
                                static_cast<double>(kd.train_visits);
            }
            if (kd.val_visits > 0) {
                dispatch_pv_v = kd.val_time /
                                static_cast<double>(kd.val_visits);
            }
        }
    }
    out.train = static_cast<double>(out.train_launches) *
                (launch_pv_t + dispatch_pv_t);
    out.val = static_cast<double>(out.val_launches) *
              (launch_pv_v + dispatch_pv_v);
    return out;
}

double interval_half_width(const EpochModel& model, double x) {
    const modeling::PredictionInterval pi = model.predict_interval(x);
    return (pi.upper - pi.lower) * 0.5;
}

}  // namespace

ModelSet model_set_from(const ExperimentSpec& spec,
                        const ExperimentResult& result) {
    ModelSet ms;
    ms.dataset = spec.dataset;
    ms.system_name = spec.system.name;
    ms.strategy = spec.strategy;
    ms.scaling = spec.scaling;
    ms.batch_per_worker = spec.batch_per_worker;
    ms.model_parallel_degree =
        spec.strategy == parallel::StrategyKind::Data
            ? 1
            : spec.model_parallel_degree;
    ms.epoch_time = result.epoch_time;
    ms.phase_time = result.phase_time;
    ms.step_math = result.step_math_fn;
    return ms;
}

namespace {

/// Resolves a system preset by .edpm SPEC name ("DEEP"/"JURECA"). Throws
/// InvalidArgumentError for unknown names — scenarios that need the system
/// (repricing, fusion) are unavailable for models fitted on systems this
/// build does not know.
hw::SystemSpec system_preset(const std::string& name) {
    if (name == "DEEP") {
        return hw::SystemSpec::deep();
    }
    if (name == "JURECA") {
        return hw::SystemSpec::jureca();
    }
    throw InvalidArgumentError("whatif: unknown system '" + name +
                               "' (no preset to reconstruct)");
}

}  // namespace

sim::Workload reconstruct_workload(const ModelSet& ms, int ranks) {
    parallel::ParallelConfig config;
    switch (ms.strategy) {
        case parallel::StrategyKind::Data:
            config = parallel::ParallelConfig::data(ranks);
            break;
        case parallel::StrategyKind::Tensor:
            config = parallel::ParallelConfig::tensor(
                ranks, ms.model_parallel_degree);
            break;
        case parallel::StrategyKind::Pipeline:
            config = parallel::ParallelConfig::pipeline(
                ranks, ms.model_parallel_degree);
            break;
    }
    return sim::Workload::make(ms.dataset, system_preset(ms.system_name),
                               config, ms.scaling, ms.batch_per_worker);
}

hw::SystemSpec mutate_system(const hw::SystemSpec& sys, const Scenario& sc) {
    hw::SystemSpec out = sys;
    const double lat = sc.latency_factor();
    const double bw = sc.bandwidth_factor();
    out.inter_node.latency_s /= lat;
    out.inter_node.bandwidth_gbs *= bw;
    out.intra_node.latency_s /= lat;
    out.intra_node.bandwidth_gbs *= bw;
    if (sc.collective == CollectiveAlgo::Ring) {
        out.collective_override = hw::CollectiveOverride::Ring;
    } else if (sc.collective == CollectiveAlgo::Tree) {
        out.collective_override = hw::CollectiveOverride::Tree;
    }
    return out;
}

WhatIfResult evaluate_whatif(const ModelSet& ms, double x,
                             const Scenario& sc) {
    if (!std::isfinite(x) || x < 2.0) {
        throw InvalidArgumentError(
            "whatif: rank count must be >= 2 (single-process runs are out of "
            "scope)");
    }
    if (!ms.step_math) {
        throw InvalidArgumentError("whatif: model set has no step math");
    }
    const int ranks = static_cast<int>(std::llround(x));
    const parallel::StepMath sm = ms.step_math(ranks);
    const double n_t = static_cast<double>(sm.train_steps);
    const double n_v = static_cast<double>(sm.val_steps);

    WhatIfResult out;
    out.spec = sc.canonical_spec();
    out.baseline = ms.epoch_time.evaluate(x);

    // Per-step phase predictions (clamped: a fitted model may dip below 0).
    const double comm_t = clamp_nonneg(
        ms.phase_time[kComm].train_step_model().evaluate(x));
    const double comm_v = clamp_nonneg(
        ms.phase_time[kComm].val_step_model().evaluate(x));
    const double comp_t = clamp_nonneg(
        ms.phase_time[kComp].train_step_model().evaluate(x));
    const double comp_v = clamp_nonneg(
        ms.phase_time[kComp].val_step_model().evaluate(x));

    // (a) interconnect / collective swap: scale the communication share.
    const CommScale s = comm_scale(ms, ranks, sc);
    const double comm2_t = comm_t * s.train;
    const double comm2_v = comm_v * s.val;

    // (d) kernel fusion: drop launch + dispatch overhead from compute.
    FusionSaving fusion;
    if (sc.fuse >= 2) {
        fusion = fusion_saving(
            sim::build_step_schedule(reconstruct_workload(ms, ranks)),
            sc.fuse);
        fusion.train = std::min(fusion.train, comp_t);
        fusion.val = std::min(fusion.val, comp_v);
    }
    const double comp2_t = comp_t - fusion.train;
    const double comp2_v = comp_v - fusion.val;

    // (b) overlap: hide up to the overlap fraction of the (already
    // transformed) communication under the remaining computation.
    const double hidden_t = std::min(sc.overlap * comm2_t, comp2_t);
    const double hidden_v = std::min(sc.overlap * comm2_v, comp2_v);

    const double step_saving_t = (comm_t - comm2_t) + fusion.train + hidden_t;
    const double step_saving_v = (comm_v - comm2_v) + fusion.val + hidden_v;
    out.saving = n_t * step_saving_t + n_v * step_saving_v;
    out.scenario_time = out.baseline - out.saving;

    // Uncertainty: each saving component inherits the relative prediction
    // uncertainty of the phase model it was derived from; components add in
    // quadrature (independent fits).
    const double comm_epoch = clamp_nonneg(ms.phase_time[kComm].evaluate(x));
    const double comp_epoch = clamp_nonneg(ms.phase_time[kComp].evaluate(x));
    const double rel_comm =
        comm_epoch > 0.0
            ? interval_half_width(ms.phase_time[kComm], x) / comm_epoch
            : 0.0;
    const double rel_comp =
        comp_epoch > 0.0
            ? interval_half_width(ms.phase_time[kComp], x) / comp_epoch
            : 0.0;
    const double comm_saving_epoch =
        n_t * (comm_t - comm2_t) + n_v * (comm_v - comm2_v);
    const double fusion_epoch = n_t * fusion.train + n_v * fusion.val;
    const double hidden_epoch = n_t * hidden_t + n_v * hidden_v;
    const double u_comm = std::fabs(comm_saving_epoch) * rel_comm;
    const double u_fuse = fusion_epoch * rel_comp;
    const double u_hide = hidden_epoch * std::max(rel_comm, rel_comp);
    const double u = std::sqrt(u_comm * u_comm + u_fuse * u_fuse +
                               u_hide * u_hide);
    out.lower = out.saving - u;
    out.upper = out.saving + u;
    return out;
}

std::vector<std::string> default_portfolio() {
    return {
        "interconnect:2",
        "latency:4",
        "bandwidth:2",
        "overlap:0.5",
        "collective:ring",
        "collective:tree",
        "fuse:4",
        "interconnect:2+overlap:0.5",
    };
}

Advice advise(const ModelSet& ms, double x, std::size_t top) {
    Advice advice;
    for (const std::string& spec : default_portfolio()) {
        try {
            advice.ranked.push_back(
                evaluate_whatif(ms, x, parse_scenario(spec)));
        } catch (const Error&) {
            ++advice.skipped;
        }
    }
    std::sort(advice.ranked.begin(), advice.ranked.end(),
              [](const WhatIfResult& a, const WhatIfResult& b) {
                  if (a.saving != b.saving) {
                      return a.saving > b.saving;
                  }
                  return a.spec < b.spec;
              });
    if (top > 0 && advice.ranked.size() > top) {
        advice.ranked.resize(top);
    }
    return advice;
}

}  // namespace extradeep::advisor
