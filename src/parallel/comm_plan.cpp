#include "parallel/comm_plan.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace extradeep::parallel {

namespace {

/// Splits `total_bytes` into Horovod-style fusion buckets.
void push_gradient_buckets(std::vector<CommOp>& ops, double total_bytes,
                           int participants, const std::string& prefix) {
    if (total_bytes <= 0.0 || participants < 2) {
        return;
    }
    const int buckets = static_cast<int>(
        std::ceil(total_bytes / kGradientBucketBytes));
    const double per_bucket = total_bytes / buckets;
    for (int i = 0; i < buckets; ++i) {
        CommOp op;
        op.kind = CommOpKind::Allreduce;
        op.name = prefix + "_b" + std::to_string(i);
        op.bytes = per_bucket;
        op.participants = participants;
        ops.push_back(std::move(op));
    }
}

CommOp metric_allreduce(int participants) {
    CommOp op;
    op.kind = CommOpKind::Allreduce;
    op.name = "metric_allreduce";
    op.bytes = 16.0;  // loss + accuracy scalars
    op.participants = participants;
    return op;
}

}  // namespace

CommPlan build_comm_plan(const dnn::NetworkModel& network,
                         const ParallelConfig& config,
                         std::int64_t batch_per_worker) {
    config.validate();
    if (batch_per_worker < 1) {
        throw InvalidArgumentError("build_comm_plan: batch size must be >= 1");
    }
    CommPlan plan;
    const int ranks = config.total_ranks;
    const int m = config.model_parallel_degree;
    const int shards = config.shards();
    const double grad_bytes = network.gradient_bytes();
    const double batch = static_cast<double>(batch_per_worker);

    // Initial weight synchronisation, common to all strategies.
    {
        CommOp bcast;
        bcast.kind = CommOpKind::Broadcast;
        bcast.name = "initial_weight_broadcast";
        bcast.bytes = grad_bytes / m;  // each rank holds its model shard
        bcast.participants = ranks;
        plan.startup_ops.push_back(std::move(bcast));
    }

    switch (config.kind) {
        case StrategyKind::Data: {
            push_gradient_buckets(plan.train_ops, grad_bytes, ranks,
                                  "grad_allreduce");
            plan.train_ops.push_back(metric_allreduce(ranks));
            plan.val_ops.push_back(metric_allreduce(ranks));
            break;
        }
        case StrategyKind::Tensor: {
            // Mesh-TF style: every parametrised layer is sharded over the M
            // group members; its output activations are allgathered forward
            // and the activation gradients allreduced backward, inside the
            // group.
            for (const auto& layer : network.layers) {
                if (layer.params == 0) continue;
                const double act_bytes = batch * layer.output_bytes / m;
                CommOp fwd;
                fwd.kind = CommOpKind::Allgather;
                fwd.name = layer.name + "_fwd_allgather";
                fwd.bytes = act_bytes;
                fwd.participants = m;
                fwd.intra_group = true;
                plan.val_ops.push_back(fwd);
                plan.train_ops.push_back(fwd);

                CommOp bwd;
                bwd.kind = CommOpKind::Allreduce;
                bwd.name = layer.name + "_bwd_allreduce";
                bwd.bytes = act_bytes;
                bwd.participants = m;
                bwd.intra_group = true;
                plan.train_ops.push_back(std::move(bwd));
            }
            // Sharded gradient exchange across the data-parallel shards.
            push_gradient_buckets(plan.train_ops, grad_bytes / m, shards,
                                  "grad_allreduce");
            plan.train_ops.push_back(metric_allreduce(ranks));
            plan.val_ops.push_back(metric_allreduce(ranks));
            break;
        }
        case StrategyKind::Pipeline: {
            // Boundary activations between consecutive stages, per
            // microbatch, forward and backward. A representative interior
            // rank sends and receives at both boundaries; we take the mean
            // boundary activation size over the stage cuts.
            const auto bounds = network.balanced_stage_bounds(m);
            double boundary_bytes = 0.0;
            int cuts = 0;
            for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
                const auto& boundary_layer = network.layers[bounds[s] - 1];
                boundary_bytes += boundary_layer.output_bytes;
                ++cuts;
            }
            if (cuts > 0) {
                boundary_bytes /= cuts;
            }
            const double micro =
                batch / static_cast<double>(config.microbatches);
            CommOp fwd;
            fwd.kind = CommOpKind::SendRecv;
            fwd.name = "stage_activation_send";
            fwd.bytes = micro * boundary_bytes;
            fwd.participants = 2;
            fwd.intra_group = true;
            fwd.per_step_count = config.microbatches;
            plan.val_ops.push_back(fwd);
            plan.train_ops.push_back(fwd);

            CommOp bwd = fwd;
            bwd.name = "stage_gradient_send";
            plan.train_ops.push_back(std::move(bwd));

            // Per-stage data-parallel gradient allreduce across shards.
            push_gradient_buckets(plan.train_ops, grad_bytes / m, shards,
                                  "grad_allreduce");
            plan.train_ops.push_back(metric_allreduce(ranks));
            plan.val_ops.push_back(metric_allreduce(ranks));

            plan.pipeline_bubble_fraction =
                static_cast<double>(m - 1) /
                static_cast<double>(config.microbatches + m - 1);
            break;
        }
    }
    return plan;
}

}  // namespace extradeep::parallel
