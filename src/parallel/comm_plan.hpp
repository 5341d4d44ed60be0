#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/network.hpp"
#include "parallel/strategy.hpp"

namespace extradeep::parallel {

enum class CommOpKind {
    Allreduce,
    Allgather,
    Broadcast,
    SendRecv,
};

/// One communication operation executed during a training/validation step
/// (or once at startup). The simulator turns these into MPI_* or nccl*
/// kernel events and prices them with the hw collective models.
struct CommOp {
    CommOpKind kind = CommOpKind::Allreduce;
    std::string name;        ///< logical name, e.g. "grad_allreduce_b0"
    double bytes = 0.0;      ///< payload per execution
    int participants = 1;    ///< ranks taking part
    bool intra_group = false;  ///< within a model-parallel group (placed on
                               ///< adjacent GPUs, may use intra-node links)
    int per_step_count = 1;  ///< executions per step
};

/// The complete communication schedule of one configuration.
struct CommPlan {
    std::vector<CommOp> train_ops;    ///< per training step
    std::vector<CommOp> val_ops;      ///< per validation step
    std::vector<CommOp> startup_ops;  ///< once, during initialisation
    /// Fraction of every training step lost to the pipeline fill/drain
    /// bubble: (M-1) / (microbatches + M - 1); zero for other strategies.
    double pipeline_bubble_fraction = 0.0;
};

/// Horovod's default fusion-buffer size: gradients are exchanged in 64 MiB
/// buckets rather than one allreduce per tensor.
inline constexpr double kGradientBucketBytes = 64.0 * 1024.0 * 1024.0;

/// Derives the per-step communication schedule of a network under the given
/// strategy:
///  - data parallelism: bucketed gradient allreduce over all ranks after
///    backpropagation + a scalar metric allreduce; startup weight broadcast.
///  - tensor parallelism: per parametrised layer, an intra-group activation
///    allgather (forward) and allreduce (backward), plus the sharded
///    gradient allreduce across data-parallel shards.
///  - pipeline parallelism: per microbatch, boundary-activation send/recv
///    forward and backward, plus the per-stage sharded gradient allreduce
///    and the fill/drain bubble fraction.
/// `batch_per_worker` sizes the activation traffic.
CommPlan build_comm_plan(const dnn::NetworkModel& network,
                         const ParallelConfig& config,
                         std::int64_t batch_per_worker);

}  // namespace extradeep::parallel
