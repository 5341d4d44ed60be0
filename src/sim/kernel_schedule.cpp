#include "sim/kernel_schedule.hpp"

#include <cmath>
#include <unordered_map>

#include "common/error.hpp"
#include "hw/gpu.hpp"
#include "hw/network.hpp"
#include "parallel/comm_plan.hpp"

namespace extradeep::sim {

using trace::KernelCategory;
using trace::Phase;

double StepSchedule::train_step_time() const {
    double t = 0.0;
    for (const auto& k : kernels) t += k.train_time;
    return t;
}

double StepSchedule::val_step_time() const {
    double t = 0.0;
    for (const auto& k : kernels) t += k.val_time;
    return t;
}

double StepSchedule::train_phase_time(Phase phase) const {
    double t = 0.0;
    for (const auto& k : kernels) {
        if (trace::phase_of(k.category) == phase) t += k.train_time;
    }
    return t;
}

namespace {

/// Accumulates per-kernel totals by name while the network is expanded.
class ScheduleAccum {
public:
    KernelDesc& get(const std::string& name, KernelCategory category,
                    bool on_gpu) {
        auto it = index_.find(name);
        if (it == index_.end()) {
            KernelDesc d;
            d.name = name;
            d.category = category;
            d.on_gpu = on_gpu;
            kernels_.push_back(std::move(d));
            it = index_.emplace(name, kernels_.size() - 1).first;
        }
        return kernels_[it->second];
    }

    /// Adds to the training-step totals only.
    void train(const std::string& name, KernelCategory cat, bool gpu,
               double time, std::int64_t visits, double bytes = 0.0) {
        KernelDesc& d = get(name, cat, gpu);
        d.train_time += time;
        d.train_visits += visits;
        d.train_bytes += bytes;
    }

    /// Adds to both training and validation steps (forward-pass work).
    void both(const std::string& name, KernelCategory cat, bool gpu,
              double time, std::int64_t visits, double bytes = 0.0) {
        KernelDesc& d = get(name, cat, gpu);
        d.train_time += time;
        d.train_visits += visits;
        d.train_bytes += bytes;
        d.val_time += time;
        d.val_visits += visits;
        d.val_bytes += bytes;
    }

    void val(const std::string& name, KernelCategory cat, bool gpu,
             double time, std::int64_t visits, double bytes = 0.0) {
        KernelDesc& d = get(name, cat, gpu);
        d.val_time += time;
        d.val_visits += visits;
        d.val_bytes += bytes;
    }

    std::vector<KernelDesc> take() && { return std::move(kernels_); }

private:
    std::vector<KernelDesc> kernels_;
    std::unordered_map<std::string, std::size_t> index_;
};

/// Roofline efficiency by layer kind (how well the generated kernels utilise
/// peak FLOPs). Memory-bound kernels are priced through the bytes side.
double layer_efficiency(const dnn::Layer& layer) {
    switch (layer.kind) {
        case dnn::LayerKind::Conv2d:
            return layer.kernel_size == 1 ? 0.35 : 0.50;
        case dnn::LayerKind::DepthwiseConv2d:
            return 0.08;
        case dnn::LayerKind::Dense:
            return 0.60;
        default:
            return 0.30;  // elementwise/pool kernels are memory bound anyway
    }
}

/// Host-side library call overheads.
constexpr double kCudnnCallOverhead = 9e-6;
constexpr double kCublasCallOverhead = 6e-6;
constexpr double kLaunchOverhead = 2.2e-6;

struct ExpandContext {
    const Workload& w;
    const hw::GpuSpec& gpu;
    std::string arch;       ///< "volta" / "ampere" kernel-name prefix
    std::string framework;  ///< "tf" (Eigen kernels) or "torch"
    double comp_share;      ///< fraction of each layer computed per rank
    double eff_scale;       ///< GEMM-efficiency degradation from sharding
    double batch;           ///< samples per worker per step
};

/// Emits the GPU kernel + host library call for one logical operation.
void emit_op(ScheduleAccum& acc, const ExpandContext& ctx,
             const std::string& kernel_name, KernelCategory host_cat,
             const std::string& host_name, double flops, double bytes,
             double efficiency, bool train_only) {
    const double t = hw::kernel_time(ctx.gpu, flops, bytes, efficiency);
    if (train_only) {
        acc.train(kernel_name, KernelCategory::CudaKernel, true, t, 1);
        if (!host_name.empty()) {
            acc.train(host_name, host_cat, false, kCudnnCallOverhead, 1);
        }
    } else {
        acc.both(kernel_name, KernelCategory::CudaKernel, true, t, 1);
        if (!host_name.empty()) {
            acc.both(host_name, host_cat, false, kCudnnCallOverhead, 1);
        }
    }
}

void expand_layer(ScheduleAccum& acc, const ExpandContext& ctx,
                  const dnn::Layer& layer) {
    const double share = ctx.comp_share;
    const double b = ctx.batch;
    const double eff = layer_efficiency(layer) * ctx.eff_scale;
    // Activation traffic per step: read input + write output, fp32.
    const double act_bytes =
        b * (layer.input.bytes() + layer.output_bytes) * share;
    const double weight_bytes = layer.weight_bytes * share;
    const double fwd_flops = layer.flops_forward * b * share;
    // Backward is split into data-gradient and weight-gradient halves.
    const double bwd_half_flops = 0.5 * layer.flops_backward * b * share;
    const std::string elem_kernel = ctx.framework == "tf"
                                        ? "EigenMetaKernel"
                                        : "vectorized_elementwise_kernel";

    switch (layer.kind) {
        case dnn::LayerKind::Conv2d: {
            const std::string algo =
                layer.kernel_size == 1 ? "implicit_gemm" : "winograd";
            emit_op(acc, ctx, ctx.arch + "_scudnn_" + algo + "_fprop",
                    KernelCategory::Cudnn, "cudnnConvolutionForward", fwd_flops,
                    act_bytes + weight_bytes, eff, false);
            emit_op(acc, ctx, ctx.arch + "_scudnn_" + algo + "_dgrad",
                    KernelCategory::Cudnn, "cudnnConvolutionBackwardData",
                    bwd_half_flops, act_bytes + weight_bytes, eff * 0.9, true);
            emit_op(acc, ctx, ctx.arch + "_scudnn_" + algo + "_wgrad",
                    KernelCategory::Cudnn, "cudnnConvolutionBackwardFilter",
                    bwd_half_flops, act_bytes + weight_bytes, eff * 0.8, true);
            break;
        }
        case dnn::LayerKind::DepthwiseConv2d: {
            emit_op(acc, ctx, "depthwise_fprop_kernel", KernelCategory::Cudnn,
                    "cudnnConvolutionForward", fwd_flops, act_bytes, eff, false);
            emit_op(acc, ctx, "depthwise_dgrad_kernel", KernelCategory::Cudnn,
                    "cudnnConvolutionBackwardData", bwd_half_flops, act_bytes,
                    eff, true);
            emit_op(acc, ctx, "depthwise_wgrad_kernel", KernelCategory::Cudnn,
                    "cudnnConvolutionBackwardFilter", bwd_half_flops, act_bytes,
                    eff, true);
            break;
        }
        case dnn::LayerKind::Dense: {
            const double t_fwd = hw::kernel_time(
                ctx.gpu, fwd_flops, act_bytes + weight_bytes, eff);
            acc.both(ctx.arch + "_sgemm_128x64_nn", KernelCategory::CudaKernel,
                     true, t_fwd, 1);
            acc.both("cublasSgemm", KernelCategory::Cublas, false,
                     kCublasCallOverhead, 1);
            const double t_bwd = hw::kernel_time(
                ctx.gpu, bwd_half_flops, act_bytes + weight_bytes, eff * 0.9);
            acc.train(ctx.arch + "_sgemm_128x64_tn", KernelCategory::CudaKernel,
                      true, t_bwd, 1);
            acc.train(ctx.arch + "_sgemm_128x64_nt", KernelCategory::CudaKernel,
                      true, t_bwd, 1);
            acc.train("cublasSgemm", KernelCategory::Cublas, false,
                      2 * kCublasCallOverhead, 2);
            break;
        }
        case dnn::LayerKind::BatchNorm: {
            emit_op(acc, ctx, "bn_fw_tr_1C11_kernel", KernelCategory::Cudnn,
                    "cudnnBatchNormalizationForwardTraining", fwd_flops,
                    act_bytes, eff, false);
            emit_op(acc, ctx, "bn_bw_1C11_kernel", KernelCategory::Cudnn,
                    "cudnnBatchNormalizationBackward", bwd_half_flops * 2.0,
                    act_bytes, eff, true);
            break;
        }
        case dnn::LayerKind::Activation:
        case dnn::LayerKind::Add:
        case dnn::LayerKind::Scale:
        case dnn::LayerKind::Dropout: {
            const double t_fwd =
                hw::kernel_time(ctx.gpu, fwd_flops, act_bytes, 0.3);
            acc.both(elem_kernel, KernelCategory::CudaKernel, true, t_fwd, 1);
            const double t_bwd =
                hw::kernel_time(ctx.gpu, layer.flops_backward * b * share,
                                act_bytes, 0.3);
            acc.train(elem_kernel, KernelCategory::CudaKernel, true, t_bwd, 1);
            break;
        }
        case dnn::LayerKind::MaxPool: {
            emit_op(acc, ctx, "pooling_fw_4d_kernel", KernelCategory::Cudnn,
                    "cudnnPoolingForward", fwd_flops, act_bytes, 0.3, false);
            emit_op(acc, ctx, "pooling_bw_4d_kernel", KernelCategory::Cudnn,
                    "cudnnPoolingBackward", bwd_half_flops * 2.0, act_bytes,
                    0.3, true);
            break;
        }
        case dnn::LayerKind::GlobalAvgPool: {
            const double t_fwd =
                hw::kernel_time(ctx.gpu, fwd_flops, act_bytes, 0.3);
            acc.both("reduce_kernel", KernelCategory::CudaKernel, true, t_fwd,
                     1);
            const double t_bwd = hw::kernel_time(
                ctx.gpu, layer.flops_backward * b * share, act_bytes, 0.3);
            acc.train("reduce_bw_kernel", KernelCategory::CudaKernel, true,
                      t_bwd, 1);
            break;
        }
        case dnn::LayerKind::Embedding: {
            const double gather_bytes = 2.0 * b * layer.output_bytes * share;
            const double t_fwd =
                hw::kernel_time(ctx.gpu, 0.0, gather_bytes, 0.3);
            acc.both("gather_v2_kernel", KernelCategory::CudaKernel, true,
                     t_fwd, 1);
            const double t_bwd = hw::kernel_time(
                ctx.gpu, layer.flops_backward * b * share, gather_bytes, 0.3);
            acc.train("scatter_add_kernel", KernelCategory::CudaKernel, true,
                      t_bwd, 1);
            break;
        }
        case dnn::LayerKind::Softmax: {
            emit_op(acc, ctx, "softmax_fw_kernel", KernelCategory::Cudnn,
                    "cudnnSoftmaxForward", fwd_flops, act_bytes, 0.3, false);
            emit_op(acc, ctx, "softmax_bw_kernel", KernelCategory::Cudnn,
                    "cudnnSoftmaxBackward", bwd_half_flops * 2.0, act_bytes,
                    0.3, true);
            break;
        }
        case dnn::LayerKind::Flatten:
            break;  // a view change, no kernel
    }
}

}  // namespace

PricedComm price_comm(const Workload& w, const parallel::CommOp& op) {
    const hw::SystemSpec& sys = w.system;
    const bool nccl = sys.nccl_support && sys.gpus_per_node > 1;
    PricedComm out;
    switch (op.kind) {
        case parallel::CommOpKind::Allreduce: {
            // Tiny coordination allreduces (metrics, Horovod control plane)
            // always go through MPI on the host.
            const bool tiny = op.bytes < 4096.0;
            if (nccl && !tiny) {
                out.name = "ncclAllReduce_RingLL";
                out.category = KernelCategory::Nccl;
                out.on_gpu = true;
                if (op.intra_group && op.participants <= sys.gpus_per_node) {
                    out.time = hw::ring_allreduce_time(sys.intra_node, op.bytes,
                                                       op.participants);
                } else {
                    out.time = hw::allreduce_time(sys, op.bytes, op.participants);
                }
            } else {
                out.name = "MPI_Allreduce";
                out.category = KernelCategory::Mpi;
                out.time = tiny ? hw::tree_allreduce_time(sys.inter_node,
                                                          op.bytes,
                                                          op.participants)
                                : hw::allreduce_time(sys, op.bytes,
                                                     op.participants);
            }
            break;
        }
        case parallel::CommOpKind::Allgather: {
            if (nccl) {
                out.name = "ncclAllGather_Ring";
                out.category = KernelCategory::Nccl;
                out.on_gpu = true;
                const hw::LinkSpec& link =
                    (op.intra_group && op.participants <= sys.gpus_per_node)
                        ? sys.intra_node
                        : sys.inter_node;
                out.time = hw::allgather_time(link, op.bytes, op.participants);
            } else {
                out.name = "MPI_Allgather";
                out.category = KernelCategory::Mpi;
                out.time =
                    hw::system_allgather_time(sys, op.bytes, op.participants);
            }
            break;
        }
        case parallel::CommOpKind::SendRecv: {
            const bool same_node =
                op.intra_group && sys.gpus_per_node >= op.participants;
            if (nccl) {
                out.name = "ncclSendRecv";
                out.category = KernelCategory::Nccl;
                out.on_gpu = true;
            } else {
                out.name = "MPI_Sendrecv";
                out.category = KernelCategory::Mpi;
            }
            out.time = hw::p2p_time(sys, op.bytes, same_node);
            break;
        }
        case parallel::CommOpKind::Broadcast: {
            out.name = "MPI_Bcast";
            out.category = KernelCategory::Mpi;
            out.time =
                hw::broadcast_time(sys.inter_node, op.bytes, op.participants);
            break;
        }
    }
    return out;
}

StepSchedule build_step_schedule(const Workload& workload) {
    workload.parallel.validate();
    const dnn::NetworkModel& net = workload.app.network;
    const hw::SystemSpec& sys = workload.system;
    const int m = workload.parallel.model_parallel_degree;
    const int ranks = workload.parallel.total_ranks;

    ExpandContext ctx{workload,
                      sys.gpu,
                      sys.gpu.name == "V100" ? "volta" : "ampere",
                      workload.parallel.kind == parallel::StrategyKind::Pipeline
                          ? "torch"
                          : "tf",
                      1.0 / static_cast<double>(m),
                      1.0,
                      static_cast<double>(workload.batch_per_worker)};
    if (workload.parallel.kind == parallel::StrategyKind::Tensor && m > 1) {
        // Sharded GEMMs/convolutions run at lower utilisation.
        ctx.eff_scale = std::pow(0.85, std::log2(static_cast<double>(m)));
    }

    ScheduleAccum acc;
    for (const auto& layer : net.layers) {
        expand_layer(acc, ctx, layer);
    }

    // Loss and optimizer.
    {
        const double loss_flops =
            5.0 * ctx.batch * workload.app.dataset.num_classes;
        const double t_loss = hw::kernel_time(sys.gpu, loss_flops,
                                              8.0 * ctx.batch, 0.3);
        acc.both("sparse_softmax_xent_kernel", KernelCategory::CudaKernel, true,
                 t_loss, 1);

        const double shard_weight_bytes = net.gradient_bytes() / m;
        const double t_opt = hw::kernel_time(
            sys.gpu, 2.0 * static_cast<double>(net.total_params()) / m,
            3.0 * shard_weight_bytes, 0.3);
        acc.train("sgd_momentum_update_kernel", KernelCategory::CudaKernel,
                  true, t_opt, 1);

        // Gradient buffer clear before accumulation.
        acc.train("Memset", KernelCategory::Memset, true,
                  hw::memset_time(sys.gpu, shard_weight_bytes), 1,
                  shard_weight_bytes);
    }

    // Host<->device traffic: the input batch up, the loss value down. The
    // loss copy is asynchronous and typically completes after the step's
    // NVTX end mark (exercises the paper's between-steps aggregation path).
    {
        const double input_bytes = ctx.batch * net.input.bytes();
        acc.both("Memcpy HtoD", KernelCategory::Memcpy, true,
                 hw::memcpy_time(sys.gpu, input_bytes), 1, input_bytes);
        KernelDesc& dtoh = acc.get("Memcpy DtoH", KernelCategory::Memcpy, true);
        const double t_dtoh = hw::memcpy_time(sys.gpu, 8.0);
        dtoh.train_time += t_dtoh;
        dtoh.val_time += t_dtoh;
        dtoh.train_visits += 1;
        dtoh.val_visits += 1;
        dtoh.train_bytes += 8.0;
        dtoh.val_bytes += 8.0;
        dtoh.async_after_step = true;
    }

    // Input pipeline: preprocessing on the host, plus streaming reads for
    // datasets that do not fit into memory.
    {
        const double t_pre = ctx.batch / sys.preprocess_rate_samples_per_s;
        acc.both("preprocess_batch", KernelCategory::NvtxFunction, false, t_pre,
                 1);
        const bool image_input = net.input.rank() == 3;
        if (image_input) {
            acc.train("augment_data", KernelCategory::NvtxFunction, false,
                      0.4 * t_pre, 1);
        }
        if (workload.streams_from_disk()) {
            // Streaming from the parallel file system: every rank reads its
            // batch each step, and the shared PFS degrades with the number
            // of clients - another scale-dependent effect outside the PMNF
            // space (it makes large streaming benchmarks like ImageNet the
            // hardest to predict, as in the paper's Fig. 7).
            const double read_bytes =
                ctx.batch * workload.app.dataset.bytes_per_sample;
            const int nodes = sys.nodes_for_ranks(ranks);
            double pfs_contention =
                1.0 + 0.05 * std::sqrt(static_cast<double>(nodes));
            if (nodes > 32) {
                pfs_contention *= 2.5;  // OST saturation past ~32 clients -
                                        // invisible from small-scale profiles
            }
            acc.both("read", KernelCategory::Os, false,
                     read_bytes * pfs_contention / (sys.io_read_gbs * 1e9), 4,
                     read_bytes);
        }
        // Thread-pool synchronisation grows with the job size (more
        // stragglers to wait for in the tf.data/horovod coordination).
        const double t_futex =
            4e-5 * (1.0 + 0.3 * std::log2(static_cast<double>(ranks)));
        acc.both("futex_wait", KernelCategory::Os, false, t_futex, 6);
        acc.both("sched_yield", KernelCategory::Os, false, 8e-6, 3);
    }

    // User functions covered by the NVTX instrumentation (exclusive times:
    // the Python-side overhead of the annotated functions themselves).
    acc.train("training_step", KernelCategory::NvtxFunction, false, 2.0e-4, 1);
    acc.val("validation_step", KernelCategory::NvtxFunction, false, 1.5e-4, 1);

    // Communication plan.
    const parallel::CommPlan plan = parallel::build_comm_plan(
        net, workload.parallel, workload.batch_per_worker);
    for (const auto& op : plan.train_ops) {
        const PricedComm pc = price_comm(workload, op);
        acc.train(pc.name, pc.category, pc.on_gpu,
                  pc.time * op.per_step_count, op.per_step_count,
                  op.bytes * op.per_step_count);
    }
    for (const auto& op : plan.val_ops) {
        const PricedComm pc = price_comm(workload, op);
        acc.val(pc.name, pc.category, pc.on_gpu, pc.time * op.per_step_count,
                op.per_step_count, op.bytes * op.per_step_count);
    }

    StepSchedule schedule;
    schedule.kernels = std::move(acc).take();

    // Pipeline fill/drain bubble: the idle time shows up as receive-wait in
    // the boundary send/recv kernels.
    if (plan.pipeline_bubble_fraction > 0.0) {
        double compute_time = 0.0;
        for (const auto& k : schedule.kernels) {
            if (trace::phase_of(k.category) == Phase::Computation) {
                compute_time += k.train_time;
            }
        }
        const double f = plan.pipeline_bubble_fraction;
        const double extra = compute_time * f / (1.0 - f);
        for (auto& k : schedule.kernels) {
            if (k.name == "ncclSendRecv" || k.name == "MPI_Sendrecv") {
                k.train_time += extra * 0.5;
                k.val_time += extra * 0.25;  // forward-only pipeline bubble
            }
        }
    }

    // cudaLaunchKernel / synchronisation API calls mirror the GPU kernel
    // launch counts.
    {
        std::int64_t train_launches = 0;
        std::int64_t val_launches = 0;
        for (const auto& k : schedule.kernels) {
            if (k.on_gpu) {
                train_launches += k.train_visits;
                val_launches += k.val_visits;
            }
        }
        KernelDesc launch;
        launch.name = "cudaLaunchKernel";
        launch.category = KernelCategory::CudaApi;
        launch.train_time = kLaunchOverhead * train_launches;
        launch.val_time = kLaunchOverhead * val_launches;
        launch.train_visits = train_launches;
        launch.val_visits = val_launches;
        schedule.kernels.push_back(std::move(launch));

        // Framework op dispatch on the host: TensorFlow's executor (or
        // PyTorch's dispatcher) spends O(100 us) per op, which dominates
        // small-tensor training steps in practice.
        KernelDesc dispatch;
        dispatch.name = ctx.framework == "tf" ? "ExecutorState::Process"
                                              : "aten::dispatch";
        dispatch.category = KernelCategory::Os;
        dispatch.train_time = 1.2e-4 * static_cast<double>(train_launches);
        dispatch.val_time = 1.2e-4 * static_cast<double>(val_launches);
        dispatch.train_visits = train_launches;
        dispatch.val_visits = val_launches;
        schedule.kernels.push_back(std::move(dispatch));

        KernelDesc sync;
        sync.name = "cudaStreamSynchronize";
        sync.category = KernelCategory::CudaApi;
        sync.train_time = 1.5e-5;
        sync.val_time = 1.5e-5;
        sync.train_visits = 1;
        sync.val_visits = 1;
        schedule.kernels.push_back(std::move(sync));
    }

    // Initialisation phase.
    {
        const parallel::StepMath sm = workload.step_math();
        const double shard_bytes =
            static_cast<double>(sm.effective_train_samples) /
            workload.parallel.shards() * workload.app.dataset.bytes_per_sample;
        if (!workload.streams_from_disk()) {
            schedule.init.push_back(InitDesc{
                "load_data", KernelCategory::NvtxFunction,
                shard_bytes / (sys.io_read_gbs * 1e9), 0.0, 1});
            schedule.init.push_back(InitDesc{
                "read", KernelCategory::Os,
                shard_bytes / (sys.io_read_gbs * 1e9),
                shard_bytes,
                std::max<std::int64_t>(
                    1, static_cast<std::int64_t>(shard_bytes / (64e6)))});
        } else {
            schedule.init.push_back(InitDesc{
                "load_data", KernelCategory::NvtxFunction, 0.05, 0.0, 1});
        }
        for (const auto& op : plan.startup_ops) {
            const PricedComm pc = price_comm(workload, op);
            schedule.init.push_back(
                InitDesc{pc.name, pc.category, pc.time, op.bytes, 1});
        }
        const double weight_bytes = net.gradient_bytes() / m;
        schedule.init.push_back(InitDesc{
            "Memcpy HtoD", KernelCategory::Memcpy,
            hw::memcpy_time(sys.gpu, weight_bytes), weight_bytes, 1});
        schedule.init.push_back(InitDesc{
            "cudaMalloc", KernelCategory::CudaApi, 1.2e-3, 0.0,
            static_cast<std::int64_t>(net.layers.size())});
        schedule.init.push_back(
            InitDesc{"cudnnCreate", KernelCategory::Cudnn, 0.2, 0.0, 1});
    }

    // Per-epoch bookkeeping: dataset reshuffle and iterator reset.
    {
        const parallel::StepMath sm = workload.step_math();
        const double shard_samples =
            static_cast<double>(sm.effective_train_samples) /
            workload.parallel.shards();
        schedule.epoch_overhead_s = 0.02 + shard_samples * 2e-8;
    }

    return schedule;
}

}  // namespace extradeep::sim
