#pragma once

#include <string>

namespace extradeep::hw {

/// Alpha-beta link model: a message of `n` bytes costs
/// latency + n / bandwidth. All collective cost models below are built from
/// this primitive.
struct LinkSpec {
    double latency_s = 1.5e-6;       ///< alpha, per-message latency
    double bandwidth_gbs = 12.5;     ///< beta, sustained bandwidth [GB/s]

    /// Point-to-point time for `bytes`.
    double p2p_time(double bytes) const;
};

/// Classic ring allreduce: 2(p-1) latency phases, each moving bytes/p, for a
/// total of 2*(p-1)/p * bytes over the wire per rank. The (p-1)/p factor is
/// intentionally outside the PMNF function space, which is one source of the
/// paper's growing extrapolation error.
double ring_allreduce_time(const LinkSpec& link, double bytes, int p);

/// Binomial-tree allreduce (reduce + broadcast): 2*ceil(log2 p) rounds of the
/// full message. Preferable for small messages / large latency.
double tree_allreduce_time(const LinkSpec& link, double bytes, int p);

/// MPI-style allreduce: the better of ring and tree, as real MPI libraries
/// switch algorithms by message size (a scale-dependent behaviour the paper
/// calls out as a modeling hazard in Sec. 4.3).
double mpi_allreduce_time(const LinkSpec& link, double bytes, int p);

/// Ring allgather: (p-1) rounds, each moving bytes/p.
double allgather_time(const LinkSpec& link, double bytes, int p);

/// Binomial broadcast: ceil(log2 p) rounds of the full message.
double broadcast_time(const LinkSpec& link, double bytes, int p);

/// Hierarchical (NCCL-style) allreduce over `nodes` nodes with
/// `gpus_per_node` GPUs each: intra-node reduce-scatter + inter-node ring
/// allreduce on the shard + intra-node allgather, using the fast intra-node
/// links for the local phases. Falls back to a flat ring when there is only
/// one GPU per node.
double hierarchical_allreduce_time(const LinkSpec& inter, const LinkSpec& intra,
                                   double bytes, int nodes, int gpus_per_node);

}  // namespace extradeep::hw
