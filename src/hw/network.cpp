#include "hw/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace extradeep::hw {

namespace {

void require_participants(int p, const char* fn) {
    if (p < 1) {
        throw InvalidArgumentError(std::string(fn) + ": p must be >= 1");
    }
}

int ceil_log2(int p) {
    int rounds = 0;
    int v = 1;
    while (v < p) {
        v *= 2;
        ++rounds;
    }
    return rounds;
}

}  // namespace

double LinkSpec::p2p_time(double bytes) const {
    if (bytes < 0.0) {
        throw InvalidArgumentError("p2p_time: negative bytes");
    }
    return latency_s + bytes / (bandwidth_gbs * 1e9);
}

double ring_allreduce_time(const LinkSpec& link, double bytes, int p) {
    require_participants(p, "ring_allreduce_time");
    if (p == 1) return 0.0;
    const double phases = 2.0 * (p - 1);
    const double chunk = bytes / p;
    return phases * (link.latency_s + chunk / (link.bandwidth_gbs * 1e9));
}

double tree_allreduce_time(const LinkSpec& link, double bytes, int p) {
    require_participants(p, "tree_allreduce_time");
    if (p == 1) return 0.0;
    const double rounds = 2.0 * ceil_log2(p);
    return rounds * link.p2p_time(bytes);
}

double mpi_allreduce_time(const LinkSpec& link, double bytes, int p) {
    require_participants(p, "mpi_allreduce_time");
    if (p == 1) return 0.0;
    return std::min(ring_allreduce_time(link, bytes, p),
                    tree_allreduce_time(link, bytes, p));
}

double allgather_time(const LinkSpec& link, double bytes, int p) {
    require_participants(p, "allgather_time");
    if (p == 1) return 0.0;
    const double phases = static_cast<double>(p - 1);
    const double chunk = bytes / p;
    return phases * (link.latency_s + chunk / (link.bandwidth_gbs * 1e9));
}

double broadcast_time(const LinkSpec& link, double bytes, int p) {
    require_participants(p, "broadcast_time");
    if (p == 1) return 0.0;
    return ceil_log2(p) * link.p2p_time(bytes);
}

double hierarchical_allreduce_time(const LinkSpec& inter, const LinkSpec& intra,
                                   double bytes, int nodes, int gpus_per_node) {
    require_participants(nodes, "hierarchical_allreduce_time");
    if (gpus_per_node < 1) {
        throw InvalidArgumentError(
            "hierarchical_allreduce_time: gpus_per_node must be >= 1");
    }
    if (gpus_per_node == 1) {
        return ring_allreduce_time(inter, bytes, nodes);
    }
    // Phase 1: intra-node reduce-scatter over the fast local links; a ring
    // reduce-scatter has the communication structure of ring allgather.
    const double t_local_rs = allgather_time(intra, bytes, gpus_per_node);
    // Phase 2: inter-node ring allreduce of each GPU's shard (bytes / g).
    const double t_inter =
        ring_allreduce_time(inter, bytes / gpus_per_node, nodes);
    // Phase 3: intra-node allgather to redistribute the full result.
    const double t_local_ag = allgather_time(intra, bytes, gpus_per_node);
    return t_local_rs + t_inter + t_local_ag;
}

}  // namespace extradeep::hw
