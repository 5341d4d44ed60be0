#include <gtest/gtest.h>

#include "common/error.hpp"
#include "hw/gpu.hpp"
#include "hw/network.hpp"
#include "hw/system.hpp"

using namespace extradeep::hw;
using extradeep::InvalidArgumentError;

TEST(Gpu, PresetsMatchTable1Hardware) {
    const GpuSpec v100 = GpuSpec::v100();
    EXPECT_EQ(v100.name, "V100");
    EXPECT_NEAR(v100.peak_fp32_tflops, 15.7, 0.1);
    const GpuSpec a100 = GpuSpec::a100();
    EXPECT_EQ(a100.name, "A100");
    EXPECT_GT(a100.mem_bandwidth_gbs, v100.mem_bandwidth_gbs);
}

TEST(Gpu, KernelTimeComputeBound) {
    GpuSpec g = GpuSpec::v100();
    // 15.7 TFLOPs at efficiency 0.5 -> 7.85e12 flops/s.
    const double t = kernel_time(g, 7.85e12, 0.0, 0.5);
    EXPECT_NEAR(t, 1.0 + g.kernel_launch_overhead_s, 1e-9);
}

TEST(Gpu, KernelTimeMemoryBound) {
    GpuSpec g = GpuSpec::v100();
    // Few flops, 900 GB of traffic -> 1 s memory time dominates.
    const double t = kernel_time(g, 1.0, 900e9, 0.5);
    EXPECT_NEAR(t, 1.0 + g.kernel_launch_overhead_s, 1e-9);
}

TEST(Gpu, KernelTimeTakesMaxOfRoofline) {
    GpuSpec g = GpuSpec::v100();
    const double compute_only = kernel_time(g, 1e12, 0.0, 0.5);
    const double both = kernel_time(g, 1e12, 900e9, 0.5);
    EXPECT_GT(both, compute_only);
}

TEST(Gpu, KernelTimeValidation) {
    GpuSpec g = GpuSpec::v100();
    EXPECT_THROW(kernel_time(g, 1.0, 1.0, 0.0), InvalidArgumentError);
    EXPECT_THROW(kernel_time(g, 1.0, 1.0, 1.5), InvalidArgumentError);
    EXPECT_THROW(kernel_time(g, -1.0, 1.0, 0.5), InvalidArgumentError);
}

TEST(Gpu, MemcpyScalesWithBytes) {
    GpuSpec g = GpuSpec::v100();
    const double t1 = memcpy_time(g, 1e6);
    const double t2 = memcpy_time(g, 2e6);
    EXPECT_GT(t2, t1);
    EXPECT_THROW(memcpy_time(g, -1.0), InvalidArgumentError);
}

TEST(Link, P2pAlphaBeta) {
    LinkSpec link{1e-6, 10.0};  // 10 GB/s
    EXPECT_NEAR(link.p2p_time(10e9), 1.0 + 1e-6, 1e-9);
    EXPECT_NEAR(link.p2p_time(0.0), 1e-6, 1e-15);
}

TEST(Collectives, SingleParticipantIsFree) {
    LinkSpec link{1e-6, 10.0};
    EXPECT_DOUBLE_EQ(ring_allreduce_time(link, 1e6, 1), 0.0);
    EXPECT_DOUBLE_EQ(tree_allreduce_time(link, 1e6, 1), 0.0);
    EXPECT_DOUBLE_EQ(allgather_time(link, 1e6, 1), 0.0);
    EXPECT_DOUBLE_EQ(broadcast_time(link, 1e6, 1), 0.0);
}

TEST(Collectives, RingAllreduceFormula) {
    LinkSpec link{0.0, 1.0};  // zero latency, 1 GB/s
    // 2*(p-1)/p * bytes / bw with p=4, bytes=4e9 -> 6 s.
    EXPECT_NEAR(ring_allreduce_time(link, 4e9, 4), 6.0, 1e-9);
}

TEST(Collectives, RingBandwidthTermSaturates) {
    LinkSpec link{0.0, 1.0};
    // As p grows the bandwidth term approaches 2*bytes/bw.
    const double t64 = ring_allreduce_time(link, 1e9, 64);
    const double t1024 = ring_allreduce_time(link, 1e9, 1024);
    EXPECT_LT(t64, t1024);
    EXPECT_LT(t1024, 2.0 + 1e-6);
}

TEST(Collectives, TreeAllreduceLogRounds) {
    LinkSpec link{1.0, 1e12};  // latency dominated
    EXPECT_NEAR(tree_allreduce_time(link, 8.0, 8), 6.0, 1e-6);   // 2*log2(8)
    EXPECT_NEAR(tree_allreduce_time(link, 8.0, 9), 8.0, 1e-6);   // 2*ceil(log2 9)
}

TEST(Collectives, MpiPicksBetterAlgorithm) {
    // Large message: ring wins. Tiny message, many ranks: tree wins.
    LinkSpec link{1e-5, 1.0};
    const double large = mpi_allreduce_time(link, 1e9, 32);
    EXPECT_DOUBLE_EQ(large, ring_allreduce_time(link, 1e9, 32));
    const double small = mpi_allreduce_time(link, 8.0, 32);
    EXPECT_DOUBLE_EQ(small, tree_allreduce_time(link, 8.0, 32));
}

TEST(Collectives, BroadcastLogRounds) {
    LinkSpec link{0.0, 1.0};
    EXPECT_NEAR(broadcast_time(link, 1e9, 8), 3.0, 1e-9);
}

TEST(Collectives, HierarchicalFallsBackToFlatRing) {
    LinkSpec inter{1e-6, 1.0};
    LinkSpec intra{1e-7, 30.0};
    EXPECT_DOUBLE_EQ(hierarchical_allreduce_time(inter, intra, 1e8, 16, 1),
                     ring_allreduce_time(inter, 1e8, 16));
}

TEST(Collectives, HierarchicalBeatsFlatForLargeMessages) {
    // With fast intra-node links and 4 GPUs per node, the hierarchical
    // algorithm moves only 1/4 of the bytes across nodes.
    LinkSpec inter{1e-6, 1.0};
    LinkSpec intra{1e-7, 100.0};
    const double flat = ring_allreduce_time(inter, 1e9, 64);
    const double hier = hierarchical_allreduce_time(inter, intra, 1e9, 16, 4);
    EXPECT_LT(hier, flat);
}

TEST(Collectives, ValidationErrors) {
    LinkSpec link;
    EXPECT_THROW(ring_allreduce_time(link, 1.0, 0), InvalidArgumentError);
    EXPECT_THROW(hierarchical_allreduce_time(link, link, 1.0, 1, 0),
                 InvalidArgumentError);
    EXPECT_THROW(link.p2p_time(-1.0), InvalidArgumentError);
}

// Monotonicity sweep: collective time never decreases with participants.
class CollectiveMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveMonotoneTest, NonDecreasingInParticipants) {
    const int p = GetParam();
    LinkSpec link{2e-6, 8.0};
    EXPECT_LE(ring_allreduce_time(link, 1e8, p),
              ring_allreduce_time(link, 1e8, p + 1));
    EXPECT_LE(allgather_time(link, 1e8, p), allgather_time(link, 1e8, p + 1));
    EXPECT_LE(tree_allreduce_time(link, 1e8, p),
              tree_allreduce_time(link, 1e8, p * 2));
}

INSTANTIATE_TEST_SUITE_P(Participants, CollectiveMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 63));

TEST(System, DeepPresetMatchesTable1) {
    const SystemSpec s = SystemSpec::deep();
    EXPECT_EQ(s.name, "DEEP");
    EXPECT_EQ(s.node_count, 75);
    EXPECT_EQ(s.gpus_per_node, 1);
    EXPECT_EQ(s.cores_per_node, 8);
    EXPECT_EQ(s.gpu.name, "V100");
    EXPECT_FALSE(s.nccl_support);
    EXPECT_EQ(s.max_ranks(), 75);
}

TEST(System, JurecaPresetMatchesTable1) {
    const SystemSpec s = SystemSpec::jureca();
    EXPECT_EQ(s.name, "JURECA");
    EXPECT_EQ(s.node_count, 192);
    EXPECT_EQ(s.gpus_per_node, 4);
    EXPECT_EQ(s.cores_per_node, 128);
    EXPECT_EQ(s.gpu.name, "A100");
    EXPECT_TRUE(s.nccl_support);
    EXPECT_EQ(s.max_ranks(), 768);
}

TEST(System, JurecaNoisierThanDeep) {
    // Paper Sec. 4.3: avg run-to-run variation 12.6 % DEEP vs 17.4 % JURECA.
    const SystemSpec d = SystemSpec::deep();
    const SystemSpec j = SystemSpec::jureca();
    EXPECT_GT(j.noise.compute_sigma(64), d.noise.compute_sigma(64));
}

TEST(System, NoiseGrowsWithScale) {
    const NoiseSpec n = SystemSpec::deep().noise;
    EXPECT_LT(n.compute_sigma(2), n.compute_sigma(64));
    EXPECT_GT(n.comm_sigma(8), n.compute_sigma(8));
    EXPECT_THROW(n.compute_sigma(0), InvalidArgumentError);
}

TEST(System, NodesForRanks) {
    const SystemSpec j = SystemSpec::jureca();
    EXPECT_EQ(j.nodes_for_ranks(1), 1);
    EXPECT_EQ(j.nodes_for_ranks(4), 1);
    EXPECT_EQ(j.nodes_for_ranks(5), 2);
    EXPECT_EQ(j.nodes_for_ranks(64), 16);
    EXPECT_THROW(j.nodes_for_ranks(0), InvalidArgumentError);
}

TEST(System, ContentionMultiplier) {
    SystemSpec s = SystemSpec::deep();
    EXPECT_DOUBLE_EQ(contention_multiplier(s, 1), 1.0);
    EXPECT_GT(contention_multiplier(s, 2), 1.0);
    EXPECT_LT(contention_multiplier(s, 4), contention_multiplier(s, 64));
    EXPECT_THROW(contention_multiplier(s, 0), InvalidArgumentError);
}

TEST(System, AlgorithmRegimeFactorSteps) {
    EXPECT_DOUBLE_EQ(algorithm_regime_factor(1), 1.0);
    EXPECT_DOUBLE_EQ(algorithm_regime_factor(16), 1.0);
    EXPECT_NEAR(algorithm_regime_factor(17), 1.06, 1e-12);
    EXPECT_NEAR(algorithm_regime_factor(33), 1.06 * 1.06, 1e-12);
    EXPECT_NEAR(algorithm_regime_factor(65), 1.06 * 1.06 * 1.06, 1e-12);
}

TEST(System, AllreduceSingleRankFree) {
    EXPECT_DOUBLE_EQ(allreduce_time(SystemSpec::deep(), 1e8, 1), 0.0);
}

TEST(System, AllreduceGrowsWithRanks) {
    const SystemSpec s = SystemSpec::deep();
    EXPECT_LT(allreduce_time(s, 1e8, 2), allreduce_time(s, 1e8, 64));
}

TEST(System, JurecaIntraNodeAllreduceIsFast) {
    // 4 ranks on one JURECA node use NVLink only - much faster than 4 ranks
    // spread over 4 DEEP nodes.
    const double jureca = allreduce_time(SystemSpec::jureca(), 1e8, 4);
    const double deep = allreduce_time(SystemSpec::deep(), 1e8, 4);
    EXPECT_LT(jureca, deep / 10.0);
}

TEST(System, HierarchicalUsedAboveOneNode) {
    const SystemSpec j = SystemSpec::jureca();
    // 8 ranks = 2 nodes: hierarchical path (with contention) applies.
    const double t8 = allreduce_time(j, 1e8, 8);
    EXPECT_GT(t8, allreduce_time(j, 1e8, 4));
}

TEST(System, P2pPrefersIntraNode) {
    const SystemSpec j = SystemSpec::jureca();
    EXPECT_LT(p2p_time(j, 1e7, true), p2p_time(j, 1e7, false));
}

TEST(System, DescribeMentionsKeyFacts) {
    const std::string d = SystemSpec::deep().describe();
    EXPECT_NE(d.find("DEEP"), std::string::npos);
    EXPECT_NE(d.find("V100"), std::string::npos);
    EXPECT_NE(d.find("NCCL no"), std::string::npos);
}
