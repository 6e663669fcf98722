/**
 * @file
 * Correctness tests for the SSSP extension workload and the weighted
 * graph support underneath it.
 */

#include <gtest/gtest.h>

#include "apps/sssp.h"
#include "bigraph/segmented_csr.h"
#include "exp/runner.h"
#include "graph/generators.h"
#include "profile/mmap_tracker.h"
#include "runtime/sim_heap.h"

namespace memtier {
namespace {

SystemConfig
testConfig()
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(1024 * kPageSize);
    cfg.nvm = makeNvmParams(4096 * kPageSize);
    cfg.numThreads = 6;
    return cfg;
}

CsrGraph
weightedGraph(int scale, int degree, std::uint64_t seed)
{
    CsrGraph g = CsrGraph::fromEdgeList(
        static_cast<NodeId>(1 << scale),
        generateUrand(scale, degree, seed));
    g.generateWeights(seed);
    return g;
}

TEST(Weights, DeterministicAndSymmetric)
{
    const CsrGraph g = weightedGraph(8, 8, 5);
    ASSERT_TRUE(g.hasWeights());
    // Both directions of an undirected edge carry the same weight.
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        const auto begin = g.offsets()[static_cast<std::size_t>(u)];
        const auto end = g.offsets()[static_cast<std::size_t>(u) + 1];
        for (std::int64_t e = begin; e < end; ++e) {
            const NodeId v = g.adjacency()[static_cast<std::size_t>(e)];
            // Find the reverse edge.
            const auto vb = g.offsets()[static_cast<std::size_t>(v)];
            const auto ve = g.offsets()[static_cast<std::size_t>(v) + 1];
            bool found = false;
            for (std::int64_t r = vb; r < ve; ++r) {
                if (g.adjacency()[static_cast<std::size_t>(r)] == u) {
                    EXPECT_EQ(g.weight(e), g.weight(r));
                    found = true;
                    break;
                }
            }
            EXPECT_TRUE(found);
        }
    }
}

TEST(Weights, InGapbsRange)
{
    const CsrGraph g = weightedGraph(8, 8, 7);
    for (std::int64_t e = 0; e < g.numEdges(); ++e) {
        EXPECT_GE(g.weight(e), 1);
        EXPECT_LE(g.weight(e), 255);
    }
}

TEST(Weights, SerializedBytesGrow)
{
    CsrGraph g = CsrGraph::fromEdgeList(4, {{0, 1}, {1, 2}});
    const std::uint64_t unweighted = g.serializedBytes();
    g.generateWeights(1);
    EXPECT_EQ(g.serializedBytes(),
              unweighted + static_cast<std::uint64_t>(g.numEdges()) *
                               sizeof(std::int32_t));
}

TEST(SegmentedCsrFromHost, LoadsWeightsObject)
{
    Engine eng(testConfig());
    MmapTracker tracker;
    eng.kernel().setSyscallObserver(&tracker);
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    const CsrGraph host = weightedGraph(7, 4, 3);
    SegmentedCsrGraph seg =
        SegmentedCsrGraph::fromHost(eng, heap, t, host, "w");
    const SegmentedCsrView g = seg;
    ASSERT_TRUE(g.hasWeights());
    EXPECT_EQ(heap.liveAllocations(), 3u);  // index+adjacency+weights.
    ASSERT_EQ(tracker.records().size(), 3u);
    const AllocationRecord &wts = tracker.records()[2];
    EXPECT_EQ(wts.site, "csr.wts.0");
    EXPECT_EQ(wts.bytes, host.weights().size() * sizeof(std::int32_t));
    for (std::int64_t e = 0; e < host.numEdges(); e += 7)
        EXPECT_EQ(g.weightOf(t, e), host.weight(e));
    seg.free(heap, t);
    EXPECT_EQ(heap.liveAllocations(), 0u);
}

class SsspOnGraphs : public ::testing::TestWithParam<int>
{
};

TEST_P(SsspOnGraphs, MatchesDijkstra)
{
    Engine eng(testConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    const CsrGraph host = weightedGraph(GetParam(), 8, 31);
    SegmentedCsrGraph g =
        SegmentedCsrGraph::fromHost(eng, heap, t, host, "w");

    const SsspOutput out = runSssp(eng, heap, g, /*source=*/1);
    const std::vector<std::int64_t> want = hostSsspDistances(host, 1);
    ASSERT_EQ(out.dist.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v)
        EXPECT_EQ(out.dist[v], want[v]) << "vertex " << v;
    g.free(heap, t);
}

INSTANTIATE_TEST_SUITE_P(Scales, SsspOnGraphs,
                         ::testing::Values(6, 8, 10));

TEST(Sssp, UnreachableVerticesStayMinusOne)
{
    Engine eng(testConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    CsrGraph host = CsrGraph::fromEdgeList(5, {{0, 1}, {2, 3}});
    host.generateWeights(1);
    SegmentedCsrGraph g =
        SegmentedCsrGraph::fromHost(eng, heap, t, host, "w");
    const SsspOutput out = runSssp(eng, heap, g, 0);
    EXPECT_EQ(out.dist[0], 0);
    EXPECT_GT(out.dist[1], 0);
    EXPECT_EQ(out.dist[2], -1);
    EXPECT_EQ(out.dist[4], -1);
    g.free(heap, t);
}

TEST(Sssp, RunnerIntegration)
{
    RunConfig rc;
    rc.workload.app = App::SSSP;
    rc.workload.kind = GraphKind::Urand;
    rc.workload.scale = 12;
    rc.workload.trials = 2;
    rc.sys.dram = makeDramParams(512 * kPageSize);
    rc.sys.nvm = makeNvmParams(2048 * kPageSize);
    const RunResult r = runWorkload(rc);
    EXPECT_EQ(r.workloadName, "sssp_urand");
    EXPECT_GT(r.totalSeconds, 0.0);
    EXPECT_NE(r.outputChecksum, 0u);
}

}  // namespace
}  // namespace memtier
