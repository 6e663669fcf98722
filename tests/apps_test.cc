/**
 * @file
 * Correctness tests for the graph applications: every simulated-memory
 * kernel must produce exactly the result of its untimed host reference.
 */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "apps/bc.h"
#include "apps/bfs.h"
#include "apps/cc.h"
#include "apps/pagerank.h"
#include "bigraph/segmented_csr.h"
#include "graph/generators.h"
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

/** Workbench holding a loaded simulated graph. */
struct Bench
{
    explicit Bench(const CsrGraph &host)
        : eng(testConfig()), heap(eng),
          g(SegmentedCsrGraph::fromHost(eng, heap, eng.thread(0), host,
                                        "test"))
    {
    }

    ~Bench() { g.free(heap, eng.thread(0)); }

    Engine eng;
    SimHeap heap;
    SegmentedCsrGraph g;
};

// ------------------------------------------------------------------ BFS

enum class Kind { Kron, Urand };

struct GraphCase
{
    Kind kind;
    int scale;
    int degree;
};

class AppsOnGraphs : public ::testing::TestWithParam<GraphCase>
{
  protected:
    CsrGraph
    makeGraph() const
    {
        const GraphCase c = GetParam();
        EdgeList edges = c.kind == Kind::Kron
                             ? generateKron(c.scale, c.degree, 99)
                             : generateUrand(c.scale, c.degree, 99);
        return CsrGraph::fromEdgeList(
            static_cast<NodeId>(1 << c.scale), edges);
    }
};

TEST_P(AppsOnGraphs, BfsMatchesHostDepths)
{
    const CsrGraph host = makeGraph();
    Bench b(host);
    const NodeId source = 1;
    const BfsOutput out = runBfs(b.eng, b.heap, b.g, source);
    const std::vector<std::int64_t> depth = hostBfsDepths(host, source);

    std::int64_t reached = 0;
    for (NodeId v = 0; v < host.numNodes(); ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (depth[vi] == -1) {
            EXPECT_EQ(out.parent[vi], -1) << "vertex " << v;
            continue;
        }
        ++reached;
        ASSERT_NE(out.parent[vi], -1) << "vertex " << v;
        if (v == source)
            continue;
        // Parent must be exactly one level shallower.
        const NodeId p = out.parent[vi];
        EXPECT_EQ(depth[static_cast<std::size_t>(p)] + 1, depth[vi])
            << "vertex " << v;
    }
    EXPECT_EQ(out.reached, reached);
}

TEST_P(AppsOnGraphs, CcMatchesHostComponents)
{
    const CsrGraph host = makeGraph();
    Bench b(host);
    const CcOutput out = runCc(b.eng, b.heap, b.g);
    const std::vector<NodeId> want = hostCcLabels(host);

    // Same partition: labels must agree as an equivalence relation.
    // Two vertices share a host label iff they share a sim label.
    std::map<NodeId, NodeId> host_to_sim;
    for (NodeId v = 0; v < host.numNodes(); ++v) {
        const auto vi = static_cast<std::size_t>(v);
        auto [it, fresh] =
            host_to_sim.emplace(want[vi], out.comp[vi]);
        if (!fresh) {
            ASSERT_EQ(it->second, out.comp[vi]) << "vertex " << v;
        }
    }
    std::set<NodeId> host_labels(want.begin(), want.end());
    EXPECT_EQ(out.numComponents,
              static_cast<std::int64_t>(host_labels.size()));
}

TEST_P(AppsOnGraphs, BcMatchesHostScores)
{
    const CsrGraph host = makeGraph();
    Bench b(host);
    const BcOutput out = runBc(b.eng, b.heap, b.g, 3, 1234);
    const std::vector<double> want = hostBcScores(host, 3, 1234);
    ASSERT_EQ(out.scores.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v)
        EXPECT_NEAR(out.scores[v], want[v], 1e-6 + 1e-9 * want[v])
            << "vertex " << v;
}

TEST_P(AppsOnGraphs, PageRankMatchesHost)
{
    const CsrGraph host = makeGraph();
    Bench b(host);
    const PageRankOutput out = runPageRank(b.eng, b.heap, b.g, 5);
    const std::vector<double> want = hostPageRank(host, 5);
    for (std::size_t v = 0; v < want.size(); ++v)
        EXPECT_NEAR(out.rank[v], want[v], 1e-12) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, AppsOnGraphs,
    ::testing::Values(GraphCase{Kind::Kron, 8, 8},
                      GraphCase{Kind::Urand, 8, 8},
                      GraphCase{Kind::Kron, 10, 16},
                      GraphCase{Kind::Urand, 10, 4}));

// --------------------------------------------------------- Edge cases

TEST(Bfs, SingletonSourceReachesOnlyItself)
{
    // Vertex 4 is isolated by construction.
    const CsrGraph host = CsrGraph::fromEdgeList(5, {{0, 1}, {1, 2}});
    Bench b(host);
    const BfsOutput out = runBfs(b.eng, b.heap, b.g, 4);
    EXPECT_EQ(out.reached, 1);
    EXPECT_EQ(out.parent[4], 4);
    EXPECT_EQ(out.parent[0], -1);
}

TEST(Bfs, LineGraphDepths)
{
    EdgeList chain;
    for (NodeId v = 0; v + 1 < 64; ++v)
        chain.push_back({v, static_cast<NodeId>(v + 1)});
    const CsrGraph host = CsrGraph::fromEdgeList(64, chain);
    Bench b(host);
    const BfsOutput out = runBfs(b.eng, b.heap, b.g, 0);
    EXPECT_EQ(out.reached, 64);
    EXPECT_EQ(out.supersteps, 64);  // 63 expansions + final empty check.
    // Each parent is the previous vertex on the chain.
    for (NodeId v = 1; v < 64; ++v)
        EXPECT_EQ(out.parent[static_cast<std::size_t>(v)], v - 1);
}

TEST(Bfs, BottomUpKicksInOnDenseGraph)
{
    // A dense-ish graph where the frontier quickly covers most nodes.
    const CsrGraph host =
        CsrGraph::fromEdgeList(1 << 8, generateUrand(8, 32, 5));
    Bench b(host);
    const BfsOutput out = runBfs(b.eng, b.heap, b.g, 0);
    EXPECT_GT(out.bottomUpSteps, 0);
    EXPECT_GT(out.reached, (1 << 8) * 9 / 10);
}

TEST(Cc, DisconnectedComponentsCounted)
{
    const CsrGraph host =
        CsrGraph::fromEdgeList(6, {{0, 1}, {2, 3}, {4, 5}});
    Bench b(host);
    const CcOutput out = runCc(b.eng, b.heap, b.g);
    EXPECT_EQ(out.numComponents, 3);
    EXPECT_EQ(out.comp[0], out.comp[1]);
    EXPECT_NE(out.comp[0], out.comp[2]);
}

TEST(Cc, FullyConnectedSingleComponent)
{
    EdgeList star;
    for (NodeId v = 1; v < 32; ++v)
        star.push_back({0, v});
    const CsrGraph host = CsrGraph::fromEdgeList(32, star);
    Bench b(host);
    const CcOutput out = runCc(b.eng, b.heap, b.g);
    EXPECT_EQ(out.numComponents, 1);
}

TEST(Bc, StarCenterDominates)
{
    EdgeList star;
    for (NodeId v = 1; v < 16; ++v)
        star.push_back({0, v});
    const CsrGraph host = CsrGraph::fromEdgeList(16, star);
    Bench b(host);
    const BcOutput out = runBc(b.eng, b.heap, b.g, 8, 77);
    // The hub lies on every shortest path between leaves.
    for (std::size_t v = 1; v < 16; ++v)
        EXPECT_GE(out.scores[0], out.scores[v]);
    EXPECT_GT(out.scores[0], 0.0);
}

TEST(Bc, AllocatesAndFreesPerSourceObjects)
{
    const CsrGraph host =
        CsrGraph::fromEdgeList(1 << 6, generateUrand(6, 4, 5));
    Bench b(host);
    const std::size_t before = b.heap.liveAllocations();
    runBc(b.eng, b.heap, b.g, 2, 77);
    EXPECT_EQ(b.heap.liveAllocations(), before);  // No leaks.
    // 4 working arrays per source + scores, freed again.
    EXPECT_GE(b.heap.allocatedObjects(), 2 + 2 * 4 + 1);
}

TEST(PageRank, RanksSumToOne)
{
    const CsrGraph host =
        CsrGraph::fromEdgeList(1 << 7, generateUrand(7, 8, 3));
    Bench b(host);
    const PageRankOutput out = runPageRank(b.eng, b.heap, b.g, 10);
    double sum = 0.0;
    for (const double r : out.rank)
        sum += r;
    EXPECT_NEAR(sum, 1.0, 0.05);  // Leakage via dangling nodes only.
}

}  // namespace
}  // namespace memtier
