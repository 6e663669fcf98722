/**
 * @file
 * Unit tests for the graph library: CSR construction, generators and
 * the simulated-memory graph loader.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/sim_graph.h"

namespace memtier {
namespace {

// ------------------------------------------------------------- CsrGraph

TEST(CsrGraph, BuildsSymmetricAdjacency)
{
    const EdgeList edges{{0, 1}, {1, 2}};
    const CsrGraph g = CsrGraph::fromEdgeList(3, edges);
    EXPECT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.numEdges(), 4);  // Both directions.
    EXPECT_EQ(g.degree(0), 1);
    EXPECT_EQ(g.degree(1), 2);
    EXPECT_EQ(g.degree(2), 1);
    EXPECT_EQ(g.neighbors(1)[0], 0);
    EXPECT_EQ(g.neighbors(1)[1], 2);
}

TEST(CsrGraph, RemovesSelfLoops)
{
    const EdgeList edges{{0, 0}, {0, 1}};
    const CsrGraph g = CsrGraph::fromEdgeList(2, edges);
    EXPECT_EQ(g.numEdges(), 2);
    EXPECT_EQ(g.degree(0), 1);
}

TEST(CsrGraph, DeduplicatesParallelEdges)
{
    const EdgeList edges{{0, 1}, {0, 1}, {1, 0}};
    const CsrGraph g = CsrGraph::fromEdgeList(2, edges);
    EXPECT_EQ(g.numEdges(), 2);
}

TEST(CsrGraph, NeighborsSortedAscending)
{
    const EdgeList edges{{0, 3}, {0, 1}, {0, 2}};
    const CsrGraph g = CsrGraph::fromEdgeList(4, edges);
    const auto n = g.neighbors(0);
    EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
}

TEST(CsrGraph, IsolatedVerticesHaveZeroDegree)
{
    const EdgeList edges{{0, 1}};
    const CsrGraph g = CsrGraph::fromEdgeList(5, edges);
    EXPECT_EQ(g.degree(3), 0);
    EXPECT_TRUE(g.neighbors(3).empty());
}

TEST(CsrGraph, OffsetsAreMonotone)
{
    const CsrGraph g =
        CsrGraph::fromEdgeList(8, generateUrand(3, 4, 5));
    const auto &off = g.offsets();
    EXPECT_EQ(off.size(), 9u);
    EXPECT_TRUE(std::is_sorted(off.begin(), off.end()));
    EXPECT_EQ(off.back(), g.numEdges());
}

TEST(CsrGraph, SerializedBytesLayout)
{
    const EdgeList edges{{0, 1}};
    const CsrGraph g = CsrGraph::fromEdgeList(2, edges);
    // Header (3x int64) + offsets (3x int64) + adjacency (2x int32).
    EXPECT_EQ(g.serializedBytes(), 24u + 24u + 8u);
}

// ----------------------------------------------------------- Generators

TEST(Generators, KronDeterministic)
{
    const EdgeList a = generateKron(8, 4, 7);
    const EdgeList b = generateKron(8, 4, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].u, b[i].u);
        EXPECT_EQ(a[i].v, b[i].v);
    }
}

TEST(Generators, KronEdgeCountAndRange)
{
    const EdgeList edges = generateKron(10, 16, 1);
    EXPECT_EQ(edges.size(), (1u << 10) * 16u);
    for (const Edge &e : edges) {
        EXPECT_GE(e.u, 0);
        EXPECT_LT(e.u, 1 << 10);
        EXPECT_GE(e.v, 0);
        EXPECT_LT(e.v, 1 << 10);
    }
}

TEST(Generators, UrandEdgeCountAndRange)
{
    const EdgeList edges = generateUrand(10, 16, 1);
    EXPECT_EQ(edges.size(), (1u << 10) * 16u);
    for (const Edge &e : edges) {
        EXPECT_GE(e.u, 0);
        EXPECT_LT(e.u, 1 << 10);
    }
}

TEST(Generators, KronIsSkewedUrandIsNot)
{
    // The paper's two datasets differ exactly here: kron is power-law,
    // urand is uniform. Compare max degree.
    const CsrGraph kron = CsrGraph::fromEdgeList(
        1 << 12, generateKron(12, 16, 3));
    const CsrGraph urand = CsrGraph::fromEdgeList(
        1 << 12, generateUrand(12, 16, 3));
    std::int64_t kron_max = 0;
    std::int64_t urand_max = 0;
    for (NodeId v = 0; v < (1 << 12); ++v) {
        kron_max = std::max(kron_max, kron.degree(v));
        urand_max = std::max(urand_max, urand.degree(v));
    }
    EXPECT_GT(kron_max, 4 * urand_max);
}

TEST(Generators, SeedsProduceDifferentGraphs)
{
    const EdgeList a = generateUrand(8, 4, 1);
    const EdgeList b = generateUrand(8, 4, 2);
    int same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        same += a[i].u == b[i].u && a[i].v == b[i].v;
    EXPECT_LT(same, static_cast<int>(a.size() / 10));
}

TEST(Generators, StreamingEmissionMatchesMaterialized)
{
    // The materializing generators wrap the streaming emitters; the
    // edge sequences must be identical.
    const EdgeList kron = generateKron(9, 6, 17);
    std::size_t i = 0;
    forEachKronEdge(9, 6, 17, [&](NodeId u, NodeId v) {
        ASSERT_LT(i, kron.size());
        EXPECT_EQ(u, kron[i].u);
        EXPECT_EQ(v, kron[i].v);
        ++i;
    });
    EXPECT_EQ(i, kron.size());

    const EdgeList urand = generateUrand(9, 6, 17);
    i = 0;
    forEachUrandEdge(9, 6, 17, [&](NodeId u, NodeId v) {
        ASSERT_LT(i, urand.size());
        EXPECT_EQ(u, urand[i].u);
        EXPECT_EQ(v, urand[i].v);
        ++i;
    });
    EXPECT_EQ(i, urand.size());
}

TEST(Generators, SeedStableAtScale20)
{
    // Paper-scale seed stability, streamed so the test never holds the
    // edge list: two passes with the same seed must produce the same
    // edge checksum, a different seed must not.
    const auto checksum = [](std::uint64_t seed) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        std::uint64_t count = 0;
        forEachKronEdge(20, 16, seed, [&](NodeId u, NodeId v) {
            const std::uint64_t packed =
                (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(u))
                 << 32) |
                static_cast<std::uint32_t>(v);
            h = (h ^ packed) * 0x100000001b3ULL;
            ++count;
        });
        EXPECT_EQ(count, (1ULL << 20) * 16);
        return h;
    };
    const std::uint64_t a = checksum(9241);
    EXPECT_EQ(checksum(9241), a);
    EXPECT_NE(checksum(9242), a);
}

/** Byte-wise FNV-1a over each emitted edge packed as (u << 32 | v). */
template <typename Emit>
std::uint64_t
streamHash(Emit &&emit)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    emit([&](NodeId u, NodeId v) {
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u))
             << 32) |
            static_cast<std::uint32_t>(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (packed >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    });
    return h;
}

TEST(Generators, StreamsMatchAbsoluteGolden)
{
    // Absolute hashes of the emitted edge sequences, captured from the
    // original double-compare R-MAT loop. Unlike the self-comparisons
    // above, these catch any drift in the draws or the quadrant test.
    struct Golden
    {
        int scale;
        std::uint64_t seed;
        std::uint64_t kron;
        std::uint64_t urand;
    };
    const Golden goldens[] = {
        {1, 1, 0x10412e0580205a04ULL,
         0xeffec5f78091e3b4ULL},
        {2, 3, 0x726fdf6131621bd6ULL,
         0xd72f59479be76ce5ULL},
        {13, 3, 0x0d54467ec5c4c4d0ULL,
         0x4515abd391ef3b0aULL},
        {13, 9241, 0x600b12172669d16dULL,
         0x06851236a8cd6f53ULL},
        {16, 9, 0x402e9f76fb9f56cbULL,
         0xd4dd59499ea0bab8ULL},
        {20, 9241, 0x98a39245e5c49ea5ULL,
         0x4bf6a984a9207e37ULL},
    };
    for (const Golden &g : goldens) {
        const std::uint64_t kron = streamHash([&](auto &&fn) {
            forEachKronEdge(g.scale, 16, g.seed, fn);
        });
        const std::uint64_t urand = streamHash([&](auto &&fn) {
            forEachUrandEdge(g.scale, 16, g.seed, fn);
        });
        EXPECT_EQ(kron, g.kron)
            << "kron scale " << g.scale << " seed " << g.seed
            << " got 0x" << std::hex << kron;
        EXPECT_EQ(urand, g.urand)
            << "urand scale " << g.scale << " seed " << g.seed
            << " got 0x" << std::hex << urand;
    }
}

/**
 * Oracle: the original floating-point R-MAT quadrant chain over
 * r = k * 2^-53 (what nextDouble() returns), in kronQuadrant's
 * encoding (bit 1 = source bit, bit 0 = target bit).
 */
std::uint64_t
doubleQuadrant(std::uint64_t k)
{
    const double r = static_cast<double>(k) * 0x1.0p-53;
    if (r < kKronA)
        return 0;
    if (r < kKronA + kKronB)
        return 1;
    if (r < kKronA + kKronB + kKronC)
        return 2;
    return 3;
}

TEST(Generators, KronQuadrantMatchesDoubleOracle)
{
    // Around each threshold and at both ends of the 53-bit range.
    for (const std::uint64_t t :
         {kKronThresholdA, kKronThresholdAB, kKronThresholdABC}) {
        for (const std::uint64_t k :
             {std::uint64_t{0}, t - 1, t, t + 1,
              (std::uint64_t{1} << 53) - 1}) {
            EXPECT_EQ(kronQuadrant(k), doubleQuadrant(k))
                << "k " << k << " threshold " << t;
        }
    }
    // The thresholds sit exactly on the double boundaries.
    EXPECT_EQ(doubleQuadrant(kKronThresholdA - 1), 0u);
    EXPECT_EQ(doubleQuadrant(kKronThresholdA), 1u);
    EXPECT_EQ(doubleQuadrant(kKronThresholdAB - 1), 1u);
    EXPECT_EQ(doubleQuadrant(kKronThresholdAB), 2u);
    EXPECT_EQ(doubleQuadrant(kKronThresholdABC - 1), 2u);
    EXPECT_EQ(doubleQuadrant(kKronThresholdABC), 3u);

    Rng rng(20221);
    std::uint64_t mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
        const std::uint64_t k = rng.next() >> 11;
        mismatches += kronQuadrant(k) != doubleQuadrant(k);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Generators, DegreeDistributionSaneAtScale20)
{
    // Degree-distribution sanity at paper scale, from streamed edges
    // plus one 4 MiB count array per generator: kron must be heavily
    // skewed (power-law hubs, many isolated vertices), urand must not.
    const std::int64_t n = 1LL << 20;
    std::vector<std::uint32_t> deg(static_cast<std::size_t>(n), 0);
    forEachKronEdge(20, 16, 9241, [&](NodeId u, NodeId v) {
        ++deg[static_cast<std::size_t>(u)];
        ++deg[static_cast<std::size_t>(v)];
    });
    std::uint64_t kron_max = 0;
    std::int64_t kron_isolated = 0;
    for (const std::uint32_t d : deg) {
        kron_max = std::max<std::uint64_t>(kron_max, d);
        kron_isolated += d == 0;
    }
    // Mean (pre-dedup, both endpoints) is 32; a power-law hub must
    // dwarf it and the skew must leave many vertices untouched.
    EXPECT_GT(kron_max, 32u * 64u);
    EXPECT_GT(kron_isolated, n / 8);

    std::fill(deg.begin(), deg.end(), 0);
    forEachUrandEdge(20, 16, 9241, [&](NodeId u, NodeId v) {
        ++deg[static_cast<std::size_t>(u)];
        ++deg[static_cast<std::size_t>(v)];
    });
    std::uint64_t urand_max = 0;
    std::int64_t urand_isolated = 0;
    for (const std::uint32_t d : deg) {
        urand_max = std::max<std::uint64_t>(urand_max, d);
        urand_isolated += d == 0;
    }
    // Uniform: max degree stays within a small factor of the mean and
    // (at mean 32) isolated vertices are essentially impossible.
    EXPECT_LT(urand_max, 32u * 4u);
    EXPECT_EQ(urand_isolated, 0);
}

// ----------------------------------------------------------- SimCsrGraph

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(1024 * kPageSize);
    cfg.nvm = makeNvmParams(4096 * kPageSize);
    cfg.numThreads = 2;
    return cfg;
}

TEST(SimCsrGraph, LoadMirrorsHostGraph)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    const CsrGraph host =
        CsrGraph::fromEdgeList(1 << 8, generateUrand(8, 8, 11));
    SimCsrGraph g = SimCsrGraph::load(eng, heap, t, host, "t");

    EXPECT_EQ(g.numNodes(), host.numNodes());
    EXPECT_EQ(g.numEdges(), host.numEdges());
    for (NodeId u = 0; u < host.numNodes(); ++u) {
        EXPECT_EQ(g.offset(t, u), host.offsets()[u]);
        std::vector<NodeId> got;
        g.forNeighbors(t, u, [&](NodeId v) { got.push_back(v); });
        const auto want = host.neighbors(u);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], want[i]);
    }
    g.free(heap, t);
}

TEST(SimCsrGraph, LoadGoesThroughPageCache)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    const CsrGraph host =
        CsrGraph::fromEdgeList(1 << 8, generateUrand(8, 8, 11));
    SimCsrGraph g = SimCsrGraph::load(eng, heap, t, host, "t");
    // Page cache now holds the whole serialized file.
    const auto stat = eng.kernel().numastat();
    const std::uint64_t cache_pages =
        stat.cachePages[0] + stat.cachePages[1];
    EXPECT_EQ(cache_pages, roundUpPages(host.serializedBytes()));
    g.free(heap, t);
}

TEST(SimCsrGraph, LoadCreatesTwoObjects)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    const CsrGraph host =
        CsrGraph::fromEdgeList(1 << 6, generateUrand(6, 4, 11));
    SimCsrGraph g = SimCsrGraph::load(eng, heap, t, host, "t");
    EXPECT_EQ(heap.liveAllocations(), 2u);  // index + adjacency.
    g.free(heap, t);
    EXPECT_EQ(heap.liveAllocations(), 0u);
}

}  // namespace
}  // namespace memtier
