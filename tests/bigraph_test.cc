/**
 * @file
 * Tests for the segmented/streaming CSR subsystem: content against the
 * host-built CSR, absolute goldens, out-of-core determinism,
 * cross-segment traversal correctness against the host references, and
 * a chaos run with faults and invariants armed under pressured DRAM.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "apps/bfs.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "base/rng.h"
#include "bigraph/ooc_builder.h"
#include "bigraph/segmented_csr.h"
#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "runtime/sim_heap.h"
#include "thp/thp_params.h"

namespace memtier {
namespace {

SystemConfig
testConfig()
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(1024 * kPageSize);
    cfg.nvm = makeNvmParams(4096 * kPageSize);
    return cfg;
}

CsrGraph
hostGraphFor(const BigraphSpec &spec)
{
    EdgeList edges =
        spec.kind == BigraphKind::Kron
            ? generateKron(spec.scale, spec.degree, spec.seed)
            : generateUrand(spec.scale, spec.degree, spec.seed);
    CsrGraph g = CsrGraph::fromEdgeList(
        static_cast<NodeId>(1LL << spec.scale), edges);
    if (spec.weighted)
        g.generateWeights(spec.seed ^ 0x5eed);
    return g;
}

// --------------------------------------------------- Content equality

TEST(SegmentedCsr, SegmentsHoldExactlyTheMonolithicContent)
{
    BigraphSpec spec;
    spec.scale = 11;
    spec.degree = 8;
    spec.segments = 3;  // Non-power split: 2048 rows -> 683 per segment.
    const CsrGraph host = hostGraphFor(spec);

    Engine eng(testConfig());
    SimHeap heap(eng);
    SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
        eng, heap, eng.thread(0), spec, "bg_content");
    ASSERT_EQ(seg.segmentCount(), 3u);
    ASSERT_EQ(seg.numEdges(), host.numEdges());

    const auto &offs = host.offsets();
    const auto &adj = host.adjacency();
    for (const CsrSegment &s : seg.segments()) {
        // Index: global offsets, terminator included (the boundary
        // offset is duplicated into the next segment's first entry).
        for (NodeId r = s.firstRow; r <= s.rowEnd; ++r) {
            ASSERT_EQ(s.index.raw(static_cast<std::uint64_t>(
                          r - s.firstRow)),
                      offs[static_cast<std::size_t>(r)])
                << "row " << r;
        }
        for (std::int64_t e = s.edgeBase; e < s.edgeEnd; ++e) {
            ASSERT_EQ(
                s.adj.raw(static_cast<std::uint64_t>(e - s.edgeBase)),
                adj[static_cast<std::size_t>(e)])
                << "edge " << e;
        }
    }

    seg.free(heap, eng.thread(0));
    clearBigraphArtifacts();
}

// ------------------------------------------------- Build determinism

TEST(SegmentedCsr, OocBuildDeterministicAndOrderIndependent)
{
    BigraphSpec spec;
    spec.scale = 11;
    spec.degree = 8;
    spec.segments = 4;

    Engine eng_a(testConfig());
    SimHeap heap_a(eng_a);
    SegmentedCsrGraph a = SegmentedCsrGraph::generate(
        eng_a, heap_a, eng_a.thread(0), spec, "bg_det");
    const std::uint32_t count_a = a.segmentCount();
    const std::int64_t edges_a = a.numEdges();
    std::vector<std::uint64_t> sums_a;
    for (std::uint32_t k = 0; k < count_a; ++k)
        sums_a.push_back(a.segmentChecksum(k));
    a.free(heap_a, eng_a.thread(0));

    // Regenerate from scratch (artifact cache dropped) with the
    // segment build order reversed: per-segment content -- and so the
    // checksums -- must not change.
    clearBigraphArtifacts();
    spec.reverseBuild = true;
    Engine eng_b(testConfig());
    SimHeap heap_b(eng_b);
    SegmentedCsrGraph b = SegmentedCsrGraph::generate(
        eng_b, heap_b, eng_b.thread(0), spec, "bg_det");
    ASSERT_EQ(b.segmentCount(), count_a);
    for (std::uint32_t k = 0; k < b.segmentCount(); ++k)
        EXPECT_EQ(b.segmentChecksum(k), sums_a[k]) << "segment " << k;
    EXPECT_EQ(b.numEdges(), edges_a);
    b.free(heap_b, eng_b.thread(0));
    clearBigraphArtifacts();
}

// --------------------------------------------------- Artifact golden

/**
 * Byte-wise FNV-1a over every spill file of @p art in segment order,
 * each followed by its recorded edge count, then maxSpillBytes.
 */
std::uint64_t
artifactHash(const BigraphArtifacts &art)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&](std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (std::uint32_t k = 0; k < art.segments; ++k) {
        std::ifstream in(art.segFiles[k], std::ios::binary);
        EXPECT_TRUE(in) << art.segFiles[k];
        char c;
        while (in.get(c)) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
        mix(static_cast<std::uint64_t>(art.edgeCounts[k]));
    }
    mix(art.maxSpillBytes);
    return h;
}

TEST(SegmentedCsr, SpillArtifactsMatchAbsoluteGolden)
{
    // Absolute hashes of the sorted, deduplicated spill files, captured
    // from the original whole-bucket std::sort build. Three segments
    // split the rows unevenly; 64 leave some rows without edges.
    struct Golden
    {
        BigraphKind kind;
        int scale;
        std::uint32_t segments;
        std::uint64_t hash;
        std::int64_t totalEdges;
        std::uint64_t maxSpillBytes;
    };
    const Golden goldens[] = {
        {BigraphKind::Kron, 10, 1, 0x86f55f73aedd5e8cULL, 20872, 259856},
        {BigraphKind::Kron, 10, 3, 0x5fc2791b305fd967ULL, 20872, 183520},
        {BigraphKind::Kron, 10, 8, 0x13459af04be37a49ULL, 20872, 113592},
        {BigraphKind::Kron, 10, 64, 0xab7ade42d968dfa5ULL, 20872, 49840},
        {BigraphKind::Kron, 14, 1, 0xc68d2121b9176c35ULL, 426630, 4189024},
        {BigraphKind::Kron, 14, 3, 0x80c10927dcf755e2ULL, 426630, 2962128},
        {BigraphKind::Kron, 14, 8, 0x539604829dc2585fULL, 426630, 1833232},
        {BigraphKind::Kron, 14, 64, 0xb4354da209041486ULL, 426630, 802752},
        {BigraphKind::Urand, 10, 1, 0xf7962f190d0dbda2ULL, 32210, 261936},
        {BigraphKind::Urand, 10, 3, 0x91fbfff04ef2f9ddULL, 32210, 88336},
        {BigraphKind::Urand, 10, 8, 0x4fdf5bcbf7f65684ULL, 32210, 33472},
        {BigraphKind::Urand, 10, 64, 0x719afd150cfa3fa3ULL, 32210, 4528},
        {BigraphKind::Urand, 14, 1, 0x759d3e77c14954fdULL, 523742, 4194112},
        {BigraphKind::Urand, 14, 3, 0x70616101fa53cdd4ULL, 523742, 1401920},
        {BigraphKind::Urand, 14, 8, 0x68ffc60aaa61c308ULL, 523742, 527264},
        {BigraphKind::Urand, 14, 64, 0x1e69a67ff8909a4eULL, 523742, 67480},
    };
    for (const Golden &g : goldens) {
        BigraphSpec spec;
        spec.kind = g.kind;
        spec.scale = g.scale;
        spec.segments = g.segments;
        const BigraphArtifacts &art = prepareBigraph(spec);
        const std::uint64_t hash = artifactHash(art);
        EXPECT_EQ(hash, g.hash)
            << art.key << " got 0x" << std::hex << hash;
        EXPECT_EQ(art.totalEdges, g.totalEdges) << art.key;
        EXPECT_EQ(art.maxSpillBytes, g.maxSpillBytes) << art.key;
        clearBigraphArtifacts();
    }
}

// ------------------------------------------------- Artifact cache

TEST(SegmentedCsr, ConcurrentPrepareIsSingleFlight)
{
    // Four threads ask for one spec at once: the cache builds it once
    // and hands every caller the same artifacts.
    clearBigraphArtifacts();
    BigraphSpec spec;
    spec.scale = 12;
    spec.degree = 8;
    spec.segments = 4;
    spec.seed = 4242;
    constexpr int kThreads = 4;
    std::vector<const BigraphArtifacts *> got(kThreads, nullptr);
    testing::internal::CaptureStderr();
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&, i] { got[i] = &prepareBigraph(spec); });
    for (std::thread &t : threads)
        t.join();
    const std::string log = testing::internal::GetCapturedStderr();

    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(got[i], got[0]) << "thread " << i;
    std::size_t builds = 0;
    for (std::size_t at = log.find("spilling"); at != std::string::npos;
         at = log.find("spilling", at + 1))
        ++builds;
    EXPECT_EQ(builds, 1u) << log;

    // Exactly one set of spill files for the spec.
    const BigraphArtifacts &art = *got[0];
    const std::string prefix =
        art.key + ".p" + std::to_string(::getpid()) + ".seg";
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(bigraphSpillDir())) {
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            ++files;
    }
    EXPECT_EQ(files, art.segments);
    for (const std::string &path : art.segFiles)
        EXPECT_TRUE(std::filesystem::exists(path)) << path;
    clearBigraphArtifacts();
}

// ---------------------------------------------- Materialization golden

TEST(SegmentedCsr, MaterializedGraphMatchesAbsoluteGolden)
{
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    // Absolute values after generate, captured from the build that
    // staged each segment in host vectors: a hash of the per-segment
    // checksums (plus every weight of a weighted graph), the
    // footprint, the engine clock, the load's page faults and a hash
    // of where its accesses hit. DRAM is smaller than every graph, so
    // the load spills onto NVM.
    struct Golden
    {
        BigraphKind kind;
        bool weighted;
        std::uint32_t segments;
        std::uint64_t content;
        std::uint64_t footprint;
        std::uint64_t cycles;
        std::uint64_t pgfault;
        std::uint64_t levels;  ///< Hash of the per-level access counts.
    };
    const Golden goldens[] = {
        {BigraphKind::Kron, false, 1, 0xc7ab4f893c72cb1cULL,
         91688, 948808, 24, 0xd51a8283e2e9f9f1ULL},
        {BigraphKind::Kron, false, 3, 0xc912b44cc559657bULL,
         91704, 962536, 25, 0x4dc275721ba97474ULL},
        {BigraphKind::Kron, false, 8, 0xa52a175b36d1cf86ULL,
         91744, 1048000, 35, 0x59e3854435c4fd9aULL},
        {BigraphKind::Kron, true, 1, 0xbe89f7a29289cadcULL,
         175176, 1809416, 45, 0x0810a7665ed91401ULL},
        {BigraphKind::Kron, true, 3, 0x8d9044418aed4d57ULL,
         175192, 1845992, 47, 0x3488a334ef509290ULL},
        {BigraphKind::Kron, true, 8, 0xe4d906cc036eb1d2ULL,
         175232, 1951816, 62, 0x97b2417e698f2cd5ULL},
        {BigraphKind::Urand, false, 1, 0xf03ff0a781ab3a52ULL,
         137040, 1415184, 35, 0xa4d55aee16554a6cULL},
        {BigraphKind::Urand, false, 3, 0xbcaae7e53a63ed45ULL,
         137056, 1443360, 36, 0xa6ef6dea460b5016ULL},
        {BigraphKind::Urand, false, 8, 0x694834a88833f2a8ULL,
         137096, 1512656, 41, 0x37c14fbec19bdb74ULL},
        {BigraphKind::Urand, true, 1, 0xd953f58c821d8072ULL,
         265880, 2741608, 67, 0x4a8157dbba43ab8eULL},
        {BigraphKind::Urand, true, 3, 0x2e7d46e35fe9cb81ULL,
         265896, 2771224, 69, 0x467ba9ec5f86479eULL},
        {BigraphKind::Urand, true, 8, 0x15af4caa4c3d99fcULL,
         265936, 2860560, 74, 0xa633e324cf0cf756ULL},
    };
    for (const Golden &g : goldens) {
        BigraphSpec spec;
        spec.kind = g.kind;
        spec.scale = 10;
        spec.segments = g.segments;
        spec.weighted = g.weighted;
        SystemConfig cfg;
        cfg.dram = makeDramParams(8 * kPageSize);
        cfg.nvm = makeNvmParams(4096 * kPageSize);
        Engine eng(cfg);
        SimHeap heap(eng);
        SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
            eng, heap, eng.thread(0), spec, "bg_gold");

        std::uint64_t h = 0xcbf29ce484222325ULL;
        const auto mix = [&](std::uint64_t word) {
            for (int i = 0; i < 8; ++i) {
                h ^= (word >> (i * 8)) & 0xff;
                h *= 0x100000001b3ULL;
            }
        };
        for (std::uint32_t k = 0; k < seg.segmentCount(); ++k) {
            mix(seg.segmentChecksum(k));
            const CsrSegment &s = seg.segments()[k];
            if (!g.weighted || !s.weights.valid())
                continue;
            for (std::uint64_t e = 0; e < s.weights.size(); ++e)
                mix(static_cast<std::uint64_t>(s.weights.raw(e)));
        }
        const std::uint64_t content = h;
        h = 0xcbf29ce484222325ULL;
        for (int l = 0; l < kNumMemLevels; ++l)
            mix(eng.levelCount(static_cast<MemLevel>(l)));
        const std::uint64_t levels = h;
        const VmStat &vs = eng.kernel().vmstat();
        const std::string what = std::string(bigraphKindName(g.kind)) +
                                 (g.weighted ? " weighted" : "") +
                                 " x" + std::to_string(g.segments);
        EXPECT_EQ(content, g.content)
            << what << " got 0x" << std::hex << content;
        EXPECT_EQ(seg.footprintBytes(), g.footprint) << what;
        EXPECT_EQ(eng.globalTime(), g.cycles) << what;
        EXPECT_EQ(vs.pgfault, g.pgfault) << what;
        EXPECT_EQ(levels, g.levels)
            << what << " got 0x" << std::hex << levels;
        seg.free(heap, eng.thread(0));
    }
    clearBigraphArtifacts();
}

// ------------------------------------------------- Bucket sort edges

std::string
writeBucket(const std::string &name, const std::vector<std::uint64_t> &pairs)
{
    const std::string path = bigraphSpillDir() + "/" + name + ".p" +
                             std::to_string(::getpid()) + ".pairs";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(pairs.data()),
              static_cast<std::streamsize>(pairs.size() *
                                           sizeof(std::uint64_t)));
    return path;
}

std::vector<std::uint64_t>
readBucket(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint64_t> pairs;
    std::uint64_t p;
    while (in.read(reinterpret_cast<char *>(&p), sizeof(p)))
        pairs.push_back(p);
    return pairs;
}

std::uint64_t
packed(std::uint32_t u, std::uint32_t v)
{
    return static_cast<std::uint64_t>(u) << 32 | v;
}

TEST(SegmentedCsr, BucketSortHandlesEmptyBucket)
{
    const std::string path = writeBucket("bucket_empty", {});
    EXPECT_EQ(sortAndDedupBucket(path, 96, 32), 0u);
    EXPECT_TRUE(readBucket(path).empty());
    std::filesystem::remove(path);
}

TEST(SegmentedCsr, BucketSortMatchesWholeBucketSort)
{
    // Rows [1000, 1100): a hub row with thousands of copies of a few
    // targets, rows without edges (including the first and the last),
    // and scattered random pairs -- more than one 256 KiB I/O chunk.
    const std::uint32_t first = 1000;
    const std::uint32_t rows = 100;
    std::vector<std::uint64_t> pairs;
    Rng rng(7);
    for (int i = 0; i < 60000; ++i)
        pairs.push_back(packed(first + 42,
                               static_cast<std::uint32_t>(
                                   rng.nextBounded(5)) * 1000));
    for (int i = 0; i < 40000; ++i) {
        const auto r = static_cast<std::uint32_t>(
            1 + rng.nextBounded(rows - 2));
        if (r % 7 == 0)
            continue;
        pairs.push_back(
            packed(first + r, static_cast<std::uint32_t>(
                                  rng.nextBounded(1u << 31))));
    }
    pairs.push_back(packed(first + 5, 0));
    pairs.push_back(packed(first + 5, 0));
    pairs.push_back(packed(first + 5, 0xffffffffu >> 1));

    std::vector<std::uint64_t> expect = pairs;
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());

    const std::string path = writeBucket("bucket_hub", pairs);
    EXPECT_EQ(sortAndDedupBucket(path, first, rows), expect.size());
    EXPECT_EQ(readBucket(path), expect);
    std::filesystem::remove(path);
}

// ---------------------------------------------- Traversal correctness

TEST(SegmentedCsr, CrossSegmentBfsMatchesHost)
{
    BigraphSpec spec;
    spec.scale = 11;
    spec.degree = 8;
    spec.segments = 3;
    const CsrGraph host = hostGraphFor(spec);

    Engine eng(testConfig());
    SimHeap heap(eng);
    SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
        eng, heap, eng.thread(0), spec, "bg_bfs");

    const NodeId source = 1;
    const BfsOutput out = runBfs(eng, heap, seg, source);
    const std::vector<std::int64_t> depth = hostBfsDepths(host, source);
    std::int64_t reached = 0;
    for (NodeId v = 0; v < host.numNodes(); ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (depth[vi] == -1) {
            EXPECT_EQ(out.parent[vi], -1) << "vertex " << v;
        } else {
            ++reached;
            ASSERT_NE(out.parent[vi], -1) << "vertex " << v;
            if (v != source) {
                // Parent must be exactly one level above.
                const auto pi =
                    static_cast<std::size_t>(out.parent[vi]);
                EXPECT_EQ(depth[pi] + 1, depth[vi]) << "vertex " << v;
            }
        }
    }
    EXPECT_EQ(out.reached, reached);

    seg.free(heap, eng.thread(0));
    clearBigraphArtifacts();
}

TEST(SegmentedCsr, CrossSegmentPageRankMatchesHost)
{
    BigraphSpec spec;
    spec.scale = 11;
    spec.degree = 8;
    spec.segments = 5;
    const CsrGraph host = hostGraphFor(spec);

    Engine eng(testConfig());
    SimHeap heap(eng);
    SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
        eng, heap, eng.thread(0), spec, "bg_pr");

    const PageRankOutput out = runPageRank(eng, heap, seg, 5);
    const std::vector<double> want = hostPageRank(host, 5);
    for (std::size_t v = 0; v < want.size(); ++v)
        EXPECT_NEAR(out.rank[v], want[v], 1e-12) << "vertex " << v;

    seg.free(heap, eng.thread(0));
    clearBigraphArtifacts();
}

TEST(SegmentedCsr, CrossSegmentWeightedSsspMatchesHost)
{
    BigraphSpec spec;
    spec.scale = 10;
    spec.degree = 8;
    spec.segments = 4;
    spec.weighted = true;
    const CsrGraph host = hostGraphFor(spec);

    Engine eng(testConfig());
    SimHeap heap(eng);
    SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
        eng, heap, eng.thread(0), spec, "bg_sssp");
    ASSERT_TRUE(seg.hasWeights());

    const NodeId source = 3;
    const SsspOutput out = runSssp(eng, heap, seg, source);
    const std::vector<std::int64_t> want =
        hostSsspDistances(host, source);
    ASSERT_EQ(out.dist.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v)
        ASSERT_EQ(out.dist[v], want[v]) << "vertex " << v;

    seg.free(heap, eng.thread(0));
    clearBigraphArtifacts();
}

// ------------------------------------------------------------- Chaos

TEST(SegmentedCsr, ChaosRunWithFaultsAndInvariantsStaysCorrect)
{
    // Segmented PageRank under pressured DRAM: the clean run pins the
    // expected checksum, then migration faults + the invariant checker
    // are armed -- recoverable faults must not change the output.
    RunConfig rc;
    rc.workload.app = App::BFS;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 13;
    rc.workload.trials = 4;
    rc.workload.segments = 4;
    rc.sampling = false;
    rc.sys.dram = makeDramParams(192 * kPageSize);
    rc.sys.nvm = makeNvmParams(4096 * kPageSize);
    rc.sys.autonuma.scanPeriod = secondsToCycles(0.0005);
    rc.sys.autonuma.adjustPeriod = secondsToCycles(0.002);
    rc.sys.autonuma.rateLimitBytesPerSec = 4 * kMiB;

    const RunResult clean = runWorkload(rc);
    EXPECT_EQ(clean.faultsInjected, 0u);

    rc.sys.faults =
        FaultPlan::parseOrDie("migrate:p=0.2,burst=8;seed=7");
    rc.sys.checkInvariants = true;
    const RunResult chaos = runWorkload(rc);

    EXPECT_EQ(chaos.outputChecksum, clean.outputChecksum);
    EXPECT_GT(chaos.faultsInjected, 0u);
    EXPECT_GT(chaos.invariantChecksRun, 0u);
    clearBigraphArtifacts();
}

}  // namespace
}  // namespace memtier
