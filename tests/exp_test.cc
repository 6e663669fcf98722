/**
 * @file
 * Unit tests for the experiment harness helpers: report formatting,
 * workload registry, the dataset cache and the sweep driver.
 */

#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bigraph/ooc_builder.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "exp/workloads.h"
#include "thp/thp_params.h"

namespace memtier {
namespace {

// --------------------------------------------------------------- report

TEST(Report, TableAlignsColumns)
{
    TextTable table({"a", "long_header"});
    table.addRow({"xx", "1"});
    table.addRow({"y", "22"});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
    EXPECT_NE(text.find("a   long_header"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(Report, Percent)
{
    EXPECT_EQ(pct(0.4911), "49.1%");
    EXPECT_EQ(pct(0.0), "0.0%");
    EXPECT_EQ(pct(1.0, 0), "100%");
    EXPECT_EQ(pct(-0.06), "-6.0%");
}

TEST(Report, Num)
{
    EXPECT_EQ(num(3.14159, 2), "3.14");
    EXPECT_EQ(num(2.0, 0), "2");
}

TEST(Report, FmtBytes)
{
    EXPECT_EQ(fmtBytes(512), "512.0 B");
    EXPECT_EQ(fmtBytes(8192), "8.0 KiB");
    EXPECT_EQ(fmtBytes(24 * kMiB), "24.0 MiB");
    EXPECT_EQ(fmtBytes(3 * kGiB), "3.0 GiB");
}

TEST(Report, FmtCount)
{
    EXPECT_EQ(fmtCount(0), "0");
    EXPECT_EQ(fmtCount(999), "999");
    EXPECT_EQ(fmtCount(1000), "1,000");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
}

TEST(Report, Banner)
{
    std::ostringstream out;
    banner(out, "hello");
    EXPECT_EQ(out.str(), "\n=== hello ===\n");
}

// ------------------------------------------------------------ workloads

TEST(Workloads, Names)
{
    EXPECT_STREQ(appName(App::BC), "bc");
    EXPECT_STREQ(appName(App::SSSP), "sssp");
    EXPECT_STREQ(graphKindName(GraphKind::Urand), "urand");
    WorkloadSpec w;
    w.app = App::CC;
    w.kind = GraphKind::Urand;
    EXPECT_EQ(w.name(), "cc_urand");
}

TEST(Workloads, PaperMatrixIsSixCombos)
{
    const auto list = paperWorkloads(12);
    ASSERT_EQ(list.size(), 6u);
    for (const auto &w : list) {
        EXPECT_EQ(w.scale, 12);
        EXPECT_GT(w.trials, 0);
    }
}

TEST(Workloads, DatasetCacheReturnsSameInstance)
{
    const auto a = datasetGraph(GraphKind::Urand, 8, 4, 1);
    const auto b = datasetGraph(GraphKind::Urand, 8, 4, 1);
    EXPECT_EQ(a.get(), b.get());
    const auto c = datasetGraph(GraphKind::Urand, 8, 4, 2);
    EXPECT_NE(a.get(), c.get());
}

TEST(Workloads, WeightedCacheIndependentOfUnweighted)
{
    const auto plain = datasetGraph(GraphKind::Kron, 8, 4, 1);
    const auto weighted = weightedDatasetGraph(GraphKind::Kron, 8, 4, 1);
    EXPECT_FALSE(plain->hasWeights());
    EXPECT_TRUE(weighted->hasWeights());
    EXPECT_EQ(plain->numEdges(), weighted->numEdges());
}

TEST(Workloads, DatasetCacheEvictsLeastRecentlyUsed)
{
    clearDatasetCache();
    const auto a = datasetGraph(GraphKind::Urand, 8, 4, 11);
    const std::uint64_t one = datasetCacheBytes();
    ASSERT_GT(one, 0u);
    // Cap to two graphs' worth: a third build must evict the oldest.
    setDatasetCacheCapBytes(2 * one + one / 2);
    const auto b = datasetGraph(GraphKind::Urand, 8, 4, 12);
    EXPECT_EQ(datasetCacheCount(), 2u);
    const auto c = datasetGraph(GraphKind::Urand, 8, 4, 13);
    EXPECT_EQ(datasetCacheCount(), 2u);
    EXPECT_LE(datasetCacheBytes(), 2 * one + one / 2);
    // "a" was evicted, but the shared_ptr still owns a live graph.
    EXPECT_EQ(a->numNodes(), 1 << 8);
    // Rebuilding "a" gives a fresh instance (cache no longer holds it).
    const auto a2 = datasetGraph(GraphKind::Urand, 8, 4, 11);
    EXPECT_NE(a.get(), a2.get());
    EXPECT_EQ(a->numEdges(), a2->numEdges());
    setDatasetCacheCapBytes(1ULL << 30);
    clearDatasetCache();
}

TEST(Workloads, DatasetCacheConcurrentCallersShareOneInstance)
{
    // Four threads race for the same plain and weighted graphs: the
    // cache builds each once (the weighted build reuses the plain one
    // under the same lock) and every caller gets the same instance.
    clearDatasetCache();
    constexpr int kThreads = 4;
    std::vector<std::shared_ptr<const CsrGraph>> plain(kThreads);
    std::vector<std::shared_ptr<const CsrGraph>> weighted(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            // Alternate the request order so some threads start on the
            // weighted (recursive) path.
            if (i % 2 == 0) {
                plain[i] = datasetGraph(GraphKind::Kron, 8, 4, 21);
                weighted[i] =
                    weightedDatasetGraph(GraphKind::Kron, 8, 4, 21);
            } else {
                weighted[i] =
                    weightedDatasetGraph(GraphKind::Kron, 8, 4, 21);
                plain[i] = datasetGraph(GraphKind::Kron, 8, 4, 21);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 1; i < kThreads; ++i) {
        EXPECT_EQ(plain[i], plain[0]) << "thread " << i;
        EXPECT_EQ(weighted[i], weighted[0]) << "thread " << i;
    }
    EXPECT_EQ(datasetCacheCount(), 2u);
    EXPECT_TRUE(weighted[0]->hasWeights());
    EXPECT_EQ(weighted[0]->numEdges(), plain[0]->numEdges());
    clearDatasetCache();
}

TEST(Workloads, DatasetCacheEvictionUnderConcurrentCallers)
{
    // Callers cycle through more graphs than the cap holds, so hits,
    // builds and evictions interleave across threads. Every graph
    // handed out must be the right one, and the cap must hold after.
    clearDatasetCache();
    std::vector<std::int64_t> edges;
    for (std::uint64_t seed = 31; seed < 35; ++seed)
        edges.push_back(datasetGraph(GraphKind::Urand, 8, 4, seed)
                            ->numEdges());
    const std::uint64_t one = datasetCacheBytes() / 4;
    clearDatasetCache();
    setDatasetCacheCapBytes(2 * one + one / 2);

    constexpr int kThreads = 4;
    std::vector<int> wrong(kThreads, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            for (int round = 0; round < 12; ++round) {
                const auto k = static_cast<std::size_t>((i + round) % 4);
                const auto g =
                    datasetGraph(GraphKind::Urand, 8, 4, 31 + k);
                if (g->numNodes() != 1 << 8 || g->numEdges() != edges[k])
                    ++wrong[i];
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < kThreads; ++i)
        EXPECT_EQ(wrong[i], 0) << "thread " << i;
    EXPECT_LE(datasetCacheCount(), 2u);
    EXPECT_LE(datasetCacheBytes(), 2 * one + one / 2);
    setDatasetCacheCapBytes(1ULL << 30);
    clearDatasetCache();
}

// ---------------------------------------------------------------- sweep

/**
 * A small sweep grid of eight cells: two scan periods x four workloads
 * -- segmented kron and urand, a segmented weighted SSSP and one
 * monolithic cell through the dataset cache -- under pressured DRAM.
 */
SweepSpec
smallSweep()
{
    SweepSpec s;
    s.policy = "autonuma";
    s.axes = {{"adjust_period_ms", {"2"}},
              {"scan_period_ms", {"0.125", "0.25"}}};
    const auto add = [&](App app, GraphKind kind, int segments,
                         int trials) {
        WorkloadSpec w;
        w.app = app;
        w.kind = kind;
        w.scale = 10;
        w.trials = trials;
        w.segments = segments;
        s.workloads.push_back(w);
    };
    add(App::BC, GraphKind::Kron, 3, 1);
    add(App::BFS, GraphKind::Urand, 4, 2);
    add(App::SSSP, GraphKind::Kron, 2, 1);
    add(App::CC, GraphKind::Urand, 1, 1);
    s.sys.dram = makeDramParams(48 * kPageSize);
    s.sys.nvm = makeNvmParams(1024 * kPageSize);
    return s;
}

/** FNV-1a over the bytes of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(Sweep, CsvMatchesAbsoluteGolden)
{
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    // Captured from the serial cell loop; the default worker count
    // must reproduce it byte for byte.
    const SweepSpec spec = smallSweep();
    const std::vector<SweepPoint> points = runSweep(spec);
    ASSERT_EQ(points.size(), 8u);
    std::ostringstream csv;
    writeSweepCsv(spec, points, csv);
    EXPECT_EQ(fnv1a(csv.str()), 0x56d26fadbd968a1dULL)
        << std::hex << fnv1a(csv.str()) << "\n" << csv.str();

    // The grid exercises the policy: pages moved, and the scan period
    // changed the outcome of every workload.
    std::uint64_t moved = 0;
    for (const SweepPoint &p : points)
        moved += p.promotions + p.demotions;
    EXPECT_GT(moved, 0u);
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        EXPECT_NE(points[w].totalSeconds,
                  points[w + spec.workloads.size()].totalSeconds)
            << points[w].workload;
    }
    clearBigraphArtifacts();
    clearDatasetCache();
}

/** Every field of @p a equals the same field of @p b. */
void
expectSamePoint(const SweepPoint &a, const SweepPoint &b,
                std::size_t cell)
{
    EXPECT_EQ(a.workload, b.workload) << "cell " << cell;
    EXPECT_EQ(a.policy, b.policy) << "cell " << cell;
    EXPECT_EQ(a.tunables, b.tunables) << "cell " << cell;
    EXPECT_EQ(a.effectiveTunables, b.effectiveTunables) << "cell " << cell;
    EXPECT_EQ(a.totalSeconds, b.totalSeconds) << "cell " << cell;
    EXPECT_EQ(a.computeSeconds, b.computeSeconds) << "cell " << cell;
    EXPECT_EQ(a.hintFaults, b.hintFaults) << "cell " << cell;
    EXPECT_EQ(a.promotions, b.promotions) << "cell " << cell;
    EXPECT_EQ(a.demotions, b.demotions) << "cell " << cell;
    EXPECT_EQ(a.exchanges, b.exchanges) << "cell " << cell;
    EXPECT_EQ(a.migrations, b.migrations) << "cell " << cell;
    EXPECT_EQ(a.thrash, b.thrash) << "cell " << cell;
    EXPECT_EQ(a.migrateFail, b.migrateFail) << "cell " << cell;
    EXPECT_EQ(a.promoteRetry, b.promoteRetry) << "cell " << cell;
    EXPECT_EQ(a.allocFail, b.allocFail) << "cell " << cell;
    EXPECT_EQ(a.diskReadRetry, b.diskReadRetry) << "cell " << cell;
    EXPECT_EQ(a.breakerTrips, b.breakerTrips) << "cell " << cell;
}

TEST(Sweep, PoolMatchesSerialLoop)
{
    // Eight cells on four workers, starting from cold caches each
    // time: the same points, CSV bytes and progress lines as one cell
    // at a time on the caller's thread.
    SweepSpec spec = smallSweep();
    const auto run = [&](unsigned jobs, std::string *csv_text,
                         std::string *progress_text) {
        clearBigraphArtifacts();
        clearDatasetCache();
        spec.jobs = jobs;
        std::ostringstream progress;
        std::vector<SweepPoint> points = runSweep(spec, &progress);
        std::ostringstream csv;
        writeSweepCsv(spec, points, csv);
        *csv_text = csv.str();
        *progress_text = progress.str();
        return points;
    };
    std::string serial_csv, serial_progress, pool_csv, pool_progress;
    const std::vector<SweepPoint> serial =
        run(1, &serial_csv, &serial_progress);
    const std::vector<SweepPoint> pool = run(4, &pool_csv, &pool_progress);

    ASSERT_EQ(serial.size(), 8u);
    ASSERT_EQ(pool.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSamePoint(pool[i], serial[i], i);
    EXPECT_EQ(pool_csv, serial_csv);
    EXPECT_EQ(pool_progress, serial_progress);
    EXPECT_EQ(std::count(serial_progress.begin(), serial_progress.end(),
                         '\n'),
              8);
    EXPECT_EQ(serial_progress.rfind("sweep: autonuma bc_kron "
                                    "adjust_period_ms=2 "
                                    "scan_period_ms=0.125...\n",
                                    0),
              0u);
    clearBigraphArtifacts();
    clearDatasetCache();
}

TEST(Sweep, BadTunableDiesBeforeAnyCell)
{
    // A value no policy can parse sits in the last combination. With
    // four workers the sweep still dies on the caller's thread before
    // any cell starts: the fatal message is all it prints, with no
    // progress line ahead of it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SweepSpec spec = smallSweep();
    spec.axes = {{"scan_period_ms", {"0.125", "x"}}};
    spec.jobs = 4;
    EXPECT_DEATH(runSweep(spec, &std::cerr),
                 "^fatal: tunable scan_period_ms=x is not a number\n$");
}

TEST(Runner, SamplingDoesNotPerturbTiming)
{
    // The PEBS-style sampler observes accesses but must never change
    // the simulation's timing or results (a property perf itself only
    // approximates).
    RunConfig rc;
    rc.workload.app = App::BFS;
    rc.workload.kind = GraphKind::Urand;
    rc.workload.scale = 12;
    rc.workload.trials = 2;
    rc.sys.dram = makeDramParams(512 * kPageSize);
    rc.sys.nvm = makeNvmParams(2048 * kPageSize);
    rc.sampling = true;
    const RunResult with = runWorkload(rc);
    rc.sampling = false;
    const RunResult without = runWorkload(rc);
    EXPECT_EQ(with.totalSeconds, without.totalSeconds);
    EXPECT_EQ(with.outputChecksum, without.outputChecksum);
    EXPECT_GT(with.samples.size(), 0u);
    EXPECT_EQ(without.samples.size(), 0u);
}

}  // namespace
}  // namespace memtier
