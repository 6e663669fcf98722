/**
 * @file
 * Unit tests for the experiment harness helpers: report formatting,
 * workload registry and the dataset cache.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "exp/report.h"
#include "exp/runner.h"
#include "exp/workloads.h"

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
