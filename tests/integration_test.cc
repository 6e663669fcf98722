/**
 * @file
 * End-to-end integration tests: full workload runs through the
 * experiment runner, checking the paper's qualitative findings at a
 * reduced scale (so the whole suite stays fast).
 */

#include <gtest/gtest.h>

#include "exp/runner.h"
#include "profile/analysis.h"

namespace memtier {
namespace {

/** Reduced-scale machine + workload that still exceeds DRAM. */
RunConfig
smallConfig(App app, GraphKind kind)
{
    RunConfig rc;
    rc.workload.app = app;
    rc.workload.kind = kind;
    rc.workload.scale = 15;
    rc.workload.trials = app == App::BC ? 2 : (app == App::CC ? 1 : 2);
    // Tier sizes chosen so the ~10 MiB footprint exceeds DRAM, like the
    // paper's 228-292 GB vs. 192 GB.
    rc.sys.dram = makeDramParams(1792 * kPageSize);  // 7 MiB.
    rc.sys.nvm = makeNvmParams(7168 * kPageSize);    // 28 MiB.
    rc.sampler.period = 31;
    return rc;
}

/** Shared fixture: one AutoNUMA bc_kron run reused by many checks. */
class BcKronRun : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        RunConfig rc = smallConfig(App::BC, GraphKind::Kron);
        result = new RunResult(runWorkload(rc));
    }

    static void
    TearDownTestSuite()
    {
        delete result;
        result = nullptr;
    }

    static RunResult *result;
};

RunResult *BcKronRun::result = nullptr;

TEST_F(BcKronRun, RunsAndSamples)
{
    EXPECT_GT(result->totalSeconds, 0.0);
    EXPECT_GT(result->loadSeconds, 0.0);
    EXPECT_LT(result->loadSeconds, result->totalSeconds);
    EXPECT_GT(result->samples.size(), 1000u);
    EXPECT_GT(result->totalAccesses, 100000u);
}

TEST_F(BcKronRun, ExternalAccessesOnBothTiers)
{
    const ExternalSplit es = externalSplit(result->samples);
    EXPECT_GT(es.externalSamples, 0u);
    EXPECT_GT(es.dramFrac, 0.0);
    EXPECT_GT(es.nvmFrac, 0.0);
}

TEST_F(BcKronRun, MostPagesTouchedOnce)
{
    // Section 5.2: the single-touch bucket dominates.
    const TouchBuckets tb = pageTouchBuckets(result->samples);
    // At the reduced integration scale the hot vertex arrays are a
    // larger share of the footprint than at bench scale, so the
    // single-touch share is lower than the paper's 33-80% band; the
    // full-scale check lives in bench/fig04_page_touches.
    EXPECT_GT(tb.pagesFrac[0], tb.pagesFrac[1]);
    EXPECT_GT(tb.pagesFrac[0], 0.15);
}

TEST_F(BcKronRun, NvmCostlierThanItsAccessShare)
{
    // Table 2's point: NVM cost share exceeds NVM access share.
    const ExternalSplit es = externalSplit(result->samples);
    const CostSplit cs = externalCostSplit(result->samples);
    EXPECT_GT(cs.nvmCostFrac, es.nvmFrac);
}

TEST_F(BcKronRun, TlbMissesCostMore)
{
    // Table 3's shape, on whichever cells have samples.
    const TlbCostMatrix m = tlbCostMatrix(result->samples);
    if (m.count[1][0] > 100 && m.count[1][1] > 100) {
        EXPECT_GT(m.mean[1][1], m.mean[1][0]);
    }
    if (m.count[1][1] > 100 && m.count[0][1] > 100) {
        EXPECT_GT(m.mean[1][1], m.mean[0][1]);
    }
}

TEST_F(BcKronRun, DemotionsExceedPromotions)
{
    // Figure 9: kswapd demotion dominates promotions.
    EXPECT_GT(result->vmstat.pgdemoteKswapd, 0u);
    EXPECT_GT(result->vmstat.pgdemoteKswapd,
              result->vmstat.pgpromoteSuccess);
}

TEST_F(BcKronRun, PageCacheGrowsThenYields)
{
    // Finding 5: the input-reading phase fills the page cache on DRAM;
    // reclaim later demotes it to NVM.
    double peak_dram_cache = 0.0;
    for (const auto &p : result->timeline) {
        peak_dram_cache = std::max(
            peak_dram_cache, static_cast<double>(p.numa.cachePages[0]));
    }
    EXPECT_GT(peak_dram_cache, 0.0);
    const auto &last = result->timeline.back();
    EXPECT_LT(static_cast<double>(last.numa.cachePages[0]),
              peak_dram_cache);
    EXPECT_GT(last.numa.cachePages[1], 0u);
}

TEST_F(BcKronRun, CpuUtilLowDuringLoadHighDuringCompute)
{
    // Figure 9 bottom: single-threaded read phase, parallel compute.
    double early = 1.0;
    double late = 0.0;
    for (const auto &p : result->timeline) {
        if (p.sec < result->loadSeconds * 0.8)
            early = std::min(early, p.cpuUtil);
        if (p.sec > result->loadSeconds)
            late = std::max(late, p.cpuUtil);
    }
    EXPECT_LT(early, 0.2);
    EXPECT_GT(late, 0.9);
}

TEST_F(BcKronRun, AllocationChurnVisible)
{
    // Figure 7: per-source BC arrays allocate and free repeatedly.
    const TimeSeries live = result->tracker.liveBytesSeries();
    EXPECT_GT(live.size(), 10u);
    // Live bytes must go down at least once (frees happen mid-run).
    bool decreased = false;
    for (std::size_t i = 1; i < live.points().size(); ++i) {
        if (live.points()[i].value < live.points()[i - 1].value)
            decreased = true;
    }
    EXPECT_TRUE(decreased);
}

TEST_F(BcKronRun, FewObjectsConcentrateNvmAccesses)
{
    // Finding 2: a handful of objects hold most NVM samples.
    auto counts = objectAccessCounts(result->samples, result->tracker);
    std::uint64_t total_nvm = 0;
    std::uint64_t best = 0;
    for (const auto &c : counts) {
        total_nvm += c.nvmSamples;
        best = std::max(best, c.nvmSamples);
    }
    ASSERT_GT(total_nvm, 0u);
    EXPECT_GT(static_cast<double>(best) /
                  static_cast<double>(total_nvm),
              0.3);
}

TEST_F(BcKronRun, PromotionsAreRare)
{
    // Findings 6/7: promotions are a small fraction of footprint.
    const std::uint64_t footprint_pages =
        roundUpPages(static_cast<std::uint64_t>(
            result->tracker.liveBytesSeries().max()));
    EXPECT_LT(result->vmstat.pgpromoteSuccess, footprint_pages / 4);
}

// ------------------------------------------------ Cross-mode invariants

TEST(Modes, ChecksumIdenticalAcrossPlacements)
{
    RunConfig rc = smallConfig(App::BFS, GraphKind::Urand);
    rc.sampling = false;
    const RunResult a = runWorkload(rc);

    // All-NVM / all-DRAM bounds: the vanilla kernel plus a bind-all
    // plan, all-DRAM on a DRAM tier that holds everything.
    RunConfig rc2 = rc;
    rc2.policy = "";
    PlacementPlan all_nvm = PlacementPlan::bindAll(MemNode::NVM);
    const RunResult b = runWorkload(rc2, &all_nvm);

    RunConfig rc3 = rc2;
    rc3.sys.dram.capacityBytes = rc3.sys.nvm.capacityBytes * 4;
    PlacementPlan all_dram = PlacementPlan::bindAll(MemNode::DRAM);
    const RunResult c = runWorkload(rc3, &all_dram);

    EXPECT_EQ(a.outputChecksum, b.outputChecksum);
    EXPECT_EQ(a.outputChecksum, c.outputChecksum);
}

TEST(Modes, AllDramFasterThanAllNvm)
{
    RunConfig rc = smallConfig(App::BFS, GraphKind::Kron);
    rc.sampling = false;
    rc.policy = "";
    RunConfig dram_cfg = rc;
    dram_cfg.sys.dram.capacityBytes = dram_cfg.sys.nvm.capacityBytes * 4;
    PlacementPlan all_dram = PlacementPlan::bindAll(MemNode::DRAM);
    PlacementPlan all_nvm = PlacementPlan::bindAll(MemNode::NVM);
    const RunResult dram = runWorkload(dram_cfg, &all_dram);
    const RunResult nvm = runWorkload(rc, &all_nvm);
    EXPECT_LT(dram.totalSeconds, nvm.totalSeconds);
}

TEST(Modes, NoTieringNeverMigrates)
{
    // Section 6.6: with AutoNUMA disabled every counter's delta is 0.
    RunConfig rc = smallConfig(App::CC, GraphKind::Urand);
    rc.policy = "";  // The vanilla kernel.
    rc.sampling = false;
    const RunResult r = runWorkload(rc);
    EXPECT_EQ(r.vmstat.pgpromoteSuccess, 0u);
    EXPECT_EQ(r.vmstat.pgdemoteKswapd, 0u);
    EXPECT_EQ(r.vmstat.pgdemoteDirect, 0u);
    EXPECT_EQ(r.vmstat.pgmigrateSuccess, 0u);
    EXPECT_EQ(r.vmstat.numaHintFaults, 0u);
}

TEST(Modes, ObjectStaticReducesNvmSamplesAndTime)
{
    // The headline result (Figure 11) at reduced scale.
    RunConfig rc = smallConfig(App::BC, GraphKind::Kron);
    const RunResult base = runWorkload(rc);
    const PlacementPlan plan =
        planFromProfile(base, rc.sys.dram.capacityBytes, false);

    const RunResult obj = runWorkload(rc, &plan);

    EXPECT_EQ(base.outputChecksum, obj.outputChecksum);
    const ExternalSplit es_base = externalSplit(base.samples);
    const ExternalSplit es_obj = externalSplit(obj.samples);
    const double nvm_base =
        es_base.nvmFrac * static_cast<double>(es_base.externalSamples);
    const double nvm_obj =
        es_obj.nvmFrac * static_cast<double>(es_obj.externalSamples);
    EXPECT_LT(nvm_obj, nvm_base);
    EXPECT_LT(obj.totalSeconds, base.totalSeconds * 1.05);
    // Static mapping performs no migrations at all for bound pages.
    EXPECT_LT(obj.vmstat.pgpromoteSuccess + 1,
              base.vmstat.pgpromoteSuccess + 2);
}

TEST(Modes, SpillPlanUsesLeftoverDram)
{
    RunConfig rc = smallConfig(App::CC, GraphKind::Kron);
    const RunResult base = runWorkload(rc);
    const PlacementPlan whole =
        planFromProfile(base, rc.sys.dram.capacityBytes, false);
    const PlacementPlan spill =
        planFromProfile(base, rc.sys.dram.capacityBytes, true);

    // The spill plan must bind at least as many DRAM pages.
    auto dram_pages = [](const PlacementPlan &p) {
        std::uint64_t pages = 0;
        for (const auto &[site, pol] : p.entries()) {
            if (pol.mode == MemPolicy::Mode::Split)
                pages += pol.dramPages;
        }
        return pages;
    };
    EXPECT_GE(dram_pages(spill), dram_pages(whole));
}

TEST(Runner, DeterministicAcrossRuns)
{
    RunConfig rc = smallConfig(App::BFS, GraphKind::Kron);
    const RunResult a = runWorkload(rc);
    const RunResult b = runWorkload(rc);
    EXPECT_EQ(a.totalSeconds, b.totalSeconds);
    EXPECT_EQ(a.samples.size(), b.samples.size());
    EXPECT_EQ(a.outputChecksum, b.outputChecksum);
    EXPECT_EQ(a.vmstat.pgpromoteSuccess, b.vmstat.pgpromoteSuccess);
}

TEST(Runner, WorkloadNamesMatchPaper)
{
    const auto workloads = paperWorkloads(14);
    ASSERT_EQ(workloads.size(), 6u);
    EXPECT_EQ(workloads[0].name(), "bc_kron");
    EXPECT_EQ(workloads[1].name(), "bc_urand");
    EXPECT_EQ(workloads[5].name(), "cc_urand");
}

}  // namespace
}  // namespace memtier
