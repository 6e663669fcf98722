/**
 * @file
 * Unit tests for the profiling infrastructure: the PEBS-style sampler,
 * the mmap tracker and every sample analysis of Sections 5 and 6.
 */

#include <gtest/gtest.h>

#include "profile/analysis.h"
#include "profile/mmap_tracker.h"
#include "profile/perf_mem.h"

namespace memtier {
namespace {

/** Handy sample builder. */
MemorySample
sample(Addr vaddr, MemLevel level, Cycles time = 0, Cycles latency = 100,
       bool tlb_miss = false)
{
    MemorySample s;
    s.vaddr = vaddr;
    s.level = level;
    s.time = time;
    s.latency = latency;
    s.tlbMiss = tlb_miss;
    return s;
}

AccessRecord
record(ThreadId tid, MemOp op = MemOp::Load)
{
    AccessRecord r;
    r.tid = tid;
    r.op = op;
    r.level = MemLevel::L1;
    r.latency = 10;
    return r;
}

// -------------------------------------------------------- PerfMemSampler

TEST(PerfMemSampler, SamplesAtConfiguredRate)
{
    SamplerParams p;
    p.period = 10;
    PerfMemSampler sampler(p);
    for (int i = 0; i < 10000; ++i)
        sampler.onAccess(record(0));
    EXPECT_EQ(sampler.loadsSeen(), 10000u);
    // ~1000 samples expected; jitter is +-12.5%.
    EXPECT_NEAR(static_cast<double>(sampler.samples().size()), 1000.0,
                150.0);
}

TEST(PerfMemSampler, StoresSkippedByDefault)
{
    SamplerParams p;
    p.period = 1;
    PerfMemSampler sampler(p);
    for (int i = 0; i < 100; ++i)
        sampler.onAccess(record(0, MemOp::Store));
    EXPECT_TRUE(sampler.samples().empty());
    EXPECT_EQ(sampler.loadsSeen(), 0u);
}

TEST(PerfMemSampler, StoresRecordedAtL1WhenEnabled)
{
    SamplerParams p;
    p.period = 1;
    p.recordStores = true;
    PerfMemSampler sampler(p);
    AccessRecord r = record(0, MemOp::Store);
    r.level = MemLevel::NVM;  // perf-mem cannot see store data source.
    sampler.onAccess(r);
    sampler.onAccess(r);
    ASSERT_FALSE(sampler.samples().empty());
    EXPECT_EQ(sampler.samples()[0].level, MemLevel::L1);
}

TEST(PerfMemSampler, PerThreadCountdowns)
{
    SamplerParams p;
    p.period = 100;
    PerfMemSampler sampler(p);
    // One access on each of many threads: every thread's first access
    // is sampled (countdown starts at zero).
    for (ThreadId t = 0; t < 8; ++t)
        sampler.onAccess(record(t));
    EXPECT_EQ(sampler.samples().size(), 8u);
}

TEST(PerfMemSampler, TakesLoadSkipsUnlessRecordingStores)
{
    SamplerParams p;
    EXPECT_TRUE(PerfMemSampler(p).skipsLoads());
    p.recordStores = true;
    EXPECT_FALSE(PerfMemSampler(p).skipsLoads());
}

TEST(PerfMemSampler, PassOverCountsLikeRecords)
{
    // Passing over exactly the loads loadsToSkip names keeps the same
    // samples, gap draws and load count as a record of every load.
    SamplerParams p;
    p.period = 7;
    PerfMemSampler every(p);
    PerfMemSampler skipping(p);
    EXPECT_EQ(skipping.loadsToSkip(5), 0u);  // An unseen thread.
    for (int i = 0; i < 2000; ++i) {
        AccessRecord r = record(static_cast<ThreadId>(i % 3));
        r.time = static_cast<Cycles>(i);
        every.onAccess(r);
        if (skipping.loadsToSkip(r.tid) > 0)
            skipping.passOver(r.tid, 1);
        else
            skipping.onAccess(r);
    }
    EXPECT_EQ(skipping.loadsSeen(), every.loadsSeen());
    ASSERT_EQ(skipping.samples().size(), every.samples().size());
    for (std::size_t i = 0; i < every.samples().size(); ++i) {
        EXPECT_EQ(skipping.samples()[i].time, every.samples()[i].time);
        EXPECT_EQ(skipping.samples()[i].tid, every.samples()[i].tid);
    }
}

TEST(PerfMemSampler, TakeSamplesMovesOut)
{
    SamplerParams p;
    p.period = 1;
    PerfMemSampler sampler(p);
    sampler.onAccess(record(0));
    auto taken = sampler.takeSamples();
    EXPECT_EQ(taken.size(), 1u);
    EXPECT_TRUE(sampler.samples().empty());
}

// ------------------------------------------------------------- Analyses

TEST(Analysis, LevelSharesAndExternalFraction)
{
    std::vector<MemorySample> s{
        sample(0, MemLevel::L1), sample(0, MemLevel::L1),
        sample(0, MemLevel::DRAM), sample(0, MemLevel::NVM)};
    const LevelShares ls = levelShares(s);
    EXPECT_DOUBLE_EQ(ls.frac[static_cast<int>(MemLevel::L1)], 0.5);
    EXPECT_DOUBLE_EQ(ls.externalFrac, 0.5);
    EXPECT_EQ(ls.total, 4u);
}

TEST(Analysis, LevelSharesEmpty)
{
    const LevelShares ls = levelShares({});
    EXPECT_EQ(ls.total, 0u);
    EXPECT_DOUBLE_EQ(ls.externalFrac, 0.0);
}

TEST(Analysis, ExternalSplitIgnoresCacheLevels)
{
    std::vector<MemorySample> s{
        sample(0, MemLevel::L1), sample(0, MemLevel::DRAM),
        sample(0, MemLevel::DRAM), sample(0, MemLevel::NVM)};
    const ExternalSplit es = externalSplit(s);
    EXPECT_EQ(es.externalSamples, 3u);
    EXPECT_NEAR(es.dramFrac, 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(es.nvmFrac, 1.0 / 3.0, 1e-12);
}

TEST(Analysis, CostSplitWeightsByLatency)
{
    // One NVM sample costing 3x the DRAM one: Table 2's point that cost
    // shares exceed access shares on NVM.
    std::vector<MemorySample> s{
        sample(0, MemLevel::DRAM, 0, 300),
        sample(0, MemLevel::NVM, 0, 900)};
    const CostSplit cs = externalCostSplit(s);
    EXPECT_NEAR(cs.dramCostFrac, 0.25, 1e-12);
    EXPECT_NEAR(cs.nvmCostFrac, 0.75, 1e-12);
}

TEST(Analysis, TlbCostMatrixMeans)
{
    std::vector<MemorySample> s{
        sample(0, MemLevel::DRAM, 0, 300, false),
        sample(0, MemLevel::DRAM, 0, 500, true),
        sample(0, MemLevel::NVM, 0, 1500, true),
        sample(0, MemLevel::NVM, 0, 2500, true),
        sample(0, MemLevel::L1, 0, 4, true)};  // Ignored: not external.
    const TlbCostMatrix m = tlbCostMatrix(s);
    EXPECT_DOUBLE_EQ(m.mean[0][0], 300.0);
    EXPECT_DOUBLE_EQ(m.mean[0][1], 500.0);
    EXPECT_DOUBLE_EQ(m.mean[1][1], 2000.0);
    EXPECT_EQ(m.count[1][0], 0u);
    EXPECT_EQ(m.count[1][1], 2u);
}

TEST(Analysis, TouchBucketsClassifyPages)
{
    // Page A touched once, page B twice, page C three times.
    const Addr a = 0 * kPageSize;
    const Addr b = 1 * kPageSize;
    const Addr c = 2 * kPageSize;
    std::vector<MemorySample> s{
        sample(a, MemLevel::DRAM), sample(b, MemLevel::DRAM),
        sample(b, MemLevel::NVM),  sample(c, MemLevel::NVM),
        sample(c, MemLevel::DRAM), sample(c, MemLevel::NVM),
        sample(a + 64, MemLevel::L2)};  // Cache hit: not a touch.
    const TouchBuckets tb = pageTouchBuckets(s);
    EXPECT_EQ(tb.touchedPages, 3u);
    EXPECT_EQ(tb.externalAccesses, 6u);
    EXPECT_NEAR(tb.pagesFrac[0], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(tb.pagesFrac[1], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(tb.pagesFrac[2], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(tb.accessFrac[0], 1.0 / 6.0, 1e-12);
    EXPECT_NEAR(tb.accessFrac[1], 2.0 / 6.0, 1e-12);
    EXPECT_NEAR(tb.accessFrac[2], 3.0 / 6.0, 1e-12);
}

TEST(Analysis, TwoTouchPromotedFraction)
{
    const Addr a = 0 * kPageSize;  // NVM -> DRAM: promoted.
    const Addr b = 1 * kPageSize;  // DRAM -> DRAM: not promoted.
    std::vector<MemorySample> s{
        sample(a, MemLevel::NVM, 10), sample(a, MemLevel::DRAM, 20),
        sample(b, MemLevel::DRAM, 10), sample(b, MemLevel::DRAM, 20)};
    EXPECT_DOUBLE_EQ(twoTouchPromotedFraction(s), 0.5);
}

// ----------------------------------------------------------- MmapTracker

TEST(MmapTracker, RecordsAllocationsAndFrees)
{
    MmapTracker tr;
    tr.onMmap(100, 0x1000, 2 * kPageSize, 0, "a");
    tr.onMunmap(500, 0x1000, 2 * kPageSize, 0);
    ASSERT_EQ(tr.records().size(), 1u);
    const AllocationRecord &r = tr.records()[0];
    EXPECT_EQ(r.site, "a");
    EXPECT_EQ(r.allocTime, 100u);
    EXPECT_EQ(r.freeTime, 500u);
    EXPECT_FALSE(r.live());
}

TEST(MmapTracker, IgnoresPageCacheObjects)
{
    MmapTracker tr;
    tr.onMmap(100, 0x1000, kPageSize, -2, "pagecache:f");
    EXPECT_TRUE(tr.records().empty());
}

TEST(MmapTracker, ObjectAtRespectsLifetime)
{
    MmapTracker tr;
    tr.onMmap(100, 0x1000, kPageSize, 0, "a");
    tr.onMunmap(500, 0x1000, kPageSize, 0);
    EXPECT_EQ(tr.objectAt(0x1000, 50), kNoObject);   // Before alloc.
    EXPECT_EQ(tr.objectAt(0x1000, 200), 0);          // Live.
    EXPECT_EQ(tr.objectAt(0x1000, 600), kNoObject);  // After free.
}

TEST(MmapTracker, ObjectAtByRange)
{
    MmapTracker tr;
    tr.onMmap(0, 0x10000, 4 * kPageSize, 0, "a");
    tr.onMmap(0, 0x20000, 4 * kPageSize, 1, "b");
    EXPECT_EQ(tr.objectAt(0x10000 + 3 * kPageSize, 10), 0);
    EXPECT_EQ(tr.objectAt(0x20000, 10), 1);
    EXPECT_EQ(tr.objectAt(0x30000, 10), kNoObject);
    EXPECT_EQ(tr.objectAt(0x0, 10), kNoObject);
}

TEST(MmapTracker, LiveBytesSeriesTracksChurn)
{
    MmapTracker tr;
    tr.onMmap(secondsToCycles(1), 0x1000, 100, 0, "a");
    tr.onMmap(secondsToCycles(2), 0x9000, 50, 1, "b");
    tr.onMunmap(secondsToCycles(3), 0x1000, 100, 0);
    const TimeSeries ts = tr.liveBytesSeries();
    ASSERT_EQ(ts.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.points()[0].value, 100.0);
    EXPECT_DOUBLE_EQ(ts.points()[1].value, 150.0);
    EXPECT_DOUBLE_EQ(ts.points()[2].value, 50.0);
}

TEST(MmapTracker, PeakLiveBytesBySiteHandlesReuse)
{
    MmapTracker tr;
    // Site "w" allocates twice sequentially (not concurrently).
    tr.onMmap(10, 0x1000, 100, 0, "w");
    tr.onMunmap(20, 0x1000, 100, 0);
    tr.onMmap(30, 0x9000, 100, 1, "w");
    // Site "x" holds two allocations at once.
    tr.onMmap(40, 0x20000, 60, 2, "x");
    tr.onMmap(50, 0x30000, 60, 3, "x");
    const auto peaks = tr.peakLiveBytesBySite();
    std::map<std::string, std::uint64_t> m(peaks.begin(), peaks.end());
    EXPECT_EQ(m["w"], 100u);
    EXPECT_EQ(m["x"], 120u);
}

// ----------------------------------------------- Sample->object mapping

TEST(Analysis, ObjectAccessCountsAggregate)
{
    MmapTracker tr;
    tr.onMmap(0, 0x10000, 4 * kPageSize, 0, "hot");
    tr.onMmap(0, 0x20000, 4 * kPageSize, 1, "cold");
    std::vector<MemorySample> s{
        sample(0x10000, MemLevel::NVM, 10),
        sample(0x10040, MemLevel::NVM, 20),
        sample(0x10080, MemLevel::DRAM, 30),
        sample(0x20000, MemLevel::DRAM, 40),
        sample(0x20000, MemLevel::L2, 50),
        sample(0x99000, MemLevel::DRAM, 60)};  // Unmapped: dropped.
    const auto counts = objectAccessCounts(s, tr);
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0].object, 0);
    EXPECT_EQ(counts[0].nvmSamples, 2u);
    EXPECT_EQ(counts[0].dramSamples, 1u);
    EXPECT_EQ(counts[0].totalSamples, 3u);
    EXPECT_EQ(counts[1].totalSamples, 2u);
    EXPECT_EQ(hottestNvmObject(counts), 0);
}

TEST(Analysis, HottestNvmObjectNoneWithoutNvmSamples)
{
    MmapTracker tr;
    tr.onMmap(0, 0x10000, kPageSize, 0, "a");
    std::vector<MemorySample> s{sample(0x10000, MemLevel::DRAM, 10)};
    EXPECT_EQ(hottestNvmObject(objectAccessCounts(s, tr)), kNoObject);
}

TEST(Analysis, TwoTouchReuseForObject)
{
    MmapTracker tr;
    tr.onMmap(0, 0x10000, 16 * kPageSize, 0, "obj");
    const Cycles sec = kCyclesPerSecond;
    std::vector<MemorySample> s{
        // Page 0: two touches, NVM involved, gap 2s -> counted.
        sample(0x10000, MemLevel::NVM, 1 * sec),
        sample(0x10000, MemLevel::DRAM, 3 * sec),
        // Page 1: three touches -> excluded.
        sample(0x11000, MemLevel::NVM, 1 * sec),
        sample(0x11000, MemLevel::NVM, 2 * sec),
        sample(0x11000, MemLevel::NVM, 3 * sec),
        // Page 2: two touches but never NVM -> excluded.
        sample(0x12000, MemLevel::DRAM, 1 * sec),
        sample(0x12000, MemLevel::DRAM, 2 * sec)};
    const PercentileSummary reuse = twoTouchReuseSeconds(s, 0, tr);
    ASSERT_EQ(reuse.count(), 1u);
    EXPECT_NEAR(reuse.max(), 2.0, 1e-9);
}

TEST(Analysis, SiteProfilesRankedByScore)
{
    MmapTracker tr;
    tr.onMmap(0, 0x10000, 1 * kPageSize, 0, "small_hot");
    tr.onMmap(0, 0x20000, 16 * kPageSize, 1, "big_warm");
    std::vector<MemorySample> s;
    for (int i = 0; i < 10; ++i)
        s.push_back(sample(0x10000 + i * 64, MemLevel::NVM, 10));
    for (int i = 0; i < 20; ++i)
        s.push_back(sample(0x20000 + i * 64, MemLevel::DRAM, 10));
    const auto profiles = siteProfiles(s, tr);
    ASSERT_EQ(profiles.size(), 2u);
    // small_hot: 10 samples / 4 KiB >> big_warm: 20 / 64 KiB.
    EXPECT_EQ(profiles[0].site, "small_hot");
    EXPECT_GT(profiles[0].score(), profiles[1].score());
    EXPECT_EQ(profiles[0].nvmSamples, 10u);
    EXPECT_EQ(profiles[1].externalSamples, 20u);
}

TEST(Analysis, SiteProfilesIncludeUnsampledSites)
{
    MmapTracker tr;
    tr.onMmap(0, 0x10000, kPageSize, 0, "quiet");
    const auto profiles = siteProfiles({}, tr);
    ASSERT_EQ(profiles.size(), 1u);
    EXPECT_EQ(profiles[0].totalSamples, 0u);
    EXPECT_EQ(profiles[0].peakLiveBytes, kPageSize);
}

}  // namespace
}  // namespace memtier
