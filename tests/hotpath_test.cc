/**
 * @file
 * Tests for the batched access pipeline: translation-epoch bumps on
 * every remap class, the translation-epoch race stress (remaps and
 * migrations interleaved with batched sweeps, 4 KiB and THP, diffed
 * against the forced scalar path), the golden scalar-vs-batched
 * bit-identity of whole workload runs, absolute cache/TLB counter and
 * sample-stream goldens, and the observers' load-skip contract on
 * whole runs.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "exp/runner.h"
#include "os/kernel.h"
#include "os/physical_memory.h"
#include "sim/engine.h"

namespace memtier {
namespace {

/** Shootdown sink for kernel-level tests (engine not involved). */
class NullShootdown : public TlbShootdownClient
{
  public:
    void tlbShootdown(PageNum) override {}
    void tlbShootdownHuge(PageNum) override {}
};

// ------------------------------------------ Translation epoch funnel
//
// Every remap class must bump Kernel::translationEpoch(): the batched
// path settles a same-line run's tails without a page walk only while
// the epoch read at the run's head is unchanged, so an un-bumped remap
// would let tails run on a dead translation.

/** A THP-enabled kernel on tiers big enough for 2 MiB frames. */
struct ThpKernel
{
    ThpKernel()
        : phys(makeDramParams(4 * kPagesPerHuge * kPageSize),
               makeNvmParams(16 * kPagesPerHuge * kPageSize)),
          kern(phys, thpParams())
    {
        kern.setShootdownClient(&sink);
    }

    static KernelParams
    thpParams()
    {
        KernelParams kp;
        kp.thp.enabled = true;
        return kp;
    }

    /** Map two huge pages' worth and touch every page of the aligned
     *  2 MiB range inside; returns the range's base vpn. */
    PageNum
    touchHugeRange()
    {
        const Addr a =
            kern.mmap(0, 2 * kPagesPerHuge * kPageSize, 0, "huge");
        PageNum base = pageOf(a);
        if (!isHugeBase(base))
            base = hugeBaseOf(base) + kPagesPerHuge;
        for (std::uint64_t i = 0; i < kPagesPerHuge; ++i)
            kern.touchPage(base + i, 1000 + i, MemOp::Store);
        return base;
    }

    PhysicalMemory phys;
    NullShootdown sink;
    Kernel kern;
};

class EpochTest : public ::testing::Test
{
  protected:
    EpochTest()
        : phys(makeDramParams(kDramPages * kPageSize),
               makeNvmParams(kNvmPages * kPageSize)),
          kern(phys, KernelParams{})
    {
        kern.setShootdownClient(&shootdown);
    }

    /** Touch every page of [start, start+pages) once. */
    void
    touchRange(Addr start, std::uint64_t pages, Cycles now = 1000)
    {
        for (std::uint64_t i = 0; i < pages; ++i)
            kern.touchPage(pageOf(start) + i, now + i, MemOp::Store);
    }

    /** First NVM-resident page of the region at @p start, or kNoPage. */
    PageNum
    findNvmPage(Addr start, std::uint64_t pages) const
    {
        for (std::uint64_t i = 0; i < pages; ++i) {
            const PageNum vpn = pageOf(start) + i;
            const PageMeta *meta = kern.pageMeta(vpn);
            if (meta != nullptr && meta->present &&
                meta->node == MemNode::NVM) {
                return vpn;
            }
        }
        return kNoPage;
    }

    static constexpr std::uint64_t kDramPages = 256;
    static constexpr std::uint64_t kNvmPages = 4096;

    PhysicalMemory phys;
    NullShootdown shootdown;
    Kernel kern;
};

TEST_F(EpochTest, MunmapBumpsEpoch)
{
    const Addr a = kern.mmap(0, 8 * kPageSize, 0, "obj");
    touchRange(a, 8);
    const std::uint64_t before = kern.translationEpoch();
    kern.munmap(5000, a);
    EXPECT_GT(kern.translationEpoch(), before);
}

TEST_F(EpochTest, PromotionBumpsEpoch)
{
    // Overcommit DRAM so first touches spill to NVM.
    const std::uint64_t pages = kDramPages + 64;
    const Addr a = kern.mmap(0, pages * kPageSize, 0, "big");
    touchRange(a, pages);
    const PageNum nvm_vpn = findNvmPage(a, pages);
    ASSERT_NE(nvm_vpn, kNoPage);

    const std::uint64_t before = kern.translationEpoch();
    ASSERT_GT(kern.promotePage(nvm_vpn, 500000), 0u);
    EXPECT_EQ(kern.nodeOf(nvm_vpn), MemNode::DRAM);
    EXPECT_GT(kern.translationEpoch(), before);
}

TEST_F(EpochTest, KswapdDemotionBumpsEpoch)
{
    // Fill DRAM past the low watermark, then let kswapd demote.
    const std::uint64_t pages = kDramPages;
    const Addr a = kern.mmap(0, pages * kPageSize, 0, "big");
    touchRange(a, pages);
    const std::uint64_t before = kern.translationEpoch();
    const std::uint64_t demoted_before = kern.vmstat().pgdemoteKswapd;
    kern.kswapdTick(500000);
    ASSERT_GT(kern.vmstat().pgdemoteKswapd, demoted_before);
    EXPECT_GT(kern.translationEpoch(), before);
}

TEST_F(EpochTest, ExchangeBumpsEpoch)
{
    const std::uint64_t pages = kDramPages + 64;
    const Addr a = kern.mmap(0, pages * kPageSize, 0, "big");
    touchRange(a, pages);
    const PageNum nvm_vpn = findNvmPage(a, pages);
    ASSERT_NE(nvm_vpn, kNoPage);
    const PageNum victim = kern.pickExchangeVictim(600000);
    ASSERT_NE(victim, kNoPage);

    const std::uint64_t before = kern.translationEpoch();
    ASSERT_GT(kern.exchangePages(nvm_vpn, victim, 600000), 0u);
    EXPECT_GT(kern.translationEpoch(), before);
}

TEST_F(EpochTest, ThpCollapseAndSplitBumpEpoch)
{
    ThpKernel thp;
    Kernel &thp_kern = thp.kern;
    const PageNum base = thp.touchHugeRange();

    if (!thp_kern.isHugeMapped(base)) {
        const std::uint64_t before = thp_kern.translationEpoch();
        ASSERT_EQ(thp_kern.collapseHugePage(base, 400000),
                  CollapseResult::Collapsed);
        EXPECT_GT(thp_kern.translationEpoch(), before);
    }
    ASSERT_TRUE(thp_kern.isHugeMapped(base));

    const std::uint64_t before_split = thp_kern.translationEpoch();
    thp_kern.splitHugePage(base, 500000);
    EXPECT_FALSE(thp_kern.isHugeMapped(base));
    EXPECT_GT(thp_kern.translationEpoch(), before_split);

    const std::uint64_t before_collapse = thp_kern.translationEpoch();
    if (thp_kern.collapseHugePage(base, 600000) ==
        CollapseResult::Collapsed) {
        EXPECT_GT(thp_kern.translationEpoch(), before_collapse);
    }
}

TEST_F(EpochTest, TranslateAgreesWithPageMeta)
{
    // Overcommit DRAM so the 4 KiB range spans both tiers.
    const std::uint64_t pages = kDramPages + 64;
    const Addr a = kern.mmap(0, pages * kPageSize, 0, "obj");
    touchRange(a, pages);
    ASSERT_NE(findNvmPage(a, pages), kNoPage);
    for (std::uint64_t i = 0; i < pages; ++i) {
        const PageNum vpn = pageOf(a) + i;
        const PageMeta *meta = kern.pageMeta(vpn);
        ASSERT_NE(meta, nullptr);
        ASSERT_TRUE(meta->present);
        EXPECT_EQ(kern.nodeOf(vpn), meta->node);
    }
    EXPECT_EQ(kern.pageMeta(pageOf(a) + pages + 1000), nullptr);

    // PMD-mapped: every subpage resolves to the range's PMD entry.
    ThpKernel thp;
    Kernel &thp_kern = thp.kern;
    const PageNum base = thp.touchHugeRange();
    if (!thp_kern.isHugeMapped(base)) {
        ASSERT_EQ(thp_kern.collapseHugePage(base, 400000),
                  CollapseResult::Collapsed);
    }
    ASSERT_TRUE(thp_kern.isHugeMapped(base));
    for (std::uint64_t i = 0; i < kPagesPerHuge; ++i) {
        const PageMeta *meta = thp_kern.pageMeta(base + i);
        ASSERT_EQ(meta, thp_kern.pageMeta(base));
        EXPECT_EQ(thp_kern.nodeOf(base + i), meta->node);
    }
}

// An engine-level munmap/remap: the dead range's translations are gone,
// the fresh range faults in page by page, and the invariant checker's
// sweeps stay green on both sides of the remap.
TEST(EngineRemap, MunmapThenRemapKeepsInvariants)
{
    SystemConfig cfg;
    cfg.numThreads = 2;
    cfg.checkInvariants = true;
    Engine eng(cfg);
    ThreadContext &t0 = eng.thread(0);

    const Addr a = eng.sysMmap(t0, 64 * kPageSize, 0, "obj");
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < 64; ++i)
            eng.load(t0, a + i * kPageSize);
    }
    ASSERT_NE(eng.invariantChecker(), nullptr);
    eng.invariantChecker()->checkNow(eng.globalTime());

    eng.sysMunmap(t0, a);
    EXPECT_EQ(eng.kernel().pageMeta(pageOf(a)), nullptr);
    const std::uint64_t faults_before = t0.pageFaults;
    const Addr b = eng.sysMmap(t0, 64 * kPageSize, 1, "obj2");
    for (std::uint64_t i = 0; i < 64; ++i)
        eng.store(t0, b + i * kPageSize);
    EXPECT_EQ(t0.pageFaults - faults_before, 64u);
    eng.invariantChecker()->checkNow(eng.globalTime());
}

// ------------------------------------- Translation-epoch race stress

/** What the epoch race stress compares between the two access paths. */
struct StressOutcome
{
    Cycles globalTime = 0;
    std::vector<std::uint64_t> vmstat;  ///< Every VmStat word.
    std::vector<Cycles> clocks;         ///< Each logical thread's clock.
};

/**
 * Logical thread 0 remaps its private region every pass (epoch bumps)
 * while the other threads, interleaved with it by earliest clock,
 * sweep a shared region that AutoNUMA concurrently scans, migrates and
 * demotes. The invariant checker sweeps kernel state throughout; the
 * caller diffs the batched run against the forced scalar one, so a
 * tail run that survives an epoch bump on a stale translation shows up
 * as a timing or vmstat divergence.
 */
StressOutcome
runEpochRaceStress(bool thp, bool scalar)
{
    SystemConfig cfg;
    cfg.numThreads = 8;
    cfg.checkInvariants = true;
    cfg.invariantCheckPeriod = 256;
    cfg.dram = makeDramParams(thp ? 4 * kMiB : 128 * kPageSize);
    cfg.nvm = makeNvmParams(thp ? 32 * kMiB : 4096 * kPageSize);
    cfg.autonuma.scanPeriod = secondsToCycles(0.0002);
    cfg.autonuma.adjustPeriod = secondsToCycles(0.001);
    // Admit whole huge pages through the migration rate limiter.
    cfg.autonuma.rateLimitBytesPerSec = 64 * kMiB;
    cfg.thp.enabled = thp;
    cfg.scalarPath = scalar;
    Engine eng(cfg);
    ThreadContext &t0 = eng.thread(0);

    const std::uint64_t shared_pages = thp ? 4 * kPagesPerHuge : 512;
    const Addr shared =
        eng.sysMmap(t0, shared_pages * kPageSize, 0, "shared");
    Addr scratch = eng.sysMmap(t0, 16 * kPageSize, 1, "scratch");

    for (int pass = 0; pass < 8; ++pass) {
        eng.parallelForRanges(
            shared_pages,
            [&](ThreadContext &t, std::uint64_t b, std::uint64_t e) {
                if (b == 0) {
                    // Remap between the other threads' grain steps:
                    // munmap + mmap bump the epoch under their
                    // in-flight runs.
                    eng.sysMunmap(t, scratch);
                    scratch = eng.sysMmap(t, 16 * kPageSize, 1,
                                          "scratch");
                    for (std::uint64_t i = 0; i < 16; ++i)
                        eng.store(t, scratch + i * kPageSize);
                }
                // Word-strided batched sweep: every line is a head
                // plus seven tails, and enough simulated cycles pass
                // that scans/kswapd fire *during* a run, racing the
                // tail runs with real migrations.
                constexpr std::uint64_t kWord = sizeof(std::uint64_t);
                eng.accessRange(t, shared + b * kPageSize,
                                (e - b) * (kPageSize / kWord), kWord,
                                MemOp::Load);
                for (std::uint64_t i = b; i < e; i += 4)
                    eng.store(t, shared + i * kPageSize);
            });
    }

    StressOutcome out;
    if (eng.invariantChecker() == nullptr) {
        ADD_FAILURE() << "invariant checker not armed";
        return out;
    }
    eng.invariantChecker()->checkNow(eng.globalTime());
    EXPECT_GT(eng.invariantChecker()->checksRun(), 0u);
    // The stress only means something if migrations actually raced the
    // accesses: scans must have queued and moved pages.
    const VmStat &vs = eng.kernel().vmstat();
    EXPECT_GT(vs.pgmigrateSuccess, 0u);

    static_assert(sizeof(VmStat) % sizeof(std::uint64_t) == 0,
                  "VmStat compares as plain uint64 counters");
    out.globalTime = eng.globalTime();
    out.vmstat.resize(sizeof(VmStat) / sizeof(std::uint64_t));
    std::memcpy(out.vmstat.data(), &vs, sizeof(VmStat));
    for (std::uint32_t i = 0; i < cfg.numThreads; ++i)
        out.clocks.push_back(eng.thread(i).clock());
    return out;
}

/** The batched stress must match the forced scalar one exactly. */
void
expectStressPathsAgree(bool thp)
{
    const StressOutcome batched = runEpochRaceStress(thp, false);
    const StressOutcome scalar = runEpochRaceStress(thp, true);
    EXPECT_EQ(batched.globalTime, scalar.globalTime);
    EXPECT_EQ(batched.vmstat, scalar.vmstat);
    EXPECT_EQ(batched.clocks, scalar.clocks);
}

TEST(EpochRaceStress, TailRunsRevalidateUnderMigration4k)
{
    expectStressPathsAgree(/*thp=*/false);
}

TEST(EpochRaceStress, TailRunsRevalidateUnderMigrationThp)
{
    expectStressPathsAgree(/*thp=*/true);
}

// --------------------------------- Scalar vs batched golden identity
//
// The contract of the whole pipeline: forcing the reference scalar
// path must not change ANY simulated observable -- vmstat, timeline,
// level counts, application output, simulated time. Only host-side
// wall-clock may differ.

RunConfig
hotpathConfig(App app)
{
    RunConfig rc;
    rc.workload.app = app;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 12;
    rc.workload.trials = 2;
    rc.sampling = true;  // Observer records must match too.
    rc.sys.dram = makeDramParams(192 * kPageSize);
    rc.sys.nvm = makeNvmParams(4096 * kPageSize);
    rc.sys.autonuma.scanPeriod = secondsToCycles(0.0005);
    rc.sys.autonuma.adjustPeriod = secondsToCycles(0.002);
    return rc;
}

void
expectSameStats(const AutoNumaStats &a, const AutoNumaStats &b)
{
    const auto counters = [](const AutoNumaStats &s) {
        return std::array<std::uint64_t, 14>{
            s.pagesScanned,        s.hintFaults,
            s.hintFaultsNvm,       s.promotedFreePath,
            s.promotedThresholdPath, s.rejectedByThreshold,
            s.rejectedByRateLimit, s.promotionFailures,
            s.scansPaused,         s.hugeHintFaults,
            s.thpCollapses,        s.thpSplits,
            s.memoryFailures,      s.promotionsHeldOff};
    };
    EXPECT_EQ(counters(a), counters(b));
    EXPECT_EQ(a.hintLatencySeconds.count(), b.hintLatencySeconds.count());
    for (const double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(a.hintLatencySeconds.percentile(q),
                  b.hintLatencySeconds.percentile(q));
    }
    const auto &ta = a.thresholdSeconds.points();
    const auto &tb = b.thresholdSeconds.points();
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].time, tb[i].time);
        EXPECT_EQ(ta[i].value, tb[i].value);
    }
}

/** Every field of two runs of one config, bit for bit. */
void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    // Simulated time and output.
    EXPECT_EQ(a.workloadName, b.workloadName);
    EXPECT_EQ(a.totalSeconds, b.totalSeconds);
    EXPECT_EQ(a.loadSeconds, b.loadSeconds);
    EXPECT_EQ(a.computeSeconds, b.computeSeconds);
    EXPECT_EQ(a.outputChecksum, b.outputChecksum);
    EXPECT_EQ(a.totalAccesses, b.totalAccesses);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.iterationsTotal, b.iterationsTotal);
    EXPECT_EQ(a.iterationsAborted, b.iterationsAborted);
    EXPECT_EQ(a.invariantChecksRun, b.invariantChecksRun);
    EXPECT_EQ(a.copyBytes, b.copyBytes);
    EXPECT_EQ(a.copyChargedCycles, b.copyChargedCycles);

    // Every vmstat counter (plain uint64 struct), the cache and TLB
    // counters and the final per-node usage.
    EXPECT_EQ(std::memcmp(&a.vmstat, &b.vmstat, sizeof(VmStat)), 0);
    EXPECT_EQ(std::memcmp(&a.hierarchy, &b.hierarchy,
                          sizeof(HierarchyCounters)),
              0);
    EXPECT_EQ(std::memcmp(&a.finalNumastat, &b.finalNumastat,
                          sizeof(NumaStatSnapshot)),
              0);

    // perf-mem attribution per level.
    for (int l = 0; l < kNumMemLevels; ++l)
        EXPECT_EQ(a.levelCounts[l], b.levelCounts[l]);

    // Sampled records: every path must deliver the exact records the
    // per-element dispatch did.
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].time, b.samples[i].time);
        EXPECT_EQ(a.samples[i].vaddr, b.samples[i].vaddr);
        EXPECT_EQ(a.samples[i].latency, b.samples[i].latency);
        EXPECT_EQ(a.samples[i].tid, b.samples[i].tid);
        EXPECT_EQ(a.samples[i].level, b.samples[i].level);
        EXPECT_EQ(a.samples[i].tlbMiss, b.samples[i].tlbMiss);
    }

    // Allocations.
    const auto &ra = a.tracker.records();
    const auto &rb = b.tracker.records();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].object, rb[i].object);
        EXPECT_EQ(ra[i].site, rb[i].site);
        EXPECT_EQ(ra[i].start, rb[i].start);
        EXPECT_EQ(ra[i].bytes, rb[i].bytes);
        EXPECT_EQ(ra[i].allocTime, rb[i].allocTime);
        EXPECT_EQ(ra[i].freeTime, rb[i].freeTime);
    }

    // The machine-wide timeline, point by point.
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        const TimelinePoint &ap = a.timeline[i];
        const TimelinePoint &bp = b.timeline[i];
        EXPECT_EQ(ap.sec, bp.sec);
        EXPECT_EQ(ap.cpuUtil, bp.cpuUtil);
        EXPECT_EQ(std::memcmp(&ap.vm, &bp.vm, sizeof(VmStat)), 0);
        EXPECT_EQ(std::memcmp(&ap.numa, &bp.numa,
                              sizeof(NumaStatSnapshot)),
                  0);
    }

    // Policy state and the observation plane.
    EXPECT_EQ(a.hasAutoNuma, b.hasAutoNuma);
    expectSameStats(a.numaStats, b.numaStats);
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.policyCounters, b.policyCounters);
    EXPECT_EQ(a.effectiveTunables, b.effectiveTunables);
    ASSERT_EQ(a.metricsEpochs.size(), b.metricsEpochs.size());
    for (std::size_t i = 0; i < a.metricsEpochs.size(); ++i) {
        const MetricsView &am = a.metricsEpochs[i];
        const MetricsView &bm = b.metricsEpochs[i];
        EXPECT_EQ(am.now, bm.now);
        EXPECT_EQ(am.accesses, bm.accesses);
        EXPECT_EQ(am.accessCycles, bm.accessCycles);
        EXPECT_EQ(std::memcmp(&am.vm, &bm.vm, sizeof(VmStat)), 0);
        EXPECT_EQ(am.hasServing, bm.hasServing);
        EXPECT_EQ(am.serveP50Cycles, bm.serveP50Cycles);
        EXPECT_EQ(am.serveP99Cycles, bm.serveP99Cycles);
        EXPECT_EQ(am.serveP999Cycles, bm.serveP999Cycles);
    }

    // Serving report (graph runs leave it empty).
    EXPECT_EQ(a.hasServing, b.hasServing);
    EXPECT_EQ(a.serving.requests, b.serving.requests);
    EXPECT_EQ(a.serving.errors, b.serving.errors);
    EXPECT_EQ(a.serving.checksum, b.serving.checksum);
    EXPECT_EQ(a.serving.prefillSeconds, b.serving.prefillSeconds);
    EXPECT_EQ(a.serving.totalSeconds, b.serving.totalSeconds);
    for (int op = 0; op < 4; ++op)
        EXPECT_EQ(a.serving.opCounts[op], b.serving.opCounts[op]);
    EXPECT_EQ(a.serving.latency.count(), b.serving.latency.count());
    EXPECT_EQ(a.serving.latency.sum(), b.serving.latency.sum());
    EXPECT_EQ(a.serving.latency.max(), b.serving.latency.max());
}

TEST(HotpathGolden, BfsScalarAndBatchedBitIdentical)
{
    RunConfig rc = hotpathConfig(App::BFS);
    const RunResult batched = runWorkload(rc);
    rc.sys.scalarPath = true;
    const RunResult scalar = runWorkload(rc);
    expectBitIdentical(batched, scalar);
}

TEST(HotpathGolden, PageRankScalarAndBatchedBitIdentical)
{
    RunConfig rc = hotpathConfig(App::PR);
    const RunResult batched = runWorkload(rc);
    rc.sys.scalarPath = true;
    const RunResult scalar = runWorkload(rc);
    expectBitIdentical(batched, scalar);
}

// ------------------------------------ Absolute cache and TLB golden
//
// HotpathGolden compares two paths that drive the same cache and TLB
// model, so a semantic drift inside that model would pass it. These
// pin absolute counters captured from the original tick-stamped
// true-LRU implementation; the scalar-path CI pass checks them too.

struct HierarchyGolden
{
    /** L1, L2, L3 as {hits, misses, writebacks}. */
    std::array<std::uint64_t, 9> cache;
    /** 4 KiB {l1Hits, stlbHits, misses}, then the 2 MiB class. */
    std::array<std::uint64_t, 6> tlb;
    std::array<std::uint64_t, kNumMemLevels> levels;
    double totalSeconds;
};

void
expectHierarchy(const RunResult &r, const HierarchyGolden &g)
{
    const HierarchyCounters &h = r.hierarchy;
    for (int l = 0; l < 3; ++l) {
        EXPECT_EQ(h.hits[l], g.cache[3 * l]) << "L" << l + 1 << " hits";
        EXPECT_EQ(h.misses[l], g.cache[3 * l + 1])
            << "L" << l + 1 << " misses";
        EXPECT_EQ(h.writebacks[l], g.cache[3 * l + 2])
            << "L" << l + 1 << " writebacks";
    }
    const std::array<std::uint64_t, 6> tlb = {
        h.tlbL1Hits,     h.tlbStlbHits,     h.tlbMisses,
        h.tlbHugeL1Hits, h.tlbHugeStlbHits, h.tlbHugeMisses};
    EXPECT_EQ(tlb, g.tlb);
    for (int l = 0; l < kNumMemLevels; ++l)
        EXPECT_EQ(r.levelCounts[l], g.levels[l]) << "level " << l;
    EXPECT_EQ(r.totalSeconds, g.totalSeconds);
}

TEST(HierarchyGolden, PageRankKron12)
{
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    expectHierarchy(
        runWorkload(hotpathConfig(App::PR)),
        {{458110u, 82911u, 8673u, 146007u, 22857u, 6797u, 10960u, 30367u,
          6761u},
         {540455u, 0u, 566u, 0u, 0u, 0u},
         {238040u, 220070u, 60111u, 7762u, 13191u, 1847u},
         0.0022043603846153845});
}

TEST(HierarchyGolden, BfsKron12)
{
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    expectHierarchy(
        runWorkload(hotpathConfig(App::BFS)),
        {{213935u, 15548u, 8096u, 16934u, 15003u, 6359u, 4759u, 23004u,
          6181u},
         {228750u, 0u, 733u, 0u, 0u, 0u},
         {100125u, 113810u, 578u, 3652u, 9625u, 1693u},
         0.0016342738461538461});
}

// THP set in the config (not through MEMTIER_THP), so every CI build
// runs it. kron 2^15 so the arrays span whole 2 MiB ranges: the run
// drives the 2 MiB TLB classes and the fault-time insertHuge upgrade.
TEST(HierarchyGolden, PageRankKron15Thp)
{
    RunConfig rc = hotpathConfig(App::PR);
    rc.workload.scale = 15;
    rc.sys.dram = makeDramParams(4 * kMiB);
    rc.sys.nvm = makeNvmParams(16 * kMiB);
    rc.sys.autonuma.rateLimitBytesPerSec = 16 * kMiB;
    rc.sys.thp.enabled = true;
    expectHierarchy(
        runWorkload(rc),
        {{3440994u, 1436291u, 80319u, 1732366u, 1241218u, 78186u,
          1272826u, 1077070u, 78155u},
         {3283111u, 11491u, 9820u, 1572780u, 0u, 83u},
         {628160u, 2812834u, 414812u, 444637u, 550647u, 26195u},
         0.036499884230769233});
}

// --------------------------------------- Absolute sample-stream golden
//
// Every sample field, the loads the sampler saw and the run's headline
// observables, pinned on the configs that exercise each way a sampler
// meets the engine: segmented graphs, the forced scalar path, short and
// long periods, stores recorded, and a policy that observes accesses
// beside the sampler. Captured from the engine that delivered a record
// of every access to the sampler.

/** FNV-1a over the bytes of each value added. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    template <typename T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (const unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
};

/** A sampled run plus what only the sampler knows. */
struct SampledRun
{
    RunResult result;
    std::uint64_t loadsSeen = 0;
};

/** runWorkload with @p attached observing it; @p sampler is the
 *  sampler @p attached is or forwards to. */
SampledRun
sampledRun(const RunConfig &rc, PerfMemSampler &sampler,
           AccessObserver &attached)
{
    Engine eng(runSystem(rc));
    eng.addObserver(&attached);
    SampledRun out;
    out.result = runWorkloadOn(eng, rc);
    out.loadsSeen = sampler.loadsSeen();
    out.result.samples = sampler.takeSamples();
    return out;
}

/** runWorkload with the sampler attached directly. */
SampledRun
sampledRun(const RunConfig &rc)
{
    PerfMemSampler sampler(rc.sampler);
    return sampledRun(rc, sampler, sampler);
}

struct SampleGolden
{
    std::uint64_t sampleHash;  ///< Every field of every sample, in order.
    std::uint64_t samples;
    std::uint64_t loadsSeen;
    double totalSeconds;
    std::array<std::uint64_t, kNumMemLevels> levels;
    std::uint64_t vmstatHash;
};

void
expectSampleGolden(const SampledRun &run, const SampleGolden &g)
{
    Fnv samples;
    for (const MemorySample &s : run.result.samples) {
        samples.add(s.time);
        samples.add(s.vaddr);
        samples.add(s.latency);
        samples.add(s.tid);
        samples.add(s.level);
        samples.add(s.tlbMiss);
    }
    static_assert(sizeof(VmStat) % sizeof(std::uint64_t) == 0,
                  "VmStat hashes as plain uint64 counters");
    Fnv vm;
    vm.add(run.result.vmstat);
    EXPECT_EQ(samples.h, g.sampleHash);
    EXPECT_EQ(run.result.samples.size(), g.samples);
    EXPECT_EQ(run.loadsSeen, g.loadsSeen);
    EXPECT_EQ(run.result.totalSeconds, g.totalSeconds);
    for (int l = 0; l < kNumMemLevels; ++l)
        EXPECT_EQ(run.result.levelCounts[l], g.levels[l]) << "level " << l;
    EXPECT_EQ(vm.h, g.vmstatHash);
}

/** One golden config: hotpathConfig's machine, @p app on @p kind. */
RunConfig
sampleConfig(App app, GraphKind kind, std::uint32_t period)
{
    RunConfig rc = hotpathConfig(app);
    rc.workload.kind = kind;
    rc.sampler.period = period;
    return rc;
}

/** The seven golden configs, by name. */
std::vector<std::pair<std::string, RunConfig>>
sampleConfigs()
{
    std::vector<std::pair<std::string, RunConfig>> out;
    RunConfig rc = sampleConfig(App::BFS, GraphKind::Urand, 61);
    rc.workload.segments = 4;
    out.emplace_back("bfs_urand_seg4_p61", rc);
    rc = sampleConfig(App::PR, GraphKind::Kron, 61);
    rc.workload.segments = 4;
    out.emplace_back("pr_kron_seg4_p61", rc);
    out.emplace_back("bc_kron_p7", sampleConfig(App::BC, GraphKind::Kron, 7));
    rc = sampleConfig(App::BFS, GraphKind::Kron, 3);
    rc.sys.scalarPath = true;
    out.emplace_back("bfs_kron_scalar_p3", rc);
    rc = sampleConfig(App::SSSP, GraphKind::Kron, 1);
    rc.policy = "exchange";
    out.emplace_back("sssp_kron_exchange_p1", rc);
    rc = sampleConfig(App::CC, GraphKind::Kron, 61);
    rc.sampler.recordStores = true;
    out.emplace_back("cc_kron_stores_p61", rc);
    rc = sampleConfig(App::BFS, GraphKind::Kron, 61);
    rc.policy = "object-dynamic";
    out.emplace_back("bfs_kron_object_dynamic_p61", rc);
    return out;
}

TEST(SampleGolden, EveryConfigMatchesCapturedStream)
{
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    const SampleGolden golden[] = {
        {6547878742105473116u, 1951u, 120739u, 0.002208729230769231,
         {132347u, 156564u, 4134u, 4456u, 13298u, 3750u},
         5587658456739770658u},
        {10669648756585553626u, 6780u, 419629u, 0.0022311180769230771,
         {236361u, 221829u, 60063u, 7764u, 12941u, 2075u},
         6627561968116500709u},
        {12078135784695837080u, 119051u, 952360u, 0.0031080307692307693,
         {493636u, 409307u, 143241u, 56138u, 39929u, 5618u},
         16819795157750675412u},
        {16200194220433953570u, 17945u, 71752u, 0.0016342738461538461,
         {100125u, 113810u, 578u, 3652u, 9625u, 1693u},
         10138775728121309249u},
        {368568136437335757u, 1009876u, 2019744u, 0.0058536046153846158,
         {624071u, 1274411u, 250537u, 48525u, 69259u, 42446u},
         16917177659967728315u},
        {16214952487747485758u, 27200u, 1547761u, 0.0031580188461538461,
         {1412434u, 195195u, 48483u, 13698u, 13043u, 1157u},
         17557952037863325626u},
        {5764505688461938524u, 1163u, 71752u, 0.0016274988461538462,
         {100048u, 113909u, 585u, 3661u, 9249u, 2031u},
         18193030102731166802u},
    };
    const auto configs = sampleConfigs();
    ASSERT_EQ(configs.size(), std::size(golden));
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(configs[i].first);
        expectSampleGolden(sampledRun(configs[i].second), golden[i]);
    }
}

// ------------------------------------------ Load-skip contract, runs
//
// The sampler takes the load-skip contract unless it records stores.
// Attached directly or through a forwarder that does not take it, it
// must see the same run; under the contract it must get a record of
// only the loads it keeps.

/** Hands every record to @p to without taking the load-skip contract,
 *  so the engine records every access, as it does for any such
 *  observer. */
class ForwardEveryRecord : public AccessObserver
{
  public:
    explicit ForwardEveryRecord(AccessObserver &to) : to_(to) {}

    void onAccess(const AccessRecord &r) override { to_.onAccess(r); }

    void
    onBatch(const AccessRecord *records, std::size_t count) override
    {
        to_.onBatch(records, count);
    }

  private:
    AccessObserver &to_;
};

/** Forwards the load-skip contract too, counting records delivered. */
class CountDelivered : public AccessObserver
{
  public:
    explicit CountDelivered(AccessObserver &to) : to_(to) {}

    void
    onAccess(const AccessRecord &r) override
    {
        ++delivered;
        to_.onAccess(r);
    }

    void
    onBatch(const AccessRecord *records, std::size_t count) override
    {
        delivered += count;
        to_.onBatch(records, count);
    }

    bool skipsLoads() const override { return to_.skipsLoads(); }

    std::uint64_t
    loadsToSkip(ThreadId tid) const override
    {
        return to_.loadsToSkip(tid);
    }

    void
    passOver(ThreadId tid, std::uint64_t n) override
    {
        to_.passOver(tid, n);
    }

    std::uint64_t delivered = 0;

  private:
    AccessObserver &to_;
};

TEST(LoadSkipRun, SamplerSeesTheRunRecordEverythingSees)
{
    for (const auto &[name, rc] : sampleConfigs()) {
        SCOPED_TRACE(name);
        const SampledRun direct = sampledRun(rc);
        PerfMemSampler sampler(rc.sampler);
        ForwardEveryRecord forward(sampler);
        const SampledRun forwarded = sampledRun(rc, sampler, forward);
        EXPECT_EQ(direct.loadsSeen, forwarded.loadsSeen);
        expectBitIdentical(direct.result, forwarded.result);
    }
}

TEST(LoadSkipRun, RecordsDeliveredEqualSamplesTaken)
{
    for (const auto &[name, rc] : sampleConfigs()) {
        SCOPED_TRACE(name);
        PerfMemSampler sampler(rc.sampler);
        CountDelivered counter(sampler);
        const SampledRun run = sampledRun(rc, sampler, counter);
        // A sampler that records stores, or one beside object-dynamic's
        // access feed, is served every access.
        const bool every_access =
            rc.sampler.recordStores || rc.policy == "object-dynamic";
        EXPECT_EQ(counter.delivered, every_access
                                         ? run.result.totalAccesses
                                         : run.result.samples.size());
    }
}

// ------------------------------------------------------- Chaos sweep
//
// The batched path under continuous invariant checking and a lossy
// migration plan: heavy remap traffic with failures must never leave
// the page table, allocators or LRU lists inconsistent.
TEST(HotpathChaos, BatchedPathSurvivesFaultyMigrations)
{
    RunConfig rc = hotpathConfig(App::PR);
    rc.sys.checkInvariants = true;
    rc.sys.invariantCheckPeriod = 512;
    auto &migrate = rc.sys.faults.at(FaultPoint::Migration);
    migrate.probability = 0.1;
    migrate.burstLength = 6;
    rc.sys.faults.seed = 97;

    const RunResult r = runWorkload(rc);
    EXPECT_GT(r.invariantChecksRun, 0u);
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_GT(r.vmstat.pgmigrateFail, 0u);
}

}  // namespace
}  // namespace memtier
