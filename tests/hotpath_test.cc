/**
 * @file
 * Tests for the batched access pipeline: translation-epoch bumps on
 * every remap class, micro-cache staleness rejection, the invariant-
 * checker audit of per-thread translation caches, the translation-
 * epoch race stress (remaps and migrations interleaved with batched
 * sweeps, 4 KiB and THP), the golden scalar-vs-batched bit-identity
 * of whole workload runs, and absolute cache/TLB counter goldens.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "exp/runner.h"
#include "os/kernel.h"
#include "os/physical_memory.h"
#include "sim/engine.h"
#include "sim/translation_cache.h"

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
// Every remap class must bump Kernel::translationEpoch(): the micro-
// cache's correctness rests on "epoch unchanged => cached translation
// still valid", so an un-bumped remap would silently serve stale nodes.

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
    // A THP-enabled kernel on tiers big enough for 2 MiB frames.
    KernelParams kp;
    kp.thp.enabled = true;
    PhysicalMemory big_phys(
        makeDramParams(4 * kPagesPerHuge * kPageSize),
        makeNvmParams(16 * kPagesPerHuge * kPageSize));
    Kernel thp_kern(big_phys, kp);
    NullShootdown sink;
    thp_kern.setShootdownClient(&sink);

    const Addr a =
        thp_kern.mmap(0, 2 * kPagesPerHuge * kPageSize, 0, "huge");
    PageNum base = pageOf(a);
    if (!isHugeBase(base))
        base = hugeBaseOf(base) + kPagesPerHuge;
    for (std::uint64_t i = 0; i < kPagesPerHuge; ++i)
        thp_kern.touchPage(base + i, 1000 + i, MemOp::Store);

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
    const Addr a = kern.mmap(0, 4 * kPageSize, 0, "obj");
    touchRange(a, 4);
    for (std::uint64_t i = 0; i < 4; ++i) {
        const PageNum vpn = pageOf(a) + i;
        const Translation tr = kern.translate(vpn);
        ASSERT_TRUE(tr.present);
        EXPECT_FALSE(tr.huge);
        EXPECT_EQ(tr.node, kern.nodeOf(vpn));
        EXPECT_EQ(tr.epoch, kern.translationEpoch());
    }
    EXPECT_FALSE(kern.translate(pageOf(a) + 1000).present);
}

// --------------------------------------------- Micro-cache semantics

TEST(TranslationMicroCache, RejectsStaleEpoch)
{
    TranslationMicroCache cache;
    cache.insert(42, /*epoch=*/5, MemNode::NVM, false);

    const auto *hit = cache.lookup(42, 5);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->node, MemNode::NVM);

    // Any remap bumps the kernel epoch; the entry must stop matching.
    EXPECT_EQ(cache.lookup(42, 6), nullptr);
}

TEST(TranslationMicroCache, DirectMappedConflictEvicts)
{
    TranslationMicroCache cache;
    cache.insert(7, 1, MemNode::DRAM, false);
    const PageNum alias = 7 + TranslationMicroCache::kEntries;
    cache.insert(alias, 1, MemNode::NVM, true);

    EXPECT_EQ(cache.lookup(7, 1), nullptr);
    const auto *hit = cache.lookup(alias, 1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->node, MemNode::NVM);
    EXPECT_TRUE(hit->huge);
}

TEST(TranslationMicroCache, ClearDropsEverything)
{
    TranslationMicroCache cache;
    cache.insert(1, 1, MemNode::DRAM, false);
    cache.insert(2, 1, MemNode::DRAM, false);
    cache.clear();
    EXPECT_EQ(cache.lookup(1, 1), nullptr);
    EXPECT_EQ(cache.lookup(2, 1), nullptr);
}

// The engine-level staleness path: accesses populate the micro-cache,
// a munmap/remap bumps the epoch, and subsequent accesses must
// re-derive translations instead of serving the dead mapping. The
// invariant checker's audit cross-checks every live cache entry
// against the page table.
TEST(MicroCacheEngine, RemapInvalidatesAndAuditStaysGreen)
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
    const Addr b = eng.sysMmap(t0, 64 * kPageSize, 1, "obj2");
    for (std::uint64_t i = 0; i < 64; ++i)
        eng.store(t0, b + i * kPageSize);
    eng.invariantChecker()->checkNow(eng.globalTime());
}

// ------------------------------------- Translation-epoch race stress

/**
 * Logical thread 0 remaps its private region every pass (epoch bumps)
 * while the other threads, interleaved with it by earliest clock,
 * sweep a shared region that AutoNUMA concurrently scans, migrates and
 * demotes. The invariant checker audits every micro-cache against the
 * page table, so a single stale translation surviving an epoch bump
 * fails the run.
 */
void
runEpochRaceStress(bool thp)
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
                    // munmap + mmap bump the epoch under their warm
                    // micro-caches.
                    eng.sysMunmap(t, scratch);
                    scratch = eng.sysMmap(t, 16 * kPageSize, 1,
                                          "scratch");
                    for (std::uint64_t i = 0; i < 16; ++i)
                        eng.store(t, scratch + i * kPageSize);
                }
                // Line-strided batched sweep: enough simulated cycles
                // that scans/kswapd fire *during* the region, racing
                // the micro-caches with real migrations.
                eng.accessRange(t, shared + b * kPageSize,
                                (e - b) * (kPageSize / kLineSize),
                                kLineSize, MemOp::Load);
                for (std::uint64_t i = b; i < e; i += 4)
                    eng.store(t, shared + i * kPageSize);
            });
    }

    ASSERT_NE(eng.invariantChecker(), nullptr);
    eng.invariantChecker()->checkNow(eng.globalTime());
    EXPECT_GT(eng.invariantChecker()->checksRun(), 0u);
    // The stress only means something if migrations actually raced the
    // accesses: scans must have queued and moved pages.
    EXPECT_GT(eng.kernel().vmstat().pgmigrateSuccess, 0u);
}

TEST(EpochRaceStress, MicroCachesRevalidateUnderMigration4k)
{
    runEpochRaceStress(/*thp=*/false);
}

TEST(EpochRaceStress, MicroCachesRevalidateUnderMigrationThp)
{
    runEpochRaceStress(/*thp=*/true);
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
expectBitIdentical(const RunResult &batched, const RunResult &scalar)
{
    // Simulated time and output.
    EXPECT_EQ(batched.totalSeconds, scalar.totalSeconds);
    EXPECT_EQ(batched.loadSeconds, scalar.loadSeconds);
    EXPECT_EQ(batched.outputChecksum, scalar.outputChecksum);
    EXPECT_EQ(batched.totalAccesses, scalar.totalAccesses);

    // Every vmstat counter (plain uint64 struct).
    EXPECT_EQ(std::memcmp(&batched.vmstat, &scalar.vmstat,
                          sizeof(VmStat)),
              0);

    // perf-mem attribution per level.
    for (int l = 0; l < kNumMemLevels; ++l)
        EXPECT_EQ(batched.levelCounts[l], scalar.levelCounts[l]);

    // Sampled records: the batch observer dispatch must deliver the
    // exact records the per-element dispatch did.
    ASSERT_EQ(batched.samples.size(), scalar.samples.size());
    for (std::size_t i = 0; i < batched.samples.size(); ++i) {
        EXPECT_EQ(batched.samples[i].time, scalar.samples[i].time);
        EXPECT_EQ(batched.samples[i].vaddr, scalar.samples[i].vaddr);
        EXPECT_EQ(batched.samples[i].latency,
                  scalar.samples[i].latency);
        EXPECT_EQ(batched.samples[i].level, scalar.samples[i].level);
        EXPECT_EQ(batched.samples[i].tlbMiss,
                  scalar.samples[i].tlbMiss);
    }

    // The machine-wide timeline, point by point.
    ASSERT_EQ(batched.timeline.size(), scalar.timeline.size());
    for (std::size_t i = 0; i < batched.timeline.size(); ++i) {
        const TimelinePoint &bp = batched.timeline[i];
        const TimelinePoint &sp = scalar.timeline[i];
        EXPECT_EQ(bp.sec, sp.sec);
        EXPECT_EQ(bp.cpuUtil, sp.cpuUtil);
        EXPECT_EQ(std::memcmp(&bp.vm, &sp.vm, sizeof(VmStat)), 0);
        for (int n = 0; n < kNumNodes; ++n) {
            EXPECT_EQ(bp.numa.appPages[n], sp.numa.appPages[n]);
            EXPECT_EQ(bp.numa.cachePages[n], sp.numa.cachePages[n]);
            EXPECT_EQ(bp.numa.freePages[n], sp.numa.freePages[n]);
        }
    }
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

// ------------------------------------------------------- Chaos sweep
//
// The batched path under continuous invariant checking (including the
// micro-cache audit) and a lossy migration plan: heavy remap traffic
// with failures must never leave a cache entry disagreeing with the
// page table.
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
