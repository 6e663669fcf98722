/**
 * @file
 * Tests for the dynamic object-level tiering extension and the kernel's
 * object-migration API it builds on.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "exp/runner.h"
#include "policy/dynamic_tiering.h"
#include "profile/analysis.h"
#include "runtime/sim_heap.h"

namespace memtier {
namespace {

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(256 * kPageSize);
    cfg.nvm = makeNvmParams(1024 * kPageSize);
    cfg.numThreads = 2;
    cfg.autonumaEnabled = false;  // The dynamic policy replaces it.
    cfg.tieringKernel = true;
    return cfg;
}

// ----------------------------------------------- Kernel::migratePages

TEST(MigratePages, MovesRangeToNvmAndBack)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto v = heap.alloc<std::int64_t>(t, "obj", 8 * 512);  // 8 pages.
    for (std::uint64_t i = 0; i < v.size(); i += 512)
        v.set(t, i, 1);  // Touch each page (lands on DRAM).

    Kernel &kern = eng.kernel();
    const Addr end = v.base() + v.size() * sizeof(std::int64_t);
    EXPECT_EQ(kern.migratePages(v.base(), end, MemNode::NVM, 100, 1000),
              8u);
    for (PageNum vpn = pageOf(v.base()); vpn < pageOf(end); ++vpn)
        EXPECT_EQ(kern.nodeOf(vpn), MemNode::NVM);

    EXPECT_EQ(kern.migratePages(v.base(), end, MemNode::DRAM, 100, 2000),
              8u);
    for (PageNum vpn = pageOf(v.base()); vpn < pageOf(end); ++vpn)
        EXPECT_EQ(kern.nodeOf(vpn), MemNode::DRAM);
    heap.free(t, v);
}

TEST(MigratePages, RespectsBudget)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto v = heap.alloc<std::int64_t>(t, "obj", 8 * 512);
    for (std::uint64_t i = 0; i < v.size(); i += 512)
        v.set(t, i, 1);
    const Addr end = v.base() + v.size() * sizeof(std::int64_t);
    EXPECT_EQ(eng.kernel().migratePages(v.base(), end, MemNode::NVM, 3,
                                        1000),
              3u);
    heap.free(t, v);
}

TEST(MigratePages, SkipsPinnedPages)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto v = heap.alloc<std::int64_t>(t, "obj", 512);
    eng.kernel().mbind(v.base(), MemPolicy::bind(MemNode::DRAM));
    v.set(t, 0, 1);
    const Addr end = v.base() + kPageSize;
    EXPECT_EQ(eng.kernel().migratePages(v.base(), end, MemNode::NVM,
                                        100, 1000),
              0u);
    heap.free(t, v);
}

TEST(MigratePages, NoopWhenAlreadyOnTarget)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto v = heap.alloc<std::int64_t>(t, "obj", 512);
    v.set(t, 0, 1);
    const Addr end = v.base() + kPageSize;
    EXPECT_EQ(eng.kernel().migratePages(v.base(), end, MemNode::DRAM,
                                        100, 1000),
              0u);
    heap.free(t, v);
}

// --------------------------------------------- DynamicObjectTiering

/** Run @p policy's rebalance whenever @p t's clock reaches @p next, on
 *  the policy's own cadence -- what the engine's scan slot does for an
 *  installed policy. */
void
rebalanceWhenDue(DynamicObjectTiering &policy, const ThreadContext &t,
                 Cycles &next)
{
    while (next <= t.clock()) {
        policy.scanTick(next);
        next += policy.scanPeriod();
    }
}

TEST(DynamicTiering, HotObjectPulledToDram)
{
    Engine eng(tinyConfig());
    DynamicTieringParams params;
    params.interval = secondsToCycles(0.0001);
    DynamicObjectTiering policy(eng.kernel(), params);

    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    // Cold filler takes the DRAM; the hot object (too big for the
    // caches) lands on NVM. The policy attaches only afterwards so the
    // initial placement is the kernel's own.
    auto filler = heap.alloc<std::int64_t>(t, "cold", 250 * 512);
    for (std::uint64_t i = 0; i < filler.size(); i += 512)
        filler.set(t, i, 1);
    auto hot = heap.alloc<std::int64_t>(t, "hot", 200 * 512);
    for (std::uint64_t i = 0; i < hot.size(); i += 512)
        hot.set(t, i, 1);
    // At least the tail of the hot object overflowed to NVM (kswapd
    // keeps only a small DRAM reserve free).
    const PageNum hot_last =
        pageOf(hot.addrOf(hot.size() - 1));
    ASSERT_EQ(eng.kernel().nodeOf(hot_last), MemNode::NVM);
    eng.addObserver(&policy);
    Cycles next = t.clock() + params.interval;

    // Hammer the hot object long enough for several rebalances.
    Rng rng(5);
    for (int round = 0; round < 150000; ++round) {
        hot.get(t, rng.nextBounded(hot.size()));
        rebalanceWhenDue(policy, t, next);
    }

    EXPECT_GT(policy.stats().rebalances, 0u);
    EXPECT_GT(policy.stats().pagesMovedUp, 0u);
    // The hot object must now be entirely on DRAM.
    EXPECT_EQ(eng.kernel().nodeOf(hot_last), MemNode::DRAM);
    heap.free(t, hot);
    heap.free(t, filler);
}

TEST(DynamicTiering, NoMigrationWithoutTraffic)
{
    Engine eng(tinyConfig());
    DynamicTieringParams params;
    params.interval = secondsToCycles(0.001);
    DynamicObjectTiering policy(eng.kernel(), params);
    eng.addObserver(&policy);

    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    Cycles next = t.clock() + params.interval;
    auto v = heap.alloc<std::int64_t>(t, "idle", 512);
    v.set(t, 0, 1);
    // Advance time with cache-hit accesses (no external traffic).
    for (int i = 0; i < 50000; ++i) {
        v.get(t, 0);
        rebalanceWhenDue(policy, t, next);
    }
    EXPECT_EQ(policy.stats().pagesMovedUp, 0u);
    EXPECT_EQ(policy.stats().pagesMovedDown, 0u);
    heap.free(t, v);
}

/** The object-dynamic golden setup: BFS on kron 2^13, 2 sources. */
RunConfig
dynamicConfig()
{
    RunConfig rc;
    rc.workload.app = App::BFS;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 13;
    rc.workload.trials = 2;
    rc.sys.dram = makeDramParams(512 * kPageSize);
    rc.sys.nvm = makeNvmParams(2048 * kPageSize);
    return rc;
}

TEST(DynamicTiering, RunnerModeProducesIdenticalResults)
{
    RunConfig rc = dynamicConfig();
    const RunResult a = runWorkload(rc);

    RunConfig rc2 = rc;
    rc2.policy = "object-dynamic";
    const RunResult d = runWorkload(rc2);
    EXPECT_EQ(d.policyName, "object-dynamic");
    EXPECT_EQ(a.outputChecksum, d.outputChecksum);
    // The dynamic policy migrates via the kernel, so its activity shows
    // up in the migration counters even with AutoNUMA off.
    EXPECT_EQ(d.vmstat.numaHintFaults, 0u);  // No scanner.
}

TEST(DynamicTiering, RegistryPolicyMatchesSeed)
{
    // Captured from the runner's former ObjectDynamic mode, which
    // installed the policy by hand beside the perf-mem sampler. 4 KiB
    // pages only: MEMTIER_THP=ON changes every counter.
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    RunConfig rc = dynamicConfig();
    rc.policy = "object-dynamic";
    const RunResult r = runWorkload(rc);

    constexpr std::size_t kWords = sizeof(VmStat) / sizeof(std::uint64_t);
    static_assert(kWords == 36, "recapture: VmStat gained a field");
    std::array<std::uint64_t, kWords> words{};
    std::memcpy(words.data(), &r.vmstat, sizeof(VmStat));
    std::array<std::uint64_t, kWords> golden{};
    golden[0] = 252;  // pgfault; every other counter stays zero.
    EXPECT_EQ(words, golden);

    const std::array<std::uint64_t, kNumMemLevels> levels = {
        251872u, 327197u, 27851u, 13370u, 27892u, 0u};
    for (int l = 0; l < kNumMemLevels; ++l)
        EXPECT_EQ(r.levelCounts[l], levels[l]) << "level " << l;
    EXPECT_EQ(r.outputChecksum, 0x72c28ed9b15b3023ull);
    EXPECT_EQ(r.totalSeconds, 0.0034751353846153845);
}

TEST(DynamicTiering, SetObserverKeepsPolicyFeed)
{
    SystemConfig cfg = tinyConfig();
    cfg.policyName = "object-dynamic";
    Engine eng(cfg);
    eng.setObserver(nullptr);  // Clears every observer but the policy.

    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto v = heap.alloc<std::int64_t>(t, "hot", 8 * 512);  // 8 pages.
    for (std::uint64_t i = 0; i < v.size(); i += 512)
        v.set(t, i, 1);
    const Addr end = v.base() + v.size() * sizeof(std::int64_t);
    ASSERT_EQ(eng.kernel().migratePages(v.base(), end, MemNode::NVM, 100,
                                        t.clock()),
              8u);
    // External NVM traffic the policy can only see through its feed:
    // the rebalance then ranks the object hot and pulls it back.
    for (std::uint64_t i = 0; i < v.size(); i += 8)
        v.get(t, i);
    eng.tieringPolicy()->scanTick(t.clock());
    for (PageNum vpn = pageOf(v.base()); vpn < pageOf(end); ++vpn)
        EXPECT_EQ(eng.kernel().nodeOf(vpn), MemNode::DRAM);
    heap.free(t, v);
}

/** A run long enough for object-dynamic's first 20 ms rebalance. */
RunConfig
rebalancingConfig()
{
    RunConfig rc = dynamicConfig();
    rc.workload.app = App::PR;
    rc.workload.trials = 24;
    rc.sys.dram = makeDramParams(256 * kPageSize);
    rc.policy = "object-dynamic";
    return rc;
}

TEST(DynamicTiering, SamplerKeepsPolicyAccessFeed)
{
    // The runner attaches the perf-mem sampler beside the policy, not
    // instead of it: a sampled run still ranks and migrates objects,
    // and sampling changes nothing the policy decides.
    RunConfig rc = rebalancingConfig();
    const RunResult sampled = runWorkload(rc);
    EXPECT_GT(sampled.vmstat.pgmigrateSuccess, 0u);
    // Without a scanner only the policy promotes, and only objects
    // whose accesses it counted.
    EXPECT_GT(sampled.vmstat.pgpromoteSuccess, 0u);
    EXPECT_FALSE(sampled.samples.empty());

    rc.sampling = false;
    const RunResult quiet = runWorkload(rc);
    EXPECT_TRUE(quiet.samples.empty());
    EXPECT_EQ(std::memcmp(&sampled.vmstat, &quiet.vmstat, sizeof(VmStat)),
              0);
    EXPECT_EQ(sampled.totalSeconds, quiet.totalSeconds);
}

TEST(DynamicTiering, AutotuneWrapKeepsAccessFeed)
{
    // autotune forwards the base policy's access feed; with no moves
    // allowed the wrapped run is the bare run.
    RunConfig rc = rebalancingConfig();
    rc.sampling = false;
    const RunResult bare = runWorkload(rc);
    rc.policy = "autotune";
    rc.tunables = {"base=object-dynamic", "max_steps=0"};
    const RunResult wrapped = runWorkload(rc);
    EXPECT_EQ(wrapped.policyName, "autotune");
    EXPECT_GT(wrapped.vmstat.pgpromoteSuccess, 0u);
    EXPECT_EQ(std::memcmp(&bare.vmstat, &wrapped.vmstat, sizeof(VmStat)),
              0);
    EXPECT_EQ(bare.totalSeconds, wrapped.totalSeconds);
}

TEST(DynamicTiering, StatsExposeDirections)
{
    Engine eng(tinyConfig());
    DynamicObjectTiering policy(eng.kernel());
    const DynamicTieringStats &st = policy.stats();
    EXPECT_EQ(st.rebalances, 0u);
    EXPECT_EQ(st.pagesMovedUp + st.pagesMovedDown, 0u);
}

}  // namespace
}  // namespace memtier
