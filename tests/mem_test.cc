/**
 * @file
 * Unit tests for the memory-tier substrate: frame allocation, device
 * timing (latency, queuing, write amplification), usage accounting,
 * and the migration copy engine both as a unit and through the
 * kernel's vmstat surface.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/rng.h"
#include "exp/runner.h"
#include "mem/copy_engine.h"
#include "mem/frame_allocator.h"
#include "mem/memory_tier.h"
#include "mem/tier_device.h"
#include "mem/tier_params.h"
#include "os/kernel.h"
#include "os/physical_memory.h"

namespace memtier {
namespace {

// ------------------------------------------------------- FrameAllocator

TEST(FrameAllocator, AllocatesSequentially)
{
    FrameAllocator fa(4);
    EXPECT_EQ(fa.allocate().value(), 0u);
    EXPECT_EQ(fa.allocate().value(), 1u);
    EXPECT_EQ(fa.usedFrames(), 2u);
    EXPECT_EQ(fa.freeFrames(), 2u);
}

TEST(FrameAllocator, ExhaustsAndRefuses)
{
    FrameAllocator fa(2);
    ASSERT_TRUE(fa.allocate().has_value());
    ASSERT_TRUE(fa.allocate().has_value());
    EXPECT_FALSE(fa.allocate().has_value());
}

TEST(FrameAllocator, RecyclesFreedFrames)
{
    FrameAllocator fa(2);
    const FrameNum a = fa.allocate().value();
    ASSERT_TRUE(fa.allocate().has_value());
    fa.free(a);
    EXPECT_EQ(fa.allocate().value(), a);
}

TEST(FrameAllocator, FreeMakesRoom)
{
    FrameAllocator fa(1);
    const FrameNum a = fa.allocate().value();
    EXPECT_FALSE(fa.allocate().has_value());
    fa.free(a);
    EXPECT_TRUE(fa.allocate().has_value());
}

TEST(FrameAllocator, CountsStayConsistent)
{
    FrameAllocator fa(8);
    std::vector<FrameNum> frames;
    for (int i = 0; i < 8; ++i)
        frames.push_back(fa.allocate().value());
    for (const FrameNum f : frames)
        fa.free(f);
    EXPECT_EQ(fa.usedFrames(), 0u);
    EXPECT_EQ(fa.freeFrames(), 8u);
}

// -------------------------------------- FrameAllocator, frame health

TEST(FrameAllocatorHealth, RetiredFrameIsNeverRecycled)
{
    FrameAllocator fa(2);
    const FrameNum a = fa.allocate().value();
    fa.retire(a);
    EXPECT_TRUE(fa.isRetired(a));
    EXPECT_EQ(fa.retiredFrames(), 1u);
    // Retired frames stay counted as used forever: the pool shrank.
    EXPECT_EQ(fa.usedFrames(), 1u);
    EXPECT_EQ(fa.freeFrames(), 1u);
    EXPECT_NE(fa.allocate().value(), a);
    EXPECT_FALSE(fa.allocate().has_value());
}

TEST(FrameAllocatorHealth, CorrectableCountsPerFrameAndClear)
{
    FrameAllocator fa(4);
    const FrameNum a = fa.allocate().value();
    const FrameNum b = fa.allocate().value();
    EXPECT_EQ(fa.recordCorrectable(a), 1u);
    EXPECT_EQ(fa.recordCorrectable(a), 2u);
    EXPECT_EQ(fa.recordCorrectable(b), 1u);  // Independent per frame.
    fa.clearCorrectable(a);
    EXPECT_EQ(fa.recordCorrectable(a), 1u);  // History reset.
    // Retiring clears the history too (the frame is gone for good).
    fa.retire(b);
    EXPECT_TRUE(fa.isRetired(b));
}

TEST(FrameAllocatorHealth, RetiredFrameBlocksHugeClaim)
{
    // A block containing a retired frame keeps a nonzero used count,
    // so allocateHuge can never hand out a range with a poisoned page.
    FrameAllocator fa(2 * kPagesPerHuge);
    const FrameNum a = fa.allocate().value();
    ASSERT_LT(a, kPagesPerHuge);
    fa.retire(a);
    const FrameNum huge = fa.allocateHuge().value();
    EXPECT_EQ(huge, kPagesPerHuge);  // The healthy block, not block 0.
    EXPECT_FALSE(fa.allocateHuge().has_value());
}

TEST(MemoryTierHealth, RetireShrinksHealthyCapacity)
{
    MemoryTier tier(makeDramParams(16 * kPageSize));
    const FrameNum f = tier.allocate(FrameOwner::App).value();
    EXPECT_EQ(tier.healthyPages(), 16u);
    tier.retire(f, FrameOwner::App);
    EXPECT_TRUE(tier.isRetired(f));
    EXPECT_EQ(tier.retiredPages(), 1u);
    EXPECT_EQ(tier.healthyPages(), 15u);
    EXPECT_EQ(tier.totalPages(), 16u);
    // The owner no longer holds the page, but the frame stays used.
    EXPECT_EQ(tier.ownerPages(FrameOwner::App), 0u);
    EXPECT_EQ(tier.usedPages(), 1u);
}

// ------------------------------------------- FrameAllocator, 2 MiB path

TEST(FrameAllocatorHuge, AllocatesAlignedFullBlock)
{
    FrameAllocator fa(2 * kPagesPerHuge);
    const FrameNum base = fa.allocateHuge().value();
    EXPECT_EQ(base, 0u);
    EXPECT_TRUE(isHugeBase(base));
    EXPECT_EQ(fa.usedFrames(), kPagesPerHuge);
    EXPECT_EQ(fa.hugeAllocs(), 1u);
    // Singles continue past the carved block.
    EXPECT_EQ(fa.allocate().value(), kPagesPerHuge);
}

TEST(FrameAllocatorHuge, SkipsPartiallyUsedBlocks)
{
    FrameAllocator fa(2 * kPagesPerHuge);
    ASSERT_EQ(fa.allocate().value(), 0u);  // Dirties block 0.
    EXPECT_EQ(fa.allocateHuge().value(), kPagesPerHuge);
}

TEST(FrameAllocatorHuge, FailsWhenNoBlockIsFree)
{
    FrameAllocator fa(kPagesPerHuge);
    const FrameNum f = fa.allocate().value();
    EXPECT_FALSE(fa.allocateHuge().has_value());
    EXPECT_EQ(fa.hugeAllocFails(), 1u);
    fa.free(f);
    EXPECT_TRUE(fa.allocateHuge().has_value());
    EXPECT_EQ(fa.hugeAllocs(), 1u);
}

TEST(FrameAllocatorHuge, CarveCollectsRecycledFrames)
{
    // Frames previously freed into the recycle list must not resurface
    // after their block is carved into a huge allocation.
    FrameAllocator fa(2 * kPagesPerHuge);
    std::vector<FrameNum> singles;
    for (int i = 0; i < 5; ++i)
        singles.push_back(fa.allocate().value());
    for (const FrameNum f : singles)
        fa.free(f);
    EXPECT_EQ(fa.allocateHuge().value(), 0u);
    // The recycled 0..4 are gone; the next single comes from block 1.
    EXPECT_EQ(fa.allocate().value(), kPagesPerHuge);
}

TEST(FrameAllocatorHuge, FreeHugeReturnsAllFrames)
{
    FrameAllocator fa(kPagesPerHuge);
    const FrameNum base = fa.allocateHuge().value();
    fa.freeHuge(base);
    EXPECT_EQ(fa.usedFrames(), 0u);
    EXPECT_EQ(fa.freeFrames(), kPagesPerHuge);
    // The block is whole again and can be re-carved.
    EXPECT_TRUE(fa.allocateHuge().has_value());
}

TEST(FrameAllocatorHuge, SingleFrameOrderUnchangedByBookkeeping)
{
    // The block-occupancy bookkeeping must not perturb the 4 KiB
    // allocation order (bump then recycled-LIFO) that the bit-identical
    // THP-off contract depends on.
    FrameAllocator fa(16);
    ASSERT_EQ(fa.allocate().value(), 0u);
    ASSERT_EQ(fa.allocate().value(), 1u);
    const FrameNum a = fa.allocate().value();
    fa.free(1);
    fa.free(a);
    EXPECT_EQ(fa.allocate().value(), a);  // LIFO recycle.
    EXPECT_EQ(fa.allocate().value(), 1u);
    EXPECT_EQ(fa.allocate().value(), 3u);  // Bump resumes.
}

TEST(MemoryTierHuge, OwnerAccountingCoversWholeBlock)
{
    MemoryTier tier(makeDramParams(2 * kPagesPerHuge * kPageSize));
    const FrameNum base = tier.allocateHuge(FrameOwner::App).value();
    EXPECT_EQ(tier.ownerPages(FrameOwner::App), kPagesPerHuge);
    EXPECT_EQ(tier.usedPages(), kPagesPerHuge);
    tier.freeHuge(base, FrameOwner::App);
    EXPECT_EQ(tier.ownerPages(FrameOwner::App), 0u);
    EXPECT_EQ(tier.usedPages(), 0u);
}

// ----------------------------------------------------------- TierParams

TEST(TierParams, DramDefaults)
{
    const TierParams p = makeDramParams(16 * kMiB);
    EXPECT_EQ(p.name, "DRAM");
    EXPECT_EQ(p.totalPages(), 16 * kMiB / kPageSize);
    EXPECT_EQ(p.internalGranularity, kLineSize);
}

TEST(TierParams, NvmSlowerThanDram)
{
    const TierParams dram = makeDramParams(kMiB);
    const TierParams nvm = makeNvmParams(kMiB);
    // The paper's cited measurements: ~3x random, ~2x sequential.
    const double random_ratio =
        static_cast<double>(nvm.loadLatencyRandom) /
        static_cast<double>(dram.loadLatencyRandom);
    const double seq_ratio = static_cast<double>(nvm.loadLatencySeq) /
                             static_cast<double>(dram.loadLatencySeq);
    EXPECT_NEAR(random_ratio, 3.0, 0.3);
    EXPECT_NEAR(seq_ratio, 2.0, 0.3);
    EXPECT_GT(nvm.writeServiceCycles, dram.writeServiceCycles);
    EXPECT_EQ(nvm.internalGranularity, 256u);
}

// ----------------------------------------------------------- TierDevice

TEST(TierDevice, UncontendedLatencyMatchesParams)
{
    const TierParams p = makeDramParams(kMiB);
    TierDevice dev(p);
    EXPECT_EQ(dev.access(0, MemOp::Load, false), p.loadLatencyRandom);
    // Far-future access: channels idle again.
    EXPECT_EQ(dev.access(100000, MemOp::Load, true), p.loadLatencySeq);
}

TEST(TierDevice, StoreLatencyVisible)
{
    const TierParams p = makeNvmParams(kMiB);
    TierDevice dev(p);
    EXPECT_EQ(dev.access(0, MemOp::Store, true), p.storeLatency);
}

TEST(TierDevice, QueuingDelaysBursts)
{
    TierParams p = makeDramParams(kMiB);
    p.channels = 1;
    p.readServiceCycles = 10;
    TierDevice dev(p);
    const Cycles first = dev.access(0, MemOp::Load, false);
    // Same-instant second access must wait one service slot.
    const Cycles second = dev.access(0, MemOp::Load, false);
    EXPECT_EQ(first, p.loadLatencyRandom);
    EXPECT_EQ(second, p.loadLatencyRandom + 10);
    EXPECT_EQ(dev.totalQueueCycles(), 10u);
}

TEST(TierDevice, MultipleChannelsAbsorbBursts)
{
    TierParams p = makeDramParams(kMiB);
    p.channels = 4;
    TierDevice dev(p);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(dev.access(0, MemOp::Load, false), p.loadLatencyRandom);
    // Fifth concurrent access queues.
    EXPECT_GT(dev.access(0, MemOp::Load, false), p.loadLatencyRandom);
}

TEST(TierDevice, WriteAmplificationOnRandomNvmStores)
{
    TierParams p = makeNvmParams(kMiB);
    p.channels = 1;
    TierDevice dev(p);
    // A random sub-granularity store occupies the channel for the full
    // 256 B internal block: 4x the 64 B service time.
    dev.access(0, MemOp::Store, false);
    const Cycles next = dev.access(0, MemOp::Load, false);
    EXPECT_EQ(next, p.loadLatencyRandom + 4 * p.writeServiceCycles);
}

TEST(TierDevice, NoAmplificationOnSequentialNvmStores)
{
    TierParams p = makeNvmParams(kMiB);
    p.channels = 1;
    TierDevice dev(p);
    dev.access(0, MemOp::Store, true);
    const Cycles next = dev.access(0, MemOp::Load, false);
    EXPECT_EQ(next, p.loadLatencyRandom + p.writeServiceCycles);
}

TEST(TierDevice, ResetClearsChannels)
{
    TierParams p = makeDramParams(kMiB);
    p.channels = 1;
    TierDevice dev(p);
    dev.access(0, MemOp::Load, false);
    dev.reset();
    EXPECT_EQ(dev.access(0, MemOp::Load, false), p.loadLatencyRandom);
}

TEST(TierDevice, CountsAccesses)
{
    TierDevice dev(makeDramParams(kMiB));
    dev.access(0, MemOp::Load, false);
    dev.access(0, MemOp::Store, false);
    EXPECT_EQ(dev.accessCount(), 2u);
}

/**
 * The device model with the original compare-and-branch channel pick,
 * kept as the reference for the branch-free pick in TierDevice.
 */
struct ReferenceTierDevice
{
    explicit ReferenceTierDevice(const TierParams &params)
        : cfg(params),
          channelFree(static_cast<std::size_t>(params.channels), 0)
    {
    }

    Cycles
    access(Cycles now, MemOp op, bool sequential)
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < channelFree.size(); ++i) {
            if (channelFree[i] < channelFree[best])
                best = i;
        }
        Cycles start = std::max(now, channelFree[best]);
        Cycles wait = start - now;
        if (cfg.queueWaitCapCycles > 0 && wait > cfg.queueWaitCapCycles) {
            wait = cfg.queueWaitCapCycles;
            start = now + wait;
        }
        Cycles device;
        Cycles service;
        if (op == MemOp::Load) {
            device = sequential ? cfg.loadLatencySeq : cfg.loadLatencyRandom;
            service = cfg.readServiceCycles;
        } else {
            device = cfg.storeLatency;
            service = cfg.writeServiceCycles;
            if (!sequential && cfg.internalGranularity > kLineSize)
                service *= cfg.internalGranularity / kLineSize;
        }
        channelFree[best] = start + service;
        ++accesses;
        queueCycles += wait;
        return wait + device;
    }

    TierParams cfg;
    std::vector<Cycles> channelFree;
    std::uint64_t accesses = 0;
    std::uint64_t queueCycles = 0;
};

TEST(TierDevice, ChannelPickMatchesReferenceLoop)
{
    TierParams capped = makeNvmParams(kMiB);
    capped.queueWaitCapCycles = 200;
    TierParams one = makeDramParams(kMiB);
    one.channels = 1;
    const std::vector<TierParams> configs = {
        makeDramParams(kMiB), makeNvmParams(kMiB), capped, one};

    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (const std::uint64_t seed : {5u, 6u, 7u}) {
            SCOPED_TRACE(testing::Message() << "config " << c << " seed "
                                            << seed);
            TierDevice dev(configs[c]);
            ReferenceTierDevice ref(configs[c]);
            Rng rng(seed);
            Cycles now = 0;
            std::uint64_t ties = 0;
            for (int i = 0; i < 20000; ++i) {
                // One in eight accesses shares the previous instant
                // (bursts leave channels free at equal times, so the
                // pick must break ties to the lowest index), one in
                // eight follows an idle gap, the rest steady traffic.
                const std::uint64_t gap = rng.nextBounded(8);
                if (gap == 1)
                    now += 5000 + rng.nextBounded(5000);
                else if (gap > 1)
                    now += rng.nextBounded(60);
                const std::vector<Cycles> &free = dev.channelFreeTimes();
                for (std::size_t a = 0; a < free.size(); ++a) {
                    for (std::size_t b = a + 1; b < free.size(); ++b)
                        ties += free[a] == free[b];
                }
                const MemOp op =
                    rng.nextBool(0.3) ? MemOp::Store : MemOp::Load;
                const bool seq = rng.nextBool(0.5);
                ASSERT_EQ(dev.access(now, op, seq), ref.access(now, op, seq))
                    << "access " << i;
                ASSERT_EQ(dev.channelFreeTimes(), ref.channelFree)
                    << "access " << i;
            }
            EXPECT_EQ(dev.accessCount(), ref.accesses);
            EXPECT_EQ(dev.totalQueueCycles(), ref.queueCycles);
            if (configs[c].channels > 1) {
                EXPECT_GT(ties, 0u);
            }
        }
    }
}

// ----------------------------------------------------------- MemoryTier

TEST(MemoryTier, OwnerAccounting)
{
    MemoryTier tier(makeDramParams(64 * kPageSize));
    auto f1 = tier.allocate(FrameOwner::App);
    auto f2 = tier.allocate(FrameOwner::PageCache);
    ASSERT_TRUE(f1 && f2);
    EXPECT_EQ(tier.ownerPages(FrameOwner::App), 1u);
    EXPECT_EQ(tier.ownerPages(FrameOwner::PageCache), 1u);
    EXPECT_EQ(tier.usedPages(), 2u);
    tier.free(*f1, FrameOwner::App);
    EXPECT_EQ(tier.ownerPages(FrameOwner::App), 0u);
    EXPECT_EQ(tier.usedPages(), 1u);
}

TEST(MemoryTier, CapacityInPages)
{
    MemoryTier tier(makeNvmParams(16 * kPageSize));
    EXPECT_EQ(tier.totalPages(), 16u);
    EXPECT_EQ(tier.freePages(), 16u);
    for (int i = 0; i < 16; ++i)
        ASSERT_TRUE(tier.allocate(FrameOwner::App).has_value());
    EXPECT_FALSE(tier.allocate(FrameOwner::App).has_value());
    EXPECT_EQ(tier.usedBytes(), 16 * kPageSize);
}

// Parameterized sanity sweep: the device never returns a latency below
// its configured floor, at any utilization.
class TierDeviceLoad : public ::testing::TestWithParam<int>
{
};

TEST_P(TierDeviceLoad, LatencyNeverBelowDeviceFloor)
{
    TierParams p = makeNvmParams(kMiB);
    p.channels = GetParam();
    TierDevice dev(p);
    Cycles now = 0;
    for (int i = 0; i < 1000; ++i) {
        const Cycles lat = dev.access(now, MemOp::Load, false);
        EXPECT_GE(lat, p.loadLatencyRandom);
        now += 3;  // Heavy offered load.
    }
    // Queuing appears whenever the offered load exceeds capacity
    // (service/channels per cycle); 12 channels absorb this load.
    if (GetParam() <= 6) {
        EXPECT_GT(dev.totalQueueCycles(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Channels, TierDeviceLoad,
                         ::testing::Values(1, 2, 6, 12));

// ----------------------------------------------------------- CopyEngine

TEST(CopyEngine, SingleWorkerReturnsLegacyCostVerbatim)
{
    CopyEngine ce(CopyEngineParams{1, 16});
    EXPECT_FALSE(ce.parallel());
    EXPECT_EQ(ce.copy(1000, kPageSize, 7000), 7000u);
    EXPECT_EQ(ce.copy(9999, 2 * kMiB, 123456), 123456u);
    EXPECT_EQ(ce.bytesCopied(), kPageSize + 2 * kMiB);
    EXPECT_EQ(ce.chargedCycles(), 7000u + 123456u);
    EXPECT_EQ(ce.parallelCopies(), 0u);
    EXPECT_EQ(ce.queuedChunks(), 0u);
}

TEST(CopyEngine, SingleWorkerBackgroundIsNoOp)
{
    // The legacy model never surfaced demotion copy time, so with one
    // worker background work must not move any counter.
    CopyEngine ce(CopyEngineParams{1, 16});
    ce.background(0, 2 * kMiB, 50000);
    EXPECT_EQ(ce.bytesCopied(), 0u);
    EXPECT_EQ(ce.busyCycles(), 0u);
    EXPECT_EQ(ce.chunks(), 0u);
}

TEST(CopyEngine, HugeCopyFansOutAcrossIdleWorkers)
{
    // 2 MiB on 4 workers: 32 chunks of 16 pages, each an exact 1/32
    // share of the legacy cost -> completion is exactly legacy/4.
    CopyEngine ce(CopyEngineParams{4, 16});
    EXPECT_TRUE(ce.parallel());
    const Cycles charged = ce.copy(0, 2 * kMiB, 32000);
    EXPECT_EQ(charged, 8000u);
    EXPECT_EQ(ce.chunks(), 32u);
    EXPECT_EQ(ce.parallelCopies(), 1u);
    // Workers stayed saturated: the whole legacy cost is busy time.
    EXPECT_EQ(ce.busyCycles(), 32000u);
}

TEST(CopyEngine, SmallExchangeShrinksChunksToReachTwoWorkers)
{
    // An 8 KiB exchange is far below the 64 KiB chunk default; the
    // engine halves the chunk towards page granularity so both page
    // copies still overlap on two workers.
    CopyEngine ce(CopyEngineParams{4, 16});
    const Cycles charged = ce.copy(0, 2 * kPageSize, 7000);
    EXPECT_EQ(charged, 3500u);
    EXPECT_EQ(ce.chunks(), 2u);
    EXPECT_EQ(ce.parallelCopies(), 1u);
}

TEST(CopyEngine, ProportionalSharesSumExactlyToLegacyCost)
{
    // Odd byte/cycle ratios must not leak rounding error: the chunk
    // shares are cumulative-boundary differences, so serialized on one
    // busy worker they recover the legacy total exactly.
    CopyEngine ce(CopyEngineParams{2, 1});
    const std::uint64_t bytes = 5 * kPageSize;  // 5 chunks on 2 workers.
    const Cycles legacy = 9999;
    ce.copy(0, bytes, legacy);
    EXPECT_EQ(ce.busyCycles(), legacy);
    EXPECT_EQ(ce.chunks(), 5u);
    EXPECT_GT(ce.queuedChunks(), 0u);  // 5 chunks > 2 workers.
}

TEST(CopyEngine, BackgroundOccupiesWorkersWithoutCharging)
{
    CopyEngine ce(CopyEngineParams{2, 16});
    ce.background(0, 2 * kMiB, 40000);
    EXPECT_EQ(ce.chargedCycles(), 0u);
    EXPECT_GT(ce.busyCycles(), 0u);
    // A foreground copy right behind it queues on the busy pool and
    // pays for the wait -- the copy/execution overlap is visible.
    const Cycles charged = ce.copy(0, 2 * kPageSize, 1000);
    EXPECT_GT(charged, 1000u);
    EXPECT_GT(ce.queuedChunks(), 0u);
}

TEST(CopyEngine, ScheduleIsDeterministic)
{
    CopyEngine a(CopyEngineParams{3, 4});
    CopyEngine b(CopyEngineParams{3, 4});
    for (int i = 0; i < 50; ++i) {
        const Cycles now = static_cast<Cycles>(i) * 777;
        const std::uint64_t bytes = (i % 7 + 1) * kPageSize;
        EXPECT_EQ(a.copy(now, bytes, 1000 + i),
                  b.copy(now, bytes, 1000 + i));
        if (i % 3 == 0) {
            a.background(now, 2 * kMiB, 9000);
            b.background(now, 2 * kMiB, 9000);
        }
    }
    EXPECT_EQ(a.chargedCycles(), b.chargedCycles());
    EXPECT_EQ(a.busyCycles(), b.busyCycles());
    EXPECT_EQ(a.queuedChunks(), b.queuedChunks());
    EXPECT_EQ(a.parallelCopies(), b.parallelCopies());
}

// ---------------------------------------------- Copy-engine vmstat surface

/** Shootdown sink for kernel-level tests (engine not involved). */
class NullShootdown : public TlbShootdownClient
{
  public:
    void tlbShootdown(PageNum) override {}
    void tlbShootdownHuge(PageNum) override {}
};

/** A migration-heavy PageRank run (DRAM overcommitted ~4x). */
RunConfig
migrationHeavyConfig()
{
    RunConfig rc;
    rc.workload.app = App::PR;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 12;
    rc.workload.trials = 2;
    rc.sampling = false;
    rc.sys.dram = makeDramParams(192 * kPageSize);
    rc.sys.nvm = makeNvmParams(4096 * kPageSize);
    rc.sys.autonuma.scanPeriod = secondsToCycles(0.0005);
    rc.sys.autonuma.adjustPeriod = secondsToCycles(0.002);
    return rc;
}

TEST(CopyEngineVmstat, ParallelCountersSurfaceOnlyWhenParallel)
{
    RunConfig rc = migrationHeavyConfig();
    const RunResult serial = runWorkload(rc);
    EXPECT_EQ(serial.vmstat.pgcopyChunks, 0u);
    EXPECT_EQ(serial.vmstat.pgcopyParallel, 0u);
    EXPECT_EQ(serial.vmstat.pgcopyQueuedChunks, 0u);
    EXPECT_EQ(serial.vmstat.pgcopyBusyCycles, 0u);
    // The single-worker engine still meters bytes for bandwidth
    // reporting.
    EXPECT_GT(serial.copyBytes, 0u);
    EXPECT_GT(serial.copyChargedCycles, 0u);

    rc.sys.kernel.copyThreads = 4;
    const RunResult par = runWorkload(rc);
    EXPECT_GT(par.vmstat.pgcopyChunks, 0u);
    EXPECT_GT(par.vmstat.pgcopyBusyCycles, 0u);
    // Faster copies legitimately change the simulated trajectory (the
    // machine is different), but never the application's answer.
    EXPECT_EQ(par.outputChecksum, serial.outputChecksum);
}

/**
 * Deterministic huge-promotion storm: land 8 huge pages on NVM behind
 * a DRAM filler, free the filler, then promote each 2 MiB page with
 * plenty of simulated time between copies (idle pool). Returns the
 * copy engine's effective bandwidth in bytes/second.
 */
double
promotionStormBandwidth(std::uint32_t copy_workers, VmStat *vm_out)
{
    KernelParams kp;
    kp.thp.enabled = true;
    kp.copyThreads = copy_workers;
    PhysicalMemory phys(
        makeDramParams(12 * kPagesPerHuge * kPageSize),
        makeNvmParams(16 * kPagesPerHuge * kPageSize));
    Kernel kern(phys, kp);
    NullShootdown sink;
    kern.setShootdownClient(&sink);

    // Occupy DRAM so the huge allocations land on NVM.
    const Addr filler =
        kern.mmap(0, 12 * kPagesPerHuge * kPageSize, 0, "filler");
    for (std::uint64_t i = 0; i < 12 * kPagesPerHuge; ++i)
        kern.touchPage(pageOf(filler) + i, 1000 + i, MemOp::Store);

    constexpr int kHuge = 8;
    PageNum bases[kHuge];
    for (int h = 0; h < kHuge; ++h) {
        const Addr a = kern.mmap(0, kHugePageSize, 1 + h, "huge");
        kern.touchPage(pageOf(a), 900000 + h, MemOp::Store);
        bases[h] = pageOf(a);
        EXPECT_TRUE(kern.isHugeMapped(bases[h]));
        EXPECT_EQ(kern.nodeOf(bases[h]), MemNode::NVM);
    }
    kern.munmap(1000000, filler);

    Cycles now = 2000000;
    for (int h = 0; h < kHuge; ++h) {
        EXPECT_GT(kern.promotePage(bases[h] + 123, now), 0u);
        EXPECT_TRUE(kern.isHugeMapped(bases[h]));
        now += 10000000;  // Pool drains fully between copies.
    }
    if (vm_out != nullptr)
        *vm_out = kern.vmstat();
    const CopyEngine &ce = kern.copyEngine();
    EXPECT_GE(ce.bytesCopied(), kHuge * kHugePageSize);
    return static_cast<double>(ce.bytesCopied()) /
           cyclesToSeconds(ce.chargedCycles());
}

TEST(CopyEngineVmstat, FourWorkersSpeedUpMigrationBandwidth)
{
    // THP promotions move 2 MiB per copy -- the copies that actually
    // fan out. (A 4 KiB promotion is a single chunk on any pool.)
    VmStat vm1, vm4;
    const double bw1 = promotionStormBandwidth(1, &vm1);
    const double bw4 = promotionStormBandwidth(4, &vm4);
    // At least 2x at 4 workers; an idle pool actually reaches 4x (32
    // equal chunks over 4 workers).
    EXPECT_GE(bw4, 2.0 * bw1);
    // The vmstat surface: counters move only on the parallel pool.
    EXPECT_EQ(vm1.pgcopyParallel, 0u);
    EXPECT_EQ(vm1.pgcopyChunks, 0u);
    EXPECT_GE(vm4.pgcopyParallel, 8u);
    EXPECT_GT(vm4.pgcopyChunks, 0u);
}

}  // namespace
}  // namespace memtier
