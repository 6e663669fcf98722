/**
 * @file
 * Unit tests for the AutoNUMA tiering policy: scanning, hint-fault
 * classification, threshold adaptation, rate limiting, promotion paths.
 */

#include <gtest/gtest.h>

#include "policy/autonuma.h"
#include "os/kernel.h"
#include "os/physical_memory.h"

namespace memtier {
namespace {

class NullShootdown : public TlbShootdownClient
{
  public:
    void tlbShootdown(PageNum) override { ++count; }
    std::uint64_t count = 0;
};

class AutoNumaTest : public ::testing::Test
{
  protected:
    AutoNumaTest()
        : phys(makeDramParams(kDramPages * kPageSize),
               makeNvmParams(kNvmPages * kPageSize)),
          kern(phys, KernelParams{})
    {
        kern.setShootdownClient(&sd);
        params.scanPeriod = secondsToCycles(0.001);
        params.scanPagesPerRound = 64;
        params.initialThreshold = secondsToCycles(0.01);
        params.adjustPeriod = secondsToCycles(0.01);
        params.rateLimitBytesPerSec = 100 * kMiB;  // Effectively off.
        install();
    }

    /** Build the policy from @p params and install it in the kernel. */
    void
    install()
    {
        numa = std::make_unique<AutoNuma>(kern, params);
        kern.setTieringPolicy(numa.get());
    }

    /** Map and first-touch @p pages pages; returns the base address. */
    Addr
    populate(std::uint64_t pages, const char *site = "obj")
    {
        const Addr a = kern.mmap(0, pages * kPageSize, nextObj++, site);
        for (std::uint64_t i = 0; i < pages; ++i)
            kern.touchPage(pageOf(a) + i, 100 + i, MemOp::Store);
        return a;
    }

    /** Run enough scan rounds (at increasing times near @p base) to
     *  cover every resident page once. */
    void
    scanAll(Cycles base)
    {
        for (int round = 0; round < 8; ++round)
            numa->scanTick(base + round * 1000);
    }

    static constexpr std::uint64_t kDramPages = 128;
    static constexpr std::uint64_t kNvmPages = 512;

    PhysicalMemory phys;
    NullShootdown sd;
    Kernel kern;
    AutoNumaParams params;
    std::unique_ptr<AutoNuma> numa;
    ObjectId nextObj = 0;
};

TEST_F(AutoNumaTest, ScannerMarksPresentPages)
{
    populate(32);
    numa->scanTick(secondsToCycles(0.5));
    EXPECT_EQ(numa->stats().pagesScanned, 32u);
    // Scanned pages got PROT_NONE and a shootdown.
    EXPECT_GE(sd.count, 32u);
}

TEST_F(AutoNumaTest, ScannerRespectsRoundBudget)
{
    populate(200);
    numa->scanTick(secondsToCycles(0.5));
    EXPECT_EQ(numa->stats().pagesScanned, 64u);  // scanPagesPerRound.
    numa->scanTick(secondsToCycles(0.51));
    EXPECT_EQ(numa->stats().pagesScanned, 128u);
}

TEST_F(AutoNumaTest, ScannerSkipsPinnedRegions)
{
    const Addr a = kern.mmap(0, 8 * kPageSize, nextObj++, "pinned");
    kern.mbind(a, MemPolicy::bind(MemNode::NVM));
    for (std::uint64_t i = 0; i < 8; ++i)
        kern.touchPage(pageOf(a) + i, 100 + i, MemOp::Store);
    numa->scanTick(secondsToCycles(0.5));
    EXPECT_EQ(numa->stats().pagesScanned, 0u);
}

TEST_F(AutoNumaTest, ScannerSkipsPageCache)
{
    const Addr f = kern.registerFile(8 * kPageSize, "file");
    for (std::uint64_t i = 0; i < 8; ++i)
        kern.ensureCached(pageOf(f) + i, 100);
    numa->scanTick(secondsToCycles(0.5));
    EXPECT_EQ(numa->stats().pagesScanned, 0u);
}

TEST_F(AutoNumaTest, HintFaultFeedsLatencyStats)
{
    const Addr a = populate(4);
    numa->scanTick(secondsToCycles(0.5));
    kern.touchPage(pageOf(a), secondsToCycles(0.6), MemOp::Load);
    EXPECT_EQ(numa->stats().hintFaults, 1u);
    EXPECT_EQ(numa->stats().hintLatencySeconds.count(), 1u);
    EXPECT_NEAR(numa->stats().hintLatencySeconds.max(), 0.1, 1e-6);
}

TEST_F(AutoNumaTest, NvmHintFaultPromotesWhenDramFree)
{
    // Get pages onto NVM by exhausting DRAM first.
    populate(kDramPages);          // Fills DRAM.
    const Addr b = populate(16);   // Overflows to NVM.
    ASSERT_EQ(kern.nodeOf(pageOf(b) + 15), MemNode::NVM);

    // Free the DRAM hog so the free-capacity fast path applies.
    // (munmap the first object.)
    const auto &vmas = kern.addressSpace().vmas();
    kern.munmap(secondsToCycles(0.4), vmas.begin()->first);
    ASSERT_TRUE(kern.dramHasFreeCapacity());

    numa->scanTick(secondsToCycles(0.5));
    const PageNum vpn = pageOf(b) + 15;
    ASSERT_TRUE(kern.pageMeta(vpn)->protNone);
    kern.touchPage(vpn, secondsToCycles(0.5001), MemOp::Load);
    EXPECT_EQ(kern.nodeOf(vpn), MemNode::DRAM);
    EXPECT_EQ(numa->stats().promotedFreePath, 1u);
    EXPECT_EQ(kern.vmstat().pgpromoteSuccess, 1u);
}

TEST_F(AutoNumaTest, ColdPageRejectedByThresholdWhenDramFull)
{
    populate(kDramPages);        // DRAM full (no free capacity).
    const Addr b = populate(8);  // NVM resident.
    ASSERT_EQ(kern.nodeOf(pageOf(b)), MemNode::NVM);
    scanAll(secondsToCycles(0.5));
    ASSERT_TRUE(kern.pageMeta(pageOf(b))->protNone);
    // Touch far beyond the 10 ms threshold -> classified cold.
    kern.touchPage(pageOf(b), secondsToCycles(2.0), MemOp::Load);
    EXPECT_EQ(numa->stats().rejectedByThreshold, 1u);
    EXPECT_EQ(kern.vmstat().pgpromoteSuccess, 0u);
}

TEST_F(AutoNumaTest, HotPagePromotedThroughThresholdPath)
{
    populate(kDramPages - 8);    // DRAM nearly full...
    const Addr pad = populate(16);  // ...now full; rest NVM.
    (void)pad;
    const Addr b = populate(8);  // NVM resident.
    ASSERT_FALSE(kern.dramHasFreeCapacity());
    ASSERT_EQ(kern.nodeOf(pageOf(b)), MemNode::NVM);

    scanAll(secondsToCycles(0.5));
    ASSERT_TRUE(kern.pageMeta(pageOf(b))->protNone);
    // Touch almost immediately: hint fault latency ~0 -> hot.
    kern.touchPage(pageOf(b), secondsToCycles(0.51), MemOp::Load);
    EXPECT_EQ(numa->stats().promotedThresholdPath, 1u);
    EXPECT_EQ(kern.vmstat().promoteCandidates, 1u);
    EXPECT_EQ(kern.nodeOf(pageOf(b)), MemNode::DRAM);
}

TEST_F(AutoNumaTest, RateLimitBlocksPromotionBurst)
{
    params.rateLimitBytesPerSec = kPageSize;  // One page per second.
    install();

    populate(kDramPages);
    const Addr b = populate(8);
    scanAll(secondsToCycles(0.5));
    // Two immediate hot touches: first promoted, second rate limited.
    kern.touchPage(pageOf(b), secondsToCycles(0.51), MemOp::Load);
    kern.touchPage(pageOf(b) + 1, secondsToCycles(0.51) + 100,
                   MemOp::Load);
    const AutoNumaStats &st = numa->stats();
    EXPECT_EQ(st.promotedThresholdPath + st.promotedFreePath, 1u);
    EXPECT_EQ(st.rejectedByRateLimit, 1u);
    EXPECT_EQ(kern.vmstat().promoteRateLimited, 1u);
}

TEST_F(AutoNumaTest, ThresholdDecreasesUnderCandidatePressure)
{
    params.rateLimitBytesPerSec = kPageSize;  // Tiny budget.
    install();
    const Cycles th0 = numa->threshold();

    populate(kDramPages);
    const Addr b = populate(16);
    // Generate candidate pressure across adjustment windows.
    Cycles now = secondsToCycles(0.5);
    for (int round = 0; round < 6; ++round) {
        numa->scanTick(now);
        for (std::uint64_t i = 0; i < 16; ++i)
            kern.touchPage(pageOf(b) + i, now + 1000 + i, MemOp::Load);
        now += params.adjustPeriod + 1;
    }
    EXPECT_LT(numa->threshold(), th0);
}

TEST_F(AutoNumaTest, ThresholdRecoversWhenQuiet)
{
    const Cycles th0 = numa->threshold();
    Cycles now = secondsToCycles(0.5);
    populate(4);
    for (int round = 0; round < 8; ++round) {
        numa->scanTick(now);
        now += params.adjustPeriod + 1;
    }
    EXPECT_GE(numa->threshold(), th0);  // Drifts up, clamped at max.
    EXPECT_LE(numa->threshold(), params.thresholdMax);
}

TEST_F(AutoNumaTest, DramHintFaultNeverPromotes)
{
    const Addr a = populate(4);  // DRAM resident.
    numa->scanTick(secondsToCycles(0.5));
    kern.touchPage(pageOf(a), secondsToCycles(0.50001), MemOp::Load);
    EXPECT_EQ(numa->stats().hintFaults, 1u);
    EXPECT_EQ(numa->stats().hintFaultsNvm, 0u);
    EXPECT_EQ(kern.vmstat().pgpromoteSuccess, 0u);
}

TEST_F(AutoNumaTest, RateLimitSurvivesNonMonotonicClocks)
{
    // Regression: hint faults arrive stamped with per-thread clocks,
    // which are not globally monotone. A backwards timestamp must not
    // refill the token bucket (unsigned underflow would set elapsed to
    // ~2^64 cycles and disable the limiter entirely).
    params.rateLimitBytesPerSec = kPageSize;  // One page per second.
    install();

    populate(kDramPages);
    const Addr b = populate(8);
    scanAll(secondsToCycles(0.5));

    // First hot touch at t=0.51 s consumes the bucket.
    kern.touchPage(pageOf(b), secondsToCycles(0.51), MemOp::Load);
    // Second touch from a "different thread" whose clock is behind:
    // must be rate limited, not treated as a huge refill.
    kern.touchPage(pageOf(b) + 1, secondsToCycles(0.4), MemOp::Load);
    const AutoNumaStats &st = numa->stats();
    EXPECT_EQ(st.promotedThresholdPath + st.promotedFreePath, 1u);
    EXPECT_EQ(st.rejectedByRateLimit, 1u);
}

TEST_F(AutoNumaTest, RescanAfterWrapMarksAgain)
{
    const Addr a = populate(8);
    numa->scanTick(secondsToCycles(0.5));
    // Clear marks via touches.
    for (std::uint64_t i = 0; i < 8; ++i)
        kern.touchPage(pageOf(a) + i, secondsToCycles(0.6), MemOp::Load);
    numa->scanTick(secondsToCycles(0.7));
    EXPECT_EQ(numa->stats().pagesScanned, 16u);
}

}  // namespace
}  // namespace memtier
