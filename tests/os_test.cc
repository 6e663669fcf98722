/**
 * @file
 * Unit tests for the OS substrate: address space, page table, fault
 * handling with NUMA policies, page cache, reclaim/demotion and the
 * vmstat counters.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <type_traits>
#include <vector>

#include "base/rng.h"
#include "os/address_space.h"
#include "os/kernel.h"
#include "os/page_table.h"
#include "os/physical_memory.h"

namespace memtier {
namespace {

/** Counts shootdowns so tests can assert TLB coherence actions. */
class RecordingShootdown : public TlbShootdownClient
{
  public:
    void tlbShootdown(PageNum vpn) override
    {
        ++count;
        last = vpn;
    }

    std::uint64_t count = 0;
    PageNum last = 0;
};

/** A machine with tiny tiers so capacity effects are easy to trigger. */
class KernelTest : public ::testing::Test
{
  protected:
    KernelTest()
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

    static constexpr std::uint64_t kDramPages = 256;
    static constexpr std::uint64_t kNvmPages = 1024;

    PhysicalMemory phys;
    RecordingShootdown shootdown;
    Kernel kern;
};

// --------------------------------------------------------- AddressSpace

TEST(AddressSpace, MmapRoundsToPages)
{
    AddressSpace space;
    const Addr a = space.mmap(100, 0, "x");
    const Vma *vma = space.find(a);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->pages(), 1u);
    EXPECT_EQ(vma->site, "x");
}

TEST(AddressSpace, GuardPageSeparatesRegions)
{
    AddressSpace space;
    const Addr a = space.mmap(kPageSize, 0, "a");
    const Addr b = space.mmap(kPageSize, 1, "b");
    EXPECT_GE(b, a + 2 * kPageSize);  // One guard page minimum.
    EXPECT_EQ(space.find(a + kPageSize), nullptr);  // Guard unmapped.
}

TEST(AddressSpace, FindByInteriorAddress)
{
    AddressSpace space;
    const Addr a = space.mmap(4 * kPageSize, 7, "r");
    const Vma *vma = space.find(a + 3 * kPageSize + 17);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->object, 7);
}

TEST(AddressSpace, MunmapRemoves)
{
    AddressSpace space;
    const Addr a = space.mmap(kPageSize, 0, "r");
    const Vma removed = space.munmap(a);
    EXPECT_EQ(removed.start, a);
    EXPECT_EQ(space.find(a), nullptr);
}

TEST(AddressSpace, AddressesNeverReused)
{
    AddressSpace space;
    const Addr a = space.mmap(kPageSize, 0, "r");
    space.munmap(a);
    const Addr b = space.mmap(kPageSize, 1, "r");
    EXPECT_NE(a, b);
}

TEST(AddressSpace, MbindUpdatesPolicy)
{
    AddressSpace space;
    const Addr a = space.mmap(kPageSize, 0, "r");
    space.mbind(a, MemPolicy::bind(MemNode::NVM));
    EXPECT_EQ(space.find(a)->policy.mode, MemPolicy::Mode::Bind);
    EXPECT_EQ(space.find(a)->policy.node, MemNode::NVM);
}

TEST(AddressSpace, HugeAlignmentPlacesVmasOnPmdBoundaries)
{
    AddressSpace space;
    space.setHugeAlignment(true);
    const Addr a = space.mmap(3 * kPageSize, 0, "a");
    const Addr b = space.mmap(kHugePageSize + kPageSize, 1, "b");
    EXPECT_EQ(a % kHugePageSize, 0u);
    EXPECT_EQ(b % kHugePageSize, 0u);
    EXPECT_GE(b, a + 3 * kPageSize + kPageSize);  // Guard page kept.
}

TEST(AddressSpace, DefaultLayoutUnchangedWithoutHugeAlignment)
{
    // Regression: the 4 KiB-only layout must stay exactly as it was
    // before THP existed — base address, page rounding, one guard page.
    AddressSpace space;
    EXPECT_FALSE(space.hugeAlignment());
    const Addr a = space.mmap(3 * kPageSize, 0, "a");
    const Addr b = space.mmap(100, 1, "b");
    EXPECT_EQ(a, 0x1'0000'0000ULL);
    EXPECT_EQ(b, a + 3 * kPageSize + kPageSize);
}

// ------------------------------------------------------------ MemPolicy

TEST(MemPolicy, SplitAssignsByPageIndex)
{
    const MemPolicy p = MemPolicy::split(3);
    EXPECT_EQ(p.nodeForPage(0), MemNode::DRAM);
    EXPECT_EQ(p.nodeForPage(2), MemNode::DRAM);
    EXPECT_EQ(p.nodeForPage(3), MemNode::NVM);
    EXPECT_TRUE(p.pinned());
}

TEST(MemPolicy, DefaultNotPinned)
{
    EXPECT_FALSE(MemPolicy{}.pinned());
    EXPECT_TRUE(MemPolicy::bind(MemNode::DRAM).pinned());
}

// ------------------------------------------------------------ PageTable

TEST(PageTable, InsertFindErase)
{
    PageTable pt;
    EXPECT_EQ(pt.find(5), nullptr);
    PageMeta &meta = pt.insert(5);
    meta.present = true;
    EXPECT_NE(pt.find(5), nullptr);
    EXPECT_TRUE(pt.find(5)->present);
    pt.erase(5);
    EXPECT_EQ(pt.find(5), nullptr);
    EXPECT_EQ(pt.size(), 0u);
}

/**
 * Reference model of the page table's contract over ordered maps: a
 * PTE map and a PMD map keyed by 2 MiB base vpn. Each entry carries a
 * unique tag in PageMeta::frame so lookups can tell entries apart.
 */
struct RefPageTable
{
    std::map<PageNum, FrameNum> pte;
    std::map<PageNum, FrameNum> pmd;
};

/** Every observable of @p pt agrees with @p ref. */
void
expectMatchesReference(const PageTable &pt, const RefPageTable &ref)
{
    ASSERT_EQ(pt.size(), ref.pte.size());
    ASSERT_EQ(pt.hugeSize(), ref.pmd.size());
    std::map<PageNum, FrameNum> seen;
    PageNum prev = 0;
    bool first = true;
    pt.forEach([&](PageNum vpn, const PageMeta &m) {
        EXPECT_TRUE(first || vpn > prev) << "forEach out of vpn order";
        first = false;
        prev = vpn;
        EXPECT_FALSE(m.huge);
        seen.emplace(vpn, m.frame);
    });
    EXPECT_EQ(seen, ref.pte);
    seen.clear();
    first = true;
    pt.forEachHuge([&](PageNum base, const PageMeta &m) {
        EXPECT_TRUE(first || base > prev) << "forEachHuge out of order";
        first = false;
        prev = base;
        EXPECT_TRUE(m.huge);
        seen.emplace(base, m.frame);
    });
    EXPECT_EQ(seen, ref.pmd);
}

TEST(PageTable, DifferentialAgainstOrderedMapModel)
{
    // vpn pool: three adjacent 2 MiB ranges at the mmap base (dense,
    // clustered) plus ranges far apart, so the directory grows in
    // several steps while earlier leaves are live.
    const PageNum clustered = PageNum{1} << 20;
    const std::vector<PageNum> ranges = {
        clustered, clustered + kPagesPerHuge, clustered + 2 * kPagesPerHuge,
        PageNum{1} << 22, (PageNum{1} << 26) + 5 * kPagesPerHuge,
        PageNum{3} << 9};

    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        PageTable pt;
        RefPageTable ref;
        FrameNum tag = 0;
        const auto pick_vpn = [&] {
            const PageNum base = ranges[rng.nextBounded(ranges.size())];
            // Mostly a handful of slots per range so entries collide.
            return base + (rng.nextBool(0.7) ? rng.nextBounded(8)
                                             : rng.nextBounded(
                                                   kPagesPerHuge));
        };
        for (int op = 0; op < 20000; ++op) {
            const PageNum vpn = pick_vpn();
            const PageNum base = hugeBaseOf(vpn);
            switch (rng.nextBounded(6)) {
              case 0:
              case 1:
                if (ref.pte.count(vpn) == 0) {
                    PageMeta &m = pt.insert(vpn);
                    EXPECT_FALSE(m.present);
                    EXPECT_EQ(m.lastAccess, 0u);
                    m.frame = ++tag;
                    m.present = true;
                    ref.pte[vpn] = tag;
                }
                break;
              case 2:
                if (ref.pte.count(vpn) != 0) {
                    pt.erase(vpn);
                    ref.pte.erase(vpn);
                }
                break;
              case 3:
                if (ref.pmd.count(base) == 0 && rng.nextBool(0.3)) {
                    PageMeta &m = pt.insertHuge(base);
                    EXPECT_TRUE(m.huge);
                    EXPECT_FALSE(m.present);
                    m.frame = ++tag;
                    ref.pmd[base] = tag;
                } else if (ref.pmd.count(base) != 0) {
                    pt.eraseHuge(base);
                    ref.pmd.erase(base);
                }
                break;
              default: {
                const auto it = ref.pte.find(vpn);
                const PageMeta *m = pt.find(vpn);
                ASSERT_EQ(m != nullptr, it != ref.pte.end()) << vpn;
                if (m != nullptr) {
                    EXPECT_EQ(m->frame, it->second);
                }
                const auto hit = ref.pmd.find(base);
                const PageMeta *hm = pt.findHuge(vpn);
                ASSERT_EQ(hm != nullptr, hit != ref.pmd.end()) << vpn;
                if (hm != nullptr) {
                    EXPECT_EQ(hm->frame, hit->second);
                }
                break;
              }
            }
            if (op % 997 == 0)
                expectMatchesReference(pt, ref);
        }
        expectMatchesReference(pt, ref);
        // Unmapped pages beyond every leaf and the directory.
        EXPECT_EQ(pt.find(0), nullptr);
        EXPECT_EQ(pt.find(PageNum{1} << 30), nullptr);
        EXPECT_EQ(pt.findHuge(PageNum{1} << 30), nullptr);
    }
}

TEST(PageTable, LeafEmptiedAndRefilledStartsFresh)
{
    PageTable pt;
    const PageNum base = PageNum{1} << 20;
    for (PageNum p = base; p < base + kPagesPerHuge; ++p) {
        PageMeta &m = pt.insert(p);
        m.present = true;
        m.lastAccess = 7;
    }
    EXPECT_EQ(pt.size(), kPagesPerHuge);
    for (PageNum p = base; p < base + kPagesPerHuge; ++p)
        pt.erase(p);
    EXPECT_EQ(pt.size(), 0u);
    EXPECT_EQ(pt.find(base), nullptr);
    std::size_t visited = 0;
    pt.forEach([&](PageNum, const PageMeta &) { ++visited; });
    EXPECT_EQ(visited, 0u);

    // Refilled slots hold fresh metadata, not the erased entries'.
    const PageMeta &again = pt.insert(base + 3);
    EXPECT_FALSE(again.present);
    EXPECT_EQ(again.lastAccess, 0u);
    EXPECT_EQ(pt.find(base + 4), nullptr);

    // A PMD alone keeps the leaf; erasing the last PTE then the PMD
    // empties it, and the range maps again from scratch.
    pt.insertHuge(base).lastAccess = 9;
    pt.erase(base + 3);
    ASSERT_NE(pt.findHuge(base + 100), nullptr);
    EXPECT_EQ(pt.findHuge(base + 100)->lastAccess, 9u);
    pt.eraseHuge(base);
    EXPECT_EQ(pt.findHuge(base), nullptr);
    EXPECT_EQ(pt.hugeSize(), 0u);
    EXPECT_EQ(pt.insertHuge(base).lastAccess, 0u);
}

TEST(PageTable, HeldMetaSurvivesChurnInItsLeaf)
{
    PageTable pt;
    const PageNum base = PageNum{1} << 20;
    const PageNum held_vpn = base + 17;
    PageMeta *held = &pt.insert(held_vpn);
    held->frame = 4242;
    held->lastAccess = 99;

    Rng rng(11);
    for (int round = 0; round < 4; ++round) {
        // Fill and drain every other slot of the range, map and unmap
        // its PMD, and grow the directory far past the held leaf.
        for (PageNum p = base; p < base + kPagesPerHuge; ++p) {
            if (p != held_vpn)
                pt.insert(p).frame = p;
        }
        pt.insertHuge(base);
        pt.insert((PageNum{1} << 24) + round * kPagesPerHuge +
                  rng.nextBounded(kPagesPerHuge));
        for (PageNum p = base; p < base + kPagesPerHuge; ++p) {
            if (p != held_vpn)
                pt.erase(p);
        }
        pt.eraseHuge(base);
        ASSERT_EQ(pt.find(held_vpn), held);
        EXPECT_EQ(held->frame, 4242u);
        EXPECT_EQ(held->lastAccess, 99u);
    }
    EXPECT_EQ(pt.size(), 5u);
    pt.erase(held_vpn);
    EXPECT_EQ(pt.find(held_vpn), nullptr);
}

// --------------------------------------------------- Kernel fault paths

TEST_F(KernelTest, FirstTouchAllocatesDram)
{
    const Addr a = kern.mmap(0, 8 * kPageSize, 0, "obj");
    const TouchResult r = kern.touchPage(pageOf(a), 10, MemOp::Load);
    EXPECT_TRUE(r.pageFault);
    EXPECT_EQ(r.node, MemNode::DRAM);
    EXPECT_EQ(kern.vmstat().pgfault, 1u);
    EXPECT_EQ(kern.nodeOf(pageOf(a)), MemNode::DRAM);
}

TEST_F(KernelTest, SecondTouchNoFault)
{
    const Addr a = kern.mmap(0, kPageSize, 0, "obj");
    kern.touchPage(pageOf(a), 10, MemOp::Load);
    const TouchResult r = kern.touchPage(pageOf(a), 20, MemOp::Load);
    EXPECT_FALSE(r.pageFault);
    EXPECT_EQ(r.cost, 0u);
    EXPECT_EQ(kern.vmstat().pgfault, 1u);
}

TEST_F(KernelTest, DramExhaustionFallsBackToNvm)
{
    // Finding 3: default policy is DRAM while space lasts, then NVM.
    const Addr a =
        kern.mmap(0, (kDramPages + 64) * kPageSize, 0, "big");
    touchRange(a, kDramPages + 64);
    const auto stat = kern.numastat();
    EXPECT_GT(stat.appPages[0], 0u);   // Some pages on DRAM.
    EXPECT_GT(stat.appPages[1], 0u);   // Overflow on NVM.
    // The first-touched pages are the DRAM ones.
    EXPECT_EQ(kern.nodeOf(pageOf(a)), MemNode::DRAM);
    EXPECT_EQ(kern.nodeOf(pageOf(a) + kDramPages + 63), MemNode::NVM);
}

TEST_F(KernelTest, BindNvmPolicyHonoured)
{
    const Addr a = kern.mmap(0, 4 * kPageSize, 0, "obj");
    kern.mbind(a, MemPolicy::bind(MemNode::NVM));
    touchRange(a, 4);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(kern.nodeOf(pageOf(a) + i), MemNode::NVM);
    EXPECT_TRUE(kern.pageMeta(pageOf(a))->pinned);
}

TEST_F(KernelTest, SplitPolicyStraddlesTiers)
{
    const Addr a = kern.mmap(0, 6 * kPageSize, 0, "obj");
    kern.mbind(a, MemPolicy::split(2));
    touchRange(a, 6);
    EXPECT_EQ(kern.nodeOf(pageOf(a) + 0), MemNode::DRAM);
    EXPECT_EQ(kern.nodeOf(pageOf(a) + 1), MemNode::DRAM);
    for (std::uint64_t i = 2; i < 6; ++i)
        EXPECT_EQ(kern.nodeOf(pageOf(a) + i), MemNode::NVM);
}

TEST_F(KernelTest, MunmapFreesFramesAndShootsDown)
{
    const Addr a = kern.mmap(0, 4 * kPageSize, 0, "obj");
    touchRange(a, 4);
    const auto before = kern.numastat();
    EXPECT_EQ(before.appPages[0], 4u);
    shootdown.count = 0;
    kern.munmap(100, a);
    const auto after = kern.numastat();
    EXPECT_EQ(after.appPages[0], 0u);
    EXPECT_EQ(shootdown.count, 4u);
    EXPECT_EQ(kern.pageMeta(pageOf(a)), nullptr);
}

// ------------------------------------------------- Hint faults/tiering

/** Policy that records hint faults and optionally promotes. */
class RecordingPolicy : public TieringPolicy
{
  public:
    explicit RecordingPolicy(Kernel &k) : kern(k) {}

    const char *name() const override { return "recording"; }

    Cycles
    onHintFault(PageNum vpn, Cycles now, PageMeta &meta) override
    {
        ++faults;
        lastLatency = now - meta.scanTime;
        if (promote && meta.node == MemNode::NVM)
            return kern.promotePage(vpn, now);
        return 0;
    }

    Kernel &kern;
    std::uint64_t faults = 0;
    Cycles lastLatency = 0;
    bool promote = false;
};

TEST_F(KernelTest, HintFaultLatencyFromScanTime)
{
    RecordingPolicy policy(kern);
    kern.setTieringPolicy(&policy);
    const Addr a = kern.mmap(0, kPageSize, 0, "obj");
    kern.touchPage(pageOf(a), 100, MemOp::Load);

    PageMeta *meta = kern.pageMetaMutable(pageOf(a));
    meta->protNone = true;
    meta->scanTime = 500;

    const TouchResult r = kern.touchPage(pageOf(a), 1300, MemOp::Load);
    EXPECT_TRUE(r.hintFault);
    EXPECT_EQ(policy.faults, 1u);
    EXPECT_EQ(policy.lastLatency, 800u);
    EXPECT_FALSE(kern.pageMeta(pageOf(a))->protNone);
    EXPECT_EQ(kern.vmstat().numaHintFaults, 1u);
}

TEST_F(KernelTest, PromotionMovesPageAndCounts)
{
    RecordingPolicy policy(kern);
    policy.promote = true;
    kern.setTieringPolicy(&policy);

    const Addr a = kern.mmap(0, kPageSize, 0, "obj");
    kern.mbind(a, MemPolicy::bind(MemNode::NVM));
    // mbind pins; unpin manually to allow promotion (test shortcut to
    // get a page onto NVM).
    kern.touchPage(pageOf(a), 10, MemOp::Load);
    PageMeta *meta = kern.pageMetaMutable(pageOf(a));
    meta->pinned = false;
    meta->protNone = true;
    meta->scanTime = 5;

    kern.touchPage(pageOf(a), 50, MemOp::Load);
    EXPECT_EQ(kern.nodeOf(pageOf(a)), MemNode::DRAM);
    EXPECT_EQ(kern.vmstat().pgpromoteSuccess, 1u);
    EXPECT_EQ(kern.vmstat().pgmigrateSuccess, 1u);
    EXPECT_TRUE(kern.pageMeta(pageOf(a))->promoted);
}

TEST_F(KernelTest, PromotePinnedPageRefused)
{
    const Addr a = kern.mmap(0, kPageSize, 0, "obj");
    kern.mbind(a, MemPolicy::bind(MemNode::NVM));
    kern.touchPage(pageOf(a), 10, MemOp::Load);
    EXPECT_EQ(kern.promotePage(pageOf(a), 20), 0u);
    EXPECT_EQ(kern.vmstat().pgpromoteSuccess, 0u);
}

// --------------------------------------------------- Reclaim / demotion

TEST_F(KernelTest, KswapdDemotesColdPagesBelowLowWatermark)
{
    const Addr a = kern.mmap(0, kDramPages * kPageSize, 0, "big");
    touchRange(a, kDramPages - 2);  // Nearly fill DRAM.
    const auto before = kern.numastat();
    ASSERT_LT(before.freePages[0], kern.params().lowWatermarkFrac *
                                       kDramPages * 4);  // Sanity.
    kern.kswapdTick(secondsToCycles(1.0));
    const VmStat &vm = kern.vmstat();
    EXPECT_GT(vm.pgdemoteKswapd, 0u);
    EXPECT_EQ(vm.pgdemoteDirect, 0u);
    const auto after = kern.numastat();
    EXPECT_GT(after.freePages[0], before.freePages[0]);
    EXPECT_GT(after.appPages[1], 0u);
}

TEST_F(KernelTest, KswapdIdleAboveWatermark)
{
    const Addr a = kern.mmap(0, 4 * kPageSize, 0, "small");
    touchRange(a, 4);
    kern.kswapdTick(1000);
    EXPECT_EQ(kern.vmstat().pgdemoteKswapd, 0u);
}

TEST_F(KernelTest, DemotedPagesKeepContentsMapping)
{
    const Addr a = kern.mmap(0, kDramPages * kPageSize, 0, "big");
    touchRange(a, kDramPages - 2);
    kern.kswapdTick(secondsToCycles(1.0));
    // Every page still mapped, just possibly on the other tier.
    for (std::uint64_t i = 0; i < kDramPages - 2; ++i) {
        const PageMeta *meta = kern.pageMeta(pageOf(a) + i);
        ASSERT_NE(meta, nullptr);
        EXPECT_TRUE(meta->present);
    }
}

TEST_F(KernelTest, PromoteThenDemoteCountsThrashing)
{
    RecordingPolicy policy(kern);
    kern.setTieringPolicy(&policy);

    const Addr a = kern.mmap(0, kPageSize, 0, "obj");
    kern.mbind(a, MemPolicy::bind(MemNode::NVM));
    kern.touchPage(pageOf(a), 10, MemOp::Load);
    PageMeta *meta = kern.pageMetaMutable(pageOf(a));
    meta->pinned = false;
    ASSERT_GT(kern.promotePage(pageOf(a), 20), 0u);

    // Force demotion of exactly this (now cold) page via kswapd by
    // filling DRAM.
    const Addr big = kern.mmap(0, kDramPages * kPageSize, 1, "big");
    touchRange(big, kDramPages - 2, 30);
    kern.kswapdTick(secondsToCycles(1.0));
    EXPECT_GT(kern.vmstat().pgpromoteDemoted, 0u);
}

// ----------------------------------------------------------- Page cache

TEST_F(KernelTest, PageCacheFetchOnceThenCached)
{
    const Addr f = kern.registerFile(8 * kPageSize, "input.sg");
    const Cycles first = kern.ensureCached(pageOf(f), 100);
    EXPECT_GT(first, 0u);
    const Cycles second = kern.ensureCached(pageOf(f), 200);
    EXPECT_EQ(second, 0u);
    EXPECT_EQ(kern.numastat().cachePages[0], 1u);
    // Page-cache population is not a user minor fault.
    EXPECT_EQ(kern.vmstat().pgfault, 0u);
}

TEST_F(KernelTest, PageCacheDemotedUnderPressure)
{
    // Finding 5: reclaim demotes page cache to free DRAM.
    const Addr f =
        kern.registerFile((kDramPages - 8) * kPageSize, "input.sg");
    for (std::uint64_t i = 0; i < kDramPages - 8; ++i)
        kern.ensureCached(pageOf(f) + i, 100 + i);
    ASSERT_GT(kern.numastat().cachePages[0], 0u);
    kern.kswapdTick(secondsToCycles(1.0));
    EXPECT_GT(kern.vmstat().pgdemoteKswapd, 0u);
    EXPECT_GT(kern.numastat().cachePages[1], 0u);  // Demoted to NVM.
}

TEST_F(KernelTest, DefaultPolicyKeepsMinWatermarkReserve)
{
    // Default (unbound) allocations stop taking DRAM at the min
    // watermark and fall back to NVM instead of draining it to zero.
    const Addr f =
        kern.registerFile(kDramPages * kPageSize, "input.sg");
    for (std::uint64_t i = 0; i < kDramPages; ++i)
        kern.ensureCached(pageOf(f) + i, 100 + i);
    EXPECT_GT(kern.numastat().freePages[0], 0u);
    EXPECT_LE(kern.numastat().freePages[0], 16u);
    EXPECT_GT(kern.numastat().cachePages[1], 0u);  // Spillover on NVM.
}

TEST_F(KernelTest, DirectReclaimForPinnedDramAllocation)
{
    // Fill DRAM with unpinned pages (down to the watermark reserve),
    // then demand more DRAM-bound pages than remain free: the bound
    // allocation cannot fall back, so it direct-reclaims (demotes).
    const Addr filler = kern.mmap(0, kDramPages * kPageSize, 0, "fill");
    touchRange(filler, kDramPages);
    const std::uint64_t free_before = kern.numastat().freePages[0];
    ASSERT_LE(free_before, 16u);

    const std::uint64_t want = free_before + 8;
    const Addr a = kern.mmap(0, want * kPageSize, 1, "hot");
    kern.mbind(a, MemPolicy::bind(MemNode::DRAM));
    for (std::uint64_t i = 0; i < want; ++i) {
        const TouchResult r = kern.touchPage(
            pageOf(a) + i, secondsToCycles(1.0) + i, MemOp::Store);
        EXPECT_EQ(r.node, MemNode::DRAM);
    }
    EXPECT_GT(kern.vmstat().pgdemoteDirect, 0u);
}

// ------------------------------------------- Vanilla kernel (no tiering)

TEST(KernelNoTiering, ReclaimDropsCleanCacheOnly)
{
    PhysicalMemory phys(makeDramParams(64 * kPageSize),
                        makeNvmParams(256 * kPageSize));
    KernelParams kp;
    kp.demoteOnReclaim = false;
    Kernel kern(phys, kp);
    RecordingShootdown sd;
    kern.setShootdownClient(&sd);

    const Addr f = kern.registerFile(60 * kPageSize, "input.sg");
    for (std::uint64_t i = 0; i < 60; ++i)
        kern.ensureCached(pageOf(f) + i, 100 + i);
    kern.kswapdTick(secondsToCycles(1.0));
    const VmStat &vm = kern.vmstat();
    EXPECT_EQ(vm.pgdemoteKswapd, 0u);
    EXPECT_EQ(vm.pgmigrateSuccess, 0u);
    EXPECT_GT(vm.pageCacheDrops, 0u);
}

TEST(KernelNoTiering, AppPagesNeverMigrate)
{
    // The paper's counter check: with AutoNUMA disabled all migration
    // counters stay at zero delta (Section 6.6).
    PhysicalMemory phys(makeDramParams(64 * kPageSize),
                        makeNvmParams(256 * kPageSize));
    KernelParams kp;
    kp.demoteOnReclaim = false;
    Kernel kern(phys, kp);
    RecordingShootdown sd;
    kern.setShootdownClient(&sd);

    const Addr a = kern.mmap(0, 80 * kPageSize, 0, "big");
    for (std::uint64_t i = 0; i < 80; ++i)
        kern.touchPage(pageOf(a) + i, 100 + i, MemOp::Store);
    for (int tick = 0; tick < 10; ++tick)
        kern.kswapdTick(secondsToCycles(0.1 * (tick + 1)));
    const VmStat &vm = kern.vmstat();
    EXPECT_EQ(vm.pgpromoteSuccess, 0u);
    EXPECT_EQ(vm.pgdemoteKswapd, 0u);
    EXPECT_EQ(vm.pgdemoteDirect, 0u);
    EXPECT_EQ(vm.pgmigrateSuccess, 0u);
}

// ---------------------------------------------------------------- misc

TEST_F(KernelTest, VmStatDelta)
{
    const Addr a = kern.mmap(0, 4 * kPageSize, 0, "obj");
    touchRange(a, 2);
    const VmStat snap = kern.vmstat();
    touchRange(a + 2 * kPageSize, 2);
    const VmStat d = kern.vmstat().delta(snap);
    EXPECT_EQ(d.pgfault, 2u);
}

TEST(VmStat, DeltaCoversEveryField)
{
    // Catches a counter added to VmStat but forgotten in delta(): a
    // snapshot with every byte set, minus an all-zero snapshot, must
    // reproduce itself exactly. A skipped field comes back zeroed and
    // fails the byte comparison.
    VmStat full;
    static_assert(std::is_trivially_copyable_v<VmStat>);
    std::memset(static_cast<void *>(&full), 0x5A, sizeof(VmStat));
    const VmStat zero{};
    const VmStat d = full.delta(zero);
    EXPECT_EQ(std::memcmp(&d, &full, sizeof(VmStat)), 0);
}

TEST_F(KernelTest, NumastatTracksFree)
{
    const auto s0 = kern.numastat();
    EXPECT_EQ(s0.freePages[0], kDramPages);
    EXPECT_EQ(s0.freePages[1], kNvmPages);
    const Addr a = kern.mmap(0, 3 * kPageSize, 0, "obj");
    touchRange(a, 3);
    EXPECT_EQ(kern.numastat().freePages[0], kDramPages - 3);
}

TEST_F(KernelTest, DramHasFreeCapacityFlag)
{
    EXPECT_TRUE(kern.dramHasFreeCapacity());
    const Addr a = kern.mmap(0, kDramPages * kPageSize, 0, "big");
    touchRange(a, kDramPages - 4);
    EXPECT_FALSE(kern.dramHasFreeCapacity());
}

}  // namespace
}  // namespace memtier
