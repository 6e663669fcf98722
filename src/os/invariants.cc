#include "os/invariants.h"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <unordered_set>

#include "base/logging.h"
#include "os/kernel.h"

namespace memtier {

InvariantChecker::InvariantChecker(const Kernel &kernel,
                                   std::uint64_t period_events)
    : kernel_(kernel), period_(period_events)
{
    MEMTIER_ASSERT(period_ > 0, "invariant check period must be positive");
}

void
InvariantChecker::onEvent(Cycles now)
{
    if (++events_ % period_ == 0)
        checkNow(now);
}

void
InvariantChecker::fail(Cycles now, const std::string &what) const
{
    const VmStat &s = kernel_.stats;
    const NumaStatSnapshot numa = kernel_.numastat();
    std::fprintf(stderr, "=== invariant violation at cycle %" PRIu64
                         " (event %" PRIu64 ") ===\n",
                 static_cast<std::uint64_t>(now), events_);
    std::fprintf(stderr, "  %s\n", what.c_str());
    std::fprintf(stderr, "  page table: %zu entries (+%zu huge); "
                         "appLru=%zu cacheLru=%zu\n",
                 kernel_.pt.size(), kernel_.pt.hugeSize(),
                 kernel_.appLru.size(), kernel_.cacheLru.size());
    for (int n = 0; n < kNumNodes; ++n) {
        std::fprintf(stderr, "  node %d: app=%" PRIu64 " cache=%" PRIu64
                             " free=%" PRIu64 " retired=%" PRIu64 "\n",
                     n, numa.appPages[n], numa.cachePages[n],
                     numa.freePages[n], numa.retiredPages[n]);
    }
    std::fprintf(stderr, "  vmstat: pgfault=%" PRIu64
                         " promote=%" PRIu64 " demoteK=%" PRIu64
                         " demoteD=%" PRIu64 " exchange=%" PRIu64
                         " migrate=%" PRIu64 " migrateFail=%" PRIu64
                         " breakerTrips=%" PRIu64 "\n",
                 s.pgfault, s.pgpromoteSuccess, s.pgdemoteKswapd,
                 s.pgdemoteDirect, s.pgexchangeSuccess,
                 s.pgmigrateSuccess, s.pgmigrateFail, s.breakerTrips);
    panic("kernel invariant violated: %s", what.c_str());
}

void
InvariantChecker::checkNow(Cycles now)
{
    ++checks_;
    const Kernel &k = kernel_;

    // Per-(node, owner) page counts rebuilt from the page table; they
    // must match the frame allocators' owner accounting exactly.
    std::array<std::array<std::uint64_t, kNumFrameOwners>, kNumNodes>
        counted{};
    // (node, frame) uniqueness: no two pages may share a frame.
    std::array<std::unordered_set<FrameNum>, kNumNodes> frames;

    k.pt.forEach([&](PageNum vpn, const PageMeta &meta) {
        if (!meta.present)
            fail(now, strprintf("page table holds non-present page %"
                                PRIu64, vpn));
        const int n = static_cast<int>(meta.node);
        const MemoryTier &tier = k.phys.tier(meta.node);
        if (meta.frame >= tier.totalPages()) {
            fail(now, strprintf("page %" PRIu64 " maps frame %" PRIu64
                                " beyond node %d capacity %" PRIu64,
                                vpn, static_cast<std::uint64_t>(meta.frame),
                                n, tier.totalPages()));
        }
        if (!frames[n].insert(meta.frame).second) {
            fail(now, strprintf("frame %" PRIu64 " on node %d is "
                                "double-mapped (page %" PRIu64 ")",
                                static_cast<std::uint64_t>(meta.frame), n,
                                vpn));
        }
        if (tier.isRetired(meta.frame)) {
            fail(now, strprintf("page %" PRIu64 " maps poisoned frame %"
                                PRIu64 " on node %d",
                                vpn, static_cast<std::uint64_t>(meta.frame),
                                n));
        }
        ++counted[n][static_cast<int>(meta.owner)];

        const bool on_app = k.appLru.contains(vpn);
        const bool on_cache = k.cacheLru.contains(vpn);
        if (meta.node == MemNode::DRAM) {
            const bool want_cache = meta.owner == FrameOwner::PageCache;
            if (on_app == want_cache || on_cache != want_cache) {
                fail(now, strprintf("DRAM page %" PRIu64 " (owner %d) on "
                                    "wrong LRU (app=%d cache=%d)",
                                    vpn, static_cast<int>(meta.owner),
                                    on_app, on_cache));
            }
        } else if (on_app || on_cache) {
            fail(now, strprintf("NVM page %" PRIu64 " still on a DRAM "
                                "LRU", vpn));
        }
        if (meta.pinned && meta.protNone) {
            fail(now, strprintf("pinned page %" PRIu64 " carries a scan "
                                "marker", vpn));
        }
        if (meta.huge) {
            fail(now, strprintf("PTE for page %" PRIu64 " carries the "
                                "huge flag", vpn));
        }
    });

    // Huge (PMD) mappings: aligned, one tier, 512 contiguous frames
    // that collide with no other mapping, and no 4 KiB PTE shadowing
    // any page of the range.
    k.pt.forEachHuge([&](PageNum base, const PageMeta &hmeta) {
        if (!isHugeBase(base) || !hmeta.huge || !hmeta.present) {
            fail(now, strprintf("malformed PMD entry at page %" PRIu64,
                                base));
        }
        if (!isHugeBase(hmeta.frame)) {
            fail(now, strprintf("PMD entry %" PRIu64 " has unaligned "
                                "base frame %" PRIu64, base,
                                static_cast<std::uint64_t>(hmeta.frame)));
        }
        const int n = static_cast<int>(hmeta.node);
        const MemoryTier &tier = k.phys.tier(hmeta.node);
        if (hmeta.frame + kPagesPerHuge > tier.totalPages()) {
            fail(now, strprintf("PMD entry %" PRIu64 " maps past node %d "
                                "capacity", base, n));
        }
        if (hmeta.owner != FrameOwner::App) {
            fail(now, strprintf("PMD entry %" PRIu64 " is not App-owned",
                                base));
        }
        for (std::uint64_t i = 0; i < kPagesPerHuge; ++i) {
            if (!frames[n].insert(hmeta.frame + i).second) {
                fail(now, strprintf("huge frame %" PRIu64 " on node %d "
                                    "is double-mapped (range %" PRIu64 ")",
                                    static_cast<std::uint64_t>(
                                        hmeta.frame + i), n, base));
            }
            if (k.pt.find(base + i) != nullptr) {
                fail(now, strprintf("4 KiB PTE %" PRIu64 " shadows the "
                                    "PMD range at %" PRIu64,
                                    base + i, base));
            }
            if (tier.isRetired(hmeta.frame + i)) {
                fail(now, strprintf("PMD range %" PRIu64 " maps poisoned "
                                    "frame %" PRIu64 " on node %d", base,
                                    static_cast<std::uint64_t>(
                                        hmeta.frame + i), n));
            }
        }
        counted[n][static_cast<int>(hmeta.owner)] += kPagesPerHuge;

        const bool on_app = k.appLru.contains(base);
        const bool on_cache = k.cacheLru.contains(base);
        if (hmeta.node == MemNode::DRAM ? (!on_app || on_cache)
                                        : (on_app || on_cache)) {
            fail(now, strprintf("PMD entry %" PRIu64 " on wrong LRU "
                                "(app=%d cache=%d)", base, on_app,
                                on_cache));
        }
        if (hmeta.pinned && hmeta.protNone) {
            fail(now, strprintf("pinned PMD entry %" PRIu64 " carries a "
                                "scan marker", base));
        }
    });

    // Every LRU entry must be a mapped page: a 4 KiB PTE or the base of
    // a PMD mapping (residence/owner agreement was already verified
    // from the page-table side above).
    for (const Kernel::ClockList *list : {&k.appLru, &k.cacheLru}) {
        if (list->pos.size() != list->pages.size()) {
            fail(now, strprintf("LRU index size %zu != list size %zu",
                                list->pos.size(), list->pages.size()));
        }
        for (PageNum vpn : list->pages) {
            if (k.pt.find(vpn) != nullptr)
                continue;
            if (k.pt.findHuge(vpn) != nullptr && isHugeBase(vpn))
                continue;
            fail(now, strprintf("LRU references unmapped page %" PRIu64,
                                vpn));
        }
    }

    // Allocator accounting: counted pages == per-owner allocator view,
    // and used + free == capacity on each tier.
    for (int n = 0; n < kNumNodes; ++n) {
        const MemoryTier &tier = k.phys.tier(static_cast<MemNode>(n));
        std::uint64_t used = 0;
        for (int o = 0; o < kNumFrameOwners; ++o) {
            used += counted[n][o];
            const std::uint64_t have =
                tier.ownerPages(static_cast<FrameOwner>(o));
            if (counted[n][o] != have) {
                fail(now, strprintf("node %d owner %d: page table counts "
                                    "%" PRIu64 " pages, allocator says %"
                                    PRIu64, n, o, counted[n][o], have));
            }
        }
        // Retired frames stay allocated forever but map nothing, so
        // mapped + retired must exactly cover the allocator's used set.
        if (used + tier.retiredPages() != tier.usedPages() ||
            used + tier.retiredPages() + tier.freePages() !=
                tier.totalPages()) {
            fail(now, strprintf("node %d frame conservation broken: "
                                "mapped=%" PRIu64 " retired=%" PRIu64
                                " used=%" PRIu64 " free=%" PRIu64
                                " total=%" PRIu64,
                                n, used, tier.retiredPages(),
                                tier.usedPages(), tier.freePages(),
                                tier.totalPages()));
        }
    }

    // Counter identity: every successful migration is exactly one
    // promotion, one reclaim demotion, or half an exchange (which moves
    // two pages and also counts one promotion).
    const VmStat &s = k.stats;
    const std::uint64_t expect = s.pgpromoteSuccess + s.pgdemoteKswapd +
                                 s.pgdemoteDirect + s.pgexchangeSuccess;
    if (s.pgmigrateSuccess != expect) {
        fail(now, strprintf("pgmigrate_success=%" PRIu64 " != promote+"
                            "demote+exchange=%" PRIu64,
                            s.pgmigrateSuccess, expect));
    }

    // Memory-failure identities: every retired frame came from exactly
    // one soft offline, SIGBUS kill, or cache drop, and the counter
    // agrees with the allocators' retired sets.
    std::uint64_t retired_total = 0;
    for (int n = 0; n < kNumNodes; ++n)
        retired_total += k.phys.tier(static_cast<MemNode>(n)).retiredPages();
    if (s.hwpoisonFramesRetired != retired_total) {
        fail(now, strprintf("hwpoison_frames_retired=%" PRIu64 " != "
                            "allocator retired sets=%" PRIu64,
                            s.hwpoisonFramesRetired, retired_total));
    }
    if (s.hwpoisonSoftOffline + s.hwpoisonSigbus +
            s.hwpoisonCacheDropped != s.hwpoisonFramesRetired) {
        fail(now, strprintf("hwpoison identity broken: soft_offline=%"
                            PRIu64 " + sigbus=%" PRIu64 " + cache_drop=%"
                            PRIu64 " != retired=%" PRIu64,
                            s.hwpoisonSoftOffline, s.hwpoisonSigbus,
                            s.hwpoisonCacheDropped,
                            s.hwpoisonFramesRetired));
    }

    // THP counter identity: every PMD mapping was born from a fault
    // allocation or a collapse and dies by a split or a whole-range
    // munmap, so births - deaths = live PMD mappings.
    const std::uint64_t born = s.thpFaultAlloc + s.thpCollapseAlloc;
    const std::uint64_t died = s.thpSplitPage + s.thpUnmapHuge;
    if (born < died || born - died != k.pt.hugeSize()) {
        fail(now, strprintf("thp counter identity broken: fault_alloc=%"
                            PRIu64 " + collapse=%" PRIu64 " - split=%"
                            PRIu64 " - unmap=%" PRIu64 " != live=%zu",
                            s.thpFaultAlloc, s.thpCollapseAlloc,
                            s.thpSplitPage, s.thpUnmapHuge,
                            k.pt.hugeSize()));
    }
}

}  // namespace memtier
