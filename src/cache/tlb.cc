#include "cache/tlb.h"

#include "base/logging.h"

namespace memtier {

namespace {

std::uint64_t
setCount(const char *level, unsigned entries, unsigned ways)
{
    if (ways > LruSets<0>::kMaxSlotWays) {
        fatal("TLB level %s has %u ways; at most %u are supported", level,
              ways, LruSets<0>::kMaxSlotWays);
    }
    MEMTIER_ASSERT(ways > 0 && entries % ways == 0,
                   "TLB entries must divide evenly into ways");
    return entries / ways;
}

}  // namespace

Tlb::Tlb(const TlbParams &params)
    : cfg(params),
      l1(setCount("L1", cfg.l1Entries, cfg.l1Ways), cfg.l1Ways),
      stlb(setCount("STLB", cfg.stlbEntries, cfg.stlbWays), cfg.stlbWays),
      l1Huge(setCount("L1 huge", cfg.l1HugeEntries, cfg.l1HugeWays),
             cfg.l1HugeWays),
      stlbHuge(setCount("STLB huge", cfg.stlbHugeEntries, cfg.stlbHugeWays),
               cfg.stlbHugeWays)
{
}

void
Tlb::insertHuge(PageNum base_vpn)
{
    // Unlike the lookup fills, this one does not follow a miss of the
    // same key, so refresh a resident entry rather than insert a
    // duplicate (LruSets::insert requires the key to be absent).
    const PageNum key = base_vpn >> kPagesPerHugeShift;
    Level::Victim unused;
    l1Huge.touchOrInsert(key, unused);
    stlbHuge.touchOrInsert(key, unused);
}

void
Tlb::invalidate(PageNum vpn)
{
    l1.invalidate(vpn);
    stlb.invalidate(vpn);
}

void
Tlb::invalidateHuge(PageNum base_vpn)
{
    const PageNum key = base_vpn >> kPagesPerHugeShift;
    l1Huge.invalidate(key);
    stlbHuge.invalidate(key);
}

void
Tlb::flushAll()
{
    l1.clear();
    stlb.clear();
    l1Huge.clear();
    stlbHuge.clear();
}

}  // namespace memtier
