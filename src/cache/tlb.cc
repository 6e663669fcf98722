#include "cache/tlb.h"

#include "base/logging.h"

namespace memtier {

namespace {

std::uint64_t
setCount(unsigned entries, unsigned ways)
{
    MEMTIER_ASSERT(ways > 0 && entries % ways == 0,
                   "TLB entries must divide evenly into ways");
    return entries / ways;
}

}  // namespace

Tlb::Tlb(const TlbParams &params)
    : cfg(params),
      l1(setCount(cfg.l1Entries, cfg.l1Ways), cfg.l1Ways),
      stlb(setCount(cfg.stlbEntries, cfg.stlbWays), cfg.stlbWays),
      l1Huge(setCount(cfg.l1HugeEntries, cfg.l1HugeWays), cfg.l1HugeWays),
      stlbHuge(setCount(cfg.stlbHugeEntries, cfg.stlbHugeWays),
               cfg.stlbHugeWays)
{
}

TlbOutcome
Tlb::lookup(PageNum vpn)
{
    // One walk per level: a first-level miss installs the entry in the
    // same walk, and the second level either hits or installs it too.
    // The levels are separate arrays, so filling the first before
    // probing the second changes nothing.
    Level::Victim unused;
    if (l1.touchOrInsert(vpn, unused)) {
        ++l1_hits;
        return TlbOutcome::L1Hit;
    }
    if (stlb.touchOrInsert(vpn, unused)) {
        ++stlb_hits;
        return TlbOutcome::StlbHit;
    }
    ++miss_count;
    return TlbOutcome::Miss;
}

TlbOutcome
Tlb::lookupHuge(PageNum base_vpn)
{
    // Key by huge-page number, not base vpn: a 2 MiB base has nine zero
    // low bits, which would otherwise alias every range onto set 0.
    const PageNum key = base_vpn >> kPagesPerHugeShift;
    Level::Victim unused;
    if (l1Huge.touchOrInsert(key, unused)) {
        ++huge_l1_hits;
        return TlbOutcome::L1Hit;
    }
    if (stlbHuge.touchOrInsert(key, unused)) {
        ++huge_stlb_hits;
        return TlbOutcome::StlbHit;
    }
    ++huge_miss_count;
    return TlbOutcome::Miss;
}

void
Tlb::repeatHits(PageNum vpn, std::uint64_t count)
{
    MEMTIER_DEBUG_ASSERT(count > 0, "TLB repeat accounting for zero hits");
    const bool found = l1.touch(vpn);
    MEMTIER_ASSERT(found, "TLB repeat accounting for a non-resident vpn");
    l1_hits += count;
}

void
Tlb::repeatHitsHuge(PageNum base_vpn, std::uint64_t count)
{
    MEMTIER_DEBUG_ASSERT(count > 0, "TLB repeat accounting for zero hits");
    const PageNum key = base_vpn >> kPagesPerHugeShift;
    const bool found = l1Huge.touch(key);
    MEMTIER_ASSERT(found,
                   "TLB repeat accounting for a non-resident huge range");
    huge_l1_hits += count;
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
