/**
 * @file
 * Unit tests for the cache substrate: the MRU-ordered LRU sets,
 * set-associative caches, two-level TLB and the line-fill buffer, plus
 * a differential test of the caches and TLB against the tick-stamped
 * true-LRU reference model they replaced.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "cache/line_fill_buffer.h"
#include "cache/lru_sets.h"
#include "cache/set_assoc_cache.h"
#include "cache/tlb.h"

namespace memtier {
namespace {

// -------------------------------------------------------------- LruSets

TEST(LruSets, HitBecomesMruAndLastSlotIsVictim)
{
    LruSets<0> sets(1, 3);
    sets.insert(1);
    sets.insert(2);
    sets.insert(3);              // MRU order: 3 2 1.
    EXPECT_TRUE(sets.touch(1));  // 1 3 2.
    const LruSets<0>::Victim v = sets.insert(4);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.key, 2u);
    EXPECT_TRUE(sets.contains(1));
    EXPECT_FALSE(sets.contains(2));
}

TEST(LruSets, InvalidateOpensHoleThatInsertFillsWithoutEviction)
{
    LruSets<0> sets(2, 4);
    for (std::uint64_t k = 0; k < 8; k += 2)
        EXPECT_FALSE(sets.insert(k).valid);  // Set 0 now full.
    EXPECT_TRUE(sets.invalidate(4));
    EXPECT_FALSE(sets.invalidate(4));
    EXPECT_FALSE(sets.insert(8).valid);      // Fills the hole.
    // The oldest survivor is still the victim after the hole closed.
    const LruSets<0>::Victim v = sets.insert(10);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.key, 0u);
}

TEST(LruSets, FlagBitsRideAlongButDoNotMatch)
{
    LruSets<1> sets(4, 2);
    sets.insert(5 << 1);                   // Clean key 5.
    EXPECT_TRUE(sets.touch((5 << 1) | 1));  // Probe sets the flag.
    EXPECT_TRUE(sets.contains(5 << 1));
    sets.insert(9 << 1);                   // Same set (4 sets).
    const LruSets<1>::Victim v = sets.insert(13 << 1);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.key, (5u << 1) | 1u);      // The flag stuck.
}

TEST(LruSets, TouchOrInsertFusesHitAndFill)
{
    LruSets<0> sets(1, 2);
    LruSets<0>::Victim v;
    EXPECT_FALSE(sets.touchOrInsert(1, v));
    EXPECT_FALSE(v.valid);
    EXPECT_FALSE(sets.touchOrInsert(2, v));
    EXPECT_TRUE(sets.touchOrInsert(1, v));  // Hit: 1 is MRU again.
    EXPECT_FALSE(sets.touchOrInsert(3, v));
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.key, 2u);
}

TEST(LruSets, ClearEmptiesEverySet)
{
    LruSets<0> sets(4, 2);
    for (std::uint64_t k = 0; k < 8; ++k)
        sets.insert(k);
    sets.clear();
    for (std::uint64_t k = 0; k < 8; ++k)
        EXPECT_FALSE(sets.contains(k));
    EXPECT_FALSE(sets.insert(0).valid);
}

// -------------------------------------------------------- SetAssocCache

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c("L1", 4 * kKiB, 4);
    EXPECT_FALSE(c.access(100, false));
    c.insert(100, false);
    EXPECT_TRUE(c.access(100, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, LruEviction)
{
    // 2-way, line addresses chosen to map to set 0.
    SetAssocCache c("L1", 2 * 2 * kLineSize, 2);  // 2 sets, 2 ways.
    const Addr set0_a = 0;
    const Addr set0_b = 2;
    const Addr set0_c = 4;
    c.insert(set0_a, false);
    c.insert(set0_b, false);
    // Touch a so b becomes LRU.
    EXPECT_TRUE(c.access(set0_a, false));
    const CacheEviction ev = c.insert(set0_c, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, set0_b);
    EXPECT_TRUE(c.contains(set0_a));
    EXPECT_FALSE(c.contains(set0_b));
}

TEST(SetAssocCache, DirtyEvictionSignalsWriteback)
{
    SetAssocCache c("L1", 1 * 2 * kLineSize, 2);  // 1 set, 2 ways.
    c.insert(0, true);
    c.insert(1, false);
    const CacheEviction ev = c.insert(2, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.line, 0u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(SetAssocCache, WriteHitSetsDirty)
{
    SetAssocCache c("L1", 2 * kLineSize, 2);
    c.insert(0, false);
    EXPECT_TRUE(c.access(0, true));  // Store hit -> dirty.
    c.insert(1, false);
    const CacheEviction ev = c.insert(2, false);
    EXPECT_TRUE(ev.dirty);
}

TEST(SetAssocCache, InvalidateRemovesLine)
{
    SetAssocCache c("L2", 4 * kKiB, 4);
    c.insert(7, false);
    EXPECT_TRUE(c.contains(7));
    c.invalidate(7);
    EXPECT_FALSE(c.contains(7));
}

TEST(SetAssocCache, ClearEmptiesEverything)
{
    SetAssocCache c("L2", 4 * kKiB, 4);
    for (Addr l = 0; l < 32; ++l)
        c.insert(l, false);
    c.clear();
    for (Addr l = 0; l < 32; ++l)
        EXPECT_FALSE(c.contains(l));
}

TEST(SetAssocCache, DistinctSetsDoNotConflict)
{
    SetAssocCache c("L1", 4 * 1 * kLineSize, 1);  // 4 sets, direct.
    c.insert(0, false);
    c.insert(1, false);
    c.insert(2, false);
    c.insert(3, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(3));
    // Same set as 0 (4 sets): line 4 evicts line 0 only.
    c.insert(4, false);
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(1));
}

TEST(SetAssocCache, SizeBytesReflectsGeometry)
{
    SetAssocCache c("L3", 128 * kKiB, 16);
    EXPECT_EQ(c.sizeBytes(), 128 * kKiB);
    EXPECT_EQ(c.name(), "L3");
}

// Parameterized: a working set that fits always hits after warmup; one
// that exceeds capacity by 2x always evicts in a direct-mapped sweep.
class CacheCapacity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheCapacity, FittingWorkingSetHitsAfterWarmup)
{
    const std::uint64_t size = GetParam();
    SetAssocCache c("c", size, 8);
    const std::uint64_t lines = size / kLineSize;
    for (Addr l = 0; l < lines; ++l) {
        if (!c.access(l, false))
            c.insert(l, false);
    }
    for (Addr l = 0; l < lines; ++l)
        EXPECT_TRUE(c.access(l, false)) << "line " << l;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheCapacity,
                         ::testing::Values(4 * kKiB, 16 * kKiB,
                                           64 * kKiB, 256 * kKiB));

TEST(SetAssocCache, AccessOrInsertCountsLikeAccessThenInsert)
{
    SetAssocCache c("L2", 2 * kLineSize, 2);  // 1 set, 2 ways.
    CacheEviction ev;
    EXPECT_FALSE(c.accessOrInsert(0, true, ev));
    EXPECT_FALSE(ev.valid);
    EXPECT_FALSE(c.accessOrInsert(1, false, ev));
    EXPECT_TRUE(c.accessOrInsert(1, true, ev));  // Merge dirty.
    EXPECT_FALSE(c.accessOrInsert(2, false, ev));
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 0u);
    EXPECT_TRUE(ev.dirty);
    EXPECT_FALSE(c.accessOrInsert(3, false, ev));
    EXPECT_EQ(ev.line, 1u);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 4u);
    EXPECT_EQ(c.writebacks(), 2u);
}

TEST(SetAssocCache, InvalidatedWayRefillsWithoutEviction)
{
    SetAssocCache c("L1", 4 * kLineSize, 4);  // 1 set, 4 ways.
    for (Addr l = 0; l < 4; ++l)
        c.insert(l, false);
    c.invalidate(2);
    EXPECT_FALSE(c.insert(9, false).valid);
    EXPECT_EQ(c.insert(10, false).line, 0u);  // LRU survivor.
}

// ------------------------------------------------------------------ TLB

TEST(Tlb, MissThenL1Hit)
{
    Tlb tlb;
    EXPECT_EQ(tlb.lookup(5), TlbOutcome::Miss);
    EXPECT_EQ(tlb.lookup(5), TlbOutcome::L1Hit);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.l1Hits(), 1u);
}

TEST(Tlb, StlbCatchesL1Evictions)
{
    TlbParams p;
    p.l1Entries = 4;
    p.l1Ways = 4;  // Single set: 5 pages overflow L1.
    p.stlbEntries = 64;
    p.stlbWays = 4;
    Tlb tlb(p);
    for (PageNum v = 0; v < 5; ++v)
        tlb.lookup(v);
    // Page 0 fell out of L1 but must still be in the STLB.
    EXPECT_EQ(tlb.lookup(0), TlbOutcome::StlbHit);
    EXPECT_EQ(tlb.stlbHits(), 1u);
}

TEST(Tlb, InvalidateForcesMiss)
{
    Tlb tlb;
    tlb.lookup(9);
    tlb.invalidate(9);
    EXPECT_EQ(tlb.lookup(9), TlbOutcome::Miss);
}

TEST(Tlb, FlushAllForcesMisses)
{
    Tlb tlb;
    for (PageNum v = 0; v < 8; ++v)
        tlb.lookup(v);
    tlb.flushAll();
    for (PageNum v = 0; v < 8; ++v)
        EXPECT_EQ(tlb.lookup(v), TlbOutcome::Miss);
}

TEST(Tlb, CapacityMissesOnHugeWorkingSet)
{
    Tlb tlb;  // 1536-entry STLB.
    for (PageNum v = 0; v < 4096; ++v)
        tlb.lookup(v);
    // Re-walk: early pages must have been evicted from both levels.
    EXPECT_EQ(tlb.lookup(0), TlbOutcome::Miss);
}

TEST(Tlb, InsertHugeOfResidentRangeKeepsOneEntry)
{
    Tlb tlb;
    const PageNum base = 7 * kPagesPerHuge;
    EXPECT_EQ(tlb.lookupHuge(base), TlbOutcome::Miss);
    tlb.insertHuge(base);  // Already resident: refresh, not duplicate.
    tlb.invalidateHuge(base);
    EXPECT_EQ(tlb.lookupHuge(base), TlbOutcome::Miss);
    EXPECT_EQ(tlb.hugeMisses(), 2u);
}

TEST(Tlb, StlbHitCostExposed)
{
    TlbParams p;
    p.stlbHitCycles = 11;
    Tlb tlb(p);
    EXPECT_EQ(tlb.stlbHitCycles(), 11u);
}

// -------------------------------------------------------- LineFillBuffer

TEST(Lfb, TracksInFlightFills)
{
    LineFillBuffer lfb;
    lfb.add(42, 100);
    const auto rem = lfb.inFlight(42, 60);
    ASSERT_TRUE(rem.has_value());
    EXPECT_EQ(*rem, 40u);
}

TEST(Lfb, CompletedFillNotInFlight)
{
    LineFillBuffer lfb;
    lfb.add(42, 100);
    EXPECT_FALSE(lfb.inFlight(42, 100).has_value());
    EXPECT_FALSE(lfb.inFlight(42, 150).has_value());
}

TEST(Lfb, RecentlyFilledWindow)
{
    LineFillBuffer lfb;
    lfb.add(42, 100);
    EXPECT_FALSE(lfb.recentlyFilled(42, 99, 50));   // Still in flight.
    EXPECT_TRUE(lfb.recentlyFilled(42, 100, 50));
    EXPECT_TRUE(lfb.recentlyFilled(42, 149, 50));
    EXPECT_FALSE(lfb.recentlyFilled(42, 150, 50));  // Window expired.
}

TEST(Lfb, OldestEntryReplaced)
{
    LineFillBuffer lfb;
    for (Addr l = 0; l < LineFillBuffer::kEntries + 1; ++l)
        lfb.add(l, 1000);
    EXPECT_FALSE(lfb.inFlight(0, 0).has_value());  // Replaced.
    EXPECT_TRUE(lfb.inFlight(1, 0).has_value());
}

TEST(Lfb, UnknownLineNotInFlight)
{
    LineFillBuffer lfb;
    EXPECT_FALSE(lfb.inFlight(7, 0).has_value());
    EXPECT_FALSE(lfb.recentlyFilled(7, 0, 100));
}


// ------------------------------------------- Reference-model differential
//
// The tick-stamped true-LRU cache and TLB level that LruSets replaced,
// kept as the oracle: every way holds a per-level use stamp, an insert
// takes the first invalid way or else the smallest stamp. Seeded random
// operation streams must produce identical return values, evictions and
// counters from both models.

namespace ref {

class Cache
{
  public:
    Cache(std::uint64_t sets, unsigned ways)
        : num_sets(sets), assoc(ways), slots(sets * ways)
    {
    }

    bool
    access(Addr line, bool is_write)
    {
        const std::size_t base = (line & (num_sets - 1)) * assoc;
        ++tick;
        for (unsigned w = 0; w < assoc; ++w) {
            Way &way = slots[base + w];
            if (way.valid && way.tag == line) {
                way.lastUse = tick;
                way.dirty |= is_write;
                ++hit_count;
                return true;
            }
        }
        ++miss_count;
        return false;
    }

    CacheEviction
    insert(Addr line, bool dirty)
    {
        const std::size_t base = (line & (num_sets - 1)) * assoc;
        ++tick;
        std::size_t victim = base;
        for (unsigned w = 0; w < assoc; ++w) {
            const Way &way = slots[base + w];
            if (!way.valid) {
                victim = base + w;
                break;
            }
            if (way.lastUse < slots[victim].lastUse)
                victim = base + w;
        }
        CacheEviction evicted;
        Way &slot = slots[victim];
        if (slot.valid) {
            evicted = {true, slot.tag, slot.dirty};
            if (slot.dirty)
                ++writeback_count;
        }
        slot = Way{line, tick, true, dirty};
        return evicted;
    }

    void
    accessRepeats(Addr line, std::uint64_t count, bool any_write)
    {
        const std::size_t base = (line & (num_sets - 1)) * assoc;
        tick += count;
        for (unsigned w = 0; w < assoc; ++w) {
            Way &way = slots[base + w];
            if (way.valid && way.tag == line) {
                way.lastUse = tick;
                way.dirty |= any_write;
                hit_count += count;
                return;
            }
        }
        FAIL() << "repeat accounting for a non-resident line";
    }

    void
    invalidate(Addr line)
    {
        const std::size_t base = (line & (num_sets - 1)) * assoc;
        for (unsigned w = 0; w < assoc; ++w) {
            if (slots[base + w].valid && slots[base + w].tag == line) {
                slots[base + w].valid = false;
                return;
            }
        }
    }

    void clear() { slots.assign(slots.size(), Way{}); }

    bool
    contains(Addr line) const
    {
        const std::size_t base = (line & (num_sets - 1)) * assoc;
        for (unsigned w = 0; w < assoc; ++w) {
            if (slots[base + w].valid && slots[base + w].tag == line)
                return true;
        }
        return false;
    }

    std::uint64_t hit_count = 0;
    std::uint64_t miss_count = 0;
    std::uint64_t writeback_count = 0;

  private:
    struct Way
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t num_sets;
    unsigned assoc;
    std::vector<Way> slots;
    std::uint64_t tick = 0;
};

class TlbLevel
{
  public:
    TlbLevel(unsigned total, unsigned ways)
        : sets(total / ways), assoc(ways), entries(total)
    {
    }

    bool
    lookup(PageNum vpn, std::uint64_t tick)
    {
        const std::size_t base = (vpn & (sets - 1)) * assoc;
        for (unsigned w = 0; w < assoc; ++w) {
            Entry &e = entries[base + w];
            if (e.valid && e.vpn == vpn) {
                e.lastUse = tick;
                return true;
            }
        }
        return false;
    }

    void
    insert(PageNum vpn, std::uint64_t tick)
    {
        const std::size_t base = (vpn & (sets - 1)) * assoc;
        std::size_t victim = base;
        for (unsigned w = 0; w < assoc; ++w) {
            const Entry &e = entries[base + w];
            if (!e.valid) {
                victim = base + w;
                break;
            }
            if (e.lastUse < entries[victim].lastUse)
                victim = base + w;
        }
        entries[victim] = Entry{vpn, tick, true};
    }

    void
    invalidate(PageNum vpn)
    {
        const std::size_t base = (vpn & (sets - 1)) * assoc;
        for (unsigned w = 0; w < assoc; ++w) {
            Entry &e = entries[base + w];
            if (e.valid && e.vpn == vpn)
                e.valid = false;
        }
    }

    void
    flush()
    {
        for (Entry &e : entries)
            e.valid = false;
    }

    bool
    contains(PageNum vpn) const
    {
        const std::size_t base = (vpn & (sets - 1)) * assoc;
        for (unsigned w = 0; w < assoc; ++w) {
            if (entries[base + w].valid && entries[base + w].vpn == vpn)
                return true;
        }
        return false;
    }

  private:
    struct Entry
    {
        PageNum vpn = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint64_t sets;
    unsigned assoc;
    std::vector<Entry> entries;
};

class Tlb
{
  public:
    explicit Tlb(const TlbParams &p)
        : l1(p.l1Entries, p.l1Ways), stlb(p.stlbEntries, p.stlbWays),
          l1Huge(p.l1HugeEntries, p.l1HugeWays),
          stlbHuge(p.stlbHugeEntries, p.stlbHugeWays)
    {
    }

    TlbOutcome
    lookup(PageNum vpn)
    {
        return lookupIn(l1, stlb, vpn, l1_hits, stlb_hits, miss_count);
    }

    TlbOutcome
    lookupHuge(PageNum base_vpn)
    {
        return lookupIn(l1Huge, stlbHuge, base_vpn >> kPagesPerHugeShift,
                        huge_l1_hits, huge_stlb_hits, huge_miss_count);
    }

    void
    insertHuge(PageNum base_vpn)
    {
        const PageNum key = base_vpn >> kPagesPerHugeShift;
        ++tick;
        l1Huge.insert(key, tick);
        stlbHuge.insert(key, tick);
    }

    bool
    repeatHits(PageNum vpn, std::uint64_t count)
    {
        tick += count;
        l1_hits += count;
        return l1.lookup(vpn, tick);
    }

    bool
    repeatHitsHuge(PageNum base_vpn, std::uint64_t count)
    {
        tick += count;
        huge_l1_hits += count;
        return l1Huge.lookup(base_vpn >> kPagesPerHugeShift, tick);
    }

    void
    invalidate(PageNum vpn)
    {
        l1.invalidate(vpn);
        stlb.invalidate(vpn);
    }

    void
    invalidateHuge(PageNum base_vpn)
    {
        l1Huge.invalidate(base_vpn >> kPagesPerHugeShift);
        stlbHuge.invalidate(base_vpn >> kPagesPerHugeShift);
    }

    void
    flushAll()
    {
        l1.flush();
        stlb.flush();
        l1Huge.flush();
        stlbHuge.flush();
    }

    bool l1Holds(PageNum vpn) const { return l1.contains(vpn); }

    bool
    l1HugeHolds(PageNum base_vpn) const
    {
        return l1Huge.contains(base_vpn >> kPagesPerHugeShift);
    }

    /** True when either 2 MiB level holds the range. */
    bool
    hugeHeld(PageNum base_vpn) const
    {
        const PageNum key = base_vpn >> kPagesPerHugeShift;
        return l1Huge.contains(key) || stlbHuge.contains(key);
    }

    std::uint64_t l1_hits = 0;
    std::uint64_t stlb_hits = 0;
    std::uint64_t miss_count = 0;
    std::uint64_t huge_l1_hits = 0;
    std::uint64_t huge_stlb_hits = 0;
    std::uint64_t huge_miss_count = 0;

  private:
    TlbOutcome
    lookupIn(TlbLevel &first, TlbLevel &second, PageNum key,
             std::uint64_t &first_hits, std::uint64_t &second_hits,
             std::uint64_t &misses)
    {
        ++tick;
        if (first.lookup(key, tick)) {
            ++first_hits;
            return TlbOutcome::L1Hit;
        }
        if (second.lookup(key, tick)) {
            ++second_hits;
            first.insert(key, tick);
            return TlbOutcome::StlbHit;
        }
        ++misses;
        first.insert(key, tick);
        second.insert(key, tick);
        return TlbOutcome::Miss;
    }

    TlbLevel l1;
    TlbLevel stlb;
    TlbLevel l1Huge;
    TlbLevel stlbHuge;
    std::uint64_t tick = 0;
};

}  // namespace ref

void
expectSameEviction(const CacheEviction &got, const CacheEviction &want,
                   std::uint64_t step)
{
    ASSERT_EQ(got.valid, want.valid) << "step " << step;
    if (want.valid) {
        ASSERT_EQ(got.line, want.line) << "step " << step;
        ASSERT_EQ(got.dirty, want.dirty) << "step " << step;
    }
}

struct CacheShape
{
    std::uint64_t sets;
    unsigned ways;
};

class CacheDifferential : public ::testing::TestWithParam<CacheShape>
{
};

TEST_P(CacheDifferential, MatchesTickStampedReference)
{
    const CacheShape shape = GetParam();
    SetAssocCache got("c", shape.sets * shape.ways * kLineSize, shape.ways);
    ref::Cache want(shape.sets, shape.ways);
    // Three candidate lines per slot of capacity: sets conflict
    // constantly.
    const std::uint64_t lines = 3 * shape.sets * shape.ways;
    Rng rng(0xcafe + shape.sets * 31 + shape.ways);
    for (std::uint64_t step = 0; step < 40000; ++step) {
        const Addr line = rng.nextBounded(lines);
        const bool flag = rng.nextBool(0.3);
        switch (rng.nextBounded(16)) {
          case 0: case 1: case 2: case 3: case 4:
            ASSERT_EQ(got.access(line, flag), want.access(line, flag))
                << "step " << step;
            break;
          case 5: case 6: case 7:
            if (!want.contains(line)) {
                expectSameEviction(got.insert(line, flag),
                                   want.insert(line, flag), step);
            }
            break;
          case 8: case 9: case 10: {
            CacheEviction ev;
            const bool hit = want.access(line, flag);
            ASSERT_EQ(got.accessOrInsert(line, flag, ev), hit)
                << "step " << step;
            if (!hit)
                expectSameEviction(ev, want.insert(line, flag), step);
            break;
          }
          case 11: case 12:
            if (want.contains(line)) {
                const std::uint64_t n = 1 + rng.nextBounded(4);
                got.accessRepeats(line, n, flag);
                want.accessRepeats(line, n, flag);
            }
            break;
          case 13:
            got.invalidate(line);
            want.invalidate(line);
            break;
          case 14:
            if (rng.nextBounded(1024) == 0) {
                got.clear();
                want.clear();
            }
            break;
          default:
            ASSERT_EQ(got.contains(line), want.contains(line))
                << "step " << step;
            break;
        }
    }
    EXPECT_EQ(got.hits(), want.hit_count);
    EXPECT_EQ(got.misses(), want.miss_count);
    EXPECT_EQ(got.writebacks(), want.writeback_count);
    EXPECT_GT(got.writebacks(), 0u);
}

// 1- to 16-way, including the default L1 (32x8), L2 (128x8) and L3
// (128x16) shapes of CacheParams.
INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheDifferential,
    ::testing::Values(CacheShape{8, 1}, CacheShape{4, 2}, CacheShape{4, 4},
                      CacheShape{32, 8}, CacheShape{128, 8},
                      CacheShape{2, 12}, CacheShape{16, 12},
                      CacheShape{128, 16}),
    [](const ::testing::TestParamInfo<CacheShape> &info) {
        return std::to_string(info.param.sets) + "sets_" +
               std::to_string(info.param.ways) + "way";
    });

class TlbDifferential : public ::testing::TestWithParam<TlbParams>
{
};

TEST_P(TlbDifferential, MatchesTickStampedReference)
{
    const TlbParams p = GetParam();
    Tlb got(p);
    ref::Tlb want(p);
    // Twice the STLB reach, in pages and in 2 MiB ranges.
    const std::uint64_t pages = 2 * p.stlbEntries;
    const std::uint64_t ranges = 2 * p.stlbHugeEntries;
    Rng rng(0xbeef + p.l1Ways * 131 + p.stlbWays);
    for (std::uint64_t step = 0; step < 40000; ++step) {
        const PageNum vpn = rng.nextBounded(pages);
        const PageNum base = rng.nextBounded(ranges) << kPagesPerHugeShift;
        switch (rng.nextBounded(16)) {
          case 0: case 1: case 2: case 3: case 4: case 5:
            ASSERT_EQ(got.lookup(vpn), want.lookup(vpn)) << "step " << step;
            break;
          case 6: case 7: case 8:
            ASSERT_EQ(got.lookupHuge(base), want.lookupHuge(base))
                << "step " << step;
            break;
          case 9:
            // The reference keeps a duplicate for a resident range,
            // which insertHuge no longer does; compare absent ranges.
            if (!want.hugeHeld(base)) {
                got.insertHuge(base);
                want.insertHuge(base);
            }
            break;
          case 10:
            if (want.l1Holds(vpn)) {
                const std::uint64_t n = 1 + rng.nextBounded(4);
                got.repeatHits(vpn, n);
                ASSERT_TRUE(want.repeatHits(vpn, n));
            }
            break;
          case 11:
            if (want.l1HugeHolds(base)) {
                const std::uint64_t n = 1 + rng.nextBounded(4);
                got.repeatHitsHuge(base, n);
                ASSERT_TRUE(want.repeatHitsHuge(base, n));
            }
            break;
          case 12: case 13:
            got.invalidate(vpn);
            want.invalidate(vpn);
            break;
          case 14:
            got.invalidateHuge(base);
            want.invalidateHuge(base);
            break;
          default:
            if (rng.nextBounded(1024) == 0) {
                got.flushAll();
                want.flushAll();
            }
            break;
        }
    }
    EXPECT_EQ(got.l1Hits(), want.l1_hits);
    EXPECT_EQ(got.stlbHits(), want.stlb_hits);
    EXPECT_EQ(got.misses(), want.miss_count);
    EXPECT_EQ(got.hugeL1Hits(), want.huge_l1_hits);
    EXPECT_EQ(got.hugeStlbHits(), want.huge_stlb_hits);
    EXPECT_EQ(got.hugeMisses(), want.huge_miss_count);
    EXPECT_GT(got.stlbHits(), 0u);
    EXPECT_GT(got.hugeStlbHits(), 0u);
}

TlbParams
tlbShape(unsigned l1, unsigned l1_ways, unsigned stlb, unsigned stlb_ways)
{
    TlbParams p;
    p.l1Entries = l1;
    p.l1Ways = l1_ways;
    p.stlbEntries = stlb;
    p.stlbWays = stlb_ways;
    p.l1HugeEntries = l1 / 2;
    p.l1HugeWays = l1_ways;
    p.stlbHugeEntries = stlb / 2;
    p.stlbHugeWays = stlb_ways;
    return p;
}

// The default dTLB (64x4) / STLB (1536x12) with its huge classes, then
// 1-, 2-, 8- and 16-way shapes.
INSTANTIATE_TEST_SUITE_P(
    Shapes, TlbDifferential,
    ::testing::Values(TlbParams{}, tlbShape(16, 1, 64, 1),
                      tlbShape(16, 2, 128, 2), tlbShape(32, 8, 256, 8),
                      tlbShape(64, 16, 512, 16),
                      tlbShape(32, 4, 384, 12)),
    [](const ::testing::TestParamInfo<TlbParams> &info) {
        return "l1_" + std::to_string(info.param.l1Ways) + "way_stlb_" +
               std::to_string(info.param.stlbEntries) + "x" +
               std::to_string(info.param.stlbWays);
    });

}  // namespace
}  // namespace memtier
