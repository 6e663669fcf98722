/**
 * @file
 * Unit tests for the cache substrate: the MRU-ordered LRU sets,
 * set-associative caches, two-level TLB and the line-fill buffer, plus
 * a differential test of the caches and TLB against the tick-stamped
 * true-LRU reference model they replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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

/**
 * The keys of a one-set @p sets, LRU first: inserting ways() fresh keys
 * (all from @p fresh up) evicts every old key oldest first.
 */
std::vector<std::uint64_t>
lruFirst(LruSets<0> &sets, std::uint64_t fresh)
{
    std::vector<std::uint64_t> out;
    for (unsigned k = 0; k < sets.ways(); ++k) {
        const LruSets<0>::Victim v = sets.insert(fresh + k);
        if (v.valid)
            out.push_back(v.key);
    }
    return out;
}

// The narrowest set: a hit at the last slot, a fill of a full set, and
// invalidates of slot 0 and of the last slot. A level wider than 16
// ways is a configuration error where the cache or the TLB is built.
TEST(LruSets, ShiftEdgesAtOneAndMaxWays)
{
    const unsigned ways = 1;
    LruSets<0> sets(1, ways);
    std::vector<std::uint64_t> lru;  // Expected keys, LRU first.
    for (std::uint64_t k = 0; k < ways; ++k) {
        EXPECT_FALSE(sets.insert(k).valid);
        lru.push_back(k);
    }
    // Hit at the last slot: the LRU key becomes MRU.
    EXPECT_TRUE(sets.touch(0));
    lru.erase(lru.begin());
    lru.push_back(0);
    // Fill of a full set evicts the last slot.
    LruSets<0>::Victim v;
    EXPECT_FALSE(sets.touchOrInsert(1000, v));
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.key, lru.front());
    lru.erase(lru.begin());
    lru.push_back(1000);
    // Invalidate of slot 0 (the MRU key just filled).
    EXPECT_TRUE(sets.invalidate(1000));
    lru.pop_back();
    EXPECT_FALSE(sets.contains(1000));
    // Invalidate of the last slot, when any key is left.
    if (!lru.empty()) {
        EXPECT_TRUE(sets.invalidate(lru.front()));
        lru.erase(lru.begin());
    }
    EXPECT_EQ(lruFirst(sets, 5000), lru);

    EXPECT_EXIT(SetAssocCache("L2", 255 * kLineSize, 255),
                testing::ExitedWithCode(1),
                "cache L2 has 255 ways; at most 16 are supported");
    TlbParams wide;
    wide.stlbEntries = 255;
    wide.stlbWays = 255;
    EXPECT_EXIT(Tlb{wide}, testing::ExitedWithCode(1),
                "TLB level STLB has 255 ways; at most 16 are supported");
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

TEST(LruSets, InvalidatedMemoKeyMissesAfterwards)
{
    LruSets<0> sets(2, 4);
    sets.insert(6);
    EXPECT_TRUE(sets.touch(6));       // 6 is the memo key.
    EXPECT_TRUE(sets.invalidate(6));  // Drops the memo with it.
    EXPECT_FALSE(sets.touch(6));
    EXPECT_FALSE(sets.contains(6));
    LruSets<0>::Victim v;
    EXPECT_FALSE(sets.touchOrInsert(6, v));
    EXPECT_FALSE(v.valid);
    EXPECT_TRUE(sets.touch(6));
}

TEST(LruSets, ClearDropsTheMemoKey)
{
    LruSets<0> sets(1, 2);
    sets.insert(3);
    EXPECT_TRUE(sets.touch(3));  // 3 is the memo key.
    sets.clear();
    EXPECT_FALSE(sets.touch(3));
    EXPECT_FALSE(sets.contains(3));
    EXPECT_FALSE(sets.insert(3).valid);
}

TEST(LruSets, FlagProbeOnTheMemoKeySticks)
{
    LruSets<1> sets(1, 2);
    sets.insert(7 << 1);
    sets.insert(8 << 1);
    EXPECT_TRUE(sets.touch(7 << 1));        // 7 is MRU and the memo key.
    EXPECT_TRUE(sets.touch((7 << 1) | 1));  // Memo hit sets the flag.
    sets.insert(9 << 1);                   // Evicts 8.
    const LruSets<1>::Victim v = sets.insert(10 << 1);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.key, (7u << 1) | 1u);
}

TEST(LruSets, KeysSharingATagStayApart)
{
    // One set, so the 16-bit partial tag is key bits [0, 16): all four
    // keys share tag 5 and differ only above it.
    LruSets<0> sets(1, 4);
    const std::uint64_t t = 5;
    for (std::uint64_t hi = 0; hi < 4; ++hi)
        sets.insert((hi << 16) | t);
    EXPECT_TRUE(sets.touch(t));
    EXPECT_FALSE(sets.touch((std::uint64_t{4} << 16) | t));
    EXPECT_TRUE(sets.invalidate((std::uint64_t{2} << 16) | t));
    EXPECT_FALSE(sets.contains((std::uint64_t{2} << 16) | t));
    EXPECT_TRUE(sets.contains((std::uint64_t{3} << 16) | t));
    // Oldest first the set now holds 1, 3, 0 and a free slot: 99 takes
    // the free slot, and the next fill evicts 1.
    EXPECT_FALSE(sets.insert(99).valid);
    const LruSets<0>::Victim v = sets.insert(100);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.key, (std::uint64_t{1} << 16) | t);
}

TEST(LruSets, TagMatchersAgree)
{
#ifdef __SSE2__
    Rng rng(0x7a9);
    std::uint16_t tags[32];
    for (int round = 0; round < 20000; ++round) {
        // Few distinct values, so lanes match often, and tags past the
        // set (padding the SSE2 form reads) that must never show.
        for (std::uint16_t &t : tags)
            t = static_cast<std::uint16_t>(rng.nextBounded(4) * 0x4001);
        const unsigned ways = 1 + static_cast<unsigned>(rng.nextBounded(16));
        const std::uint32_t mask = (std::uint32_t{1} << ways) - 1;
        const std::uint16_t probe = tags[rng.nextBounded(32)];
        ASSERT_EQ(lru_tags::matchSse2(tags, mask, probe),
                  lru_tags::matchScalar(tags, mask, probe))
            << "ways " << ways << " tag " << probe;
    }
#else
    GTEST_SKIP() << "SSE2 matcher not built on this target";
#endif
}

/**
 * The shifting true-LRU sets that fixed slots replaced: keys in
 * MRU-first order, a hit moves its key to slot 0, the victim is the
 * last slot.
 */
template <unsigned FlagBits>
class ShiftingLru
{
  public:
    using Key = std::uint64_t;
    static constexpr Key kFlagMask = (Key{1} << FlagBits) - 1;

    ShiftingLru(std::uint64_t sets, unsigned ways)
        : num_sets(sets), assoc(ways), keys(sets * ways), fill(sets, 0)
    {
    }

    bool
    touch(Key key)
    {
        const std::uint64_t s = setOf(key);
        Key *slots = &keys[s * assoc];
        const unsigned i = find(slots, fill[s], key);
        if (i == fill[s])
            return false;
        moveToFront(slots, i, slots[i] | (key & kFlagMask));
        return true;
    }

    typename LruSets<FlagBits>::Victim
    insert(Key key)
    {
        const std::uint64_t s = setOf(key);
        Key *slots = &keys[s * assoc];
        typename LruSets<FlagBits>::Victim victim;
        unsigned &n = fill[s];
        if (n == assoc) {
            victim.valid = true;
            victim.key = slots[assoc - 1];
            moveToFront(slots, assoc - 1, key);
        } else {
            moveToFront(slots, n, key);
            ++n;
        }
        return victim;
    }

    bool
    invalidate(Key key)
    {
        const std::uint64_t s = setOf(key);
        Key *slots = &keys[s * assoc];
        const unsigned i = find(slots, fill[s], key);
        if (i == fill[s])
            return false;
        for (unsigned j = i; j + 1 < fill[s]; ++j)
            slots[j] = slots[j + 1];
        --fill[s];
        return true;
    }

    bool
    contains(Key key) const
    {
        const std::uint64_t s = setOf(key);
        return find(&keys[s * assoc], fill[s], key) < fill[s];
    }

    void clear() { std::fill(fill.begin(), fill.end(), 0u); }

  private:
    std::uint64_t setOf(Key key) const
    {
        return (key >> FlagBits) & (num_sets - 1);
    }

    static unsigned
    find(const Key *slots, unsigned n, Key key)
    {
        unsigned i = 0;
        while (i < n && ((slots[i] ^ key) & ~kFlagMask) != 0)
            ++i;
        return i;
    }

    static void
    moveToFront(Key *slots, unsigned i, Key key)
    {
        for (; i > 0; --i)
            slots[i] = slots[i - 1];
        slots[0] = key;
    }

    std::uint64_t num_sets;
    unsigned assoc;
    std::vector<Key> keys;
    std::vector<unsigned> fill;
};

/**
 * Drive one seeded random stream of every LruSets operation through
 * LruSets and ShiftingLru and require identical results. Keys come from
 * a small pool per set in which ways-many identities share each 16-bit
 * partial tag; a tenth of the probes repeat the last key used (the
 * memo key), with fresh flag bits.
 */
template <unsigned FlagBits>
void
diffAgainstShifting(std::uint64_t sets, unsigned ways, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "sets " << sets << " ways " << ways
                                    << " flag bits " << FlagBits);
    using Key = std::uint64_t;
    LruSets<FlagBits> fixed(sets, ways);
    ShiftingLru<FlagBits> shifting(sets, ways);
    Rng rng(seed);
    const unsigned set_bits = std::countr_zero(sets);
    const unsigned tag_shift = FlagBits + set_bits;
    auto flags = [&] { return rng.next() & ShiftingLru<FlagBits>::kFlagMask; };
    auto fresh = [&]() -> Key {
        const Key set = rng.nextBounded(sets);
        const Key tag = rng.nextBounded(4) * 0x3001;
        const Key hi = rng.nextBounded(ways);
        return ((hi << 16 | tag) << tag_shift) | (set << FlagBits);
    };
    Key last = 0;
    for (int op = 0; op < 6000; ++op) {
        const Key key = (rng.nextBool(0.1) ? last : fresh()) | flags();
        const std::uint64_t kind = rng.nextBounded(100);
        if (kind < 25) {
            ASSERT_EQ(fixed.touch(key), shifting.touch(key)) << "op " << op;
        } else if (kind < 55) {
            typename LruSets<FlagBits>::Victim a;
            const bool hit = shifting.touch(key);
            const typename LruSets<FlagBits>::Victim b =
                hit ? a : shifting.insert(key);
            ASSERT_EQ(fixed.touchOrInsert(key, a), hit) << "op " << op;
            ASSERT_EQ(a.valid, b.valid) << "op " << op;
            ASSERT_EQ(a.key, b.key) << "op " << op;
        } else if (kind < 70) {
            if (shifting.contains(key))
                continue;
            const auto a = fixed.insert(key);
            const auto b = shifting.insert(key);
            ASSERT_EQ(a.valid, b.valid) << "op " << op;
            ASSERT_EQ(a.key, b.key) << "op " << op;
        } else if (kind < 85) {
            ASSERT_EQ(fixed.invalidate(key), shifting.invalidate(key))
                << "op " << op;
        } else if (kind < 99) {
            ASSERT_EQ(fixed.contains(key), shifting.contains(key))
                << "op " << op;
        } else if (rng.nextBool(0.3)) {
            fixed.clear();
            shifting.clear();
        }
        last = key & ~ShiftingLru<FlagBits>::kFlagMask;
    }
    // Drain: filling ways fresh keys into every set evicts the
    // survivors oldest first, with the flag bits they gathered.
    const Key drain = Key{1} << 62;
    for (std::uint64_t s = 0; s < sets; ++s) {
        for (unsigned k = 0; k < ways; ++k) {
            const Key key = drain | (Key{k} << tag_shift) | (s << FlagBits);
            const auto a = fixed.insert(key);
            const auto b = shifting.insert(key);
            ASSERT_EQ(a.valid, b.valid) << "drain set " << s;
            ASSERT_EQ(a.key, b.key) << "drain set " << s;
        }
    }
}

TEST(LruSets, FixedSlotsMatchShiftingAtEveryWayCount)
{
    for (unsigned ways = 1; ways <= LruSets<0>::kMaxSlotWays; ++ways) {
        for (const std::uint64_t sets : {1u, 2u, 8u}) {
            diffAgainstShifting<0>(sets, ways, 0x51 + ways * 7 + sets);
            diffAgainstShifting<1>(sets, ways, 0x99 + ways * 7 + sets);
        }
    }
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
        switch (rng.nextBounded(18)) {
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
          case 15:
            if (rng.nextBounded(1024) == 0) {
                got.flushAll();
                want.flushAll();
            }
            break;
          default: {
            // A run of neighbouring pages: each fused fill is probed
            // again at once, at both levels.
            for (PageNum k = 0, n = 2 + rng.nextBounded(15); k < n; ++k) {
                ASSERT_EQ(got.lookup(vpn + k), want.lookup(vpn + k))
                    << "step " << step;
            }
            break;
          }
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

/** A fully associative 4-entry dTLB (one set) over a 64x4 STLB. */
TlbParams
oneSetL1Shape()
{
    TlbParams p = tlbShape(8, 4, 64, 4);
    p.l1Entries = 4;
    p.l1HugeEntries = 4;
    return p;
}

// The default dTLB (64x4) / STLB (1536x12) with its huge classes, then
// 1-, 2-, 8- and 16-way shapes, a one-set dTLB, and an STLB with fewer
// sets (8) than the dTLB (16).
INSTANTIATE_TEST_SUITE_P(
    Shapes, TlbDifferential,
    ::testing::Values(TlbParams{}, tlbShape(16, 1, 64, 1),
                      tlbShape(16, 2, 128, 2), tlbShape(32, 8, 256, 8),
                      tlbShape(64, 16, 512, 16),
                      tlbShape(32, 4, 384, 12), oneSetL1Shape(),
                      tlbShape(64, 4, 64, 8)),
    [](const ::testing::TestParamInfo<TlbParams> &info) {
        return "l1_" + std::to_string(info.param.l1Ways) + "way_stlb_" +
               std::to_string(info.param.stlbEntries) + "x" +
               std::to_string(info.param.stlbWays);
    });

}  // namespace
}  // namespace memtier
