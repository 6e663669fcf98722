/**
 * @file
 * Set-associative true-LRU bookkeeping, shared by the cache levels
 * (SetAssocCache) and the TLB levels (Tlb).
 *
 * A set has at most 16 ways (kMaxSlotWays): no cache or TLB level the
 * simulator builds has more, and neither does any level of the paper's
 * Xeon Gold 6240. SetAssocCache and Tlb reject a wider level as a
 * configuration error. Each key sits in a fixed slot: it is written
 * once, when it fills a slot, and never moves. A set's recency order is
 * one 64-bit word of 4-bit slot numbers, MRU first (nibble p names the
 * slot at position p), plus a fill count: the slots at positions
 * [0, fill) are valid.
 *  - A hit finds its slot's nibble with a SWAR zero-nibble test and
 *    rotates it to position 0.
 *  - A fill takes the slot at position min(fill, ways-1) and rotates
 *    it to position 0. In a full set that is the LRU victim; otherwise
 *    it is a free slot and nothing is evicted.
 *  - Invalidate moves the slot to position fill-1 and shrinks the fill.
 * A lookup matches a 16-bit partial tag per slot (SSE2, eight slots per
 * compare, with a scalar fallback) and confirms every candidate against
 * the full key and its position: a slot at position >= fill may still
 * hold a stale key.
 *
 * Each LruSets also remembers the slot of the last key it touched or
 * filled. That key is the MRU of its set until the next touch or fill
 * (which takes over the memo), its invalidate or a clear (which drop
 * the memo): nothing else reorders a set or evicts from it. A repeat
 * probe of the memo key is therefore a hit with nothing to reorder --
 * its flag bits are ORed in and no set is walked.
 *
 * This is exactly true LRU, identical to stamping each way with
 * a per-level tick on every use and evicting the smallest stamp after
 * the first invalid way: stamps of valid ways are distinct and strictly
 * increasing in use order, so sorting a set by stamp gives the MRU
 * order kept here; the victim of a full set is the key at the last
 * position under both; and an insert into a set with an invalid way
 * evicts nothing under either scheme, whichever free way it lands in.
 *
 * A key may carry @p FlagBits low payload bits (the cache's dirty bit)
 * that take no part in matching, tagging or set selection; a hit ORs
 * the probe's flag bits into the resident key.
 */

#ifndef MEMTIER_CACHE_LRU_SETS_H_
#define MEMTIER_CACHE_LRU_SETS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "base/logging.h"

namespace memtier {

namespace lru_tags {

/**
 * Bit i set where tags[i] == @p tag, for each slot i of a set of
 * 1..16 ways, @p way_mask being (1 << ways) - 1: the portable matcher.
 */
inline std::uint32_t
matchScalar(const std::uint16_t *tags, std::uint32_t way_mask,
            std::uint16_t tag)
{
    std::uint32_t hits = 0;
    for (unsigned i = 0; (way_mask >> i) != 0; ++i)
        hits |= std::uint32_t{tags[i] == tag} << i;
    return hits;
}

#ifdef __SSE2__
/**
 * matchScalar() with one 8-lane compare per eight ways. Reads
 * tags[0, 8), or tags[0, 16) past eight ways, whatever the way count:
 * the caller pads the array so those reads stay in bounds.
 */
inline std::uint32_t
matchSse2(const std::uint16_t *tags, std::uint32_t way_mask,
          std::uint16_t tag)
{
    const __m128i probe = _mm_set1_epi16(static_cast<short>(tag));
    const __m128i lo = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(tags)), probe);
    const __m128i hi =
        way_mask > 0xff ? _mm_cmpeq_epi16(_mm_loadu_si128(
                                       reinterpret_cast<const __m128i *>(
                                           tags + 8)),
                                   probe)
                 : lo;
    // Saturating pack turns each all-ones 16-bit lane into one all-ones
    // byte, so the byte mask has one bit per way.
    const std::uint32_t hits = static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
    return hits & way_mask;
}
#endif

/** The matcher this build uses (same contract as matchSse2). */
[[gnu::always_inline]] inline std::uint32_t
match(const std::uint16_t *tags, std::uint32_t way_mask, std::uint16_t tag)
{
#ifdef __SSE2__
    return matchSse2(tags, way_mask, tag);
#else
    return matchScalar(tags, way_mask, tag);
#endif
}

}  // namespace lru_tags

template <unsigned FlagBits>
class LruSets
{
  public:
    using Key = std::uint64_t;

    /** Low key bits that are payload, not identity. */
    static constexpr Key kFlagMask = (Key{1} << FlagBits) - 1;

    /** Widest set: one 4-bit recency nibble per way in a 64-bit word. */
    static constexpr unsigned kMaxSlotWays = 16;

    /** A key displaced by an insert. */
    struct Victim
    {
        bool valid = false;
        Key key = 0;
    };

    /**
     * @param sets number of sets (a power of two).
     * @param ways associativity (1..kMaxSlotWays).
     */
    LruSets(std::uint64_t sets, unsigned ways)
        : num_sets(sets), assoc(ways),
          tag_shift(FlagBits + std::countr_zero(sets)),
          way_mask((std::uint32_t{1} << ways) - 1)
    {
        MEMTIER_ASSERT(ways > 0 && ways <= kMaxSlotWays,
                       "LRU set needs 1..16 ways");
        MEMTIER_ASSERT(std::has_single_bit(sets),
                       "number of sets must be a power of two");
        keys.assign(sets * ways, 0);
        fill.assign(sets, 0);
        // Padded so the matcher's 8- or 16-lane reads at the last set
        // stay in bounds.
        tags.assign(sets * ways + kMaxSlotWays, 0);
        order.assign(sets, kIdentityOrder);
    }

    std::uint64_t sets() const { return num_sets; }
    unsigned ways() const { return assoc; }

    /**
     * Look up @p key; on a hit make it the set's MRU and OR @p key's
     * flag bits into it.
     * @return true on hit.
     */
    [[gnu::always_inline]] bool
    touch(Key key)
    {
        if (memoHit(key))
            return true;
        const std::uint64_t s = setOf(key);
        unsigned slot;
        unsigned pos;
        if (!find(s, key, slot, pos))
            return false;
        promote(s, slot, pos, key);
        return true;
    }

    /**
     * Insert @p key as its set's MRU, displacing the LRU key when the
     * set is full. Precondition: no resident key matches @p key (debug
     * builds check it).
     */
    Victim
    insert(Key key)
    {
        MEMTIER_DEBUG_ASSERT(!contains(key), "LRU insert of a resident key");
        return fillSlot(setOf(key), key);
    }

    /**
     * touch() on a hit, insert() on a miss, in one walk of the set.
     * @return true on hit (@p victim untouched).
     */
    [[gnu::always_inline]] bool
    touchOrInsert(Key key, Victim &victim)
    {
        if (memoHit(key))
            return true;
        const std::uint64_t s = setOf(key);
        unsigned slot;
        unsigned pos;
        if (find(s, key, slot, pos)) {
            promote(s, slot, pos, key);
            return true;
        }
        victim = fillSlot(s, key);
        return false;
    }

    /** Drop the resident key matching @p key. @return true if found. */
    bool
    invalidate(Key key)
    {
        const std::uint64_t s = setOf(key);
        unsigned slot;
        unsigned pos;
        if (!find(s, key, slot, pos))
            return false;
        if (memo == s * assoc + slot)
            memo = kNoMemo;
        const unsigned last = fill[s] - 1u;
        order[s] = toPosition(order[s], pos, last, slot);
        fill[s] = static_cast<std::uint8_t>(last);
        return true;
    }

    /** True when a resident key matches @p key (no recency update). */
    bool
    contains(Key key) const
    {
        unsigned slot;
        unsigned pos;
        return find(setOf(key), key, slot, pos);
    }

    /** Empty every set. */
    void
    clear()
    {
        // Stale keys, tags and orders stay: positions >= fill (now all)
        // are never matched, and any order of the free slots will do.
        std::fill(fill.begin(), fill.end(), 0);
        memo = kNoMemo;
    }

  private:
    /** Slot p at position p; nibbles at positions >= ways never move. */
    static constexpr std::uint64_t kIdentityOrder = 0xfedcba9876543210;

    static constexpr std::size_t kNoMemo = ~std::size_t{0};

    static constexpr Key kNibbleOnes = 0x1111111111111111;

    std::uint64_t setOf(Key key) const
    {
        return (key >> FlagBits) & (num_sets - 1);
    }

    std::uint16_t tagOf(Key key) const
    {
        return static_cast<std::uint16_t>(key >> tag_shift);
    }

    static bool same(Key a, Key b) { return ((a ^ b) & ~kFlagMask) == 0; }

    /**
     * A hit on the memo key: merge the flag bits. The key is already its
     * set's MRU, so there is nothing to reorder.
     */
    [[gnu::always_inline]] bool
    memoHit(Key key)
    {
        if (memo == kNoMemo || !same(keys[memo], key))
            return false;
        keys[memo] |= key & kFlagMask;
        return true;
    }

    /** Position (0 = MRU) of @p slot in @p order: its zero nibble. */
    static unsigned
    positionOf(std::uint64_t order, unsigned slot)
    {
        const std::uint64_t x = order ^ (kNibbleOnes * slot);
        // The lowest flagged nibble is exactly the lowest zero nibble
        // (borrows only run upward from it); the slot occurs once.
        const std::uint64_t zero = (x - kNibbleOnes) & ~x & (kNibbleOnes << 3);
        // Never zero, so the builtin's undefined zero case is moot.
        return static_cast<unsigned>(__builtin_ctzll(zero)) >> 2;
    }

    /** @p order with @p slot, now at position @p pos, moved to 0. */
    static std::uint64_t
    toFront(std::uint64_t order, unsigned pos, unsigned slot)
    {
        // Positions [0, pos]; wraps to all ones at pos 15.
        const std::uint64_t through = (std::uint64_t{16} << (4 * pos)) - 1;
        return (order & ~through) | ((order << 4) & through) | slot;
    }

    /**
     * @p order with @p slot, now at position @p pos, moved to position
     * @p last >= pos; positions (pos, last] move forward one.
     */
    static std::uint64_t
    toPosition(std::uint64_t order, unsigned pos, unsigned last,
               unsigned slot)
    {
        const std::uint64_t below = (std::uint64_t{1} << (4 * pos)) - 1;
        const std::uint64_t before_last =
            (std::uint64_t{1} << (4 * last)) - 1;
        const std::uint64_t shifted = before_last & ~below;
        const std::uint64_t moved =
            shifted | (std::uint64_t{15} << (4 * last));
        return (order & ~moved) | ((order >> 4) & shifted) |
               (std::uint64_t{slot} << (4 * last));
    }

    /**
     * The slot of set @p s holding @p key and its position, among the
     * valid positions [0, fill).
     * @return false when no valid slot holds @p key.
     */
    [[gnu::always_inline]] bool
    find(std::uint64_t s, Key key, unsigned &slot, unsigned &pos) const
    {
        const std::size_t base = s * assoc;
        std::uint32_t candidates =
            lru_tags::match(&tags[base], way_mask, tagOf(key));
        while (candidates != 0) {
            const unsigned i = std::countr_zero(candidates);
            candidates &= candidates - 1;
            if (!same(keys[base + i], key))
                continue;
            const unsigned p = positionOf(order[s], i);
            if (p < fill[s]) {
                slot = i;
                pos = p;
                return true;
            }
        }
        return false;
    }

    /** A hit on @p slot at position @p pos of set @p s. */
    [[gnu::always_inline]] void
    promote(std::uint64_t s, unsigned slot, unsigned pos, Key key)
    {
        const std::size_t at = s * assoc + slot;
        keys[at] |= key & kFlagMask;
        order[s] = toFront(order[s], pos, slot);
        memo = at;
    }

    /**
     * Fill @p key into set @p s as its MRU, evicting the LRU key when
     * the set is full.
     */
    [[gnu::always_inline]] Victim
    fillSlot(std::uint64_t s, Key key)
    {
        const unsigned n = fill[s];
        const unsigned pos = n < assoc ? n : assoc - 1;
        const std::uint64_t o = order[s];
        const unsigned slot = static_cast<unsigned>(o >> (4 * pos)) & 15;
        const std::size_t at = s * assoc + slot;
        Victim victim;
        if (n == assoc) {
            victim.valid = true;
            victim.key = keys[at];
        } else {
            fill[s] = static_cast<std::uint8_t>(n + 1);
        }
        keys[at] = key;
        tags[at] = tagOf(key);
        order[s] = toFront(o, pos, slot);
        memo = at;
        return victim;
    }

    std::uint64_t num_sets;
    unsigned assoc;
    unsigned tag_shift;            ///< Key bits below the partial tag.
    std::uint32_t way_mask;        ///< One bit per slot.
    std::size_t memo = kNoMemo;    ///< Index in keys of the memo key.
    std::vector<Key> keys;         ///< num_sets * assoc.
    std::vector<std::uint8_t> fill;  ///< Valid keys per set.
    /** Partial tag per slot, plus padding. */
    std::vector<std::uint16_t> tags;
    /** Recency word per set, MRU first. */
    std::vector<std::uint64_t> order;
};

}  // namespace memtier

#endif  // MEMTIER_CACHE_LRU_SETS_H_
