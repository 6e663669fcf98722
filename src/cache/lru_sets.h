/**
 * @file
 * Set-associative true-LRU bookkeeping, shared by the cache levels
 * (SetAssocCache) and the TLB levels (Tlb).
 *
 * Each set stores its resident keys in MRU-first order plus a fill
 * count: slots [0, fill) are valid, slot 0 is the most recently used
 * and slot fill-1 the least. A hit shifts the keys in front of it back
 * by one slot and puts the hit key at slot 0; an insert does the same
 * from the end, so the victim of a full set is always the last slot and
 * needs no scan. Invalidate closes the gap, and clear zeroes the fill
 * counts. Every shift is a plain word loop of at most ways-1 words:
 * a variable-length memmove would be a libc call per hit and per fill.
 *
 * This is exactly true LRU, identical to stamping each way with a
 * per-level tick on every use and evicting the smallest stamp after the
 * first invalid way: stamps of valid ways are distinct and strictly
 * increasing in use order, so sorting a set by stamp gives the MRU
 * order kept here; and an insert into a set with an invalid way evicts
 * nothing under either scheme, whichever free way it lands in.
 *
 * A key may carry @p FlagBits low payload bits (the cache's dirty bit)
 * that take no part in matching or set selection; a hit ORs the probe's
 * flag bits into the resident key.
 */

#ifndef MEMTIER_CACHE_LRU_SETS_H_
#define MEMTIER_CACHE_LRU_SETS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.h"

namespace memtier {

template <unsigned FlagBits>
class LruSets
{
  public:
    using Key = std::uint64_t;

    /** Low key bits that are payload, not identity. */
    static constexpr Key kFlagMask = (Key{1} << FlagBits) - 1;

    /** A key displaced by an insert. */
    struct Victim
    {
        bool valid = false;
        Key key = 0;
    };

    /**
     * @param sets number of sets (a power of two).
     * @param ways associativity (1..255).
     */
    LruSets(std::uint64_t sets, unsigned ways)
        : num_sets(sets), assoc(ways)
    {
        MEMTIER_ASSERT(ways > 0 && ways <= 255,
                       "LRU set needs 1..255 ways");
        MEMTIER_ASSERT(std::has_single_bit(sets),
                       "number of sets must be a power of two");
        keys.assign(sets * ways, 0);
        fill.assign(sets, 0);
    }

    std::uint64_t sets() const { return num_sets; }
    unsigned ways() const { return assoc; }

    /**
     * Look up @p key; on a hit make it the set's MRU and OR @p key's
     * flag bits into it.
     * @return true on hit.
     */
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

    /**
     * Insert @p key as its set's MRU, displacing the LRU key when the
     * set is full. Precondition: no resident key matches @p key (debug
     * builds check it).
     */
    Victim
    insert(Key key)
    {
        const std::uint64_t s = setOf(key);
        Key *slots = &keys[s * assoc];
        MEMTIER_DEBUG_ASSERT(find(slots, fill[s], key) == fill[s],
                             "LRU insert of a resident key");
        return pushFront(slots, fill[s], key);
    }

    /**
     * touch() on a hit, insert() on a miss, in one walk of the set.
     * @return true on hit (@p victim untouched).
     */
    bool
    touchOrInsert(Key key, Victim &victim)
    {
        const std::uint64_t s = setOf(key);
        Key *slots = &keys[s * assoc];
        const unsigned i = find(slots, fill[s], key);
        if (i < fill[s]) {
            moveToFront(slots, i, slots[i] | (key & kFlagMask));
            return true;
        }
        victim = pushFront(slots, fill[s], key);
        return false;
    }

    /** Drop the resident key matching @p key. @return true if found. */
    bool
    invalidate(Key key)
    {
        const std::uint64_t s = setOf(key);
        Key *slots = &keys[s * assoc];
        const unsigned n = fill[s];
        const unsigned i = find(slots, n, key);
        if (i == n)
            return false;
        // Close the gap from the back: each key behind slot i moves one
        // slot forward. (A forward copy loop GCC turns into memmove.)
        Key carry = slots[n - 1];
        for (unsigned j = n - 1; j > i; --j)
            std::swap(slots[j - 1], carry);
        fill[s] = static_cast<std::uint8_t>(n - 1);
        return true;
    }

    /** True when a resident key matches @p key (no recency update). */
    bool
    contains(Key key) const
    {
        const std::uint64_t s = setOf(key);
        return find(&keys[s * assoc], fill[s], key) < fill[s];
    }

    /** Empty every set. */
    void clear() { std::fill(fill.begin(), fill.end(), 0); }

  private:
    std::uint64_t setOf(Key key) const
    {
        return (key >> FlagBits) & (num_sets - 1);
    }

    /** Slot of the key matching @p key among @p n, or @p n. */
    static unsigned
    find(const Key *slots, unsigned n, Key key)
    {
        unsigned i = 0;
        while (i < n && ((slots[i] ^ key) & ~kFlagMask) != 0)
            ++i;
        return i;
    }

    /** Shift slots [0, i) back one and store @p key at slot 0. */
    static void
    moveToFront(Key *slots, unsigned i, Key key)
    {
        for (; i > 0; --i)
            slots[i] = slots[i - 1];
        slots[0] = key;
    }

    /** Insert @p key at slot 0 of a set holding @p n keys. */
    Victim
    pushFront(Key *slots, std::uint8_t &n, Key key)
    {
        Victim victim;
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

    std::uint64_t num_sets;
    unsigned assoc;
    std::vector<Key> keys;          ///< num_sets * assoc, MRU first.
    std::vector<std::uint8_t> fill;  ///< Valid keys per set.
};

}  // namespace memtier

#endif  // MEMTIER_CACHE_LRU_SETS_H_
