/**
 * @file
 * Generic set-associative, write-back, write-allocate cache with true
 * LRU replacement (kept by LruSets), used for L1/L2 (per logical
 * thread) and the shared L3.
 *
 * The simulator indexes caches by virtual line address: graph objects are
 * large contiguous mmap regions so virtual and physical locality coincide,
 * and page migration between tiers does not move data relative to the
 * cache index in a way that matters for the paper's characterization.
 */

#ifndef MEMTIER_CACHE_SET_ASSOC_CACHE_H_
#define MEMTIER_CACHE_SET_ASSOC_CACHE_H_

#include <cstdint>
#include <string>

#include "base/types.h"
#include "cache/lru_sets.h"

namespace memtier {

/** Information about a line displaced by an insert. */
struct CacheEviction
{
    bool valid = false;  ///< True when a line was displaced.
    Addr line = 0;       ///< Line index (addr >> kLineShift) displaced.
    bool dirty = false;  ///< True when the displaced line needs writeback.
};

/** A single cache level. */
class SetAssocCache
{
  public:
    /**
     * @param name level name for stats ("L1", "L2", "L3").
     * @param size_bytes total capacity (must be sets*ways*64).
     * @param ways associativity.
     */
    SetAssocCache(std::string name, std::uint64_t size_bytes, unsigned ways);

    /**
     * Look up @p line; updates LRU and the dirty bit on hit.
     * @param line line index (addr >> kLineShift).
     * @param is_write true for stores (sets the dirty bit on hit).
     * @return true on hit.
     */
    bool access(Addr line, bool is_write);

    /**
     * Insert @p line after a miss, evicting the LRU way if needed.
     * Precondition: @p line is not resident (debug builds check it).
     * @param line line index to insert.
     * @param dirty initial dirty state (true for store-allocate).
     * @return the displaced line, if any.
     */
    CacheEviction insert(Addr line, bool dirty);

    /**
     * access() then, on a miss, insert(), in one walk of the set: a hit
     * merges @p dirty into the resident line, a miss fills it. Counts
     * hits and misses exactly as access() does.
     * @param evicted set to the displaced line on a miss.
     * @return true on hit.
     */
    bool accessOrInsert(Addr line, bool dirty, CacheEviction &evicted);

    /**
     * Batch accounting for @p count >= 1 back-to-back accesses of
     * @p line that are guaranteed hits (the line was just filled or hit
     * and nothing evicted it in between). Equivalent to @p count
     * access() calls: the line becomes MRU, the dirty bit absorbs
     * @p any_write, and the hit counter grows by @p count -- one set
     * walk instead of @p count.
     */
    void accessRepeats(Addr line, std::uint64_t count, bool any_write);

    /** Remove @p line if present (no writeback signalling). */
    void invalidate(Addr line);

    /** Drop all lines (e.g. between experiment phases). */
    void clear();

    /** True when @p line is currently resident (no LRU update). */
    bool contains(Addr line) const;

    std::uint64_t hits() const { return hit_count; }
    std::uint64_t misses() const { return miss_count; }
    std::uint64_t writebacks() const { return writeback_count; }
    const std::string &name() const { return label; }
    std::uint64_t sizeBytes() const
    {
        return lines.sets() * lines.ways() * kLineSize;
    }

  private:
    /**
     * Keys carry the dirty bit in bit 0 below the line index (line
     * indices are at most 58 bits wide, so the shift loses nothing).
     */
    using Lines = LruSets<1>;

    static Lines::Key key(Addr line, bool dirty)
    {
        return (line << 1) | (dirty ? 1 : 0);
    }

    /** @p victim as a CacheEviction, counting a dirty one's writeback. */
    CacheEviction evictionOf(const Lines::Victim &victim);

    std::string label;
    Lines lines;
    std::uint64_t hit_count = 0;
    std::uint64_t miss_count = 0;
    std::uint64_t writeback_count = 0;
};

// The per-access methods are inline so the engine's hot path folds
// them into its own code. accessOrInsert, the probe of every access,
// is forced inline: GCC otherwise keeps one out-of-line copy that the
// engine's three level probes and its victim push all call.

inline CacheEviction
SetAssocCache::evictionOf(const Lines::Victim &victim)
{
    CacheEviction evicted;
    if (victim.valid) {
        evicted.valid = true;
        evicted.line = victim.key >> 1;
        evicted.dirty = victim.key & 1;
        if (evicted.dirty)
            ++writeback_count;
    }
    return evicted;
}

inline bool
SetAssocCache::access(Addr line, bool is_write)
{
    if (lines.touch(key(line, is_write))) {
        ++hit_count;
        return true;
    }
    ++miss_count;
    return false;
}

inline CacheEviction
SetAssocCache::insert(Addr line, bool dirty)
{
    return evictionOf(lines.insert(key(line, dirty)));
}

[[gnu::always_inline]] inline bool
SetAssocCache::accessOrInsert(Addr line, bool dirty, CacheEviction &evicted)
{
    Lines::Victim victim;
    if (lines.touchOrInsert(key(line, dirty), victim)) {
        ++hit_count;
        return true;
    }
    ++miss_count;
    evicted = evictionOf(victim);
    return false;
}

inline bool
SetAssocCache::contains(Addr line) const
{
    return lines.contains(key(line, false));
}

}  // namespace memtier

#endif  // MEMTIER_CACHE_SET_ASSOC_CACHE_H_
