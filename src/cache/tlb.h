/**
 * @file
 * Two-level data TLB (L1 dTLB + STLB) per logical thread.
 *
 * The paper's Table 3 splits external access cost by TLB hit vs. TLB miss;
 * we define "TLB miss" as an access that missed both levels and required a
 * page walk, matching the perf-mem dtlb_miss flag.
 */

#ifndef MEMTIER_CACHE_TLB_H_
#define MEMTIER_CACHE_TLB_H_

#include <cstdint>

#include "base/types.h"
#include "cache/lru_sets.h"

namespace memtier {

/** Outcome of a TLB lookup. */
enum class TlbOutcome : std::uint8_t {
    L1Hit = 0,  ///< Hit in the first-level dTLB (no extra cost).
    StlbHit,    ///< Missed L1, hit the unified second level (small cost).
    Miss,       ///< Missed both levels; page walk required.
};

/** Configuration of the two TLB levels. */
struct TlbParams
{
    unsigned l1Entries = 64;     ///< Skylake-like 64-entry 4-way dTLB.
    unsigned l1Ways = 4;
    unsigned stlbEntries = 1536; ///< 1536-entry 12-way unified STLB.
    unsigned stlbWays = 12;
    Cycles stlbHitCycles = 9;    ///< Added when L1 misses but STLB hits.

    /**
     * Separate 2 MiB entry classes (Skylake keeps a 32-entry 4-way
     * dTLB array for 2M/4M pages; the STLB's 2 MiB class is sized like
     * the unified array). One huge entry covers 512 base pages, so TLB
     * reach grows by orders of magnitude when THP is on. The arrays
     * exist regardless but see traffic only for PMD-mapped ranges.
     */
    unsigned l1HugeEntries = 32;
    unsigned l1HugeWays = 4;
    unsigned stlbHugeEntries = 1536;
    unsigned stlbHugeWays = 12;
};

/**
 * A two-level, set-associative, true-LRU TLB (each level an LruSets)
 * with separate 4 KiB and 2 MiB entry classes per level. The 4 KiB path
 * (@ref lookup) never touches the huge arrays, keeping THP-off runs
 * bit-identical.
 */
class Tlb
{
  public:
    /** @param params geometry and timing. */
    explicit Tlb(const TlbParams &params = TlbParams{});

    /**
     * Translate page @p vpn; fills both levels on miss.
     * @return where the translation was found.
     */
    TlbOutcome lookup(PageNum vpn);

    /**
     * Translate the PMD-mapped range at @p base_vpn through the 2 MiB
     * entry classes; fills both huge levels on miss.
     */
    TlbOutcome lookupHuge(PageNum base_vpn);

    /**
     * Install the 2 MiB translation at @p base_vpn in both levels as
     * MRU (used when a fault upgraded a range under a 4 KiB lookup). A
     * level that already holds it refreshes the entry instead of
     * keeping a duplicate.
     */
    void insertHuge(PageNum base_vpn);

    /**
     * Batch accounting for @p count back-to-back lookups of @p vpn that
     * are guaranteed L1 hits (the entry was just filled or hit and no
     * shootdown intervened). Equivalent to @p count lookup() calls:
     * the entry becomes MRU and the L1 hit counter grows by @p count --
     * one set walk instead of @p count.
     */
    void repeatHits(PageNum vpn, std::uint64_t count);

    /** Batch accounting for guaranteed 2 MiB-class L1 hits. */
    void repeatHitsHuge(PageNum base_vpn, std::uint64_t count);

    /** Drop any cached translation of @p vpn (PTE changed). */
    void invalidate(PageNum vpn);

    /** Drop the cached 2 MiB translation at @p base_vpn (PMD changed). */
    void invalidateHuge(PageNum base_vpn);

    /** Flush all levels and entry classes. */
    void flushAll();

    /** Extra cycles charged for an STLB hit. */
    Cycles stlbHitCycles() const { return cfg.stlbHitCycles; }

    std::uint64_t l1Hits() const { return l1_hits; }
    std::uint64_t stlbHits() const { return stlb_hits; }
    std::uint64_t misses() const { return miss_count; }

    /** Hits/misses of the 2 MiB entry classes (kept separate so the
     *  4 KiB counters stay comparable across THP on/off runs). */
    std::uint64_t hugeL1Hits() const { return huge_l1_hits; }
    std::uint64_t hugeStlbHits() const { return huge_stlb_hits; }
    std::uint64_t hugeMisses() const { return huge_miss_count; }

  private:
    /** One TLB level of one entry class, keyed by page number. */
    using Level = LruSets<0>;

    TlbParams cfg;
    Level l1;
    Level stlb;
    Level l1Huge;
    Level stlbHuge;
    std::uint64_t l1_hits = 0;
    std::uint64_t stlb_hits = 0;
    std::uint64_t miss_count = 0;
    std::uint64_t huge_l1_hits = 0;
    std::uint64_t huge_stlb_hits = 0;
    std::uint64_t huge_miss_count = 0;
};

}  // namespace memtier

#endif  // MEMTIER_CACHE_TLB_H_
