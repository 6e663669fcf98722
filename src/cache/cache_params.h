/**
 * @file
 * Geometry and latency configuration of the cache hierarchy.
 *
 * Defaults are scaled: the paper's Xeon Gold 6240 has 32 KiB L1 / 1 MiB L2
 * per core and a 24.75 MiB shared L3 against a ~250 GB footprint. At the
 * simulator's ~64 MiB footprints we keep L1 at full size but shrink L2/L3
 * so the cache:footprint ratio, and therefore the fraction of samples
 * serviced outside the caches (the paper's 25-50% band), is preserved.
 */

#ifndef MEMTIER_CACHE_CACHE_PARAMS_H_
#define MEMTIER_CACHE_CACHE_PARAMS_H_

#include <cstdint>

#include "base/types.h"
#include "cache/tlb.h"

namespace memtier {

/**
 * Cache hierarchy configuration (per-thread L1/L2, shared L3). Each
 * level has 1..16 ways; more is a fatal configuration error.
 */
struct CacheParams
{
    std::uint64_t l1Size = 16 * kKiB;
    unsigned l1Ways = 8;
    Cycles l1Latency = 4;

    std::uint64_t l2Size = 64 * kKiB;
    unsigned l2Ways = 8;
    Cycles l2Latency = 14;

    std::uint64_t l3Size = 128 * kKiB;
    unsigned l3Ways = 16;
    Cycles l3Latency = 42;

    /**
     * Cycles a completed fill stays attributable to the line-fill
     * buffer. PEBS tags loads that hit a just-filled/in-flight line as
     * LFB; an in-order model needs this residency window to reproduce
     * the overlap an out-of-order core would have.
     */
    Cycles lfbResidencyCycles = 300;

    /** Fixed cost of walking the page tables (cached walk). */
    Cycles pageWalkBaseCycles = 28;

    /**
     * Number of page-table references in a walk that miss the caches and
     * go to memory; charged at the DRAM random-load latency because page
     * tables live on the DRAM node.
     */
    unsigned pageWalkMemRefs = 2;

    /**
     * Memory references of a walk that ends at a PMD entry: the walk is
     * one level shorter, so one fewer reference leaves the caches.
     */
    unsigned pageWalkMemRefsHuge = 1;

    TlbParams tlb;
};

}  // namespace memtier

#endif  // MEMTIER_CACHE_CACHE_PARAMS_H_
