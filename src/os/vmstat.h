/**
 * @file
 * The vmstat counters the paper tracks (Section 6.6), plus a few extra
 * fault counters useful for analysis. Values are cumulative, as in
 * /proc/vmstat; consumers compute deltas between two readings exactly as
 * the paper does.
 *
 * Every counter is declared once, in MEMTIER_VMSTAT_COUNTERS. The table
 * expands to the VmStat fields, VmStat::delta(), the kVmStatCounters
 * walk and writeVmstat()'s /proc/vmstat dump.
 */

#ifndef MEMTIER_OS_VMSTAT_H_
#define MEMTIER_OS_VMSTAT_H_

#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <type_traits>

namespace memtier {

/**
 * The counter table: X(field, name) per counter, in VmStat layout
 * order. `name` is the counter's /proc/vmstat name, the snake_case
 * form of `field`; it is an external format (dumps, the paper's
 * counter names), so a rename must be deliberate.
 */
#define MEMTIER_VMSTAT_COUNTERS(X)                                       \
    /* Minor page faults (first touch of a mapped page). */              \
    X(pgfault, "pgfault")                                                \
    /* NUMA hint page faults taken on scanner-marked pages. */           \
    X(numaHintFaults, "numa_hint_faults")                                \
    /* Pages successfully promoted NVM -> DRAM. */                       \
    X(pgpromoteSuccess, "pgpromote_success")                             \
    /* Promoted pages that were later demoted back (thrashing signal). */\
    X(pgpromoteDemoted, "pgpromote_demoted")                             \
    /* Pages demoted DRAM -> NVM by periodic kswapd reclaim. */          \
    X(pgdemoteKswapd, "pgdemote_kswapd")                                 \
    /* Pages demoted DRAM -> NVM by synchronous direct reclaim. */       \
    X(pgdemoteDirect, "pgdemote_direct")                                 \
    /* Reclaim demotion proposals vetoed/redirected by the policy. */    \
    X(pgdemoteVetoed, "pgdemote_vetoed")                                 \
    /* Direct hot/cold page exchanges (one exchange swaps two pages). */ \
    X(pgexchangeSuccess, "pgexchange_success")                           \
    /* Exchanged-in pages later pushed back out (exchange thrashing). */ \
    X(pgexchangeThrash, "pgexchange_thrash")                             \
    /* Pages moved by successful migrations: promotions + demotions      \
       + two per exchange. Soft offlines are not counted. */             \
    X(pgmigrateSuccess, "pgmigrate_success")                             \
    /* Promotion candidates seen (below threshold, may not migrate). */  \
    X(promoteCandidates, "promote_candidates")                           \
    /* Promotions skipped because the rate limit was exhausted. */       \
    X(promoteRateLimited, "promote_rate_limited")                        \
    /* Clean page-cache pages dropped by reclaim (no tiering path). */   \
    X(pageCacheDrops, "page_cache_drops")                                \
    /* Migrations that failed on a transient copy fault or on ENOMEM     \
       (promotion, demotion, exchange, soft-offline copy). A soft        \
       offline with no healthy frame is not counted. */                  \
    X(pgmigrateFail, "pgmigrate_fail")                                   \
    /* Promotion attempts retried after a transient failure. */          \
    X(promoteRetry, "promote_retry")                                     \
    /* Promotions/exchanges suppressed while the breaker was open. */    \
    X(promotePaused, "promote_paused")                                   \
    /* DRAM frame allocations failed by the fault injector. */           \
    X(pgallocFail, "pgalloc_fail")                                       \
    /* Page-cache disk reads re-issued after a transient read error. */  \
    X(diskReadRetry, "disk_read_retry")                                  \
    /* Times the migration circuit breaker tripped open. */              \
    X(breakerTrips, "breaker_trips")                                     \
    /* Huge pages allocated directly on first touch. */                  \
    X(thpFaultAlloc, "thp_fault_alloc")                                  \
    /* Eligible first touches that fell back to a 4 KiB allocation. */   \
    X(thpFaultFallback, "thp_fault_fallback")                            \
    /* 4 KiB ranges collapsed into PMD mappings. */                      \
    X(thpCollapseAlloc, "thp_collapse_alloc")                            \
    /* Collapse attempts defeated by fragmentation (no 2 MiB frame). */  \
    X(thpCollapseFail, "thp_collapse_fail")                              \
    /* PMD mappings split back into 4 KiB PTEs. */                       \
    X(thpSplitPage, "thp_split_page")                                    \
    /* PMD mappings freed whole by munmap. */                            \
    X(thpUnmapHuge, "thp_unmap_huge")                                    \
    /* Correctable ECC errors observed on mapped frames. */              \
    X(hwpoisonCe, "hwpoison_ce")                                         \
    /* Uncorrectable ECC errors (memory-failure hard path entered). */   \
    X(hwpoisonUe, "hwpoison_ue")                                         \
    /* Pages soft-offlined: migrated off a failing frame, frame          \
       retired. */                                                       \
    X(hwpoisonSoftOffline, "hwpoison_soft_offline")                      \
    /* Soft-offline attempts abandoned (no healthy frame / copy kept     \
       failing); the page stays on its frame and CE history resets. */   \
    X(hwpoisonSoftOfflineFail, "hwpoison_soft_offline_fail")             \
    /* Anonymous/dirty pages killed with the SIGBUS-analogue. */         \
    X(hwpoisonSigbus, "hwpoison_sigbus")                                 \
    /* Clean page-cache pages dropped by the hard path (re-read           \
       later). */                                                        \
    X(hwpoisonCacheDropped, "hwpoison_cache_dropped")                    \
    /* Frames permanently retired across both tiers. */                  \
    X(hwpoisonFramesRetired, "hwpoison_frames_retired")                  \
    /* Copy-engine chunks scheduled over the copy worker pool. */        \
    X(pgcopyChunks, "pgcopy_chunks")                                     \
    /* Page copies that actually fanned out to more than one worker. */  \
    X(pgcopyParallel, "pgcopy_parallel")                                 \
    /* Copy chunks that queued behind a busy worker (queue depth). */    \
    X(pgcopyQueuedChunks, "pgcopy_queued_chunks")                        \
    /* Cycles copy workers spent busy (foreground + background). */      \
    X(pgcopyBusyCycles, "pgcopy_busy_cycles")

/** Cumulative kernel memory-management counters, one per table entry. */
struct VmStat
{
#define MEMTIER_VMSTAT_FIELD(field, name) std::uint64_t field = 0;
    MEMTIER_VMSTAT_COUNTERS(MEMTIER_VMSTAT_FIELD)
#undef MEMTIER_VMSTAT_FIELD

    /** Delta of every field between two snapshots (this - earlier). */
    VmStat delta(const VmStat &earlier) const;
};

/** One counter of the table: its /proc/vmstat name and its field. */
struct VmStatCounter
{
    const char *name;
    std::uint64_t VmStat::*field;
};

/** Every counter, in table order: walk it for (name, value) pairs. */
inline constexpr VmStatCounter kVmStatCounters[] = {
#define MEMTIER_VMSTAT_ENTRY(field, name) {name, &VmStat::field},
    MEMTIER_VMSTAT_COUNTERS(MEMTIER_VMSTAT_ENTRY)
#undef MEMTIER_VMSTAT_ENTRY
};

// Goldens memcpy and hash the VmStat words: the struct is exactly the
// table's 36 words, in table order.
static_assert(std::is_trivially_copyable_v<VmStat>);
static_assert(std::size(kVmStatCounters) == 36 &&
              sizeof(VmStat) == 36 * sizeof(std::uint64_t));

inline VmStat
VmStat::delta(const VmStat &earlier) const
{
    VmStat d;
    for (const VmStatCounter &c : kVmStatCounters)
        d.*c.field = this->*c.field - earlier.*c.field;
    return d;
}

/**
 * Print @p s in /proc/vmstat's text format: one "name value" line per
 * counter, in table order.
 */
void writeVmstat(std::ostream &os, const VmStat &s);

}  // namespace memtier

#endif  // MEMTIER_OS_VMSTAT_H_
