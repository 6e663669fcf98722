/**
 * @file
 * The vmstat counters the paper tracks (Section 6.6), plus a few extra
 * fault counters useful for analysis. Values are cumulative, as in
 * /proc/vmstat; consumers compute deltas between two readings exactly as
 * the paper does.
 */

#ifndef MEMTIER_OS_VMSTAT_H_
#define MEMTIER_OS_VMSTAT_H_

#include <cstdint>

namespace memtier {

/** Cumulative kernel memory-management counters. */
struct VmStat
{
    /** Minor page faults (first touch of a mapped page). */
    std::uint64_t pgfault = 0;

    /** NUMA hint page faults taken on scanner-marked pages. */
    std::uint64_t numaHintFaults = 0;

    /** Pages successfully promoted NVM -> DRAM. */
    std::uint64_t pgpromoteSuccess = 0;

    /** Promoted pages that were later demoted back (thrashing signal). */
    std::uint64_t pgpromoteDemoted = 0;

    /** Pages demoted DRAM -> NVM by periodic kswapd reclaim. */
    std::uint64_t pgdemoteKswapd = 0;

    /** Pages demoted DRAM -> NVM by synchronous direct reclaim. */
    std::uint64_t pgdemoteDirect = 0;

    /** Reclaim demotion proposals vetoed/redirected by the policy. */
    std::uint64_t pgdemoteVetoed = 0;

    /** Direct hot/cold page exchanges (one exchange swaps two pages). */
    std::uint64_t pgexchangeSuccess = 0;

    /** Exchanged-in pages later pushed back out (exchange thrashing). */
    std::uint64_t pgexchangeThrash = 0;

    /** Total successful page migrations (promotions + demotions). */
    std::uint64_t pgmigrateSuccess = 0;

    /** Promotion candidates seen (below threshold, may not migrate). */
    std::uint64_t promoteCandidates = 0;

    /** Promotions skipped because the rate limit was exhausted. */
    std::uint64_t promoteRateLimited = 0;

    /** Clean page-cache pages dropped by reclaim (no tiering path). */
    std::uint64_t pageCacheDrops = 0;

    /** Page migrations that failed (transient fault or ENOMEM). */
    std::uint64_t pgmigrateFail = 0;

    /** Promotion attempts retried after a transient failure. */
    std::uint64_t promoteRetry = 0;

    /** Promotions/exchanges suppressed while the breaker was open. */
    std::uint64_t promotePaused = 0;

    /** DRAM frame allocations failed by the fault injector. */
    std::uint64_t pgallocFail = 0;

    /** Page-cache disk reads re-issued after a transient read error. */
    std::uint64_t diskReadRetry = 0;

    /** Times the migration circuit breaker tripped open. */
    std::uint64_t breakerTrips = 0;

    /** Huge pages allocated directly on first touch (thp_fault_alloc). */
    std::uint64_t thpFaultAlloc = 0;

    /** Eligible first touches that fell back to a 4 KiB allocation. */
    std::uint64_t thpFaultFallback = 0;

    /** 4 KiB ranges collapsed into PMD mappings (thp_collapse_alloc). */
    std::uint64_t thpCollapseAlloc = 0;

    /** Collapse attempts defeated by fragmentation (no 2 MiB frame). */
    std::uint64_t thpCollapseFail = 0;

    /** PMD mappings split back into 4 KiB PTEs (thp_split_page). */
    std::uint64_t thpSplitPage = 0;

    /** PMD mappings freed whole by munmap. */
    std::uint64_t thpUnmapHuge = 0;

    /** Correctable ECC errors observed on mapped frames. */
    std::uint64_t hwpoisonCe = 0;

    /** Uncorrectable ECC errors (memory-failure hard path entered). */
    std::uint64_t hwpoisonUe = 0;

    /** Pages soft-offlined: migrated off a failing frame, frame retired. */
    std::uint64_t hwpoisonSoftOffline = 0;

    /** Soft-offline attempts abandoned (no healthy frame / copy kept
     *  failing); the page stays on its frame and CE history resets. */
    std::uint64_t hwpoisonSoftOfflineFail = 0;

    /** Anonymous/dirty pages killed with the SIGBUS-analogue. */
    std::uint64_t hwpoisonSigbus = 0;

    /** Clean page-cache pages dropped by the hard path (re-read later). */
    std::uint64_t hwpoisonCacheDropped = 0;

    /** Frames permanently retired across both tiers. */
    std::uint64_t hwpoisonFramesRetired = 0;

    /** Copy-engine chunks scheduled over the copy worker pool. */
    std::uint64_t pgcopyChunks = 0;

    /** Page copies that actually fanned out to more than one worker. */
    std::uint64_t pgcopyParallel = 0;

    /** Copy chunks that queued behind a busy worker (queue depth). */
    std::uint64_t pgcopyQueuedChunks = 0;

    /** Cycles copy workers spent busy (foreground + background). */
    std::uint64_t pgcopyBusyCycles = 0;

    /** Delta of every field between two snapshots (this - earlier). */
    VmStat
    delta(const VmStat &earlier) const
    {
        VmStat d;
        d.pgfault = pgfault - earlier.pgfault;
        d.numaHintFaults = numaHintFaults - earlier.numaHintFaults;
        d.pgpromoteSuccess = pgpromoteSuccess - earlier.pgpromoteSuccess;
        d.pgpromoteDemoted = pgpromoteDemoted - earlier.pgpromoteDemoted;
        d.pgdemoteKswapd = pgdemoteKswapd - earlier.pgdemoteKswapd;
        d.pgdemoteDirect = pgdemoteDirect - earlier.pgdemoteDirect;
        d.pgdemoteVetoed = pgdemoteVetoed - earlier.pgdemoteVetoed;
        d.pgexchangeSuccess = pgexchangeSuccess - earlier.pgexchangeSuccess;
        d.pgexchangeThrash = pgexchangeThrash - earlier.pgexchangeThrash;
        d.pgmigrateSuccess = pgmigrateSuccess - earlier.pgmigrateSuccess;
        d.promoteCandidates = promoteCandidates - earlier.promoteCandidates;
        d.promoteRateLimited =
            promoteRateLimited - earlier.promoteRateLimited;
        d.pageCacheDrops = pageCacheDrops - earlier.pageCacheDrops;
        d.pgmigrateFail = pgmigrateFail - earlier.pgmigrateFail;
        d.promoteRetry = promoteRetry - earlier.promoteRetry;
        d.promotePaused = promotePaused - earlier.promotePaused;
        d.pgallocFail = pgallocFail - earlier.pgallocFail;
        d.diskReadRetry = diskReadRetry - earlier.diskReadRetry;
        d.breakerTrips = breakerTrips - earlier.breakerTrips;
        d.thpFaultAlloc = thpFaultAlloc - earlier.thpFaultAlloc;
        d.thpFaultFallback = thpFaultFallback - earlier.thpFaultFallback;
        d.thpCollapseAlloc = thpCollapseAlloc - earlier.thpCollapseAlloc;
        d.thpCollapseFail = thpCollapseFail - earlier.thpCollapseFail;
        d.thpSplitPage = thpSplitPage - earlier.thpSplitPage;
        d.thpUnmapHuge = thpUnmapHuge - earlier.thpUnmapHuge;
        d.hwpoisonCe = hwpoisonCe - earlier.hwpoisonCe;
        d.hwpoisonUe = hwpoisonUe - earlier.hwpoisonUe;
        d.hwpoisonSoftOffline =
            hwpoisonSoftOffline - earlier.hwpoisonSoftOffline;
        d.hwpoisonSoftOfflineFail =
            hwpoisonSoftOfflineFail - earlier.hwpoisonSoftOfflineFail;
        d.hwpoisonSigbus = hwpoisonSigbus - earlier.hwpoisonSigbus;
        d.hwpoisonCacheDropped =
            hwpoisonCacheDropped - earlier.hwpoisonCacheDropped;
        d.hwpoisonFramesRetired =
            hwpoisonFramesRetired - earlier.hwpoisonFramesRetired;
        d.pgcopyChunks = pgcopyChunks - earlier.pgcopyChunks;
        d.pgcopyParallel = pgcopyParallel - earlier.pgcopyParallel;
        d.pgcopyQueuedChunks =
            pgcopyQueuedChunks - earlier.pgcopyQueuedChunks;
        d.pgcopyBusyCycles = pgcopyBusyCycles - earlier.pgcopyBusyCycles;
        return d;
    }
};

}  // namespace memtier

#endif  // MEMTIER_OS_VMSTAT_H_
