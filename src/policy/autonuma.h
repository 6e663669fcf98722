/**
 * @file
 * Reimplementation of the AutoNUMA memory-tiering policy (Intel's
 * tiering-0.8 patch series) as characterized in Section 2.2 of the paper:
 *
 *  - A periodic scanner walks the process VMAs and flips a window of
 *    present pages to PROT_NONE, recording the scan time.
 *  - The next touch of a marked page takes a hint page fault; hint fault
 *    latency = fault time - scan time estimates the page's hotness.
 *  - NVM pages are promoted to DRAM unconditionally while DRAM has free
 *    capacity; once DRAM is full, only pages whose hint fault latency is
 *    below a dynamically adjusted threshold are promoted, subject to a
 *    promotion rate limit.
 *  - Demotion happens through the kernel's reclaim path (kswapd/direct),
 *    not here.
 *
 * The scan walk itself is the kernel's (Kernel::changeProtNuma); the
 * exchange policy drives the same walk and registers the same scanner
 * tunables (registerScanTunables).
 */

#ifndef MEMTIER_POLICY_AUTONUMA_H_
#define MEMTIER_POLICY_AUTONUMA_H_

#include <cstdint>

#include "base/stats.h"
#include "base/types.h"
#include "os/kernel.h"
#include "os/kernel_hooks.h"

namespace memtier {

/** Tunables of the AutoNUMA tiering policy. */
struct AutoNumaParams
{
    /** Cycles between scan rounds (Linux: adaptive 10 ms - 60 s,
     *  compressed for the scaled testbed's seconds-long runs). */
    Cycles scanPeriod = secondsToCycles(0.01);

    /** Pages marked PROT_NONE per scan round. */
    std::uint32_t scanPagesPerRound = 256;

    /**
     * Initial hot threshold for the hint fault latency. The tiering
     * kernel defaults to 1 s against runs lasting minutes; compressed
     * to 100 ms for the scaled testbed's seconds-long runs.
     */
    Cycles initialThreshold = secondsToCycles(0.05);

    /** Lower clamp of the adaptive threshold. */
    Cycles thresholdMin = secondsToCycles(0.0005);

    /** Upper clamp of the adaptive threshold. */
    Cycles thresholdMax = secondsToCycles(0.5);

    /**
     * Promotion rate limit in bytes per simulated second. Section 2.2
     * quotes a 35 MB default for the tiering patch's rate limit while
     * Section 6.7 quotes the sysctl ceiling of 8 GB/s; we scale the
     * effective budget so promotions stay a small fraction of the
     * footprint per run, as every promotion counter in the paper shows.
     */
    std::uint64_t rateLimitBytesPerSec = 512 * kKiB;

    /** Interval between threshold adjustments. */
    Cycles adjustPeriod = secondsToCycles(0.05);

    /**
     * Promotion holdoff after a DRAM frame is retired by the
     * memory-failure path: promotions into the shrinking tier pause
     * for this long so reclaim can re-establish the watermarks against
     * the reduced capacity before the scanner pushes more pages in.
     */
    Cycles failureHoldoff = secondsToCycles(0.01);
};

/** Observable policy statistics (beyond the kernel's vmstat). */
struct AutoNumaStats
{
    std::uint64_t pagesScanned = 0;
    std::uint64_t hintFaults = 0;
    std::uint64_t hintFaultsNvm = 0;
    std::uint64_t promotedFreePath = 0;      ///< DRAM had capacity.
    std::uint64_t promotedThresholdPath = 0; ///< Passed the hot test.
    std::uint64_t rejectedByThreshold = 0;
    std::uint64_t rejectedByRateLimit = 0;
    std::uint64_t promotionFailures = 0;     ///< No DRAM frame available.
    std::uint64_t scansPaused = 0;           ///< Rounds skipped, breaker open.
    std::uint64_t hugeHintFaults = 0;        ///< Hint faults on PMD mappings.
    std::uint64_t thpCollapses = 0;          ///< Collapse notifications.
    std::uint64_t thpSplits = 0;             ///< Split notifications.
    std::uint64_t memoryFailures = 0;        ///< Frames retired under us.
    std::uint64_t promotionsHeldOff = 0;     ///< Skipped in the holdoff.

    /** Distribution of observed hint fault latencies (seconds). */
    PercentileSummary hintLatencySeconds;

    /** Threshold value over time (seconds). */
    TimeSeries thresholdSeconds;
};

/**
 * Register the tunables every hint-fault scanning policy shares --
 * scan_period_ms, scan_pages and failure_holdoff_ms -- under @p owner,
 * backed by the owner's own parameter fields.
 */
void registerScanTunables(TunableRegistry &registry, const char *owner,
                          Cycles &scanPeriod,
                          std::uint32_t &scanPagesPerRound,
                          Cycles &failureHoldoff);

/** The AutoNUMA tiering policy. */
class AutoNuma : public TieringPolicy
{
  public:
    /**
     * @param kernel the kernel whose pages this policy manages.
     * @param params policy tunables.
     */
    AutoNuma(Kernel &kernel, const AutoNumaParams &params);

    /** TieringPolicy: registry name. */
    const char *name() const override { return "autonuma"; }

    /**
     * Periodic scan invocation (driven by the engine's service clock):
     * marks the next window of pages PROT_NONE.
     */
    void scanTick(Cycles now) override;

    /**
     * TieringPolicy: hint fault on @p vpn; may promote. A fault on a
     * PMD mapping covers all 512 base pages: the rate limit is charged
     * 2 MiB and a promotion moves the whole range at once.
     */
    Cycles onHintFault(PageNum vpn, Cycles now, PageMeta &meta) override;

    /** TieringPolicy: khugepaged collapsed the range at @p base_vpn. */
    void onThpCollapse(PageNum base_vpn, Cycles now) override;

    /** TieringPolicy: the PMD mapping at @p base_vpn was split. */
    void onThpSplit(PageNum base_vpn, Cycles now) override;

    /**
     * TieringPolicy: a frame was retired. A DRAM retirement opens the
     * promotion holdoff window; NVM retirements only count (there is
     * nothing to stop promoting into).
     */
    void onMemoryFailure(PageNum vpn, MemNode node, bool uncorrectable,
                         Cycles now) override;

    /** TieringPolicy: policy counters for reports/CSV export. */
    std::vector<PolicyCounter> snapshotStats() const override;

    /** Current hot threshold in cycles. */
    Cycles threshold() const { return hotThreshold; }

    /** Policy statistics. */
    const AutoNumaStats &stats() const { return stat; }

    /** Configured scan period (the engine schedules scanTick with it). */
    Cycles scanPeriod() const override { return cfg.scanPeriod; }

    /**
     * Register every AutoNumaParams field as a live tunable. Each apply
     * re-establishes the state a fresh construction with the new value
     * would have produced (hot_threshold_ms also resets the live
     * threshold; rate_limit_kib refills the token bucket), so applying
     * a tunable at cycle 0 is bit-identical to passing it to the ctor.
     */
    void registerTunables(TunableRegistry &registry) override;

  private:
    void maybeAdjustThreshold(Cycles now);
    bool rateLimitAllows(Cycles now, std::uint64_t bytes);

    Kernel &kernel;
    AutoNumaParams cfg;
    AutoNumaStats stat;

    Cycles hotThreshold;
    Addr scanCursor = 0;  ///< Resume address for the VMA walk.

    // Token-bucket promotion rate limiter.
    double rateTokens = 0.0;
    Cycles rateLastRefill = 0;

    // Threshold adaptation window.
    Cycles nextAdjust = 0;
    std::uint64_t windowCandidateBytes = 0;

    // Promotions pause until this time after a DRAM frame retirement.
    Cycles promotionHoldUntil = 0;
};

}  // namespace memtier

#endif  // MEMTIER_POLICY_AUTONUMA_H_
