/**
 * @file
 * AutoTiering-style hot/cold page exchange policy (Kim et al., ATC'21:
 * "Exploring the Design Space of Page Management for Multi-Tiered
 * Memory Systems"; see /root/related/Sys-KU__AutoTiering).
 *
 * Like AutoNUMA it scans VMAs, marks pages PROT_NONE and classifies
 * pages by hint-fault latency. Unlike AutoNUMA it does not wait for
 * reclaim to make DRAM room: when a hot NVM page faults and DRAM is
 * full, it *exchanges* the page with the coldest DRAM page in one
 * operation (the CPM/OPM fast path), bypassing the kswapd/direct
 * reclaim demotion path entirely. Recently exchanged-in pages are
 * protected from reclaim demotion for a configurable window so the
 * exchange is not immediately undone (thrash guard).
 */

#ifndef MEMTIER_POLICY_EXCHANGE_POLICY_H_
#define MEMTIER_POLICY_EXCHANGE_POLICY_H_

#include <cstdint>
#include <unordered_map>

#include "os/kernel.h"
#include "os/kernel_hooks.h"

namespace memtier {

/** Tunables of the exchange policy. */
struct ExchangePolicyParams
{
    /** Cycles between scan rounds. */
    Cycles scanPeriod = secondsToCycles(0.01);

    /** Pages marked PROT_NONE per scan round. */
    std::uint32_t scanPagesPerRound = 256;

    /** Fixed hot threshold for the hint fault latency. */
    Cycles hotThreshold = secondsToCycles(0.05);

    /** Exchanges allowed per scan period (the CPM batch limit). */
    std::uint32_t exchangeBatch = 64;

    /** Reclaim-demotion protection window for exchanged-in pages. */
    Cycles protectWindow = secondsToCycles(0.05);

    /** Promotion/exchange holdoff after a DRAM frame retirement. */
    Cycles failureHoldoff = secondsToCycles(0.01);
};

/** Observable statistics of the exchange policy. */
struct ExchangePolicyStats
{
    std::uint64_t pagesScanned = 0;
    std::uint64_t hintFaults = 0;
    std::uint64_t hintFaultsNvm = 0;
    std::uint64_t promotions = 0;        ///< Free-capacity fast path.
    std::uint64_t exchanges = 0;         ///< Direct hot/cold swaps.
    std::uint64_t rejectedCold = 0;      ///< Above the hot threshold.
    std::uint64_t rejectedBatch = 0;     ///< Batch budget exhausted.
    std::uint64_t noVictim = 0;          ///< No DRAM victim available.
    std::uint64_t demotionsVetoed = 0;   ///< Protected-page reclaim hits.
    std::uint64_t scansPaused = 0;       ///< Rounds skipped, breaker open.
    std::uint64_t memoryFailures = 0;    ///< Frames retired under us.
    std::uint64_t promotionsHeldOff = 0; ///< Skipped in the holdoff.
};

/** The hot/cold exchange policy. */
class ExchangePolicy : public TieringPolicy
{
  public:
    /**
     * @param kernel the kernel whose pages this policy manages.
     * @param params policy tunables.
     */
    ExchangePolicy(Kernel &kernel, const ExchangePolicyParams &params);

    const char *name() const override { return "exchange"; }

    /** Mark the next window of pages PROT_NONE (AutoNUMA-style walk). */
    void scanTick(Cycles now) override;

    Cycles scanPeriod() const override { return cfg.scanPeriod; }

    /** Hint fault: promote into free DRAM, or exchange when full. */
    Cycles onHintFault(PageNum vpn, Cycles now, PageMeta &meta) override;

    /** Protect recently exchanged-in pages from reclaim demotion. */
    DemotionDecision onDemotionRequest(PageNum vpn, Cycles now,
                                       const PageMeta &meta,
                                       bool direct) override;

    /** A frame retired: hold off DRAM-bound traffic for a window. */
    void onMemoryFailure(PageNum vpn, MemNode node, bool uncorrectable,
                         Cycles now) override;

    std::vector<PolicyCounter> snapshotStats() const override;

    /** Register every ExchangePolicyParams field as a live tunable. */
    void registerTunables(TunableRegistry &registry) override;

    /** Policy statistics. */
    const ExchangePolicyStats &stats() const { return stat; }

  private:
    Kernel &kernel;
    ExchangePolicyParams cfg;
    ExchangePolicyStats stat;

    Addr scanCursor = 0;          ///< Resume address for the VMA walk.
    std::uint32_t batchUsed = 0;  ///< Exchanges spent this scan period.
    Cycles promotionHoldUntil = 0;  ///< Holdoff after a DRAM retirement.

    /** Exchange-in time of pages under demotion protection. */
    std::unordered_map<PageNum, Cycles> protectedUntil;
};

}  // namespace memtier

#endif  // MEMTIER_POLICY_EXCHANGE_POLICY_H_
