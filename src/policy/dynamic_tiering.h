/**
 * @file
 * Dynamic object-level tiering -- the natural online extension of the
 * paper's static proposal (its conclusion suggests moving from offline
 * profiling to runtime object management). Instead of a one-shot plan,
 * this policy watches external accesses per live object, periodically
 * re-ranks objects by accesses-per-byte over a decaying window, and
 * migrates whole objects between tiers under a per-interval budget.
 *
 * Registered as "object-dynamic". It replaces the AutoNUMA scanner
 * (its scan slot is the rebalance) while reusing the kernel's
 * reclaim/migration machinery and counters. Live objects are the
 * kernel's application VMAs; the engine attaches it as an access
 * observer when it installs the policy.
 */

#ifndef MEMTIER_POLICY_DYNAMIC_TIERING_H_
#define MEMTIER_POLICY_DYNAMIC_TIERING_H_

#include <cstdint>
#include <unordered_map>

#include "os/kernel.h"
#include "os/kernel_hooks.h"
#include "sim/access_observer.h"

namespace memtier {

/** Parameters of the dynamic object policy. */
struct DynamicTieringParams
{
    /** Rebalance interval. */
    Cycles interval = secondsToCycles(0.02);

    /** Pages migrated per rebalance at most. */
    std::uint32_t migrationBudgetPages = 1024;

    /** DRAM fraction reserved for kernel/page cache. */
    double dramReserveFrac = 0.12;

    /** Exponential decay applied to window counts each rebalance. */
    double decay = 0.5;
};

/** Observable statistics of the dynamic policy. */
struct DynamicTieringStats
{
    std::uint64_t rebalances = 0;
    std::uint64_t pagesMovedUp = 0;    ///< Toward DRAM.
    std::uint64_t pagesMovedDown = 0;  ///< Toward NVM.
};

/** The online object-level tiering policy. */
class DynamicObjectTiering : public TieringPolicy, public AccessObserver
{
  public:
    /**
     * @param kernel kernel whose objects the policy places.
     * @param params rebalance cadence and budgets.
     */
    explicit DynamicObjectTiering(Kernel &kernel,
                                  const DynamicTieringParams &params =
                                      DynamicTieringParams{});

    const char *name() const override { return "object-dynamic"; }

    /** Rebalance: re-rank live objects and migrate mismatched ones. */
    void scanTick(Cycles now) override;

    Cycles scanPeriod() const override { return cfg.interval; }

    std::vector<PolicyCounter> snapshotStats() const override;

    AccessObserver *accessObserver() override { return this; }

    /** AccessObserver: count external accesses per object. */
    void onAccess(const AccessRecord &record) override;

    /** Policy statistics. */
    const DynamicTieringStats &stats() const { return stat; }

  private:
    Kernel &kernel;
    DynamicTieringParams cfg;
    DynamicTieringStats stat;
    std::unordered_map<ObjectId, double> windowCounts;
};

}  // namespace memtier

#endif  // MEMTIER_POLICY_DYNAMIC_TIERING_H_
