/**
 * @file
 * Static placement baselines from the paper's comparison axis: first
 * touch decides residence once and nothing ever migrates. "dram-only"
 * packs DRAM to the last frame before overflowing to NVM;
 * "interleave" stripes pages across the tiers MPOL_INTERLEAVE-style.
 * Both veto reclaim demotion, so the placement is truly static and the
 * run isolates the cost/benefit of migration machinery.
 */

#ifndef MEMTIER_POLICY_STATIC_POLICIES_H_
#define MEMTIER_POLICY_STATIC_POLICIES_H_

#include <cstdint>

#include "os/kernel.h"
#include "os/kernel_hooks.h"

namespace memtier {

/** Counters shared by the static baselines. */
struct StaticPolicyStats
{
    std::uint64_t firstTouchDram = 0;
    std::uint64_t firstTouchNvm = 0;
    std::uint64_t demotionsVetoed = 0;
};

/** Common base: no scanning, no promotion, no demotion. */
class StaticPolicy : public TieringPolicy
{
  public:
    /** Static placement: reclaim must not undo it. */
    DemotionDecision
    onDemotionRequest(PageNum vpn, Cycles now, const PageMeta &meta,
                      bool direct) override
    {
        (void)vpn;
        (void)now;
        (void)meta;
        (void)direct;
        ++stat.demotionsVetoed;
        return DemotionDecision::veto();
    }

    std::vector<PolicyCounter> snapshotStats() const override;

    /** Policy statistics. */
    const StaticPolicyStats &stats() const { return stat; }

  protected:
    StaticPolicyStats stat;
};

/**
 * DRAM-first static placement: every page lands on DRAM while a frame
 * exists (ignoring the allocation watermark), then overflows to NVM.
 */
class DramOnlyPolicy : public StaticPolicy
{
  public:
    /** @param kernel the kernel whose placement this policy steers. */
    explicit DramOnlyPolicy(Kernel &kernel);

    const char *name() const override { return "dram-only"; }

    MemNode onFirstTouchAlloc(PageNum vpn, Cycles now,
                              MemNode chosen) override;

  private:
    Kernel &kernel;
};

/**
 * Page-granular interleave across the tiers, weighted by a
 * DRAM:NVM page ratio (default 1:1, plain MPOL_INTERLEAVE).
 */
class InterleavePolicy : public StaticPolicy
{
  public:
    /**
     * @param kernel the kernel whose placement this policy steers.
     * @param dram_stride pages sent to DRAM per interleave period.
     * @param nvm_stride pages sent to NVM per interleave period.
     */
    InterleavePolicy(Kernel &kernel, std::uint32_t dram_stride = 1,
                     std::uint32_t nvm_stride = 1);

    const char *name() const override { return "interleave"; }

    MemNode onFirstTouchAlloc(PageNum vpn, Cycles now,
                              MemNode chosen) override;

    /** Register the interleave ratio as live tunables. */
    void registerTunables(TunableRegistry &registry) override;

  private:
    Kernel &kernel;
    std::uint32_t dramStride;
    std::uint32_t nvmStride;
    std::uint64_t counter = 0;  ///< Position within the period.
};

}  // namespace memtier

#endif  // MEMTIER_POLICY_STATIC_POLICIES_H_
