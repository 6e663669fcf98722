/**
 * @file
 * Online parameter tuner ("From Good to Great: Improving Memory Tiering
 * Performance Through Parameter Tuning"): a wrapper TieringPolicy that
 * delegates every kernel hook to a base policy and hill-climbs over the
 * base's registered tunables between epochs.
 *
 * The tuner alternates two-epoch cells on the simulated cycle clock:
 * a *baseline* epoch re-measures the base reward (accesses per cycle
 * from the engine's MetricsView deltas) and proposes one relative step
 * on one tunable; the following *measure* epoch accepts the step when
 * the reward improved by at least min_gain, otherwise reverts it. A
 * full sweep over every (tunable, direction) without an accept halves
 * the step (successive halving); when the step underruns min_step the
 * tuner restarts from the initial step up to max_restarts times, then
 * goes dormant. Everything is deterministic: the only randomness is
 * the per-key initial climb direction drawn from a seeded Xoshiro
 * stream, and all scheduling rides the cycle clock — two runs with the
 * same seed produce bit-identical reports.
 */

#ifndef MEMTIER_POLICY_AUTOTUNE_POLICY_H_
#define MEMTIER_POLICY_AUTOTUNE_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "os/kernel.h"
#include "os/kernel_hooks.h"
#include "os/metrics_view.h"
#include "policy/tunable_registry.h"

namespace memtier {

/** Meta-parameters of the online tuner (not themselves tuned). */
struct AutoTuneParams
{
    /** Cycles between tuning epochs. */
    Cycles epochPeriod = secondsToCycles(0.005);

    /** Seed of the direction-drawing random stream. */
    std::uint64_t seed = 42;

    /** Initial relative step size (0.25 proposes old * (1 +/- 0.25)). */
    double step = 0.25;

    /** Halving floor: below this relative step the sweep restarts. */
    double minStep = 0.05;

    /** Minimum relative reward gain required to accept a step. */
    double minGain = 0.02;

    /** Mutation budget; 0 = observe-only (bit-identical to the base). */
    std::uint64_t maxSteps = 1000000;

    /** Step restarts after halving below minStep before going dormant. */
    std::uint64_t maxRestarts = 2;
};

/** Tuner counters exported through snapshotStats(). */
struct AutoTuneStats
{
    std::uint64_t epochs = 0;       ///< epochTick invocations.
    std::uint64_t idleEpochs = 0;   ///< Epochs with zero accesses.
    std::uint64_t applied = 0;      ///< Mutations proposed and applied.
    std::uint64_t accepted = 0;     ///< Mutations kept (reward gained).
    std::uint64_t reverted = 0;     ///< Mutations rolled back.
    std::uint64_t halvings = 0;     ///< Step halvings (dry sweeps).
    std::uint64_t restarts = 0;     ///< Step restarts after halving out.
};

/** Hill-climbing wrapper policy; registry name "autotune". */
class AutoTunePolicy : public TieringPolicy
{
  public:
    /**
     * @param base the wrapped policy; all hooks delegate to it.
     * @param params tuner meta-parameters.
     * @param registry registry holding the base's tunables.
     */
    AutoTunePolicy(std::unique_ptr<TieringPolicy> base,
                   const AutoTuneParams &params, TunableRegistry &registry);

    const char *name() const override { return "autotune"; }

    // -- Pure delegation to the base policy ---------------------------

    Cycles
    onHintFault(PageNum vpn, Cycles now, PageMeta &meta) override
    {
        return base_->onHintFault(vpn, now, meta);
    }

    void scanTick(Cycles now) override { base_->scanTick(now); }

    Cycles scanPeriod() const override { return base_->scanPeriod(); }

    AccessObserver *
    accessObserver() override
    {
        return base_->accessObserver();
    }

    MemNode
    onFirstTouchAlloc(PageNum vpn, Cycles now, MemNode chosen) override
    {
        return base_->onFirstTouchAlloc(vpn, now, chosen);
    }

    DemotionDecision
    onDemotionRequest(PageNum vpn, Cycles now, const PageMeta &meta,
                      bool direct) override
    {
        return base_->onDemotionRequest(vpn, now, meta, direct);
    }

    void
    onMemoryFailure(PageNum vpn, MemNode node, bool uncorrectable,
                    Cycles now) override
    {
        base_->onMemoryFailure(vpn, node, uncorrectable, now);
    }

    void
    onThpCollapse(PageNum base_vpn, Cycles now) override
    {
        base_->onThpCollapse(base_vpn, now);
    }

    void
    onThpSplit(PageNum base_vpn, Cycles now) override
    {
        base_->onThpSplit(base_vpn, now);
    }

    // -- Tuner surface ------------------------------------------------

    Cycles epochPeriod() const override { return params_.epochPeriod; }

    /** One tuning step: measure reward, then propose/accept/revert. */
    void epochTick(Cycles now, const MetricsView &mv) override;

    /** Tuner counters, base counters, and tuned_* effective values. */
    std::vector<PolicyCounter> snapshotStats() const override;

    /** The wrapped policy. */
    const TieringPolicy &base() const { return *base_; }

    /** Tuner counters. */
    const AutoTuneStats &stats() const { return stat; }

  private:
    /** Snapshot the base-owned tunable keys and draw directions. */
    void adoptBase();

    /** Move to the opposite direction, or to the next key. */
    void advanceCursor();

    /** Current proposal direction for the cursor key. */
    int currentDir() const;

    std::unique_ptr<TieringPolicy> base_;
    AutoTuneParams params_;
    AutoTuneStats stat;

    TunableRegistry &registry_;

    Rng rng_;
    std::vector<std::string> keys_;  ///< Base-owned tunables, sorted.
    std::vector<int> initialDir_;    ///< Seeded first direction per key.

    // Hill-climb state.
    bool haveLast_ = false;          ///< lastView_ is valid.
    MetricsView lastView_;           ///< Previous epoch's snapshot.
    double baselineReward_ = 0.0;    ///< Reward the proposal must beat.
    bool pending_ = false;           ///< A proposal awaits measurement.
    std::string pendingKey_;
    double pendingOld_ = 0.0;
    std::size_t cursor_ = 0;         ///< Index into keys_.
    bool secondDir_ = false;         ///< Trying the opposite direction.
    bool acceptsThisSweep_ = false;
    double step_ = 0.25;             ///< Current relative step.
    std::uint64_t restartsUsed_ = 0;
    bool dormant_ = false;           ///< Tuning exhausted; observe only.
};

}  // namespace memtier

#endif  // MEMTIER_POLICY_AUTOTUNE_POLICY_H_
