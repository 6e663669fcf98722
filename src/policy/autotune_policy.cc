#include "policy/autotune_policy.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"

namespace memtier {

AutoTunePolicy::AutoTunePolicy(std::unique_ptr<TieringPolicy> base,
                               const AutoTuneParams &params,
                               TunableRegistry &registry)
    : base_(std::move(base)), params_(params), registry_(registry),
      rng_(params.seed), step_(params.step)
{
    MEMTIER_ASSERT(base_ != nullptr, "autotune needs a base policy");
    adoptBase();
}

void
AutoTunePolicy::adoptBase()
{
    keys_ = registry_.keysOwnedBy(base_->name());
    initialDir_.reserve(keys_.size());
    // One seeded draw per key, in sorted key order: the only random
    // input the tuner ever consumes, so same-seed runs replay exactly.
    for (std::size_t i = 0; i < keys_.size(); ++i)
        initialDir_.push_back(rng_.nextBool(0.5) ? +1 : -1);
}

int
AutoTunePolicy::currentDir() const
{
    const int d0 = initialDir_[cursor_];
    return secondDir_ ? -d0 : d0;
}

void
AutoTunePolicy::advanceCursor()
{
    if (!secondDir_) {
        secondDir_ = true;  // Same key, opposite direction next.
        return;
    }
    secondDir_ = false;
    if (++cursor_ < keys_.size())
        return;
    cursor_ = 0;
    // A full sweep over every (key, direction) ended. A dry sweep
    // halves the step (successive halving); halving below the floor
    // restarts from the initial step until the restart budget is gone.
    if (!acceptsThisSweep_) {
        step_ /= 2.0;
        ++stat.halvings;
        if (step_ < params_.minStep) {
            if (restartsUsed_ < params_.maxRestarts) {
                ++restartsUsed_;
                ++stat.restarts;
                step_ = params_.step;
            } else {
                dormant_ = true;
            }
        }
    }
    acceptsThisSweep_ = false;
}

void
AutoTunePolicy::epochTick(Cycles now, const MetricsView &mv)
{
    ++stat.epochs;
    if (!haveLast_) {
        haveLast_ = true;
        lastView_ = mv;
        return;
    }
    const MetricsView d = mv.delta(lastView_);
    const Cycles elapsed = mv.now - lastView_.now;
    lastView_ = mv;
    if (d.accesses == 0 || elapsed == 0) {
        // Nothing ran this epoch (load phase barrier, drained
        // workload): no reward signal, judge nothing.
        ++stat.idleEpochs;
        return;
    }
    const double reward = static_cast<double>(d.accesses) /
                          static_cast<double>(elapsed);

    // Observe-only modes compute the reward and stop: the registry is
    // never touched, which keeps the run bit-identical to the bare
    // base policy (golden-tested).
    if (params_.maxSteps == 0 || dormant_ || keys_.empty())
        return;

    if (pending_) {
        // Measure epoch: the previous epoch ran with the proposal in
        // effect. Keep it only on a clear improvement.
        if (reward > baselineReward_ * (1.0 + params_.minGain)) {
            ++stat.accepted;
            acceptsThisSweep_ = true;
            baselineReward_ = reward;
            // Keep climbing the same key in the same direction.
        } else {
            registry_.set(pendingKey_, pendingOld_, now);
            ++stat.reverted;
            advanceCursor();
        }
        pending_ = false;
        return;
    }

    // Baseline epoch: refresh the reference reward, then propose one
    // relative step on the cursor tunable.
    baselineReward_ = reward;
    if (stat.applied >= params_.maxSteps)
        return;

    const std::string &key = keys_[cursor_];
    const TunableRegistry::Tunable *t = registry_.find(key);
    const double old = t->get();
    const int dir = currentDir();
    double proposed = old * (1.0 + dir * step_);
    if (t->integerValued &&
        std::floor(proposed + 0.5) == std::floor(old + 0.5)) {
        // Rounding would swallow the whole step; force a minimal move
        // so small integer tunables still get explored.
        proposed = old + dir;
    }
    const double applied = registry_.set(key, proposed, now);
    if (applied == old) {
        // Clamped back onto the current value: nothing to measure.
        advanceCursor();
        return;
    }
    pending_ = true;
    pendingKey_ = key;
    pendingOld_ = old;
    ++stat.applied;
}

std::vector<PolicyCounter>
AutoTunePolicy::snapshotStats() const
{
    std::vector<PolicyCounter> out = {
        {"tuner_epochs", stat.epochs},
        {"tuner_idle_epochs", stat.idleEpochs},
        {"tuner_applied", stat.applied},
        {"tuner_accepted", stat.accepted},
        {"tuner_reverted", stat.reverted},
        {"tuner_halvings", stat.halvings},
        {"tuner_restarts", stat.restarts},
    };
    const std::vector<PolicyCounter> base = base_->snapshotStats();
    out.insert(out.end(), base.begin(), base.end());
    // Effective values the tuner converged to, exported as fixed-point
    // milli-units so they ride the integer counter channel into CSVs.
    for (const std::string &key : keys_) {
        out.emplace_back("tuned_" + key + "_milli",
                         static_cast<std::uint64_t>(std::llround(
                             registry_.value(key) * 1000.0)));
    }
    return out;
}

}  // namespace memtier
