/**
 * @file
 * Live tunable control plane: a registry where each owner (a tiering
 * policy, or the kernel through the engine) registers named tunables
 * with typed get/apply accessors and clamp ranges. Construction-time
 * configuration and online tuning go through the same entries, so a
 * value the CLI can set with "--tunable key=value" is by construction
 * also adjustable while the workload runs ("From Good to Great" shows
 * the online adjustments are where the wins are).
 *
 * Two application paths with deliberately different semantics:
 *
 *  - setFromString() parses exactly like the legacy PolicyTunables
 *    getters (strtoull/strtod, fatal on junk) and applies *unclamped*,
 *    reproducing the construction-time translation bit for bit.
 *  - set() takes a numeric value from an online tuner, clamps it into
 *    the registered [min, max] range, rounds integer-valued tunables,
 *    and skips the apply entirely when the clamped value equals the
 *    current one (so a no-op proposal has no side effects).
 */

#ifndef MEMTIER_POLICY_TUNABLE_REGISTRY_H_
#define MEMTIER_POLICY_TUNABLE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/types.h"

namespace memtier {

/** Process-local registry of live-adjustable tunables. */
class TunableRegistry
{
  public:
    /** One registered tunable. Values are in CLI units (the unit the
     *  "--tunable key=value" surface uses, e.g. milliseconds for the
     *  *_ms keys); get/apply convert to internal units themselves. */
    struct Tunable
    {
        std::string key;          ///< CLI key ("scan_period_ms").
        std::string description;  ///< One-line summary for listings.
        std::string owner;        ///< Registering owner's name().

        double minValue = 0.0;    ///< Online-tuning clamp, CLI units.
        double maxValue = 0.0;    ///< Online-tuning clamp, CLI units.

        /** True parses/rounds as an unsigned integer (getU64 rules). */
        bool integerValued = false;

        /** True when a change moves the owner's scanPeriod(): the
         *  engine re-arms the scan service when one of these applies. */
        bool rearmScan = false;

        std::function<double()> get;        ///< Current value, CLI units.
        std::function<void(double)> apply;  ///< Install a new value.
    };

    /** Observer invoked after every runtime set() that applied. */
    using ApplyObserver = std::function<void(const Tunable &, Cycles)>;

    /** Register @p t (fatal on a duplicate key or missing accessors). */
    void add(Tunable t);

    /** True when @p key is registered. */
    bool contains(const std::string &key) const;

    /** The tunable registered under @p key, or nullptr. */
    const Tunable *find(const std::string &key) const;

    /** All registered keys, sorted. */
    std::vector<std::string> keys() const;

    /** Keys registered by @p owner, sorted. */
    std::vector<std::string> keysOwnedBy(const std::string &owner) const;

    /** Current value of @p key in CLI units (fatal when unknown). */
    double value(const std::string &key) const;

    /**
     * Online-tuning path: clamp @p v into the tunable's range, round
     * when integer-valued, and apply. When the clamped value equals the
     * current one nothing is applied (no side effects, no observer, no
     * mutation counted).
     *
     * @param key registered tunable key (fatal when unknown).
     * @param v proposed value in CLI units.
     * @param now current cycle, forwarded to the apply observer.
     * @return the value now in effect (clamped, possibly unchanged).
     */
    double set(const std::string &key, double v, Cycles now);

    /**
     * Construction path: parse @p value with the legacy PolicyTunables
     * semantics (integer-valued keys via getU64, others via getDouble;
     * fatal on junk) and apply it *without* clamping, so a CLI
     * assignment configures the policy exactly as the pre-registry
     * translation did.
     */
    void setFromString(const std::string &key, const std::string &value);

    /** Current value of @p key formatted for CSV/JSON ("%.6g", plain
     *  integer for integer-valued tunables). */
    std::string formatValue(const std::string &key) const;

    /** Install the post-apply observer (replaces any previous one). */
    void setApplyObserver(ApplyObserver fn) { observer_ = std::move(fn); }

    /** Runtime mutations applied through set() (reverts included). */
    std::uint64_t mutations() const { return mutations_; }

  private:
    std::map<std::string, Tunable> tunables_;
    ApplyObserver observer_;
    std::uint64_t mutations_ = 0;
};

}  // namespace memtier

#endif  // MEMTIER_POLICY_TUNABLE_REGISTRY_H_
