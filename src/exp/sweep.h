/**
 * @file
 * Parameter-sweep harness over the policy registry: cross-products
 * tunable axes (scan period, hot threshold, rate limit, exchange batch
 * size, ...) with a workload list, runs every combination, and emits
 * one CSV per sweep -- the experiment design of "From Good to Great:
 * Improving Memory Tiering Performance Through Parameter Tuning"
 * applied to the scaled testbed. The cells of a sweep share nothing
 * but the process-wide input caches, so they run on a pool of host
 * threads, each cell on its own Engine; results do not depend on the
 * worker count.
 */

#ifndef MEMTIER_EXP_SWEEP_H_
#define MEMTIER_EXP_SWEEP_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "exp/workloads.h"

namespace memtier {

/** One tunable axis of a sweep: every value is tried. */
struct SweepAxis
{
    std::string key;                  ///< Tunable key ("scan_period_ms").
    std::vector<std::string> values;  ///< Values to cross-product.
};

/** One sweep = policy x tunable axes x workloads. */
struct SweepSpec
{
    std::string policy = "autonuma";  ///< Registry name.
    std::vector<SweepAxis> axes;      ///< Cross-producted tunables.
    std::vector<WorkloadSpec> workloads;
    SystemConfig sys;                 ///< Base machine for every run.
    bool sampling = false;            ///< Samples are off by default.

    /**
     * Host threads running cells: 0 = the CPUs in the process's
     * affinity mask, 1 = one cell at a time on the caller's thread.
     * Always capped at the cell count.
     */
    unsigned jobs = 0;
};

/** One completed sweep point. */
struct SweepPoint
{
    std::string workload;
    std::string policy;

    /** Tunable assignment of this point, in axis order. */
    std::vector<std::pair<std::string, std::string>> tunables;

    /**
     * Effective (post-tuning) tunable values the run ended with, joined
     * as "key=value;..." in key order. Equals the assignment above plus
     * defaults when nothing tuned at runtime; diverges under autotune.
     */
    std::string effectiveTunables;

    double totalSeconds = 0.0;
    double computeSeconds = 0.0;
    std::uint64_t hintFaults = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t exchanges = 0;
    std::uint64_t migrations = 0;
    std::uint64_t thrash = 0;  ///< Promote-then-demote + exchange thrash.
    std::uint64_t migrateFail = 0;    ///< Failed migrations (faults/ENOMEM).
    std::uint64_t promoteRetry = 0;   ///< Promotion retries after faults.
    std::uint64_t allocFail = 0;      ///< Injected DRAM allocation failures.
    std::uint64_t diskReadRetry = 0;  ///< Re-issued page-cache disk reads.
    std::uint64_t breakerTrips = 0;   ///< Circuit-breaker openings.
};

/**
 * All tunable combinations of @p axes (cross product, first axis
 * slowest). One empty combination when @p axes is empty.
 */
std::vector<std::vector<std::pair<std::string, std::string>>>
sweepCombinations(const std::vector<SweepAxis> &axes);

/** CPUs in this process's affinity mask (at least 1). */
unsigned affinityCpuCount();

/**
 * Run the sweep: every tunable combination x every workload, cells in
 * that order (combinations slowest). spec.jobs workers each claim the
 * next cell and run it on an Engine of their own; a cell's progress
 * line is printed when it is claimed, so lines come in cell order. The
 * points, and so writeSweepCsv's output, are identical for every
 * worker count. An exception thrown by a cell is rethrown once every
 * worker has finished (the lowest-numbered cell's, as the serial loop
 * would have thrown); no cell is claimed after one has thrown.
 *
 * @param spec what to sweep.
 * @param progress stream for per-run progress lines (nullptr = quiet).
 * @return one point per run, in cell order.
 */
std::vector<SweepPoint> runSweep(const SweepSpec &spec,
                                 std::ostream *progress = nullptr);

/**
 * Emit the sweep points as CSV: workload, policy, one column per axis,
 * then the metric columns.
 */
void writeSweepCsv(const SweepSpec &spec,
                   const std::vector<SweepPoint> &points,
                   std::ostream &out);

}  // namespace memtier

#endif  // MEMTIER_EXP_SWEEP_H_
