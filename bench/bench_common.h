/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Every bench accepts the MEMTIER_SCALE environment variable (log2
 * vertices, default 18) so the suite can be run faster (16) or at
 * higher fidelity (19-20) without recompiling.
 */

#ifndef MEMTIER_BENCH_BENCH_COMMON_H_
#define MEMTIER_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <iostream>
#include <string>

#include "base/env.h"
#include "base/logging.h"
#include "exp/record.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "profile/analysis.h"

namespace memtier {

/** Experiment scale: MEMTIER_SCALE env var (10..24), default 18. */
inline int
benchScale()
{
    return static_cast<int>(envInt("MEMTIER_SCALE", 10, 24).value_or(18));
}

/**
 * Sparse sampling period used by the per-page touch/reuse analyses
 * (Figures 4 and 5). The paper samples a ~250 GB footprint with a few
 * million samples -- well under one sample per page; the default dense
 * period would count every page dozens of times and hide the
 * single-touch behaviour the paper reports.
 */
inline constexpr std::uint32_t kSparseSamplerPeriod = 8191;

/**
 * Tier capacity scaled with the workload so the footprint:DRAM pressure
 * is scale-invariant (base values are for the default scale 18).
 */
inline std::uint64_t
scaledCapacity(std::uint64_t base_at_18, int scale)
{
    return scale >= 18 ? base_at_18 << (scale - 18)
                       : base_at_18 >> (18 - scale);
}

/** Run one paper workload under @p policy (and @p plan) with sampling. */
inline RunResult
runBench(const WorkloadSpec &w, const std::string &policy = "autonuma",
         std::uint32_t sampler_period = 61,
         const PlacementPlan *plan = nullptr, bool thp = false)
{
    RunConfig rc;
    rc.workload = w;
    rc.policy = policy;
    rc.sampler.period = sampler_period;
    rc.sys.dram = makeDramParams(scaledCapacity(24 * kMiB, w.scale));
    rc.sys.nvm = makeNvmParams(scaledCapacity(96 * kMiB, w.scale));
    rc.sys.thp.enabled = thp;
    std::cerr << "running " << w.name() << " [" << policy
              << (plan ? ", plan" : "") << (thp ? ", thp" : "")
              << "] scale=" << w.scale << "...\n";
    return runWorkload(rc, plan);
}

/**
 * Consume a leading `--thp` argument if present (shared by the benches
 * that report a THP column). Returns true and shifts argv when found.
 */
inline bool
consumeThpFlag(int &argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--thp") {
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            return true;
        }
    }
    return false;
}

/** Simulated cycles -> microseconds. */
inline double
usec(double cycles)
{
    return cycles * 1e6 / static_cast<double>(kCyclesPerSecond);
}

/** Header block naming the experiment. */
inline void
benchHeader(const std::string &what, const std::string &paper_ref)
{
    std::cout << "memtier reproduction: " << what << "\n"
              << "paper reference:      " << paper_ref << "\n"
              << "scale:                2^" << benchScale()
              << " vertices (set MEMTIER_SCALE to change)\n";
}

}  // namespace memtier

#endif  // MEMTIER_BENCH_BENCH_COMMON_H_
