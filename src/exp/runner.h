/**
 * @file
 * The experiment runner: executes one workload on one simulated machine
 * under one tiering policy and harvests everything the paper's analyses
 * need (samples, allocation records, timelines, counters, timings).
 */

#ifndef MEMTIER_EXP_RUNNER_H_
#define MEMTIER_EXP_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "autonuma/autonuma.h"
#include "core/placement_plan.h"
#include "exp/workloads.h"
#include "profile/analysis.h"
#include "profile/mmap_tracker.h"
#include "profile/perf_mem.h"
#include "serve/serve_driver.h"
#include "sim/engine.h"

namespace memtier {

/** One experiment to run. */
struct RunConfig
{
    WorkloadSpec workload;
    SystemConfig sys;        ///< Scaled-testbed defaults.
    SamplerParams sampler;
    bool sampling = true;    ///< Collect perf-mem style samples.

    /**
     * Tiering policy by registry name ("autonuma", "exchange",
     * "object-dynamic", ...). The empty name runs the vanilla kernel:
     * no policy and no demotion path. Allocation-time placement (the
     * paper's object-level mapping, all-DRAM/all-NVM bindings) is the
     * plan argument of runWorkload, not a policy.
     */
    std::string policy = "autonuma";

    /** "key=value" tunable assignments for @ref policy. */
    std::vector<std::string> tunables;
};

/**
 * Cache-model and TLB counters of one run: L1, L2 and the TLB summed
 * over the logical threads, plus the shared L3.
 */
struct HierarchyCounters
{
    std::uint64_t hits[3] = {};        ///< Indexed L1, L2, L3.
    std::uint64_t misses[3] = {};
    std::uint64_t writebacks[3] = {};
    std::uint64_t tlbL1Hits = 0;
    std::uint64_t tlbStlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t tlbHugeL1Hits = 0;
    std::uint64_t tlbHugeStlbHits = 0;
    std::uint64_t tlbHugeMisses = 0;
};

/** Everything harvested from one run. */
struct RunResult
{
    std::string workloadName;

    double totalSeconds = 0.0;    ///< Simulated execution time.
    double loadSeconds = 0.0;     ///< Input-reading phase.
    double computeSeconds = 0.0;  ///< totalSeconds - loadSeconds.

    std::vector<MemorySample> samples;
    MmapTracker tracker;
    std::vector<TimelinePoint> timeline;
    VmStat vmstat;
    NumaStatSnapshot finalNumastat;
    AutoNumaStats numaStats;
    bool hasAutoNuma = false;

    /** Name of the tiering policy that ran ("" when tiering was off). */
    std::string policyName;

    /** The policy's snapshotStats() counters at end of run. */
    std::vector<PolicyCounter> policyCounters;

    /**
     * Effective (post-tuning) {key, value} of every live tunable the
     * run registered (kernel-owned plus policy-owned), in key order.
     * With no runtime tuning these equal the construction-time values.
     */
    std::vector<std::pair<std::string, std::string>> effectiveTunables;

    /** Per-epoch MetricsView history (empty without an epoch policy). */
    std::vector<MetricsView> metricsEpochs;

    std::uint64_t levelCounts[kNumMemLevels] = {};
    std::uint64_t totalAccesses = 0;
    HierarchyCounters hierarchy;

    /** Order-independent digest of the application output, used to
     *  check that placement policy never changes results. */
    std::uint64_t outputChecksum = 0;

    /** Faults the injector fired (0 when the plan enables nothing). */
    std::uint64_t faultsInjected = 0;

    /**
     * Work iterations attempted and aborted by a memory-failure SIGBUS:
     * one iteration per graph trial (BFS/CC/SSSP source, or the whole
     * run for the single-pass PR/BC apps), one per serving request.
     * Aborted graph iterations contribute nothing to the checksum.
     */
    std::uint64_t iterationsTotal = 0;
    std::uint64_t iterationsAborted = 0;

    /** Fraction of iterations that completed. */
    double
    availability() const
    {
        if (iterationsTotal == 0)
            return 1.0;
        return static_cast<double>(iterationsTotal - iterationsAborted) /
               static_cast<double>(iterationsTotal);
    }

    /** Invariant sweeps completed (0 when checking was off). */
    std::uint64_t invariantChecksRun = 0;

    /**
     * Bytes moved by the kernel's migration copy engine and the cycles
     * it charged for them. Simulated migration bandwidth is
     * copyBytes / cyclesToSeconds(copyChargedCycles); with one copy
     * worker the cycles equal the legacy per-page charges exactly.
     */
    std::uint64_t copyBytes = 0;
    std::uint64_t copyChargedCycles = 0;

    /** Latency report of the serving apps (valid when hasServing). */
    ServingReport serving;
    bool hasServing = false;
};

/**
 * Run one experiment.
 *
 * @param config what to run.
 * @param plan allocation-time placement advisor (the object-level
 *        plan, or PlacementPlan::bindAll for the all-DRAM/all-NVM
 *        bounds); nullptr leaves placement to the kernel and policy.
 */
RunResult runWorkload(const RunConfig &config,
                      const PlacementPlan *plan = nullptr);

/**
 * The machine runWorkload builds for @p config. The registry decides
 * what runs; the tiering kernel's demotion path exists whenever a
 * policy does, and the policy itself decides whether to use it.
 * fatal() on a tunable assignment that does not parse.
 */
SystemConfig runSystem(const RunConfig &config);

/**
 * runWorkload on a machine the caller built from runSystem(@p config)
 * and attached its own access observers to. config.sampling and
 * config.sampler are not read and RunResult::samples stays empty, so
 * a test can watch a run through an observer of its own.
 */
RunResult runWorkloadOn(Engine &eng, const RunConfig &config,
                        const PlacementPlan *plan = nullptr);

/**
 * The configuration checks runWorkload makes before it runs anything
 * -- a graph workload's segment count (>= 1), the policy name, every
 * tunable key and value -- without running: fatal() on the first that
 * fails.
 * Builds the run's Engine (so the policy's own parse is the one
 * checked) and discards it.
 */
void checkRunConfig(const RunConfig &config);

/**
 * Serving scenario derived from a KV/LSM WorkloadSpec: scale is log2
 * keys, kind picks zipfian vs. uniform popularity, and trials scales
 * the request count (5000 requests per trial). Exposed so benches and
 * tests size stores consistently.
 */
ServingSpec servingSpecFor(const WorkloadSpec &w);

/**
 * Build the object-level plan from a profiling run (the paper's
 * "profile once, then assign" flow, Section 7).
 *
 * @param profile a sampled run of the same workload (normally the
 *        AutoNuma run itself).
 * @param dram_capacity_bytes DRAM tier size of the target machine.
 * @param spill true for the starred spill variant.
 */
PlacementPlan planFromProfile(const RunResult &profile,
                              std::uint64_t dram_capacity_bytes,
                              bool spill);

}  // namespace memtier

#endif  // MEMTIER_EXP_RUNNER_H_
