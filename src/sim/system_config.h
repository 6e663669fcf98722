/**
 * @file
 * Aggregate configuration of the simulated machine.
 *
 * The default is the "scaled testbed": the paper's single-socket Xeon
 * Gold 6240 (18 cores, 2.6 GHz) with 192 GB DRAM + 768 GB Optane,
 * capacity-scaled by 12288x to 16 MiB DRAM + 64 MiB NVM so experiments
 * complete in seconds while preserving the footprint:DRAM pressure ratio
 * the paper's evaluation depends on (Section 4.2, Section 6). AutoNUMA
 * time constants are compressed correspondingly (runs last simulated
 * seconds instead of minutes).
 */

#ifndef MEMTIER_SIM_SYSTEM_CONFIG_H_
#define MEMTIER_SIM_SYSTEM_CONFIG_H_

#include <cstdint>

#include <string>

#include "autonuma/autonuma.h"
#include "cache/cache_params.h"
#include "fault/fault_plan.h"
#include "mem/tier_params.h"
#include "os/kernel.h"
#include "policy/tunables.h"
#include "thp/thp_params.h"

namespace memtier {

/** Everything needed to instantiate a simulated machine. */
struct SystemConfig
{
    TierParams dram = makeDramParams(24 * kMiB);
    TierParams nvm = makeNvmParams(96 * kMiB);
    CacheParams cache;
    KernelParams kernel;
    AutoNumaParams autonuma;

    /**
     * Tiering policy selected by registry name ("autonuma", "exchange",
     * "dram-only", "interleave", ...). When empty, the legacy
     * autonumaEnabled flag decides between "autonuma" and no policy,
     * so existing configurations behave exactly as before.
     */
    std::string policyName;

    /** String-keyed tunables forwarded to the policy factory. */
    PolicyTunables policyTunables;

    /**
     * Transparent huge pages. Off by default: every THP code path is
     * gated on thp.enabled, keeping 4 KiB-only runs bit-identical. The
     * MEMTIER_THP environment variable (ON/1) force-enables it.
     */
    ThpParams thp;

    /** False runs the vanilla-kernel baseline (no scanning/migration). */
    bool autonumaEnabled = true;

    /**
     * True gives the kernel the tiering reclaim path (demotion to NVM).
     * Normally tied to autonumaEnabled, but policies that replace the
     * scanner (e.g. dynamic object-level tiering) keep the demotion
     * path while disabling AutoNUMA itself.
     */
    bool tieringKernel = true;

    /**
     * Logical threads (the paper runs 18, one per core). They are
     * simulated: the engine interleaves them deterministically by
     * earliest clock on the calling host thread, whatever the host's
     * core count.
     */
    std::uint32_t numThreads = 18;

    /** Pipeline cycles charged per memory operation besides the
     *  memory-system latency (models surrounding ALU work). */
    Cycles issueCycles = 4;

    /** Cost of entering/leaving the kernel for a syscall. */
    Cycles syscallCycles = 2600;

    /** kswapd wakeup period. */
    Cycles kswapdPeriod = secondsToCycles(0.0025);

    /** Timeline (numastat/vmstat/CPU-util) sampling period. */
    Cycles timelinePeriod = secondsToCycles(0.01);

    /** Enable the next-line prefetcher on sequential misses. */
    bool nextLinePrefetch = true;

    /** Deterministic seed for all engine-level randomness. */
    std::uint64_t seed = 42;

    /**
     * Fault-injection plan. The default (no point enabled) constructs
     * no injector at all, so fault-free runs are bit-identical to
     * builds that predate the fault layer.
     */
    FaultPlan faults;

    /**
     * Run the kernel invariant checker every invariantCheckPeriod
     * kernel events. Tests keep it on; the MEMTIER_CHECK_INVARIANTS
     * environment variable (ON/1) force-enables it for any run.
     */
    bool checkInvariants = false;

    /** Kernel events between invariant sweeps. */
    std::uint64_t invariantCheckPeriod = 4096;

    /**
     * Force the reference scalar access path: accessBatch degenerates
     * to element-at-a-time processing with no run coalescing, no
     * translation micro-cache and no bulk fill accounting. The results
     * are bit-identical either way (the golden tests assert it); this
     * knob exists to prove that and to baseline the batched path's
     * host-side speedup. The MEMTIER_SCALAR_PATH environment variable
     * (ON/1) force-enables it.
     */
    bool scalarPath = false;
};

}  // namespace memtier

#endif  // MEMTIER_SIM_SYSTEM_CONFIG_H_
