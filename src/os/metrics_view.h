/**
 * @file
 * Observation plane for the tunable control plane: a MetricsView is a
 * cumulative snapshot of what the machine has done so far — vmstat
 * counters, total memory accesses with their summed latency, and (when
 * a serving workload is live) the request-latency quantiles. The engine
 * takes one per tuning epoch; policies consume *deltas* between two
 * snapshots, exactly how "From Good to Great"-style online tuners read
 * /proc/vmstat.
 */

#ifndef MEMTIER_OS_METRICS_VIEW_H_
#define MEMTIER_OS_METRICS_VIEW_H_

#include <cstdint>

#include "base/types.h"
#include "os/vmstat.h"

namespace memtier {

/** Cumulative machine-metrics snapshot taken at one instant. */
struct MetricsView
{
    /** Snapshot time on the simulated cycle clock. */
    Cycles now = 0;

    /** Memory accesses completed so far (all levels). */
    std::uint64_t accesses = 0;

    /** Cycles those accesses spent in the memory system. */
    std::uint64_t accessCycles = 0;

    /** Kernel vmstat counters at snapshot time. */
    VmStat vm;

    /** True when a serving workload had a live latency histogram. */
    bool hasServing = false;

    /** Serving request-latency quantiles in cycles (0 without serving). */
    double serveP50Cycles = 0.0;
    double serveP99Cycles = 0.0;
    double serveP999Cycles = 0.0;

    /** Cumulative-field delta against an @p earlier snapshot. The
     *  serving quantiles are not cumulative; the delta keeps this
     *  snapshot's values. */
    MetricsView
    delta(const MetricsView &earlier) const
    {
        MetricsView d = *this;
        d.accesses = accesses - earlier.accesses;
        d.accessCycles = accessCycles - earlier.accessCycles;
        d.vm = vm.delta(earlier.vm);
        return d;
    }

    /** Mean access latency in cycles (0 when no accesses happened). */
    double
    meanAccessCycles() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(accessCycles) /
                         static_cast<double>(accesses);
    }
};

}  // namespace memtier

#endif  // MEMTIER_OS_METRICS_VIEW_H_
