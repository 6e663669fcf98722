/**
 * @file
 * Timing model of one memory tier's device: fixed load/store latency plus
 * queuing delay on a small set of independent channels.
 */

#ifndef MEMTIER_MEM_TIER_DEVICE_H_
#define MEMTIER_MEM_TIER_DEVICE_H_

#include <cstdint>
#include <vector>

#include "base/types.h"
#include "mem/tier_params.h"

namespace memtier {

/**
 * Models contention and latency of a tier.
 *
 * Each access picks the earliest-free channel; its total latency is the
 * wait until that channel frees, plus the device latency, and the channel
 * stays busy for the line service time (amplified for sub-granularity
 * random stores on NVM, reproducing Optane write amplification).
 */
class TierDevice
{
  public:
    /** @param params static tier configuration. */
    explicit TierDevice(const TierParams &params);

    /**
     * Issue one 64 B line access at simulated time @p now.
     *
     * @param now issue time in cycles.
     * @param op load or store.
     * @param sequential true when the access falls within the tier's
     *        internal granularity of the previous access from the same
     *        thread (row-buffer / Optane-buffer locality).
     * @return total latency in cycles as seen by the requester.
     */
    Cycles access(Cycles now, MemOp op, bool sequential);

    /** Total accesses serviced. */
    std::uint64_t accessCount() const { return accesses; }

    /** Sum of queueing delay cycles across all accesses. */
    std::uint64_t totalQueueCycles() const { return queue_cycles; }

    /** Reset channel availability (e.g. between experiment phases). */
    void reset();

    /**
     * Move this device's access/queue counters into @p into and zero
     * them here. Used by per-host-thread timing replicas to commit
     * their shards into the master device at a barrier; channel
     * availability is deliberately left untouched on both sides.
     */
    void
    drainCountersInto(TierDevice &into)
    {
        into.accesses += accesses;
        into.queue_cycles += queue_cycles;
        accesses = 0;
        queue_cycles = 0;
    }

    /** Cycle at which each channel next becomes free. */
    const std::vector<Cycles> &
    channelFreeTimes() const
    {
        return channelFree;
    }

    /** Static parameters this device was built with. */
    const TierParams &params() const { return cfg; }

  private:
    TierParams cfg;
    std::vector<Cycles> channelFree;
    std::uint64_t accesses = 0;
    std::uint64_t queue_cycles = 0;
};

}  // namespace memtier

#endif  // MEMTIER_MEM_TIER_DEVICE_H_
