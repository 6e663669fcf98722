#include "mem/tier_device.h"

#include <algorithm>

#include "base/logging.h"

namespace memtier {

TierDevice::TierDevice(const TierParams &params)
    : cfg(params), channelFree(static_cast<std::size_t>(params.channels), 0)
{
    MEMTIER_ASSERT(params.channels > 0, "tier needs at least one channel");
}

Cycles
TierDevice::access(Cycles now, MemOp op, bool sequential)
{
    // Pick the earliest-available channel, lowest index on ties. The
    // running minimum lives in a local so both selects compile to
    // conditional moves instead of a data-dependent branch.
    std::size_t best = 0;
    Cycles best_free = channelFree[0];
    for (std::size_t i = 1; i < channelFree.size(); ++i) {
        const Cycles f = channelFree[i];
        const bool earlier = f < best_free;
        best = earlier ? i : best;
        best_free = earlier ? f : best_free;
    }

    Cycles start = std::max(now, best_free);
    Cycles wait = start - now;
    if (cfg.queueWaitCapCycles > 0 && wait > cfg.queueWaitCapCycles) {
        // Back-pressure: the controller throttles the core instead of
        // queueing indefinitely; excess backlog is shed.
        wait = cfg.queueWaitCapCycles;
        start = now + wait;
    }

    Cycles device;
    Cycles service;
    if (op == MemOp::Load) {
        device = sequential ? cfg.loadLatencySeq : cfg.loadLatencyRandom;
        service = cfg.readServiceCycles;
    } else {
        device = cfg.storeLatency;
        service = cfg.writeServiceCycles;
        // Write amplification: a random 64 B store to a device with a
        // larger internal granularity occupies the channel for the full
        // internal block (e.g. 256 B on Optane -> 4x service time).
        if (!sequential && cfg.internalGranularity > kLineSize)
            service *= cfg.internalGranularity / kLineSize;
    }

    channelFree[best] = start + service;
    ++accesses;
    queue_cycles += wait;
    return wait + device;
}

void
TierDevice::reset()
{
    std::fill(channelFree.begin(), channelFree.end(), 0);
}

}  // namespace memtier
