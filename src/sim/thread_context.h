/**
 * @file
 * Per-logical-thread CPU state: clock, private L1/L2, TLB, line-fill
 * buffer and stream-detection state.
 */

#ifndef MEMTIER_SIM_THREAD_CONTEXT_H_
#define MEMTIER_SIM_THREAD_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "base/types.h"
#include "cache/cache_params.h"
#include "cache/line_fill_buffer.h"
#include "cache/set_assoc_cache.h"
#include "cache/tlb.h"
#include "sim/access_observer.h"

namespace memtier {

class Engine;

/** One simulated hardware thread (core). */
class ThreadContext
{
  public:
    /**
     * @param id logical thread id.
     * @param params cache geometry for the private levels.
     */
    ThreadContext(ThreadId id, const CacheParams &params);

    ThreadId id() const { return tid; }

    /** Current thread-local time. */
    Cycles clock() const { return now; }

    /** Advance the thread's clock by @p cycles. */
    void advance(Cycles cycles) { now += cycles; }

    /** Force the clock (barrier synchronization). */
    void setClock(Cycles t) { now = t; }

    /** @name Private memory-system state (used by the engine). */
    ///@{
    Tlb tlb;
    SetAssocCache l1;
    SetAssocCache l2;
    LineFillBuffer lfb;
    ///@}

    /**
     * Last memory-serviced address, for stream detection.
     *
     * Known limitation of the scalar path: this is a single global
     * cursor, so two interleaved array scans (e.g. the offsets and
     * adjacency arrays of a CSR traversal) keep resetting it and defeat
     * sequential detection even though each array individually streams.
     * The batched path fixes this structurally: the bulk SimVector API
     * groups requests per array, so each same-page run presents its
     * accesses contiguously and the cursor sees the stream intact.
     */
    Addr lastMemAddr = ~Addr{0};

    /** Reusable request buffer for the bulk SimVector operations. */
    std::vector<AccessRequest> reqScratch;

    /**
     * Reusable address buffer for the uniform-op bulk operations
     * (gather/scatter), issued through Engine::accessMany.
     */
    std::vector<Addr> addrScratch;

    /** @name Per-thread counters. */
    ///@{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t hintFaults = 0;
    ///@}

  private:
    ThreadId tid;
    Cycles now = 0;
};

}  // namespace memtier

#endif  // MEMTIER_SIM_THREAD_CONTEXT_H_
