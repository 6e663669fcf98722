/**
 * @file
 * Engine -> profiler notification interface. The PEBS-style sampler
 * implements this to see the memory operations it may record,
 * mirroring perf-mem's position between the core and the tools.
 */

#ifndef MEMTIER_SIM_ACCESS_OBSERVER_H_
#define MEMTIER_SIM_ACCESS_OBSERVER_H_

#include <cstddef>
#include <cstdint>

#include "base/types.h"

namespace memtier {

/** One memory operation submitted to Engine::accessBatch. */
struct AccessRequest
{
    Addr addr = 0;
    MemOp op = MemOp::Load;
};

/** One completed memory operation as the observer sees it. */
struct AccessRecord
{
    ThreadId tid = 0;
    Addr vaddr = 0;
    MemOp op = MemOp::Load;
    MemLevel level = MemLevel::L1;  ///< Where the data was found.
    Cycles latency = 0;             ///< Total cost charged to the thread.
    bool tlbMiss = false;           ///< Required a page walk.
    Cycles time = 0;                ///< Completion time (thread clock).
};

/**
 * Receives the accesses the engine executes: every one by default, or
 * only the loads it asks for under the load-skip contract below.
 */
class AccessObserver
{
  public:
    virtual ~AccessObserver() = default;

    /** Called after each memory operation completes. */
    virtual void onAccess(const AccessRecord &record) = 0;

    /**
     * Batch delivery contract: the engine completes every operation of
     * an accessBatch call, then delivers the records once, in issue
     * order. Observers only see completed batches -- state an observer
     * accumulates lags the simulation by at most one batch relative to
     * periodic services that fire mid-batch. The default loops over
     * onAccess so existing observers keep working unchanged; observers
     * on the hot path override this to skip per-record virtual dispatch.
     *
     * Under the load-skip contract every record arrives on its own, a
     * batch of one delivered as soon as its access completes.
     */
    virtual void
    onBatch(const AccessRecord *records, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            onAccess(records[i]);
    }

    /**
     * @name Load-skip contract
     * An observer that keeps a few accesses of many (a sampler) opts
     * in by returning true from skipsLoads(). It then declares that it
     * needs no record of any store, and per thread it names how many
     * upcoming loads it needs no record of. The engine runs those
     * accesses without building records, reports the loads it passed
     * over, and delivers the next due load at once. The engine takes
     * the contract only when every attached observer opts in, and
     * reads skipsLoads() once, when the observer is attached, so the
     * answer must not change afterwards. With several observers the
     * soonest due load is due for all: a record can arrive while this
     * observer still had loads to skip, and then counts as one of
     * them. Observers that keep the defaults see every access in
     * onBatch's framing.
     */
    ///@{

    /** True when this observer takes the load-skip contract. */
    virtual bool skipsLoads() const { return false; }

    /**
     * Upcoming loads of thread @p tid, counted from the next one, that
     * this observer needs no record of (0 = the next load is due).
     */
    virtual std::uint64_t
    loadsToSkip(ThreadId tid) const
    {
        (void)tid;
        return 0;
    }

    /**
     * The engine executed @p n loads of thread @p tid without a record
     * (never more than loadsToSkip(tid) said). Called before the next
     * record of that thread is delivered, and before the engine call
     * that executed them returns.
     */
    virtual void
    passOver(ThreadId tid, std::uint64_t n)
    {
        (void)tid;
        (void)n;
    }
    ///@}
};

}  // namespace memtier

#endif  // MEMTIER_SIM_ACCESS_OBSERVER_H_
