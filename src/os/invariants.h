/**
 * @file
 * Runtime invariant checker: a consistency sweep over the kernel's
 * page table, frame allocators, and reclaim LRU lists, run every N
 * kernel events. Violations abort with a diagnostic dump, so a fault
 * path that corrupts state is caught at the event that corrupted it
 * rather than as a wrong number at the end of a run.
 *
 * The checker only observes -- it never mutates kernel state and draws
 * no randomness -- so enabling it cannot change simulation results.
 * Tests keep it always on; production-style runs gate it behind
 * SystemConfig::checkInvariants (or MEMTIER_CHECK_INVARIANTS=ON).
 */

#ifndef MEMTIER_OS_INVARIANTS_H_
#define MEMTIER_OS_INVARIANTS_H_

#include <cstdint>
#include <string>

#include "base/types.h"

namespace memtier {

class Kernel;

/** Periodic page-table / allocator / LRU consistency checker. */
class InvariantChecker
{
  public:
    /**
     * @param kernel the kernel to check (observed, never mutated).
     * @param period_events kernel events between full sweeps.
     */
    explicit InvariantChecker(const Kernel &kernel,
                              std::uint64_t period_events = 4096);

    /** One kernel event happened; sweeps every @ref period() events. */
    void onEvent(Cycles now);

    /** Run a full consistency sweep immediately; panics on violation. */
    void checkNow(Cycles now);

    /** Full sweeps completed so far. */
    std::uint64_t checksRun() const { return checks_; }

    /** Kernel events observed so far. */
    std::uint64_t eventsSeen() const { return events_; }

    /** Events between sweeps. */
    std::uint64_t period() const { return period_; }

  private:
    /** Print a diagnostic dump of kernel state, then abort. */
    [[noreturn]] void fail(Cycles now, const std::string &what) const;

    const Kernel &kernel_;
    std::uint64_t period_;
    std::uint64_t events_ = 0;
    std::uint64_t checks_ = 0;
};

}  // namespace memtier

#endif  // MEMTIER_OS_INVARIANTS_H_
