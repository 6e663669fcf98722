/**
 * @file
 * The simulation engine: composes the physical memory, kernel, AutoNUMA
 * policy, shared L3 and the logical threads, executes timed memory
 * accesses, interleaves threads deterministically by earliest clock, and
 * drives the periodic kernel services (kswapd, scanner, timeline
 * sampling).
 */

#ifndef MEMTIER_SIM_ENGINE_H_
#define MEMTIER_SIM_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/stats.h"
#include "base/types.h"
#include "cache/set_assoc_cache.h"
#include "fault/fault_injector.h"
#include "os/invariants.h"
#include "os/kernel.h"
#include "os/metrics_view.h"
#include "os/physical_memory.h"
#include "policy/autonuma.h"
#include "policy/tunable_registry.h"
#include "sim/access_observer.h"
#include "sim/system_config.h"
#include "sim/thread_context.h"
#include "thp/khugepaged.h"

namespace memtier {

/**
 * Elements per accessBatch call when a bulk access is staged as a
 * request list: the runtime's bulk operations and the engine's
 * materialized fallback for observers both chunk at this size, so the
 * onBatch framing an observer sees is the same either way.
 */
inline constexpr std::uint64_t kAccessChunk = 4096;

/** One sample of the machine-wide timeline (Figures 9 and 10). */
struct TimelinePoint
{
    double sec = 0.0;        ///< Simulated seconds.
    NumaStatSnapshot numa;   ///< Per-node usage.
    VmStat vm;               ///< Cumulative vmstat counters.
    double cpuUtil = 0.0;    ///< Active threads / total threads.
};

/** The simulated machine. */
class Engine : public TlbShootdownClient
{
  public:
    /** Build a machine from @p config. */
    explicit Engine(const SystemConfig &config);
    ~Engine() override;

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** @name Component access */
    ///@{
    Kernel &kernel() { return *kern; }
    PhysicalMemory &physicalMemory() { return phys; }

    /** Installed tiering policy (nullptr when tiering is off). */
    TieringPolicy *tieringPolicy() { return tiering.get(); }

    /** The policy as AutoNuma, or nullptr when another one runs. */
    AutoNuma *autonuma() { return dynamic_cast<AutoNuma *>(tiering.get()); }
    ThreadContext &thread(std::uint32_t i) { return *threads.at(i); }
    std::uint32_t threadCount() const
    {
        return static_cast<std::uint32_t>(threads.size());
    }
    const SystemConfig &config() const { return cfg; }
    const SetAssocCache &sharedL3() const { return l3; }

    /** Fault injector, or nullptr when the plan enables nothing. */
    FaultInjector *faultInjector() { return faults_.get(); }

    /** Invariant checker, or nullptr when checking is off. */
    InvariantChecker *invariantChecker() { return invariants_.get(); }

    /** Collapse daemon, or nullptr when THP is off. */
    Khugepaged *khugepaged() { return khugepaged_.get(); }

    /**
     * Live tunable registry: kernel-owned tunables plus whatever the
     * installed policy registered at construction. Mutations through
     * TunableRegistry::set() take effect immediately; a scan-period
     * change re-arms the scan service.
     */
    TunableRegistry &tunableRegistry() { return registry_; }
    const TunableRegistry &tunableRegistry() const { return registry_; }
    ///@}

    /** Install the sole observer besides the policy's own feed
     *  (nullptr clears all but that feed). */
    void
    setObserver(AccessObserver *obs)
    {
        observers.clear();
        if (policyObserver_)
            observers.push_back(policyObserver_);
        if (obs)
            observers.push_back(obs);
        observersChanged();
    }

    /** Register an additional access observer. */
    void
    addObserver(AccessObserver *obs)
    {
        observers.push_back(obs);
        observersChanged();
    }

    /**
     * Register a periodic service invoked from the engine's service
     * clock every @p period cycles (like kswapd and the scanner).
     */
    void
    addPeriodicService(Cycles period, std::function<void(Cycles)> fn)
    {
        services.push_back({period, period, std::move(fn)});
        recomputeNextServiceDue();
    }

    // -- Timed memory operations --------------------------------------

    /**
     * Execute a batch of memory operations on thread @p t in issue
     * order, advancing its clock by the modelled latencies.
     *
     * Semantically identical to issuing the requests one at a time (the
     * golden tests diff the two paths bit for bit); the batch form
     * coalesces same-line runs so the per-element host work collapses
     * to the LFB attribution, revalidates a run's tails against the
     * kernel's translation epoch, and delivers observer records once
     * per batch (AccessObserver::onBatch). When every observer takes
     * the load-skip contract, the batch is split at each due load: the
     * stretches between run as if no observer were attached, and each
     * due load runs as a batch of one whose record is delivered at
     * once. SystemConfig::scalarPath or MEMTIER_SCALAR_PATH=ON forces
     * the reference element-at-a-time machinery instead.
     *
     * @return the summed latency charged (excluding issue cycles).
     */
    Cycles accessBatch(ThreadContext &t,
                       std::span<const AccessRequest> reqs);

    /**
     * Execute @p count same-op accesses at @p base, @p base + @p stride,
     * ... on thread @p t -- the contiguous-range form of accessBatch.
     * The addresses are synthesized on the fly, so neither path
     * materializes a request list: the batched pipeline walks line runs
     * arithmetically and the forced scalar reference runs the legacy
     * element-at-a-time loop. Observers under the load-skip contract
     * keep that: the range is split at each due load as accessBatch
     * splits (a store range produces no record at all). Any other
     * observer makes the range fall back to materialized accessBatch
     * chunks of kAccessChunk, so record staging and batch delivery stay
     * in one place.
     *
     * @return the summed latency charged (excluding issue cycles).
     */
    Cycles accessRange(ThreadContext &t, Addr base, std::uint64_t count,
                       std::uint32_t stride, MemOp op);

    /**
     * Execute one same-op access per address in @p addrs, in order --
     * the uniform-op form of accessBatch used by gathers and scatters.
     * Halves the staging traffic of a materialized request list and
     * lets the batch machinery skip per-element op reads. Observers are
     * served as accessRange serves them.
     *
     * @return the summed latency charged (excluding issue cycles).
     */
    Cycles accessMany(ThreadContext &t, std::span<const Addr> addrs,
                      MemOp op);

    /**
     * Execute one memory operation on thread @p t, advancing its clock
     * by the modelled latency. Thin wrapper over a batch of one.
     * @return the latency charged.
     */
    Cycles
    access(ThreadContext &t, Addr addr, MemOp op)
    {
        const AccessRequest req{addr, op};
        return accessBatch(t, std::span<const AccessRequest>(&req, 1));
    }

    /** Timed load convenience. */
    Cycles load(ThreadContext &t, Addr addr)
    {
        return access(t, addr, MemOp::Load);
    }

    /** Timed store convenience. */
    Cycles store(ThreadContext &t, Addr addr)
    {
        return access(t, addr, MemOp::Store);
    }

    // -- Timed syscalls ------------------------------------------------

    /** mmap from thread @p t. */
    Addr sysMmap(ThreadContext &t, std::uint64_t bytes, ObjectId object,
                 const std::string &site);

    /** munmap from thread @p t. */
    void sysMunmap(ThreadContext &t, Addr start);

    /** mbind from thread @p t. */
    void sysMbind(ThreadContext &t, Addr start, const MemPolicy &policy);

    /** Register a disk file with the page cache (untimed setup). */
    Addr registerFile(std::uint64_t bytes, const std::string &name);

    /**
     * Ensure a file page is in the page cache, charging the disk fetch
     * to thread @p t when it misses.
     */
    void fileReadPage(ThreadContext &t, PageNum vpn);

    // -- Parallel execution --------------------------------------------

    /**
     * Run @p body(ctx, begin, end) over grain-sized subranges of
     * [0, n) across all logical threads with a static block partition,
     * interleaving threads by earliest clock (deterministic), and
     * barrier at the end. The range form lets the body issue one
     * accessBatch per subrange instead of per element; the scheduling
     * decisions are identical to the element form because a grain-sized
     * run always executed uninterrupted between clock comparisons.
     *
     * @param n iteration count.
     * @param body callable (ThreadContext &, uint64_t begin,
     *        uint64_t end) covering indices [begin, end).
     * @param grain consecutive iterations executed per scheduling step.
     */
    template <typename RangeBody>
    void
    parallelForRanges(std::uint64_t n, RangeBody &&body,
                      std::uint64_t grain = 16)
    {
        if (n == 0)
            return;
        syncClocks();

        struct Range
        {
            std::uint64_t next;
            std::uint64_t end;
        };
        std::vector<Range> ranges(threads.size());
        const std::uint64_t per = n / threads.size();
        const std::uint64_t rem = n % threads.size();
        std::uint64_t cursor = 0;
        std::size_t busy = 0;
        for (std::size_t t = 0; t < threads.size(); ++t) {
            const std::uint64_t len = per + (t < rem ? 1 : 0);
            ranges[t] = {cursor, cursor + len};
            cursor += len;
            if (len > 0)
                ++busy;
        }
        activeThreads = static_cast<std::uint32_t>(busy);

        std::size_t remaining = busy;
        while (remaining > 0) {
            // Earliest-clock-first interleaving; ties go to the lowest
            // thread id, keeping runs bit-for-bit reproducible.
            std::size_t best = SIZE_MAX;
            for (std::size_t t = 0; t < threads.size(); ++t) {
                if (ranges[t].next >= ranges[t].end)
                    continue;
                if (best == SIZE_MAX ||
                    threads[t]->clock() < threads[best]->clock()) {
                    best = t;
                }
            }
            Range &r = ranges[best];
            ThreadContext &ctx = *threads[best];
            const std::uint64_t stop = std::min(r.end, r.next + grain);
            body(ctx, r.next, stop);
            r.next = stop;
            if (r.next >= r.end)
                --remaining;
        }
        barrier();
        activeThreads = 1;
    }

    /**
     * Run @p body(ctx, i) for i in [0, n); element-at-a-time form of
     * @ref parallelForRanges with identical scheduling.
     */
    template <typename Body>
    void
    parallelFor(std::uint64_t n, Body &&body, std::uint64_t grain = 16)
    {
        parallelForRanges(
            n,
            [&](ThreadContext &ctx, std::uint64_t begin,
                std::uint64_t end) {
                for (std::uint64_t i = begin; i < end; ++i)
                    body(ctx, i);
            },
            grain);
    }

    /** Synchronize every thread clock to the global maximum. */
    void barrier();

    /** Largest thread clock = current simulated time. */
    Cycles globalTime() const;

    // -- Introspection --------------------------------------------------

    /** Accesses serviced per memory level. */
    std::uint64_t levelCount(MemLevel level) const
    {
        return level_counts[static_cast<int>(level)];
    }

    /** Machine-wide timeline samples. */
    const std::vector<TimelinePoint> &timeline() const { return points; }

    // -- Observation plane ---------------------------------------------

    /**
     * Cumulative machine-metrics snapshot at @p now: accesses and their
     * summed memory-system cycles, vmstat, and the serving-latency
     * quantiles when a probe is registered.
     */
    MetricsView sampleMetrics(Cycles now) const;

    /**
     * Register the live serving-latency histogram the serving driver
     * appends to (nullptr clears it). Sampled, never mutated, by
     * sampleMetrics().
     */
    void
    setServingLatencyProbe(const LatencyHistogram *probe)
    {
        servingProbe_ = probe;
    }

    /** MetricsView history, one per policy epoch tick (oldest first). */
    const std::vector<MetricsView> &metricsEpochs() const
    {
        return metricsEpochs_;
    }

    /** TlbShootdownClient: invalidate @p vpn everywhere. */
    void tlbShootdown(PageNum vpn) override;

    /** TlbShootdownClient: drop the 2 MiB entry at @p base_vpn. */
    void tlbShootdownHuge(PageNum base_vpn) override;

  private:
    /** Per-element outcome of the shared access core. */
    struct AccessOutcome
    {
        Cycles cost = 0;
        MemLevel level = MemLevel::L1;
        bool tlbMiss = false;
        bool huge = false;  ///< Translated through the 2 MiB class.
    };

    void syncClocks();
    void maybeRunServices(Cycles now);
    void recomputeNextServiceDue();

    /** Recompute skipLoads_ after the observer list changed. */
    void observersChanged();

    /**
     * @name Access bodies
     * The bodies of accessBatch, accessRange and accessMany, inlined
     * into them so the observer-free path pays no extra call. Only
     * batchBody builds records (when @p record); the other two run
     * without records.
     */
    ///@{
    [[gnu::always_inline]] inline Cycles
    batchBody(ThreadContext &t, std::span<const AccessRequest> reqs,
              bool record);
    [[gnu::always_inline]] inline Cycles
    rangeBody(ThreadContext &t, Addr base, std::uint64_t count,
              std::uint32_t stride, MemOp op);
    [[gnu::always_inline]] inline Cycles
    manyBody(ThreadContext &t, std::span<const Addr> addrs, MemOp op);
    ///@}

    /** The load-skip splitter of accessBatch, out of its hot path. */
    Cycles skippingBatch(ThreadContext &t,
                         std::span<const AccessRequest> reqs);

    /**
     * Load-skip splitter of the three bulk forms, over elements [0, n) of
     * one call: asks the observers how many loads to skip, runs the
     * passed-over stretch through @p stretch(begin, end), reports the
     * loads it passed over, runs the due load through @p due(k), and
     * repeats.
     * @p next_due(from, skip) returns the due element at or after
     * @p from (n when none) and sets @p skip to the loads before it.
     */
    template <typename NextDue, typename Stretch, typename Due>
    Cycles splitAtDueLoads(ThreadContext &t, std::uint64_t n,
                           NextDue &&next_due, Stretch &&stretch,
                           Due &&due);

    /** Execute @p req as a batch of one and deliver its record now. */
    Cycles dueAccess(ThreadContext &t, const AccessRequest &req);

    /**
     * Fallback of accessRange and accessMany for observers that see
     * every access: stage @p addr_at(k) for k in [0, @p count) into
     * t.reqScratch kAccessChunk elements at a time and accessBatch
     * each chunk, so onBatch framing equals a materialized issue.
     */
    template <typename AddrAt>
    Cycles materializedBatches(ThreadContext &t, std::uint64_t count,
                               MemOp op, AddrAt &&addr_at);

    void accessPrologue(ThreadContext &t, bool assists);
    AccessOutcome accessCore(ThreadContext &t, Addr addr, MemOp op,
                             bool assists);

    /**
     * Process @p m uniform-op tail accesses of @p line after a head
     * that left the line resident in L1 and @p vpn in the TLB: the
     * one-shot quiet-LFB collapse plus the general bulk machinery
     * shared by accessRange and accessMany. Sets @p consumed to the
     * number of tails settled (short on an epoch break) and
     * @p prologue_next when a mid-run service already covered the next
     * element's issue-side prologue.
     *
     * @return the summed latency charged (excluding issue cycles).
     */
    Cycles tailRun(ThreadContext &t, Addr line, PageNum vpn, bool huge,
                   std::uint64_t head_epoch, std::uint64_t m,
                   bool is_store, std::uint64_t &consumed,
                   bool &prologue_next);
    /**
     * Install the next-line prefetch @p line clean in L3, L2 and L1, in
     * that order, pushing each level's victim down the non-inclusive
     * hierarchy. Precondition: no level holds @p line (memoryAccess
     * checks all three), so the fills skip residency probes;
     * SetAssocCache::insert's debug assertion checks it.
     */
    void prefetchFill(ThreadContext &t, Addr line);
    /**
     * Merge a displaced @p victim into @p lower (L2 or the shared L3):
     * a hit absorbs its dirty bit, a miss fills it and cascades the
     * fill's own victim one level down; a dirty L3 victim writes back.
     */
    void pushVictim(ThreadContext &t, SetAssocCache &lower,
                    const CacheEviction &victim);
    void writebackLine(ThreadContext &t, Addr line);
    Cycles memoryAccess(ThreadContext &t, Addr addr, MemNode node,
                        Cycles issue_time);

    SystemConfig cfg;
    PhysicalMemory phys;
    std::unique_ptr<Kernel> kern;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<InvariantChecker> invariants_;
    std::unique_ptr<TieringPolicy> tiering;
    std::unique_ptr<Khugepaged> khugepaged_;
    SetAssocCache l3;
    std::vector<std::unique_ptr<ThreadContext>> threads;
    std::vector<AccessObserver *> observers;

    /** The tiering policy when it also observes accesses, else null. */
    AccessObserver *policyObserver_ = nullptr;

    /** Observers attached and every one takes the load-skip contract. */
    bool skipLoads_ = false;

    struct Service
    {
        Cycles next;
        Cycles period;
        std::function<void(Cycles)> fn;
    };
    std::vector<Service> services;

    // Periodic services.
    Cycles serviceClock = 0;
    Cycles nextKswapd;
    Cycles nextScan;
    Cycles nextTimeline;

    /**
     * Earliest pending service deadline (min of nextKswapd, nextScan,
     * the registered services and nextTimeline). The batched path only
     * enters maybeRunServices once a thread clock crosses it; the
     * skipped calls could at most have refreshed serviceClock, which is
     * unobservable outside the early-return guard.
     */
    Cycles nextServiceDue_ = 0;

    std::uint32_t activeThreads = 1;
    std::vector<TimelinePoint> points;

    /** Record staging for batch-at-a-time observer delivery. */
    std::vector<AccessRecord> recScratch_;

    /** Live tunable control plane (kernel + installed policy). */
    TunableRegistry registry_;

    /** Summed memory-system cycles of every completed access call. */
    std::uint64_t accessCycles_ = 0;

    /** Live serving-latency histogram, owned by the serving driver. */
    const LatencyHistogram *servingProbe_ = nullptr;

    /** One MetricsView per policy epoch tick. */
    std::vector<MetricsView> metricsEpochs_;

    std::uint64_t level_counts[kNumMemLevels] = {};
};

}  // namespace memtier

#endif  // MEMTIER_SIM_ENGINE_H_
