#include "sim/engine.h"

#include "base/env.h"
#include "base/logging.h"
#include "policy/policy_registry.h"

namespace memtier {

namespace {

/** Upper bound of the copy_threads tunable and MEMTIER_COPY_THREADS. */
constexpr long kMaxCopyThreads = 64;

/** Engine::splitAtDueLoads' next_due for a call of @p n loads. */
auto
allLoads(std::uint64_t n)
{
    return [n](std::uint64_t from, std::uint64_t &skip) {
        skip = std::min(skip, n - from);
        return from + skip;
    };
}

}  // namespace

Engine::Engine(const SystemConfig &config)
    : cfg(config),
      phys(config.dram, config.nvm),
      l3("L3", config.cache.l3Size, config.cache.l3Ways)
{
    // accessCore fills a missing line during its probes, before the
    // prefetch of line+1 runs. That matches filling it afterwards only
    // while line and line+1 never share a set, i.e. with >= 2 sets (a
    // power of two) at every level.
    const auto setsOf = [](std::uint64_t bytes, unsigned ways) {
        return bytes / (std::uint64_t{ways} * kLineSize);
    };
    const CacheParams &cp = config.cache;
    MEMTIER_ASSERT(setsOf(cp.l1Size, cp.l1Ways) >= 2 &&
                       setsOf(cp.l2Size, cp.l2Ways) >= 2 &&
                       setsOf(cp.l3Size, cp.l3Ways) >= 2,
                   "every cache level needs at least two sets");
    if (thpForcedByEnv())
        cfg.thp.enabled = true;
    if (envFlag("MEMTIER_SCALAR_PATH"))
        cfg.scalarPath = true;
    KernelParams kp = cfg.kernel;
    kp.thp = cfg.thp;
    // MEMTIER_COPY_THREADS sizes the migration copy engine's worker
    // pool without recompiling, like the other MEMTIER_* overrides.
    if (const auto cw =
            envInt("MEMTIER_COPY_THREADS", 1, kMaxCopyThreads))
        kp.copyThreads = static_cast<std::uint32_t>(*cw);
    // The vanilla baseline has no demotion path; tiering kernels keep
    // it even when the AutoNUMA scanner is replaced by another policy.
    kp.demoteOnReclaim = cfg.tieringKernel;
    kern = std::make_unique<Kernel>(phys, kp);
    kern->setShootdownClient(this);

    // Kernel-owned live tunables: registered before the policy so the
    // control plane exists even for policy-less (vanilla) machines.
    registry_.add({"copy_threads", "migration copy-engine worker threads",
                   "kernel", 1.0, static_cast<double>(kMaxCopyThreads),
                   /*integerValued=*/true, false,
                   [this] {
                       return static_cast<double>(
                           kern->copyEngine().params().workers);
                   },
                   [this](double v) {
                       kern->setCopyThreads(
                           static_cast<std::uint32_t>(v));
                   }});

    // A plan with no enabled point builds no injector at all, keeping
    // fault-free runs bit-identical (the kernel never even branches on
    // a plan, only on the injector pointer).
    if (cfg.faults.anyEnabled()) {
        faults_ = std::make_unique<FaultInjector>(cfg.faults);
        kern->setFaultInjector(faults_.get());
    }
    if (cfg.checkInvariants || envFlag("MEMTIER_CHECK_INVARIANTS")) {
        invariants_ = std::make_unique<InvariantChecker>(
            *kern, cfg.invariantCheckPeriod);
        kern->setInvariantChecker(invariants_.get());
    }

    // Resolve the tiering policy through the registry. The legacy
    // autonumaEnabled flag maps onto the "autonuma" registry entry, so
    // both selection paths construct the identical policy.
    const std::string policy_name =
        !cfg.policyName.empty()
            ? cfg.policyName
            : (cfg.autonumaEnabled ? "autonuma" : "");
    if (!policy_name.empty()) {
        PolicyContext ctx{*kern, cfg.autonuma, cfg.policyTunables,
                          registry_};
        std::string error;
        tiering =
            PolicyRegistry::instance().create(policy_name, ctx, &error);
        if (tiering == nullptr)
            fatal("%s", error.c_str());
        kern->setTieringPolicy(tiering.get());
        // A policy that ranks by observed accesses (object-dynamic)
        // keeps the access feed for the machine's whole life.
        policyObserver_ = tiering->accessObserver();
        if (policyObserver_) {
            observers.push_back(policyObserver_);
            observersChanged();
        }
    }

    // Runtime mutations (TunableRegistry::set) land here; the
    // construction-time setFromString path never fires the observer, so
    // installing after create() changes nothing for config-only runs.
    // A scan-period change re-arms the scan service: the next tick
    // lands one *new* period after the mutation instead of on the old
    // schedule.
    registry_.setApplyObserver(
        [this](const TunableRegistry::Tunable &t, Cycles now) {
            if (t.rearmScan && tiering && tiering->scanPeriod() > 0) {
                nextScan = now + tiering->scanPeriod();
                recomputeNextServiceDue();
            }
        });

    // Policy epoch service (the autotune observation plane). Policies
    // with epochPeriod() == 0 -- every non-tuning policy -- add no
    // service and keep the service cadence exactly as it was.
    if (tiering && tiering->epochPeriod() > 0) {
        addPeriodicService(tiering->epochPeriod(), [this](Cycles now) {
            const MetricsView mv = sampleMetrics(now);
            metricsEpochs_.push_back(mv);
            tiering->epochTick(now, mv);
        });
    }

    if (cfg.thp.enabled && cfg.thp.khugepagedPeriod > 0) {
        khugepaged_ = std::make_unique<Khugepaged>(*kern, cfg.thp);
        addPeriodicService(cfg.thp.khugepagedPeriod,
                           [this](Cycles now) { khugepaged_->tick(now); });
    }

    threads.reserve(cfg.numThreads);
    for (std::uint32_t i = 0; i < cfg.numThreads; ++i)
        threads.push_back(std::make_unique<ThreadContext>(i, cfg.cache));

    nextKswapd = cfg.kswapdPeriod;
    nextScan = tiering && tiering->scanPeriod() > 0
                   ? tiering->scanPeriod()
                   : cfg.autonuma.scanPeriod;
    nextTimeline = cfg.timelinePeriod;
    recomputeNextServiceDue();
}

Engine::~Engine() = default;

void
Engine::tlbShootdown(PageNum vpn)
{
    for (auto &t : threads)
        t->tlb.invalidate(vpn);
}

void
Engine::tlbShootdownHuge(PageNum base_vpn)
{
    for (auto &t : threads)
        t->tlb.invalidateHuge(base_vpn);
}

void
Engine::syncClocks()
{
    const Cycles m = globalTime();
    for (auto &t : threads)
        t->setClock(m);
}

void
Engine::barrier()
{
    // Synchronize to the slowest participant plus a small barrier cost.
    constexpr Cycles kBarrierCycles = 260;
    const Cycles m = globalTime() + kBarrierCycles;
    for (auto &t : threads)
        t->setClock(m);
}

Cycles
Engine::globalTime() const
{
    Cycles m = 0;
    for (const auto &t : threads)
        m = std::max(m, t->clock());
    return m;
}

void
Engine::maybeRunServices(Cycles now)
{
    if (now <= serviceClock)
        return;
    serviceClock = now;
    while (nextKswapd <= serviceClock) {
        kern->kswapdTick(nextKswapd);
        nextKswapd += cfg.kswapdPeriod;
    }
    if (tiering && tiering->scanPeriod() > 0) {
        while (nextScan <= serviceClock) {
            tiering->scanTick(nextScan);
            nextScan += tiering->scanPeriod();
        }
    }
    for (Service &svc : services) {
        while (svc.next <= serviceClock) {
            svc.fn(svc.next);
            svc.next += svc.period;
        }
    }
    while (nextTimeline <= serviceClock) {
        TimelinePoint p;
        p.sec = cyclesToSeconds(nextTimeline);
        p.numa = kern->numastat();
        p.vm = kern->vmstat();
        p.cpuUtil = static_cast<double>(activeThreads) /
                    static_cast<double>(threads.size());
        points.push_back(p);
        nextTimeline += cfg.timelinePeriod;
    }
    recomputeNextServiceDue();
}

MetricsView
Engine::sampleMetrics(Cycles now) const
{
    MetricsView mv;
    mv.now = now;
    for (int i = 0; i < kNumMemLevels; ++i)
        mv.accesses += level_counts[i];
    mv.accessCycles = accessCycles_;
    mv.vm = kern->vmstat();
    if (servingProbe_ != nullptr && servingProbe_->count() > 0) {
        mv.hasServing = true;
        mv.serveP50Cycles = servingProbe_->percentile(0.50);
        mv.serveP99Cycles = servingProbe_->percentile(0.99);
        mv.serveP999Cycles = servingProbe_->percentile(0.999);
    }
    return mv;
}

void
Engine::recomputeNextServiceDue()
{
    Cycles due = std::min(nextKswapd, nextTimeline);
    if (tiering && tiering->scanPeriod() > 0)
        due = std::min(due, nextScan);
    for (const Service &svc : services)
        due = std::min(due, svc.next);
    nextServiceDue_ = due;
}

void
Engine::writebackLine(ThreadContext &t, Addr line)
{
    // Asynchronous dirty writeback: occupies tier bandwidth but does not
    // stall the thread. Skip lines whose page has been unmapped.
    const PageMeta *meta = kern->pageMeta(pageOf(line << kLineShift));
    if (meta == nullptr || !meta->present)
        return;
    phys.tier(meta->node).access(t.clock(), MemOp::Store,
                                 /*sequential=*/false);
}

void
Engine::pushVictim(ThreadContext &t, SetAssocCache &lower,
                   const CacheEviction &victim)
{
    if (!victim.valid)
        return;
    CacheEviction next;
    if (lower.accessOrInsert(victim.line, victim.dirty, next))
        return;  // Already present; dirty bit merged.
    if (&lower == &l3) {
        if (next.valid && next.dirty)
            writebackLine(t, next.line);
        return;
    }
    // lower was L2; its victim falls to the shared L3.
    pushVictim(t, l3, next);
}

void
Engine::prefetchFill(ThreadContext &t, Addr line)
{
    // Install the clean line top-down from L3; victims trickle downward
    // and dirty L3 victims write back to memory.
    const CacheEviction l3_victim = l3.insert(line, false);
    if (l3_victim.valid && l3_victim.dirty)
        writebackLine(t, l3_victim.line);
    pushVictim(t, l3, t.l2.insert(line, false));
    pushVictim(t, t.l2, t.l1.insert(line, false));
}

Cycles
Engine::memoryAccess(ThreadContext &t, Addr addr, MemNode node,
                     Cycles issue_time)
{
    // Stream detection against the previous memory-serviced address.
    const bool sequential =
        addr >= t.lastMemAddr &&
        addr - t.lastMemAddr <= phys.tier(node).params().internalGranularity;
    t.lastMemAddr = addr;

    // Stores that miss all caches fetch the line for ownership (RFO) at
    // load latency; the dirty data leaves later via writeback.
    Cycles lat =
        phys.tier(node).access(issue_time, MemOp::Load, sequential);
    if (faults_ && node == MemNode::NVM) {
        // Injected NVM latency spike (media congestion / thermal jitter).
        lat += faults_->latencyPenalty(FaultPoint::NvmLatency, issue_time);
    }

    if (cfg.nextLinePrefetch && sequential) {
        // Next-line prefetch on a detected stream: fetch line+1 in the
        // shadow of this miss (no thread stall, but real bandwidth).
        const Addr next_addr = (lineOf(addr) + 1) << kLineShift;
        if (pageOf(next_addr) == pageOf(addr)) {
            const Addr next_line = lineOf(next_addr);
            if (!t.l1.contains(next_line) && !t.l2.contains(next_line) &&
                !l3.contains(next_line)) {
                const Cycles pf_lat = phys.tier(node).access(
                    issue_time, MemOp::Load, /*sequential=*/true);
                prefetchFill(t, next_line);
                t.lfb.add(next_line, issue_time + pf_lat);
            }
        }
    }
    return lat;
}

void
Engine::accessPrologue(ThreadContext &t, bool assists)
{
    t.advance(cfg.issueCycles);
    // The batched path only enters maybeRunServices when a deadline is
    // actually due; a skipped call could at most have refreshed
    // serviceClock, which nothing else observes. The forced scalar path
    // keeps the unconditional legacy call.
    if (!assists || t.clock() >= nextServiceDue_)
        maybeRunServices(t.clock());
}

Engine::AccessOutcome
Engine::accessCore(ThreadContext &t, Addr addr, MemOp op, bool assists)
{
    const PageNum vpn = pageOf(addr);
    const Addr line = lineOf(addr);
    const CacheParams &cp = cfg.cache;

    Cycles cost = 0;
    bool tlb_miss = false;
    MemNode node = MemNode::DRAM;
    bool node_known = false;

    // PMD-mapped ranges translate through the 2 MiB TLB entry class;
    // with THP off the branch reduces to the legacy 4 KiB lookup.
    bool huge = cfg.thp.enabled && kern->isHugeMapped(vpn);
    switch (huge ? t.tlb.lookupHuge(hugeBaseOf(vpn)) : t.tlb.lookup(vpn)) {
      case TlbOutcome::L1Hit:
        break;
      case TlbOutcome::StlbHit:
        cost += t.tlb.stlbHitCycles();
        break;
      case TlbOutcome::Miss: {
        tlb_miss = true;
        // Page walk: a few cached steps plus some page-table references
        // that go to DRAM (page tables live on the DRAM node). A walk
        // that ends at a PMD entry is one level shorter.
        cost += cp.pageWalkBaseCycles;
        const unsigned mem_refs =
            huge ? cp.pageWalkMemRefsHuge : cp.pageWalkMemRefs;
        for (unsigned i = 0; i < mem_refs; ++i) {
            cost += phys.tier(MemNode::DRAM).access(
                t.clock() + cost, MemOp::Load, /*sequential=*/false);
        }
        const TouchResult tr = kern->touchPage(vpn, t.clock() + cost, op);
        cost += tr.cost;
        node = tr.node;
        node_known = true;
        if (tr.pageFault)
            ++t.pageFaults;
        if (tr.hintFault)
            ++t.hintFaults;
        if (cfg.thp.enabled && !huge && kern->isHugeMapped(vpn)) {
            // The fault PMD-mapped the range under a 4 KiB lookup:
            // replace the stale 4 KiB fill with the huge translation.
            t.tlb.invalidate(vpn);
            t.tlb.insertHuge(hugeBaseOf(vpn));
            huge = true;
        }
        break;
      }
    }

    // Each probe fills its level on a miss, in the same set walk. The
    // victims are held and pushed down once the levels below are
    // filled, in the order a separate top-down fill would push them.
    // Filling before the prefetch of line+1 is safe while every level
    // has >= 2 sets (the constructor checks it; DESIGN.md §8).
    MemLevel level;
    CacheEviction l1_victim;
    if (t.l1.accessOrInsert(line, op == MemOp::Store, l1_victim)) {
        // An L1 hit within the fill window of an outstanding miss is
        // attributed to the line-fill buffer, as PEBS does. When every
        // recorded fill is stale past the residency window, the batched
        // path skips both buffer scans outright.
        const Cycles ref = t.clock() + cost;
        if (assists && t.lfb.quietAt(ref, cp.lfbResidencyCycles)) {
            level = MemLevel::L1;
            cost += cp.l1Latency;
        } else if (auto rem = t.lfb.inFlight(line, ref)) {
            level = MemLevel::LFB;
            cost += std::min<Cycles>(*rem, cp.l3Latency);
            t.lfb.countHit();
        } else if (t.lfb.recentlyFilled(line, ref,
                                        cp.lfbResidencyCycles)) {
            level = MemLevel::LFB;
            cost += cp.l1Latency;
            t.lfb.countHit();
        } else {
            level = MemLevel::L1;
            cost += cp.l1Latency;
        }
    } else {
        CacheEviction l2_victim;
        CacheEviction l3_victim;
        if (t.l2.accessOrInsert(line, false, l2_victim)) {
            level = MemLevel::L2;
            cost += cp.l2Latency;
        } else if (l3.accessOrInsert(line, false, l3_victim)) {
            level = MemLevel::L3;
            cost += cp.l3Latency;
        } else {
            if (!node_known)
                node = kern->nodeOf(vpn);
            cost += cp.l3Latency;
            cost += memoryAccess(t, addr, node, t.clock() + cost);
            level = node == MemNode::DRAM ? MemLevel::DRAM : MemLevel::NVM;
            // Released after the demand and prefetch reads: the tier's
            // channel state depends on the order it sees them in.
            if (l3_victim.valid && l3_victim.dirty)
                writebackLine(t, l3_victim.line);
            t.lfb.add(line, t.clock() + cost);
        }
        pushVictim(t, l3, l2_victim);
        pushVictim(t, t.l2, l1_victim);
    }

    t.advance(cost);
    ++level_counts[static_cast<int>(level)];
    if (op == MemOp::Load)
        ++t.loads;
    else
        ++t.stores;

    AccessOutcome out;
    out.cost = cost;
    out.level = level;
    out.tlbMiss = tlb_miss;
    out.huge = huge;
    return out;
}

void
Engine::observersChanged()
{
    skipLoads_ = !observers.empty() &&
                 std::all_of(observers.begin(), observers.end(),
                             [](const AccessObserver *obs) {
                                 return obs->skipsLoads();
                             });
}

namespace {

// Element sources of Engine::runAccesses. Each gives an element's
// address and op, the end of the same-line run that starts at an
// element, the number of stores in [b, e), and a sub-range.

/** A request list: per-element address and op; runs are scanned. */
struct RequestList
{
    std::span<const AccessRequest> reqs;

    std::uint64_t size() const { return reqs.size(); }
    Addr addrAt(std::uint64_t k) const { return reqs[k].addr; }
    MemOp opAt(std::uint64_t k) const { return reqs[k].op; }

    std::uint64_t
    runEnd(std::uint64_t k) const
    {
        const Addr line = lineOf(reqs[k].addr);
        std::uint64_t e = k + 1;
        while (e < reqs.size() && lineOf(reqs[e].addr) == line)
            ++e;
        return e;
    }

    std::uint64_t
    storesIn(std::uint64_t b, std::uint64_t e) const
    {
        std::uint64_t st = 0;
        for (; b < e; ++b)
            st += reqs[b].op == MemOp::Store;
        return st;
    }
};

/** The op side of a source whose every element has op @p op. */
struct UniformOp
{
    MemOp op;

    MemOp opAt(std::uint64_t) const { return op; }

    std::uint64_t
    storesIn(std::uint64_t b, std::uint64_t e) const
    {
        return op == MemOp::Store ? e - b : 0;
    }
};

/** @p count elements at @p base + k * @p stride; runs follow from the
 *  stride, no per-element scan. */
struct Stride : UniformOp
{
    Addr base;
    std::uint64_t count;
    std::uint32_t stride;

    std::uint64_t size() const { return count; }
    Addr addrAt(std::uint64_t k) const { return base + k * stride; }

    std::uint64_t
    runEnd(std::uint64_t k) const
    {
        // Elements share the line while they stay below its end.
        const Addr addr = addrAt(k);
        const Addr line_end = (lineOf(addr) + 1) << kLineShift;
        return k + std::min<std::uint64_t>(
                       count - k, (line_end - addr + stride - 1) / stride);
    }

    Stride
    slice(std::uint64_t b, std::uint64_t e) const
    {
        return {{op}, addrAt(b), e - b, stride};
    }
};

/** One element per address of @p addrs; runs are scanned. */
struct AddressList : UniformOp
{
    std::span<const Addr> addrs;

    std::uint64_t size() const { return addrs.size(); }
    Addr addrAt(std::uint64_t k) const { return addrs[k]; }

    std::uint64_t
    runEnd(std::uint64_t k) const
    {
        const Addr line = lineOf(addrs[k]);
        std::uint64_t e = k + 1;
        while (e < addrs.size() && lineOf(addrs[e]) == line)
            ++e;
        return e;
    }

    AddressList
    slice(std::uint64_t b, std::uint64_t e) const
    {
        return {{op}, addrs.subspan(b, e - b)};
    }
};

}  // namespace

template <bool Record, typename Source>
inline Cycles
Engine::runAccesses(ThreadContext &t, Source src)
{
    if constexpr (Record)
        recScratch_.clear();
    // The forced scalar path makes every run one element long, so each
    // element takes the full head machinery with no assists.
    const bool assists = !cfg.scalarPath;
    const std::uint64_t n = src.size();
    Cycles total = 0;
    std::uint64_t i = 0;
    bool prologue_done = false;
    while (i < n) {
        const Addr addr = src.addrAt(i);
        const MemOp op = src.opAt(i);
        const std::uint64_t run_end = assists ? src.runEnd(i) : i + 1;

        // Head element: full scalar-equivalent processing. Runs of one
        // skip the epoch bookkeeping -- it only guards the tails.
        if (!prologue_done)
            accessPrologue(t, assists);
        prologue_done = false;
        const bool has_tails = run_end != i + 1;
        const std::uint64_t head_epoch =
            has_tails ? kern->translationEpoch() : 0;
        const AccessOutcome head = accessCore(t, addr, op, assists);
        total += head.cost;
        if constexpr (Record) {
            recScratch_.push_back({t.id(), addr, op, head.level,
                                   head.cost + cfg.issueCycles,
                                   head.tlbMiss, t.clock()});
        }
        ++i;
        // A head whose touchPage remapped something -- possibly the
        // very translation it just filled (hint-fault promotion) --
        // leaves the rest of its run to fresh heads.
        if (has_tails && kern->translationEpoch() == head_epoch) {
            const TailsSettled tails = settleTails<Record>(
                t, src, addr, head.huge, head_epoch, i, run_end);
            total += tails.cost;
            i = tails.next;
            prologue_done = tails.prologueDone;
        }
    }

    if constexpr (Record) {
        for (AccessObserver *obs : observers)
            obs->onBatch(recScratch_.data(), recScratch_.size());
    }
    accessCycles_ += total;
    return total;
}

template <bool Record, typename Source>
Engine::TailsSettled
Engine::settleTails(ThreadContext &t, Source src, Addr head_addr,
                    bool huge, std::uint64_t head_epoch, std::uint64_t i,
                    std::uint64_t run_end)
{
    // The head left the line resident and most recently used in L1 and
    // the translation resident in the TLB, and no shootdown intervened
    // (the epoch is unchanged), so each tail is a guaranteed TLB-L1 +
    // cache-L1 hit. Per element only the LFB attribution can vary; the
    // TLB, L1 and LFB hit counters are settled in bulk by flushRun.
    const CacheParams &cp = cfg.cache;
    const Addr line = lineOf(head_addr);
    const PageNum vpn = pageOf(head_addr);
    const Cycles delta = cfg.issueCycles + cp.l1Latency;
    Cycles total = 0;
    std::uint64_t repeats = 0;
    std::uint64_t lfb_hits = 0;
    bool any_write = false;
    const auto flushRun = [&]() {
        if (repeats == 0)
            return;
        if (huge)
            t.tlb.repeatHitsHuge(hugeBaseOf(vpn), repeats);
        else
            t.tlb.repeatHits(vpn, repeats);
        t.l1.accessRepeats(line, repeats, any_write);
        if (lfb_hits > 0)
            t.lfb.countHits(lfb_hits);
        repeats = 0;
        lfb_hits = 0;
        any_write = false;
    };
    // Settle the next @p m tails at l1Latency each, the first @p lfb_n
    // of them attributed to the LFB and the rest to L1.
    const auto bulk = [&](std::uint64_t m, std::uint64_t lfb_n) {
        const std::uint64_t st = src.storesIn(i, i + m);
        t.advance(m * delta);
        total += m * cp.l1Latency;
        repeats += m;
        lfb_hits += lfb_n;
        any_write = any_write || st > 0;
        level_counts[static_cast<int>(MemLevel::LFB)] += lfb_n;
        level_counts[static_cast<int>(MemLevel::L1)] += m - lfb_n;
        t.loads += m - st;
        t.stores += st;
        i += m;
    };

    // Hot one-shot case: the LFB is quiet (every recorded fill's
    // residency window closed before even the first tail's post-issue
    // clock, so each tail is a plain L1 hit) and the whole run finishes
    // before the next service deadline. The run then collapses to one
    // clock jump plus bulk accounting, with no LFB scan.
    if (!Record &&
        t.lfb.quietAt(t.clock() + cfg.issueCycles, cp.lfbResidencyCycles) &&
        t.clock() + (run_end - i) * delta < nextServiceDue_) {
        bulk(run_end - i, 0);
        flushRun();
        return {total, i, false};
    }

    // The LFB cannot change during the tails (only head misses add()
    // entries), so one scan per run captures every entry that could
    // ever attribute a tail to the LFB; per-tail attribution is then
    // arithmetic over those ready times, bit-identical to the
    // per-element quietAt/inFlight/recentlyFilled cascade.
    Cycles match_ready[LineFillBuffer::kEntries];
    const std::size_t nmatch = t.lfb.matchesInto(line, match_ready);
    Cycles match_max_ready = 0;
    Cycles match_end = 0;
    for (std::size_t k = 0; k < nmatch; ++k) {
        match_max_ready = std::max<Cycles>(match_max_ready, match_ready[k]);
        match_end = std::max<Cycles>(
            match_end, match_ready[k] + cp.lfbResidencyCycles);
    }
    while (i < run_end) {
        // Constant-cost phases: once this tail's post-issue clock
        // reaches every matching entry's ready time, no fill is in
        // flight for it or any later tail, so each remaining element
        // costs exactly l1Latency; attribution is LFB while the
        // residency window is open (post-issue clock below match_end --
        // monotone once every ready time has passed) and L1 after.
        // Collapse the largest prefix whose per-element service check
        // cannot fire into one bulk step; a prefix boundary falls back
        // to the per-element step below, which runs the service and
        // re-enters here.
        const Cycles at = t.clock() + cfg.issueCycles;
        if (!Record && delta > 0 && at < nextServiceDue_ &&
            (nmatch == 0 || at >= match_max_ready)) {
            const std::uint64_t safe = std::min<std::uint64_t>(
                run_end - i, (nextServiceDue_ - at - 1) / delta + 1);
            std::uint64_t lfb_n = 0;
            if (nmatch > 0 && at < match_end)
                lfb_n = std::min<std::uint64_t>(
                    safe, (match_end - at - 1) / delta + 1);
            bulk(safe, lfb_n);
            continue;
        }

        const MemOp op = src.opAt(i);
        t.advance(cfg.issueCycles);
        const Cycles now = t.clock();
        if (now >= nextServiceDue_) {
            // Settle the accumulated accounting first: a service may
            // shoot down the very entries it covers, and the scalar
            // order puts those hits before the service.
            flushRun();
            maybeRunServices(now);
            if (kern->translationEpoch() != head_epoch) {
                // A service remapped pages; this element's issue and
                // service work is done, so the head loop must not
                // repeat the prologue for it.
                return {total, i, true};
            }
        }
        MemLevel level = MemLevel::L1;
        Cycles cost = cp.l1Latency;
        Cycles rem = 0;
        bool in_flight = false;
        bool recent = false;
        for (std::size_t k = 0; k < nmatch; ++k) {
            if (now < match_ready[k]) {
                if (!in_flight) {
                    in_flight = true;
                    rem = match_ready[k] - now;
                }
            } else if (now < match_ready[k] + cp.lfbResidencyCycles) {
                recent = true;
            }
        }
        if (in_flight || recent) {
            level = MemLevel::LFB;
            if (in_flight)
                cost = std::min<Cycles>(rem, cp.l3Latency);
            ++lfb_hits;
        }
        t.advance(cost);
        total += cost;
        ++repeats;
        any_write = any_write || op == MemOp::Store;
        ++level_counts[static_cast<int>(level)];
        if (op == MemOp::Load)
            ++t.loads;
        else
            ++t.stores;
        if constexpr (Record) {
            recScratch_.push_back({t.id(), src.addrAt(i), op, level,
                                   cost + cfg.issueCycles, false,
                                   t.clock()});
        }
        ++i;
    }
    flushRun();
    return {total, i, false};
}

template <typename NextDue, typename Stretch, typename Due>
Cycles
Engine::splitAtDueLoads(ThreadContext &t, std::uint64_t n,
                        NextDue &&next_due, Stretch &&stretch, Due &&due)
{
    // Batch boundaries are free to move (the batched path is
    // bit-identical to per-element issue wherever a batch starts or
    // ends), so splitting a call at its due loads changes no simulated
    // value. With several observers the soonest due load is due for
    // all of them.
    const ThreadId tid = t.id();
    Cycles total = 0;
    std::uint64_t k = 0;
    while (k < n) {
        std::uint64_t skip = UINT64_MAX;
        for (const AccessObserver *obs : observers)
            skip = std::min(skip, obs->loadsToSkip(tid));
        const std::uint64_t d = next_due(k, skip);
        if (d > k)
            total += stretch(k, d);
        if (skip > 0) {
            for (AccessObserver *obs : observers)
                obs->passOver(tid, skip);
        }
        if (d == n)
            break;
        total += due(d);
        k = d + 1;
    }
    return total;
}

template <typename AddrAt>
Cycles
Engine::materializedBatches(ThreadContext &t, std::uint64_t count, MemOp op,
                            AddrAt &&addr_at)
{
    Cycles total = 0;
    auto &reqs = t.reqScratch;
    for (std::uint64_t c = 0; c < count;) {
        const std::uint64_t stop = std::min(count, c + kAccessChunk);
        reqs.clear();
        reqs.reserve(stop - c);
        for (std::uint64_t k = c; k < stop; ++k)
            reqs.push_back({addr_at(k), op});
        total += accessBatch(t, std::span<const AccessRequest>(reqs));
        c = stop;
    }
    return total;
}

Cycles
Engine::recordedBatch(ThreadContext &t, std::span<const AccessRequest> reqs)
{
    return runAccesses<true>(t, RequestList{reqs});
}

Cycles
Engine::accessBatch(ThreadContext &t, std::span<const AccessRequest> reqs)
{
    if (observers.empty())
        return runAccesses<false>(t, RequestList{reqs});
    if (skipLoads_)
        return skippingBatch(t, reqs);
    return recordedBatch(t, reqs);
}

Cycles
Engine::skippingBatch(ThreadContext &t, std::span<const AccessRequest> reqs)
{
    // Stores never produce a record, so the due element is the load
    // after the skipped ones.
    const auto next_due = [&](std::uint64_t from, std::uint64_t &skip) {
        std::uint64_t passed = 0;
        std::uint64_t k = from;
        for (; k < reqs.size(); ++k) {
            if (reqs[k].op != MemOp::Load)
                continue;
            if (passed == skip)
                break;
            ++passed;
        }
        skip = passed;
        return k;
    };
    return splitAtDueLoads(
        t, reqs.size(), next_due,
        [&](std::uint64_t b, std::uint64_t e) {
            return runAccesses<false>(t, RequestList{reqs.subspan(b, e - b)});
        },
        [&](std::uint64_t k) { return recordedBatch(t, reqs.subspan(k, 1)); });
}

template <typename Source>
inline Cycles
Engine::uniformAccess(ThreadContext &t, Source src)
{
    const std::uint64_t n = src.size();
    if (observers.empty() || (skipLoads_ && src.op == MemOp::Store))
        return runAccesses<false>(t, src);
    if (!skipLoads_) {
        return materializedBatches(
            t, n, src.op, [&](std::uint64_t k) { return src.addrAt(k); });
    }
    return splitAtDueLoads(
        t, n, allLoads(n),
        [&](std::uint64_t b, std::uint64_t e) {
            return runAccesses<false>(t, src.slice(b, e));
        },
        [&](std::uint64_t k) {
            const AccessRequest req{src.addrAt(k), src.op};
            return recordedBatch(t, {&req, 1});
        });
}

Cycles
Engine::accessRange(ThreadContext &t, Addr base, std::uint64_t count,
                    std::uint32_t stride, MemOp op)
{
    MEMTIER_ASSERT(stride > 0, "accessRange needs a positive stride");
    return uniformAccess(t, Stride{{op}, base, count, stride});
}

Cycles
Engine::accessMany(ThreadContext &t, std::span<const Addr> addrs, MemOp op)
{
    return uniformAccess(t, AddressList{{op}, addrs});
}

Addr
Engine::sysMmap(ThreadContext &t, std::uint64_t bytes, ObjectId object,
                const std::string &site)
{
    t.advance(cfg.syscallCycles);
    maybeRunServices(t.clock());
    return kern->mmap(t.clock(), bytes, object, site);
}

void
Engine::sysMunmap(ThreadContext &t, Addr start)
{
    t.advance(cfg.syscallCycles);
    maybeRunServices(t.clock());
    kern->munmap(t.clock(), start);
}

void
Engine::sysMbind(ThreadContext &t, Addr start, const MemPolicy &policy)
{
    t.advance(cfg.syscallCycles);
    kern->mbind(start, policy);
}

Addr
Engine::registerFile(std::uint64_t bytes, const std::string &name)
{
    return kern->registerFile(bytes, name);
}

void
Engine::fileReadPage(ThreadContext &t, PageNum vpn)
{
    const Cycles cost = kern->ensureCached(vpn, t.clock());
    t.advance(cost);
    maybeRunServices(t.clock());
}

}  // namespace memtier
