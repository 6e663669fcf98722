#include "sim/engine.h"

#include <cstdlib>

#include "base/logging.h"
#include "policy/policy_registry.h"

namespace memtier {

namespace {

/** MEMTIER_CHECK_INVARIANTS=ON/1 force-enables the checker. */
bool
invariantsForcedByEnv()
{
    const char *env = std::getenv("MEMTIER_CHECK_INVARIANTS");
    if (env == nullptr)
        return false;
    const std::string value(env);
    return value == "ON" || value == "on" || value == "1";
}

/** MEMTIER_SCALAR_PATH=ON/1 forces the reference scalar access path. */
bool
scalarForcedByEnv()
{
    const char *env = std::getenv("MEMTIER_SCALAR_PATH");
    if (env == nullptr)
        return false;
    const std::string value(env);
    return value == "ON" || value == "on" || value == "1";
}

/** Positive integer from @p name, or 0 when unset/unparsable. */
std::uint32_t
positiveIntFromEnv(const char *name)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return 0;
    char *end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v <= 0)
        return 0;
    return static_cast<std::uint32_t>(v);
}

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
    if (thpForcedByEnv())
        cfg.thp.enabled = true;
    if (scalarForcedByEnv())
        cfg.scalarPath = true;
    KernelParams kp = cfg.kernel;
    kp.thp = cfg.thp;
    // MEMTIER_COPY_THREADS sizes the migration copy engine's worker
    // pool without recompiling, like the other MEMTIER_* overrides.
    if (const std::uint32_t cw = positiveIntFromEnv("MEMTIER_COPY_THREADS"))
        kp.copyThreads = cw;
    // The vanilla baseline has no demotion path; tiering kernels keep
    // it even when the AutoNUMA scanner is replaced by another policy.
    kp.demoteOnReclaim = cfg.tieringKernel;
    kern = std::make_unique<Kernel>(phys, kp);
    kern->setShootdownClient(this);

    // Kernel-owned live tunables: registered before the policy so the
    // control plane exists even for policy-less (vanilla) machines.
    registry_.add({"copy_threads", "migration copy-engine worker threads",
                   "kernel", 1.0, 64.0, /*integerValued=*/true, false,
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
    if (cfg.checkInvariants || invariantsForcedByEnv()) {
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
Engine::fillOnMiss(ThreadContext &t, Addr line, bool dirty, MemLevel from)
{
    // Install the line at every level above the servicing one; victims
    // trickle downward and dirty L3 victims write back to memory.
    if (from == MemLevel::DRAM || from == MemLevel::NVM) {
        const CacheEviction ev = l3.insert(line, false);
        if (ev.valid && ev.dirty)
            writebackLine(t, ev.line);
    }
    if (from != MemLevel::L2) {
        const CacheEviction ev = t.l2.insert(line, false);
        pushVictim(t, l3, ev);
    }
    const CacheEviction ev = t.l1.insert(line, dirty);
    pushVictim(t, t.l2, ev);
}

Cycles
Engine::memoryAccess(ThreadContext &t, Addr addr, MemNode node, MemOp op,
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
                fillOnMiss(t, next_line, false, MemLevel::DRAM);
                t.lfb.add(next_line, issue_time + pf_lat);
            }
        }
    }
    (void)op;
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

    MemLevel level;
    if (t.l1.access(line, op == MemOp::Store)) {
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
    } else if (t.l2.access(line, false)) {
        level = MemLevel::L2;
        cost += cp.l2Latency;
        fillOnMiss(t, line, op == MemOp::Store, MemLevel::L2);
    } else if (l3.access(line, false)) {
        level = MemLevel::L3;
        cost += cp.l3Latency;
        fillOnMiss(t, line, op == MemOp::Store, MemLevel::L3);
    } else {
        if (!node_known)
            node = kern->nodeOf(vpn);
        cost += cp.l3Latency;
        cost += memoryAccess(t, addr, node, op, t.clock() + cost);
        level = node == MemNode::DRAM ? MemLevel::DRAM : MemLevel::NVM;
        fillOnMiss(t, line, op == MemOp::Store,
                   node == MemNode::DRAM ? MemLevel::DRAM : MemLevel::NVM);
        t.lfb.add(line, t.clock() + cost);
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

inline Cycles
Engine::batchBody(ThreadContext &t, std::span<const AccessRequest> reqs,
                  bool record)
{
    if (record)
        recScratch_.clear();
    const bool assists = !cfg.scalarPath;
    const CacheParams &cp = cfg.cache;
    Cycles total = 0;

    std::size_t i = 0;
    bool prologue_done = false;
    while (i < reqs.size()) {
        const Addr head_addr = reqs[i].addr;
        const Addr line = lineOf(head_addr);

        // Coalesce the same-line run starting here. The forced scalar
        // path keeps runs at one element, so every element takes the
        // full head machinery below.
        std::size_t run_end = i + 1;
        if (assists) {
            while (run_end < reqs.size() &&
                   lineOf(reqs[run_end].addr) == line)
                ++run_end;
        }

        // Head element: full scalar-equivalent processing. Runs of one
        // (every element on the forced scalar path, and the random
        // elements of gathers and scatters on the batched path) skip
        // the epoch bookkeeping -- it only guards tail processing.
        if (!prologue_done)
            accessPrologue(t, assists);
        prologue_done = false;
        const bool has_tails = run_end != i + 1;
        const std::uint64_t head_epoch =
            has_tails ? kern->translationEpoch() : 0;
        const AccessOutcome head =
            accessCore(t, head_addr, reqs[i].op, assists);
        total += head.cost;
        if (record) {
            AccessRecord rec;
            rec.tid = t.id();
            rec.vaddr = head_addr;
            rec.op = reqs[i].op;
            rec.level = head.level;
            rec.latency = head.cost + cfg.issueCycles;
            rec.tlbMiss = head.tlbMiss;
            rec.time = t.clock();
            recScratch_.push_back(rec);
        }
        ++i;
        if (!has_tails)
            continue;
        if (kern->translationEpoch() != head_epoch) {
            // The head's touchPage remapped something -- possibly the
            // very translation it just filled (hint-fault promotion).
            // Reprocess the rest of the run as fresh heads.
            continue;
        }

        // Tail elements: the head left the line resident and most
        // recently used in L1 and the translation resident in the TLB,
        // and no shootdown intervened (the epoch is unchanged), so each
        // remaining same-line access is a guaranteed TLB-L1 + cache-L1
        // hit. Per element only the LFB attribution can vary; the TLB,
        // L1 and LFB hit-counter updates are settled in bulk after the
        // run with the batch-accounting entry points.
        const PageNum vpn = pageOf(head_addr);
        const Cycles run_delta = cfg.issueCycles + cp.l1Latency;

        // Hot one-shot case: the LFB is quiet (every recorded fill's
        // residency window closed before even the first tail's
        // post-issue clock, so each tail is a plain L1 hit) and the
        // whole run finishes before the next service deadline. The run
        // then collapses to one clock jump plus bulk accounting.
        if (!record &&
            t.lfb.quietAt(t.clock() + cfg.issueCycles,
                          cp.lfbResidencyCycles) &&
            t.clock() + (run_end - i) * run_delta < nextServiceDue_) {
            const std::uint64_t m = run_end - i;
            std::uint64_t st = 0;
            for (std::size_t k = i; k < run_end; ++k)
                if (reqs[k].op == MemOp::Store)
                    ++st;
            t.advance(m * run_delta);
            total += m * cp.l1Latency;
            if (head.huge)
                t.tlb.repeatHitsHuge(hugeBaseOf(vpn), m);
            else
                t.tlb.repeatHits(vpn, m);
            t.l1.accessRepeats(line, m, st > 0);
            level_counts[static_cast<int>(MemLevel::L1)] += m;
            t.loads += m - st;
            t.stores += st;
            i = run_end;
            continue;
        }
        std::uint64_t repeats = 0;
        std::uint64_t lfb_hits = 0;
        bool any_write = false;
        const auto flushRun = [&]() {
            if (repeats == 0)
                return;
            if (head.huge)
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
        // The LFB cannot change during the tails (only head misses
        // add() entries), so one scan per run captures every entry that
        // could ever attribute a tail to the LFB; per-tail attribution
        // is then arithmetic over those ready times, bit-identical to
        // the per-element quietAt/inFlight/recentlyFilled cascade.
        Cycles match_ready[LineFillBuffer::kEntries];
        const std::size_t nmatch = t.lfb.matchesInto(line, match_ready);
        Cycles match_max_ready = 0;
        Cycles match_end = 0;
        for (std::size_t k = 0; k < nmatch; ++k) {
            match_max_ready =
                std::max<Cycles>(match_max_ready, match_ready[k]);
            match_end = std::max<Cycles>(match_end,
                                         match_ready[k] +
                                             cp.lfbResidencyCycles);
        }
        const Cycles delta = cfg.issueCycles + cp.l1Latency;
        while (i < run_end) {
            // Constant-cost phases: once this tail's post-issue clock
            // reaches every matching entry's ready time, no fill is in
            // flight for it or any later tail, so each remaining
            // element costs exactly l1Latency; attribution is LFB while
            // the residency window is open (post-issue clock below
            // match_end -- monotone once every ready time has passed)
            // and L1 after. Collapse the largest prefix whose
            // per-element service check cannot fire into one bulk step;
            // a prefix boundary falls back to the per-element step
            // below, which runs the service and re-enters here.
            if (!record && delta > 0 &&
                (nmatch == 0 ||
                 t.clock() + cfg.issueCycles >= match_max_ready)) {
                std::uint64_t safe = 0;
                if (t.clock() + cfg.issueCycles < nextServiceDue_) {
                    const Cycles room =
                        nextServiceDue_ - t.clock() - cfg.issueCycles;
                    safe = std::min<std::uint64_t>(
                        run_end - i, (room - 1) / delta + 1);
                }
                if (safe > 0) {
                    // Tails still inside the residency window are LFB
                    // hits; the rest are plain L1 hits. Same cost.
                    std::uint64_t lfb_n = 0;
                    const Cycles base = t.clock() + cfg.issueCycles;
                    if (nmatch > 0 && base < match_end)
                        lfb_n = std::min<std::uint64_t>(
                            safe, (match_end - base - 1) / delta + 1);
                    std::uint64_t st = 0;
                    for (std::size_t k = i; k < i + safe; ++k)
                        if (reqs[k].op == MemOp::Store)
                            ++st;
                    t.advance(safe * delta);
                    total += safe * cp.l1Latency;
                    repeats += safe;
                    lfb_hits += lfb_n;
                    any_write = any_write || st > 0;
                    level_counts[static_cast<int>(MemLevel::LFB)] +=
                        lfb_n;
                    level_counts[static_cast<int>(MemLevel::L1)] +=
                        safe - lfb_n;
                    t.loads += safe - st;
                    t.stores += st;
                    i += safe;
                    continue;
                }
            }
            const MemOp op = reqs[i].op;
            t.advance(cfg.issueCycles);
            const Cycles now = t.clock();
            if (now >= nextServiceDue_) {
                // Settle the accumulated accounting first: a service
                // may shoot down the very entries it covers, and the
                // scalar order puts those hits before the service.
                flushRun();
                maybeRunServices(now);
                if (kern->translationEpoch() != head_epoch) {
                    // A service remapped pages; this element's issue
                    // and service work is done, so the outer loop must
                    // not repeat the prologue for it.
                    prologue_done = true;
                    break;
                }
            }
            MemLevel level;
            Cycles cost;
            Cycles rem = 0;
            bool in_flight = false;
            bool recent = false;
            for (std::size_t k = 0; k < nmatch; ++k) {
                if (now < match_ready[k]) {
                    if (!in_flight) {
                        in_flight = true;
                        rem = match_ready[k] - now;
                    }
                } else if (now <
                           match_ready[k] + cp.lfbResidencyCycles) {
                    recent = true;
                }
            }
            if (in_flight) {
                level = MemLevel::LFB;
                cost = std::min<Cycles>(rem, cp.l3Latency);
                ++lfb_hits;
            } else if (recent) {
                level = MemLevel::LFB;
                cost = cp.l1Latency;
                ++lfb_hits;
            } else {
                level = MemLevel::L1;
                cost = cp.l1Latency;
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
            if (record) {
                AccessRecord rec;
                rec.tid = t.id();
                rec.vaddr = reqs[i].addr;
                rec.op = op;
                rec.level = level;
                rec.latency = cost + cfg.issueCycles;
                rec.tlbMiss = false;
                rec.time = t.clock();
                recScratch_.push_back(rec);
            }
            ++i;
        }
        flushRun();
    }

    if (record) {
        for (AccessObserver *obs : observers)
            obs->onBatch(recScratch_.data(), recScratch_.size());
    }
    accessCycles_ += total;
    return total;
}

inline Cycles
Engine::rangeBody(ThreadContext &t, Addr base, std::uint64_t count,
                  std::uint32_t stride, MemOp op)
{
    Cycles total = 0;
    if (cfg.scalarPath) {
        // Reference semantics: the legacy element-at-a-time loop.
        for (std::uint64_t k = 0; k < count; ++k) {
            accessPrologue(t, false);
            total += accessCore(t, base + k * stride, op, false).cost;
        }
        accessCycles_ += total;
        return total;
    }

    const bool is_store = op == MemOp::Store;
    std::uint64_t k = 0;
    bool prologue_done = false;
    while (k < count) {
        const Addr addr = base + k * stride;
        const Addr line = lineOf(addr);
        // Elements share the head's line while their address stays
        // below the next line boundary; the run length follows from the
        // stride, no per-element scan needed.
        const Addr line_end = (line + 1) << kLineShift;
        const std::uint64_t run = std::min<std::uint64_t>(
            count - k, (line_end - addr + stride - 1) / stride);

        if (!prologue_done)
            accessPrologue(t, true);
        prologue_done = false;
        const std::uint64_t head_epoch =
            run > 1 ? kern->translationEpoch() : 0;
        const AccessOutcome head = accessCore(t, addr, op, true);
        total += head.cost;
        ++k;
        if (run == 1)
            continue;
        if (kern->translationEpoch() != head_epoch) {
            // The head's touchPage remapped something; reprocess the
            // rest of the run as fresh heads.
            continue;
        }

        std::uint64_t consumed = 0;
        total += tailRun(t, line, pageOf(addr), head.huge, head_epoch,
                         run - 1, is_store, consumed, prologue_done);
        k += consumed;
    }
    accessCycles_ += total;
    return total;
}

Cycles
Engine::tailRun(ThreadContext &t, Addr line, PageNum vpn, bool huge,
                std::uint64_t head_epoch, std::uint64_t m, bool is_store,
                std::uint64_t &consumed, bool &prologue_next)
{
    const CacheParams &cp = cfg.cache;
    const Cycles delta = cfg.issueCycles + cp.l1Latency;
    Cycles total = 0;
    consumed = 0;
    prologue_next = false;

    // Hot one-shot case, as in accessBatch: quiet LFB and the whole
    // run ahead of the next service deadline collapse the tails to
    // one clock jump plus bulk accounting.
    if (delta > 0 &&
        t.lfb.quietAt(t.clock() + cfg.issueCycles,
                      cp.lfbResidencyCycles) &&
        t.clock() + m * delta < nextServiceDue_) {
        t.advance(m * delta);
        total += m * cp.l1Latency;
        if (huge)
            t.tlb.repeatHitsHuge(hugeBaseOf(vpn), m);
        else
            t.tlb.repeatHits(vpn, m);
        t.l1.accessRepeats(line, m, is_store);
        level_counts[static_cast<int>(MemLevel::L1)] += m;
        if (is_store)
            t.stores += m;
        else
            t.loads += m;
        consumed = m;
        return total;
    }

    // General tail machinery, mirroring accessBatch for a uniform
    // op: one LFB scan per run, constant-cost phases in bulk,
    // per-element steps only across service deadlines or while a
    // fill is genuinely in flight.
    std::uint64_t repeats = 0;
    std::uint64_t lfb_hits = 0;
    const auto flushRun = [&]() {
        if (repeats == 0)
            return;
        if (huge)
            t.tlb.repeatHitsHuge(hugeBaseOf(vpn), repeats);
        else
            t.tlb.repeatHits(vpn, repeats);
        t.l1.accessRepeats(line, repeats, is_store);
        if (lfb_hits > 0)
            t.lfb.countHits(lfb_hits);
        repeats = 0;
        lfb_hits = 0;
    };
    Cycles match_ready[LineFillBuffer::kEntries];
    const std::size_t nmatch = t.lfb.matchesInto(line, match_ready);
    Cycles match_max_ready = 0;
    Cycles match_end = 0;
    for (std::size_t j = 0; j < nmatch; ++j) {
        match_max_ready =
            std::max<Cycles>(match_max_ready, match_ready[j]);
        match_end = std::max<Cycles>(match_end,
                                     match_ready[j] +
                                         cp.lfbResidencyCycles);
    }
    while (consumed < m) {
        if (delta > 0 &&
            (nmatch == 0 ||
             t.clock() + cfg.issueCycles >= match_max_ready)) {
            std::uint64_t safe = 0;
            if (t.clock() + cfg.issueCycles < nextServiceDue_) {
                const Cycles room =
                    nextServiceDue_ - t.clock() - cfg.issueCycles;
                safe = std::min<std::uint64_t>(m - consumed,
                                               (room - 1) / delta + 1);
            }
            if (safe > 0) {
                std::uint64_t lfb_n = 0;
                const Cycles at = t.clock() + cfg.issueCycles;
                if (nmatch > 0 && at < match_end)
                    lfb_n = std::min<std::uint64_t>(
                        safe, (match_end - at - 1) / delta + 1);
                t.advance(safe * delta);
                total += safe * cp.l1Latency;
                repeats += safe;
                lfb_hits += lfb_n;
                level_counts[static_cast<int>(MemLevel::LFB)] += lfb_n;
                level_counts[static_cast<int>(MemLevel::L1)] +=
                    safe - lfb_n;
                if (is_store)
                    t.stores += safe;
                else
                    t.loads += safe;
                consumed += safe;
                continue;
            }
        }
        t.advance(cfg.issueCycles);
        const Cycles now = t.clock();
        if (now >= nextServiceDue_) {
            flushRun();
            maybeRunServices(now);
            if (kern->translationEpoch() != head_epoch) {
                prologue_next = true;
                break;
            }
        }
        MemLevel level;
        Cycles cost;
        Cycles rem = 0;
        bool in_flight = false;
        bool recent = false;
        for (std::size_t j = 0; j < nmatch; ++j) {
            if (now < match_ready[j]) {
                if (!in_flight) {
                    in_flight = true;
                    rem = match_ready[j] - now;
                }
            } else if (now < match_ready[j] + cp.lfbResidencyCycles) {
                recent = true;
            }
        }
        if (in_flight) {
            level = MemLevel::LFB;
            cost = std::min<Cycles>(rem, cp.l3Latency);
            ++lfb_hits;
        } else if (recent) {
            level = MemLevel::LFB;
            cost = cp.l1Latency;
            ++lfb_hits;
        } else {
            level = MemLevel::L1;
            cost = cp.l1Latency;
        }
        t.advance(cost);
        total += cost;
        ++repeats;
        ++level_counts[static_cast<int>(level)];
        if (is_store)
            ++t.stores;
        else
            ++t.loads;
        ++consumed;
    }
    flushRun();
    return total;
}

inline Cycles
Engine::manyBody(ThreadContext &t, std::span<const Addr> addrs, MemOp op)
{
    Cycles total = 0;
    if (cfg.scalarPath) {
        // Reference semantics: the legacy element-at-a-time loop.
        for (const Addr addr : addrs) {
            accessPrologue(t, false);
            total += accessCore(t, addr, op, false).cost;
        }
        accessCycles_ += total;
        return total;
    }

    const bool is_store = op == MemOp::Store;
    std::size_t i = 0;
    bool prologue_done = false;
    while (i < addrs.size()) {
        const Addr addr = addrs[i];
        const Addr line = lineOf(addr);
        std::size_t run_end = i + 1;
        while (run_end < addrs.size() && lineOf(addrs[run_end]) == line)
            ++run_end;

        if (!prologue_done)
            accessPrologue(t, true);
        prologue_done = false;
        const bool has_tails = run_end != i + 1;
        const std::uint64_t head_epoch =
            has_tails ? kern->translationEpoch() : 0;
        const AccessOutcome head = accessCore(t, addr, op, true);
        total += head.cost;
        ++i;
        if (!has_tails)
            continue;
        if (kern->translationEpoch() != head_epoch) {
            // The head's touchPage remapped something; reprocess the
            // rest of the run as fresh heads.
            continue;
        }

        std::uint64_t consumed = 0;
        total += tailRun(t, line, pageOf(addr), head.huge, head_epoch,
                         run_end - i, is_store, consumed, prologue_done);
        i += consumed;
    }
    accessCycles_ += total;
    return total;
}

Cycles
Engine::dueAccess(ThreadContext &t, const AccessRequest &req)
{
    return batchBody(t, std::span<const AccessRequest>(&req, 1), true);
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
Engine::accessBatch(ThreadContext &t, std::span<const AccessRequest> reqs)
{
    if (skipLoads_)
        return skippingBatch(t, reqs);
    return batchBody(t, reqs, !observers.empty());
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
            return batchBody(t, reqs.subspan(b, e - b), false);
        },
        [&](std::uint64_t k) { return dueAccess(t, reqs[k]); });
}

Cycles
Engine::accessRange(ThreadContext &t, Addr base, std::uint64_t count,
                    std::uint32_t stride, MemOp op)
{
    MEMTIER_ASSERT(stride > 0, "accessRange needs a positive stride");
    if (observers.empty() || (skipLoads_ && op == MemOp::Store))
        return rangeBody(t, base, count, stride, op);
    if (!skipLoads_) {
        return materializedBatches(t, count, op, [&](std::uint64_t k) {
            return base + k * stride;
        });
    }
    return splitAtDueLoads(
        t, count, allLoads(count),
        [&](std::uint64_t b, std::uint64_t e) {
            return rangeBody(t, base + b * stride, e - b, stride, op);
        },
        [&](std::uint64_t k) {
            return dueAccess(t, {base + k * stride, op});
        });
}

Cycles
Engine::accessMany(ThreadContext &t, std::span<const Addr> addrs, MemOp op)
{
    if (observers.empty() || (skipLoads_ && op == MemOp::Store))
        return manyBody(t, addrs, op);
    if (!skipLoads_) {
        return materializedBatches(t, addrs.size(), op,
                                   [&](std::uint64_t k) { return addrs[k]; });
    }
    return splitAtDueLoads(
        t, addrs.size(), allLoads(addrs.size()),
        [&](std::uint64_t b, std::uint64_t e) {
            return manyBody(t, addrs.subspan(b, e - b), op);
        },
        [&](std::uint64_t k) { return dueAccess(t, {addrs[k], op}); });
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
