#include "os/kernel.h"

#include <algorithm>

#include "base/logging.h"
#include "fault/fault_injector.h"
#include "os/invariants.h"

namespace memtier {

Kernel::Kernel(PhysicalMemory &phys, const KernelParams &params)
    : phys(phys), cfg(params), breaker(params.breaker),
      copyEngine_(CopyEngineParams{params.copyThreads,
                                   params.copyChunkPages})
{
    // THP wants VMA starts on PMD boundaries so collapse-eligible
    // ranges exist; 4 KiB mode keeps the legacy page-aligned layout.
    if (cfg.thp.enabled)
        space.setHugeAlignment(true);
}

void
Kernel::setShootdownClient(TlbShootdownClient *client)
{
    shootdownClient = client;
}

void
Kernel::setTieringPolicy(TieringPolicy *policy)
{
    tieringPolicy = policy;
}

void
Kernel::setSyscallObserver(SyscallObserver *obs)
{
    observer = obs;
}

void
Kernel::setFaultInjector(FaultInjector *injector)
{
    faults = injector;
}

void
Kernel::setInvariantChecker(InvariantChecker *checker)
{
    invariants = checker;
}

void
Kernel::noteEvent(Cycles now)
{
    if (invariants)
        invariants->onEvent(now);
}

void
Kernel::recordMigration(bool success, Cycles now)
{
    if (breaker.record(success, now)) {
        ++stats.breakerTrips;
        breakerOpenNotified = true;
        if (tieringPolicy)
            tieringPolicy->onBreakerEvent(true, now);
    }
}

Cycles
Kernel::chargedCopy(Cycles now, std::uint64_t bytes)
{
    const Cycles legacy = roundUpPages(bytes) * cfg.migratePageCycles;
    const Cycles charged = copyEngine_.copy(now, bytes, legacy);
    mirrorCopyCounters();
    return charged;
}

Cycles
Kernel::chargedCopyHuge(Cycles now)
{
    const Cycles charged =
        copyEngine_.copy(now, kHugePageSize, cfg.hugeMigrateCycles);
    mirrorCopyCounters();
    return charged;
}

void
Kernel::backgroundCopy(Cycles now, std::uint64_t bytes)
{
    copyEngine_.background(
        now, bytes, roundUpPages(bytes) * cfg.migratePageCycles);
    mirrorCopyCounters();
}

void
Kernel::mirrorCopyCounters()
{
    // Only a parallel pool surfaces pgcopy_* counters; a single-worker
    // engine keeps vmstat byte-identical to the pre-engine kernel so
    // every captured golden still matches.
    if (!copyEngine_.parallel())
        return;
    stats.pgcopyChunks = copyEngine_.chunks();
    stats.pgcopyParallel = copyEngine_.parallelCopies();
    stats.pgcopyQueuedChunks = copyEngine_.queuedChunks();
    stats.pgcopyBusyCycles = copyEngine_.busyCycles();
}

bool
Kernel::migrationsPaused(Cycles now)
{
    const bool open = breaker.isOpen(now);
    if (!open && breakerOpenNotified) {
        breakerOpenNotified = false;
        if (tieringPolicy)
            tieringPolicy->onBreakerEvent(false, now);
    }
    return open;
}

std::optional<FrameNum>
Kernel::allocFrame(MemNode node, FrameOwner owner, Cycles now)
{
    if (node == MemNode::DRAM && faults &&
        faults->shouldFail(FaultPoint::FrameAlloc, now)) {
        ++stats.pgallocFail;
        return std::nullopt;
    }
    return phys.tier(node).allocate(owner);
}

void
Kernel::shootdown(PageNum vpn)
{
    // Every remap funnels through a shootdown (migration, demotion,
    // exchange, collapse/split, munmap, scanner marking), so bumping the
    // epoch here covers all of them. Over-bumping is safe: it only sends
    // a tail run back through the head path.
    ++xlatEpoch;
    if (shootdownClient)
        shootdownClient->tlbShootdown(vpn);
}

void
Kernel::shootdownHuge(PageNum base_vpn)
{
    ++xlatEpoch;
    if (shootdownClient)
        shootdownClient->tlbShootdownHuge(base_vpn);
}

PageMeta *
Kernel::lruMeta(PageNum vpn)
{
    // LRU lists hold 4 KiB vpns and huge base vpns alike.
    PageMeta *m = pt.find(vpn);
    return m != nullptr ? m : pt.findHuge(vpn);
}

std::uint64_t
Kernel::minWatermarkPages() const
{
    // Watermarks track the capacity still backed by healthy frames:
    // retired frames are gone for good, so a tier eroded by the
    // memory-failure path keeps proportionate reserves. Identical to
    // totalPages() while nothing has been retired.
    const auto total = phys.dram().healthyPages();
    return std::max<std::uint64_t>(
        16, static_cast<std::uint64_t>(cfg.minWatermarkFrac *
                                       static_cast<double>(total)));
}

std::uint64_t
Kernel::lowWatermarkPages() const
{
    const auto total = phys.dram().healthyPages();
    return std::max<std::uint64_t>(
        32, static_cast<std::uint64_t>(cfg.lowWatermarkFrac *
                                       static_cast<double>(total)));
}

std::uint64_t
Kernel::highWatermarkPages() const
{
    const auto total = phys.dram().healthyPages();
    return std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(cfg.highWatermarkFrac *
                                       static_cast<double>(total)));
}

// -- Clock lists ------------------------------------------------------

void
Kernel::ClockList::add(PageNum vpn)
{
    MEMTIER_ASSERT(pos.count(vpn) == 0, "page already on LRU");
    pos[vpn] = pages.size();
    pages.push_back(vpn);
}

void
Kernel::ClockList::remove(PageNum vpn)
{
    auto it = pos.find(vpn);
    MEMTIER_ASSERT(it != pos.end(), "page not on LRU");
    const std::size_t idx = it->second;
    const PageNum moved = pages.back();
    pages[idx] = moved;
    pages.pop_back();
    pos.erase(it);
    if (moved != vpn)
        pos[moved] = idx;
    if (hand >= pages.size())
        hand = 0;
}

Kernel::ClockList &
Kernel::listFor(const PageMeta &meta)
{
    return meta.owner == FrameOwner::PageCache ? cacheLru : appLru;
}

// -- Syscalls ---------------------------------------------------------

Addr
Kernel::mmap(Cycles now, std::uint64_t bytes, ObjectId object,
             const std::string &site)
{
    const Addr addr = space.mmap(bytes, object, site);
    if (observer)
        observer->onMmap(now, addr, bytes, object, site);
    return addr;
}

void
Kernel::munmap(Cycles now, Addr start)
{
    const Vma *vma = space.findExact(start);
    MEMTIER_ASSERT(vma != nullptr, "munmap of unknown region");
    const std::uint64_t bytes = vma->end - vma->start;
    const ObjectId object = vma->object;

    for (PageNum vpn = pageOf(vma->start); vpn < pageOf(vma->end); ++vpn) {
        if (isHugeBase(vpn)) {
            if (PageMeta *hm = pt.findHuge(vpn); hm != nullptr) {
                freeHugeMapping(vpn, *hm);
                ++stats.thpUnmapHuge;
                vpn += kPagesPerHuge - 1;
                continue;
            }
        }
        PageMeta *meta = pt.find(vpn);
        if (meta == nullptr)
            continue;
        freePage(vpn, *meta);
        pt.erase(vpn);
        shootdown(vpn);
    }
    space.munmap(start);
    if (observer)
        observer->onMunmap(now, start, bytes, object);
    noteEvent(now);
}

void
Kernel::mbind(Addr start, const MemPolicy &policy)
{
    // Binding must precede population (the paper's mapper intercepts the
    // mmap and binds before the application touches the region).
    const Vma *vma = space.findExact(start);
    MEMTIER_ASSERT(vma != nullptr, "mbind of unknown region");
    space.mbind(start, policy);
}

// -- Faults -----------------------------------------------------------

MemNode
Kernel::choosePlacement(const Vma &vma, PageNum vpn)
{
    const MemPolicy &policy = vma.policy;
    if (policy.mode != MemPolicy::Mode::Default) {
        const std::uint64_t index = vpn - pageOf(vma.start);
        return policy.nodeForPage(index);
    }
    // Default policy: DRAM first while above the min watermark
    // (Finding 3: pages land on DRAM because there is space, not
    // because they are hot).
    if (phys.dram().freePages() > minWatermarkPages())
        return MemNode::DRAM;
    return MemNode::NVM;
}

bool
Kernel::tryHugeFaultAlloc(const Vma &vma, PageNum vpn, Cycles now,
                          TouchResult &result)
{
    // Anonymous Default-policy regions only: page-cache ranges are
    // 4 KiB-grained and explicit mbind placements are not widened.
    if (vma.pageCache || vma.policy.mode != MemPolicy::Mode::Default)
        return false;
    const PageNum base = hugeBaseOf(vpn);
    if (pageBase(base) < vma.start ||
        pageBase(base + kPagesPerHuge) > vma.end) {
        return false;  // PMD range not fully inside the VMA.
    }
    for (PageNum p = base; p < base + kPagesPerHuge; ++p) {
        if (pt.find(p) != nullptr)
            return false;  // Partially populated: khugepaged's job.
    }

    // DRAM first while a whole block fits above the reserve; the
    // tiering policy steers placement exactly as for 4 KiB touches.
    MemNode node =
        phys.dram().freePages() > minWatermarkPages() + kPagesPerHuge
            ? MemNode::DRAM
            : MemNode::NVM;
    if (tieringPolicy)
        node = tieringPolicy->onFirstTouchAlloc(vpn, now, node);

    auto frame = phys.tier(node).allocateHuge(FrameOwner::App);
    if (!frame) {
        const MemNode other =
            node == MemNode::DRAM ? MemNode::NVM : MemNode::DRAM;
        frame = phys.tier(other).allocateHuge(FrameOwner::App);
        if (frame)
            node = other;
    }
    if (!frame) {
        // Fragmentation on both tiers: fall back to a 4 KiB page.
        ++stats.thpFaultFallback;
        return false;
    }

    PageMeta &meta = pt.insertHuge(base);
    meta.frame = *frame;
    meta.node = node;
    meta.owner = FrameOwner::App;
    meta.present = true;
    meta.lastAccess = now;
    if (node == MemNode::DRAM)
        appLru.add(base);
    ++stats.thpFaultAlloc;
    result.node = node;
    return true;
}

TouchResult
Kernel::handlePageFault(PageNum vpn, Cycles now)
{
    const Vma *vma = space.find(pageBase(vpn));
    MEMTIER_ASSERT(vma != nullptr, "fault on unmapped address");

    TouchResult result;
    result.pageFault = true;
    result.cost = cfg.pageFaultCycles;
    ++stats.pgfault;

    // THP "always" policy: one fault populates the whole PMD range.
    if (cfg.thp.enabled && cfg.thp.faultAlloc &&
        tryHugeFaultAlloc(*vma, vpn, now, result)) {
        noteEvent(now);
        return result;
    }

    MemNode node = choosePlacement(*vma, vpn);
    // Default-policy regions let the tiering policy steer first-touch
    // placement; explicit mbind placements are never overridden.
    if (tieringPolicy && vma->policy.mode == MemPolicy::Mode::Default)
        node = tieringPolicy->onFirstTouchAlloc(vpn, now, node);
    const FrameOwner owner =
        vma->pageCache ? FrameOwner::PageCache : FrameOwner::App;

    // The first attempt goes through the injectable allocator; fallback
    // attempts below allocate directly so an injected DRAM failure
    // degrades to NVM placement rather than a spurious OOM.
    auto frame = allocFrame(node, owner, now);
    if (!frame && node == MemNode::DRAM) {
        // DRAM-bound allocation with DRAM exhausted: synchronous direct
        // reclaim makes room (pgdemote_direct), as the bound policy
        // cannot fall back.
        if (vma->policy.pinned() && cfg.demoteOnReclaim) {
            reclaimBatch(cfg.directReclaimBatchPages, /*direct=*/true,
                         now);
            result.cost += cfg.migratePageCycles;
            frame = phys.tier(node).allocate(owner);
        }
        if (!frame) {
            node = MemNode::NVM;
            frame = phys.tier(node).allocate(owner);
        }
    }
    if (!frame && node == MemNode::NVM) {
        // NVM-directed placement (policy interleave) with NVM full.
        node = MemNode::DRAM;
        frame = phys.tier(node).allocate(owner);
    }
    if (!frame)
        fatal("physical memory exhausted (both tiers full)");

    PageMeta &meta = pt.insert(vpn);
    meta.frame = *frame;
    meta.node = node;
    meta.owner = owner;
    meta.present = true;
    meta.pinned = vma->policy.pinned();
    meta.lastAccess = now;
    meta.clockStamp = 0;
    if (node == MemNode::DRAM)
        listFor(meta).add(vpn);

    result.node = node;
    noteEvent(now);
    return result;
}

TouchResult
Kernel::touchHugePage(PageNum vpn, PageMeta &hmeta, Cycles now)
{
    TouchResult result;
    if (hmeta.protNone) {
        // One PMD-granularity hint fault stands in for all 512
        // subpages: the trap cost is paid once and the policy's
        // promotion decision covers the whole range.
        hmeta.protNone = false;
        result.hintFault = true;
        result.cost = cfg.hintFaultCycles;
        ++stats.numaHintFaults;
        if (tieringPolicy)
            result.cost += tieringPolicy->onHintFault(vpn, now, hmeta);
    }
    // The policy may have migrated the range -- or demand-split it,
    // invalidating hmeta -- so re-resolve before stamping recency.
    PageMeta *after = pt.findHuge(vpn);
    if (after == nullptr)
        after = pt.find(vpn);
    MEMTIER_ASSERT(after != nullptr && after->present,
                   "page vanished during huge hint fault");
    after->lastAccess = now;
    result.node = after->node;
    return result;
}

TouchResult
Kernel::touchPage(PageNum vpn, Cycles now, MemOp op)
{
    (void)op;  // Loads and stores fault identically for our purposes.
    PageMeta *meta = pt.find(vpn);
    PageMeta *hmeta = nullptr;
    if (meta == nullptr || !meta->present) {
        hmeta = pt.findHuge(vpn);
        if (hmeta == nullptr || !hmeta->present)
            return handlePageFault(vpn, now);
    }

    // ECC errors strike mapped frames on access: the hardware reports
    // them against the physical address this touch hit, so the query
    // happens before the touch is serviced.
    TouchResult ecc;
    bool remapped = false;
    if (maybeEccFault(vpn, hmeta != nullptr ? hugeBaseOf(vpn) : kNoPage,
                      now, ecc, &remapped)) {
        return ecc;  // SIGBUS, or a cache drop + re-read, completed it.
    }
    if (remapped) {
        // Soft offline split and/or moved the mapping; re-resolve.
        meta = pt.find(vpn);
        hmeta = meta != nullptr && meta->present ? nullptr
                                                 : pt.findHuge(vpn);
    }
    if (hmeta != nullptr && hmeta->present) {
        TouchResult r = touchHugePage(vpn, *hmeta, now);
        r.cost += ecc.cost;
        return r;
    }
    MEMTIER_ASSERT(meta != nullptr && meta->present,
                   "page vanished in the memory-failure handler");

    TouchResult result;
    result.cost = ecc.cost;
    if (meta->protNone) {
        // NUMA hint page fault (Section 2.2): clear the marker, record
        // the fault, and let the tiering policy decide on promotion.
        meta->protNone = false;
        result.hintFault = true;
        result.cost += cfg.hintFaultCycles;
        ++stats.numaHintFaults;
        if (tieringPolicy)
            result.cost += tieringPolicy->onHintFault(vpn, now, *meta);
        // The policy may have migrated the page; re-read below.
        meta = pt.find(vpn);
        MEMTIER_ASSERT(meta != nullptr, "page vanished during hint fault");
    }
    meta->lastAccess = now;
    result.node = meta->node;
    return result;
}

// -- Memory failure (hwpoison) ----------------------------------------

bool
Kernel::maybeEccFault(PageNum vpn, PageNum huge_base, Cycles now,
                      TouchResult &result, bool *remapped)
{
    if (faults == nullptr)
        return false;
    // Both streams advance independently so each point's trace depends
    // only on the plan seed, not on the other point's outcomes.
    const bool ue = faults->shouldFail(FaultPoint::EccUncorrectable, now);
    const bool ce = faults->shouldFail(FaultPoint::EccCorrectable, now);
    if (!ue && !ce)
        return false;

    if (huge_base != kNoPage) {
        PageMeta *hm = pt.findHuge(vpn);
        MEMTIER_ASSERT(hm != nullptr && hm->present,
                       "ECC fault on unmapped huge range");
        const FrameNum subframe = hm->frame + (vpn - huge_base);
        const MemNode node = hm->node;
        if (ue) {
            ++stats.hwpoisonUe;
            // Poison lands on one 4 KiB subframe: split the PMD first
            // so only that frame is retired, as Linux memory_failure()
            // splits THP before poisoning the head/tail page.
            splitHugePage(huge_base, now);
            PageMeta *m = pt.find(vpn);
            MEMTIER_ASSERT(m != nullptr && m->present,
                           "THP split lost the poisoned page");
            hardMemoryFailure(vpn, *m, now, result);
            *remapped = true;
            return true;
        }
        ++stats.hwpoisonCe;
        if (phys.tier(node).recordCorrectable(subframe) >=
            cfg.ceRetireThreshold) {
            splitHugePage(huge_base, now);
            PageMeta *m = pt.find(vpn);
            MEMTIER_ASSERT(m != nullptr && m->present,
                           "THP split lost the failing page");
            result.cost += softOfflinePage(vpn, *m, now);
            *remapped = true;
        }
        return false;
    }

    PageMeta *meta = pt.find(vpn);
    MEMTIER_ASSERT(meta != nullptr && meta->present,
                   "ECC fault on unmapped page");
    if (ue) {
        ++stats.hwpoisonUe;
        hardMemoryFailure(vpn, *meta, now, result);
        *remapped = true;
        return true;
    }
    ++stats.hwpoisonCe;
    if (phys.tier(meta->node).recordCorrectable(meta->frame) >=
        cfg.ceRetireThreshold) {
        result.cost += softOfflinePage(vpn, *meta, now);
        *remapped = true;
    }
    return false;
}

void
Kernel::hardMemoryFailure(PageNum vpn, PageMeta &meta, Cycles now,
                          TouchResult &result)
{
    result.cost += cfg.memoryFailureCycles;
    const MemNode node = meta.node;
    const FrameOwner owner = meta.owner;
    const FrameNum frame = meta.frame;

    // Unmap and poison: the frame is permanently gone, so the tier's
    // effective capacity shrinks by one page.
    if (node == MemNode::DRAM)
        listFor(meta).remove(vpn);
    phys.tier(node).retire(frame, owner);
    pt.erase(vpn);
    shootdown(vpn);
    ++stats.hwpoisonFramesRetired;
    // Hard offlines feed the breaker as failures so an offline storm
    // trips it and pauses promotions into the eroding tier.
    recordMigration(false, now);
    if (tieringPolicy)
        tieringPolicy->onMemoryFailure(vpn, node, true, now);

    if (owner == FrameOwner::PageCache) {
        // Clean page-cache page: its backing file is intact, so drop
        // the poisoned copy and re-read into a fresh frame. The touch
        // completes transparently, just slower.
        ++stats.hwpoisonCacheDropped;
        const std::uint64_t faults_before = stats.pgfault;
        const TouchResult refault = handlePageFault(vpn, now);
        MEMTIER_ASSERT(stats.pgfault == faults_before + 1,
                       "fault accounting");
        --stats.pgfault;  // Not a user minor fault (as in ensureCached).
        result.cost += refault.cost + cfg.diskReadCyclesPerPage;
        result.node = refault.node;
    } else {
        // Anonymous (dirty) page: the only copy of the data just died.
        // Raise the SIGBUS-analogue; the workload aborts the affected
        // iteration or fails the in-flight request.
        ++stats.hwpoisonSigbus;
        result.sigbus = true;
        result.node = node;
    }
    noteEvent(now);
}

Cycles
Kernel::softOfflinePage(PageNum vpn, PageMeta &meta, Cycles now)
{
    Cycles cost = cfg.memoryFailureCycles;
    const MemNode src = meta.node;
    const MemNode other =
        src == MemNode::DRAM ? MemNode::NVM : MemNode::DRAM;
    for (std::uint32_t attempt = 0;; ++attempt) {
        // Prefer a healthy frame on the same tier; fall back to the
        // other tier when the home tier is full. mbind-pinned pages
        // never change tier, matching the binding contract.
        MemNode dst = src;
        auto frame = phys.tier(src).allocate(meta.owner);
        if (!frame && !meta.pinned) {
            frame = phys.tier(other).allocate(meta.owner);
            if (frame)
                dst = other;
        }
        if (!frame) {
            // No healthy frame anywhere: abandon the offline. The page
            // stays on its failing frame and its CE history resets so
            // the next threshold crossing retries.
            ++stats.hwpoisonSoftOfflineFail;
            phys.tier(src).clearCorrectable(meta.frame);
            recordMigration(false, now);
            return cost;
        }
        if (faults && faults->shouldFail(FaultPoint::Migration, now)) {
            // Transient copy failure: bounded retry with backoff, like
            // the promotion path (soft offline is just a migration).
            phys.tier(dst).free(*frame, meta.owner);
            ++stats.pgmigrateFail;
            recordMigration(false, now);
            if (tieringPolicy)
                tieringPolicy->onMigrationFailure(vpn, now, false);
            if (attempt >= cfg.migrateRetryLimit) {
                ++stats.hwpoisonSoftOfflineFail;
                phys.tier(src).clearCorrectable(meta.frame);
                return cost;
            }
            cost += cfg.migrateRetryBackoffCycles << attempt;
            continue;
        }

        // Copy succeeded: remap onto the healthy frame and retire the
        // failing one. Deliberately not counted as pgmigrate/pgdemote:
        // those counters keep their promotion+demotion+exchange
        // identity, hwpoison_soft_offline counts this path.
        if (src == MemNode::DRAM)
            listFor(meta).remove(vpn);
        phys.tier(src).retire(meta.frame, meta.owner);
        meta.frame = *frame;
        meta.node = dst;
        meta.protNone = false;  // The marker's hint fault is forfeit.
        if (dst == MemNode::DRAM)
            listFor(meta).add(vpn);
        shootdown(vpn);

        ++stats.hwpoisonSoftOffline;
        ++stats.hwpoisonFramesRetired;
        recordMigration(true, now);
        if (tieringPolicy)
            tieringPolicy->onMemoryFailure(vpn, src, false, now);
        noteEvent(now);
        return cost + chargedCopy(now, kPageSize);
    }
}

MemNode
Kernel::nodeOf(PageNum vpn) const
{
    const PageMeta *meta = pageMeta(vpn);
    MEMTIER_ASSERT(meta != nullptr && meta->present,
                   "nodeOf on non-present page");
    return meta->node;
}

const PageMeta *
Kernel::pageMeta(PageNum vpn) const
{
    const PageMeta *meta = pt.find(vpn);
    return meta != nullptr ? meta : pt.findHuge(vpn);
}

// -- Page cache -------------------------------------------------------

Addr
Kernel::registerFile(std::uint64_t bytes, const std::string &name)
{
    const ObjectId file_id = nextFileId--;
    return space.mmap(bytes, file_id, "pagecache:" + name,
                      /*page_cache=*/true);
}

Cycles
Kernel::ensureCached(PageNum vpn, Cycles now)
{
    PageMeta *meta = pt.find(vpn);
    if (meta != nullptr && meta->present)
        return 0;
    // Fetch from disk into a fresh page-cache page. Population goes
    // through the normal fault path so placement policy and accounting
    // apply, but does not count as a user minor fault.
    const std::uint64_t faults_before = stats.pgfault;
    TouchResult r = handlePageFault(vpn, now);
    MEMTIER_ASSERT(stats.pgfault == faults_before + 1, "fault accounting");
    --stats.pgfault;
    Cycles cost = r.cost + cfg.diskReadCyclesPerPage;
    // A transient read error re-issues the whole disk read. Reads are
    // bounded-retry: after diskReadRetryLimit re-issues the read is
    // taken as good (media errors are not modelled as permanent).
    for (std::uint32_t retry = 0;
         faults && retry < cfg.diskReadRetryLimit &&
         faults->shouldFail(FaultPoint::DiskRead, now);
         ++retry) {
        ++stats.diskReadRetry;
        cost += cfg.diskReadCyclesPerPage;
    }
    return cost;
}

// -- Reclaim / migration ----------------------------------------------

void
Kernel::freePage(PageNum vpn, PageMeta &meta)
{
    if (meta.node == MemNode::DRAM)
        listFor(meta).remove(vpn);
    phys.tier(meta.node).free(meta.frame, meta.owner);
}

bool
Kernel::demotePage(PageNum vpn, PageMeta &meta, bool direct, Cycles now)
{
    MEMTIER_ASSERT(meta.node == MemNode::DRAM, "demoting non-DRAM page");
    MEMTIER_ASSERT(!meta.huge, "huge pages are split before demotion");
    auto frame = phys.nvm().allocate(meta.owner);
    if (!frame) {
        // Real ENOMEM: the slow tier is full, nothing to retry against.
        ++stats.pgmigrateFail;
        if (tieringPolicy)
            tieringPolicy->onMigrationFailure(vpn, now, false);
        return false;
    }
    if (faults && faults->shouldFail(FaultPoint::Migration, now)) {
        // Transient copy failure: release the target frame; reclaim
        // moves on and will revisit the page on a later pass.
        phys.nvm().free(*frame, meta.owner);
        ++stats.pgmigrateFail;
        recordMigration(false, now);
        if (tieringPolicy)
            tieringPolicy->onMigrationFailure(vpn, now, false);
        return false;
    }

    listFor(meta).remove(vpn);
    phys.dram().free(meta.frame, meta.owner);
    meta.frame = *frame;
    meta.node = MemNode::NVM;
    meta.protNone = false;
    shootdown(vpn);

    ++stats.pgmigrateSuccess;
    if (direct)
        ++stats.pgdemoteDirect;
    else
        ++stats.pgdemoteKswapd;
    if (meta.promoted) {
        ++stats.pgpromoteDemoted;
        meta.promoted = false;
    }
    if (meta.exchanged) {
        ++stats.pgexchangeThrash;
        meta.exchanged = false;
    }
    recordMigration(true, now);
    // Reclaim's copy runs on the engine's workers in the background:
    // it occupies copy bandwidth but never stalls the reclaiming
    // context (kswapd overlaps copy with continued execution).
    backgroundCopy(now, kPageSize);
    return true;
}

bool
Kernel::dropCachePage(PageNum vpn, PageMeta &meta)
{
    MEMTIER_ASSERT(meta.owner == FrameOwner::PageCache,
                   "dropping a non-cache page");
    freePage(vpn, meta);
    pt.erase(vpn);
    shootdown(vpn);
    ++stats.pageCacheDrops;
    return true;
}

PageNum
Kernel::pickVictim(ClockList &list, Cycles now)
{
    // Second-chance clock: a page touched since the hand last visited it
    // is skipped (and its visit stamp refreshed); an untouched page is
    // the victim. Bound the sweep to two revolutions.
    const std::size_t budget = std::max<std::size_t>(1, list.size()) * 2;
    for (std::size_t i = 0; i < budget && !list.pages.empty(); ++i) {
        if (list.hand >= list.pages.size())
            list.hand = 0;
        const PageNum vpn = list.pages[list.hand];
        PageMeta *meta = lruMeta(vpn);
        MEMTIER_ASSERT(meta != nullptr, "LRU references unmapped page");
        if (meta->pinned) {
            ++list.hand;
            continue;
        }
        if (meta->lastAccess > meta->clockStamp) {
            meta->clockStamp = now;
            ++list.hand;
            continue;
        }
        return vpn;
    }
    return kNoPage;
}

std::uint32_t
Kernel::reclaimBatch(std::uint32_t target, bool direct, Cycles now)
{
    std::uint32_t reclaimed = 0;
    // Bound on policy vetoes so a veto-everything policy cannot spin
    // reclaim forever: at most one clock revolution's worth of skips.
    std::uint64_t vetoes = 0;
    const std::uint64_t veto_budget = appLru.size() + cacheLru.size() + 1;
    while (reclaimed < target) {
        // Page cache first (it ages fastest: read-once file pages),
        // then application pages.
        ClockList *list = cacheLru.size() > 0 ? &cacheLru : &appLru;
        if (list->pages.empty())
            break;
        PageNum victim = pickVictim(*list, now);
        if (victim == kNoPage)
            break;
        PageMeta *meta = lruMeta(victim);
        MEMTIER_ASSERT(meta != nullptr, "victim vanished");
        if (meta->huge) {
            // Split-on-demote: reclaim migrates at 4 KiB, so a cold
            // huge victim is demand-split first; its subpages rejoin
            // the LRU individually (and stay cold, so this round will
            // demote some of them right away).
            splitHugePage(victim, now);
            meta = pt.find(victim);
            MEMTIER_ASSERT(meta != nullptr, "split produced no PTE");
        }
        if (cfg.demoteOnReclaim && tieringPolicy) {
            const DemotionDecision d = tieringPolicy->onDemotionRequest(
                victim, now, *meta, direct);
            if (d.action == DemotionDecision::Action::Redirect) {
                PageMeta *alt = pt.find(d.alternative);
                if (alt != nullptr && alt->present && !alt->pinned &&
                    alt->node == MemNode::DRAM) {
                    ++stats.pgdemoteVetoed;  // The proposed victim won.
                    victim = d.alternative;
                    meta = alt;
                } else {
                    // Unusable redirect target: treat as a veto.
                    ++stats.pgdemoteVetoed;
                    ++list->hand;  // Move the clock past the victim.
                    if (++vetoes >= veto_budget)
                        break;
                    continue;
                }
            } else if (d.action == DemotionDecision::Action::Veto) {
                ++stats.pgdemoteVetoed;
                ++list->hand;  // Move the clock past the victim.
                if (++vetoes >= veto_budget)
                    break;
                continue;
            }
        }
        bool ok;
        if (cfg.demoteOnReclaim) {
            ok = demotePage(victim, *meta, direct, now);
        } else {
            // Vanilla kernel with no swap: only clean page-cache pages
            // can be reclaimed; application pages stay where they are.
            if (meta->owner != FrameOwner::PageCache)
                break;
            ok = dropCachePage(victim, *meta);
        }
        if (!ok)
            break;
        ++reclaimed;
    }
    return reclaimed;
}

void
Kernel::kswapdTick(Cycles now)
{
    if (phys.dram().freePages() >= lowWatermarkPages())
        return;
    const std::uint64_t deficit =
        highWatermarkPages() - phys.dram().freePages();
    const std::uint32_t target = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(deficit, cfg.kswapdBatchPages));
    reclaimBatch(target, /*direct=*/false, now);
    noteEvent(now);
}

Cycles
Kernel::promoteHugePage(PageNum vpn, Cycles now)
{
    const PageNum base = hugeBaseOf(vpn);
    PageMeta *hm = pt.findHuge(base);
    MEMTIER_ASSERT(hm != nullptr && hm->present, "promoting bad huge page");
    MEMTIER_ASSERT(hm->node == MemNode::NVM, "promoting non-NVM huge page");
    if (hm->pinned)
        return 0;
    if (migrationsPaused(now)) {
        ++stats.promotePaused;
        return 0;
    }

    auto frame = phys.dram().allocateHuge(FrameOwner::App);
    if (!frame) {
        // No contiguous DRAM block: the tiering decision straddles the
        // huge page. Demand-split it and promote just the faulting
        // subpage; the rest stay NVM and hint-fault individually.
        splitHugePage(base, now);
        return promotePage(vpn, now);
    }
    if (faults && faults->shouldFail(FaultPoint::Migration, now)) {
        // Transient bulk-copy failure: release the target block; the
        // range stays NVM and a later hint fault retries. No synchronous
        // retry loop -- a 2 MiB copy is too large to spin on.
        phys.dram().freeHuge(*frame, FrameOwner::App);
        ++stats.pgmigrateFail;
        recordMigration(false, now);
        if (tieringPolicy)
            tieringPolicy->onMigrationFailure(vpn, now, true);
        return 0;
    }

    phys.nvm().freeHuge(hm->frame, FrameOwner::App);
    hm->frame = *frame;
    hm->node = MemNode::DRAM;
    hm->promoted = true;
    appLru.add(base);
    shootdownHuge(base);

    stats.pgpromoteSuccess += kPagesPerHuge;
    stats.pgmigrateSuccess += kPagesPerHuge;
    recordMigration(true, now);
    noteEvent(now);
    return chargedCopyHuge(now);
}

Cycles
Kernel::promotePage(PageNum vpn, Cycles now)
{
    if (const PageMeta *hm = pt.findHuge(vpn);
        hm != nullptr && hm->present) {
        return promoteHugePage(vpn, now);
    }
    PageMeta *meta = pt.find(vpn);
    MEMTIER_ASSERT(meta != nullptr && meta->present, "promoting bad page");
    MEMTIER_ASSERT(meta->node == MemNode::NVM, "promoting non-NVM page");
    if (meta->pinned)
        return 0;
    if (migrationsPaused(now)) {
        ++stats.promotePaused;
        return 0;
    }

    Cycles cost = 0;
    for (std::uint32_t attempt = 0;; ++attempt) {
        auto frame = phys.dram().allocate(meta->owner);
        if (!frame) {
            // Promotion target allocation enters direct reclaim.
            if (cfg.demoteOnReclaim &&
                reclaimBatch(cfg.directReclaimBatchPages, /*direct=*/true,
                             now) > 0) {
                cost += cfg.migratePageCycles;
                frame = phys.dram().allocate(meta->owner);
            }
            if (!frame) {
                // Real ENOMEM: DRAM cannot be freed; retrying cannot
                // help, so fail the promotion outright.
                ++stats.pgmigrateFail;
                if (tieringPolicy)
                    tieringPolicy->onMigrationFailure(vpn, now, true);
                return 0;
            }
        }
        if (faults && faults->shouldFail(FaultPoint::Migration, now)) {
            // Transient copy failure: release the target frame and
            // retry with exponential backoff, unless the bounded retry
            // budget is spent or this failure tripped the breaker.
            phys.dram().free(*frame, meta->owner);
            ++stats.pgmigrateFail;
            recordMigration(false, now);
            if (tieringPolicy)
                tieringPolicy->onMigrationFailure(vpn, now, true);
            if (attempt >= cfg.migrateRetryLimit || migrationsPaused(now))
                return 0;
            cost += cfg.migrateRetryBackoffCycles << attempt;
            ++stats.promoteRetry;
            continue;
        }

        phys.nvm().free(meta->frame, meta->owner);
        meta->frame = *frame;
        meta->node = MemNode::DRAM;
        meta->promoted = true;
        listFor(*meta).add(vpn);
        shootdown(vpn);

        ++stats.pgpromoteSuccess;
        ++stats.pgmigrateSuccess;
        recordMigration(true, now);
        noteEvent(now);
        return cost + chargedCopy(now, kPageSize);
    }
}

PageNum
Kernel::pickExchangeVictim(Cycles now)
{
    if (appLru.pages.empty())
        return kNoPage;
    const PageNum victim = pickVictim(appLru, now);
    // Exchanges swap exactly one 4 KiB frame per side; a huge victim
    // cannot participate (and is not worth splitting just for this).
    if (victim != kNoPage && pt.findHuge(victim) != nullptr &&
        isHugeBase(victim)) {
        return kNoPage;
    }
    return victim;
}

Cycles
Kernel::exchangePages(PageNum nvm_vpn, PageNum dram_vpn, Cycles now)
{
    PageMeta *up = pt.find(nvm_vpn);
    PageMeta *down = pt.find(dram_vpn);
    if (up == nullptr || down == nullptr || !up->present ||
        !down->present || up->pinned || down->pinned ||
        up->node != MemNode::NVM || down->node != MemNode::DRAM) {
        return 0;
    }
    MEMTIER_ASSERT(up->owner == down->owner ||
                       down->owner == FrameOwner::App,
                   "exchange victim must be an app page");
    if (migrationsPaused(now)) {
        ++stats.promotePaused;
        return 0;
    }
    if (faults && faults->shouldFail(FaultPoint::Exchange, now)) {
        // Transient exchange failure: neither page moves, no frame was
        // touched yet, so the abort is free of side effects.
        ++stats.pgmigrateFail;
        recordMigration(false, now);
        if (tieringPolicy)
            tieringPolicy->onMigrationFailure(nvm_vpn, now, true);
        return 0;
    }

    // Swap frames in place: the DRAM page takes the NVM frame and vice
    // versa. Owner accounting moves with the pages so numastat stays
    // correct when the owners differ.
    listFor(*down).remove(dram_vpn);
    if (up->owner != down->owner) {
        phys.dram().free(down->frame, down->owner);
        phys.nvm().free(up->frame, up->owner);
        const auto dram_frame = phys.dram().allocate(up->owner);
        const auto nvm_frame = phys.nvm().allocate(down->owner);
        MEMTIER_ASSERT(dram_frame && nvm_frame,
                       "exchange re-allocation cannot fail");
        up->frame = *dram_frame;
        down->frame = *nvm_frame;
    } else {
        std::swap(up->frame, down->frame);
    }
    up->node = MemNode::DRAM;
    down->node = MemNode::NVM;
    up->protNone = false;
    down->protNone = false;
    up->promoted = true;
    listFor(*up).add(nvm_vpn);
    shootdown(nvm_vpn);
    shootdown(dram_vpn);

    ++stats.pgexchangeSuccess;
    stats.pgmigrateSuccess += 2;  // Two pages moved.
    ++stats.pgpromoteSuccess;
    if (down->promoted) {
        ++stats.pgpromoteDemoted;
        down->promoted = false;
    }
    if (down->exchanged) {
        ++stats.pgexchangeThrash;
        down->exchanged = false;
    }
    up->exchanged = true;
    recordMigration(true, now);
    noteEvent(now);

    // An exchange copies both pages (roughly two migrations' worth of
    // data movement) but needs no reclaim episode; with a parallel
    // copy pool the two page copies proceed on separate workers.
    return chargedCopy(now, 2 * kPageSize);
}

bool
Kernel::dramHasFreeCapacity() const
{
    return phys.dram().freePages() > highWatermarkPages();
}

// -- Transparent huge pages -------------------------------------------

void
Kernel::freeHugeMapping(PageNum base_vpn, PageMeta &hmeta)
{
    if (hmeta.node == MemNode::DRAM)
        appLru.remove(base_vpn);
    phys.tier(hmeta.node).freeHuge(hmeta.frame, hmeta.owner);
    pt.eraseHuge(base_vpn);
    shootdownHuge(base_vpn);
}

CollapseResult
Kernel::collapseHugePage(PageNum base_vpn, Cycles now)
{
    MEMTIER_ASSERT(isHugeBase(base_vpn), "collapse of unaligned range");
    if (pt.findHuge(base_vpn) != nullptr)
        return CollapseResult::NotEligible;

    // Eligibility: fully populated, one tier, App-owned, unpinned, no
    // pending scan marker (collapsing one would swallow its hint fault).
    MemNode node = MemNode::DRAM;
    for (PageNum p = base_vpn; p < base_vpn + kPagesPerHuge; ++p) {
        const PageMeta *m = pt.find(p);
        if (m == nullptr || !m->present || m->pinned || m->protNone ||
            m->owner != FrameOwner::App) {
            return CollapseResult::NotEligible;
        }
        if (p == base_vpn)
            node = m->node;
        else if (m->node != node)
            return CollapseResult::NotEligible;
    }

    // Like khugepaged: allocate the huge frame first, then copy and
    // retire the 512 scattered source frames.
    auto frame = phys.tier(node).allocateHuge(FrameOwner::App);
    if (!frame) {
        ++stats.thpCollapseFail;
        return CollapseResult::AllocFailed;
    }

    Cycles last_access = 0;
    Cycles clock_stamp = 0;
    for (PageNum p = base_vpn; p < base_vpn + kPagesPerHuge; ++p) {
        PageMeta *m = pt.find(p);
        last_access = std::max(last_access, m->lastAccess);
        clock_stamp = std::max(clock_stamp, m->clockStamp);
        if (m->node == MemNode::DRAM)
            listFor(*m).remove(p);
        phys.tier(node).free(m->frame, m->owner);
        pt.erase(p);
        shootdown(p);
    }

    PageMeta &hmeta = pt.insertHuge(base_vpn);
    hmeta.frame = *frame;
    hmeta.node = node;
    hmeta.owner = FrameOwner::App;
    hmeta.present = true;
    hmeta.lastAccess = last_access;
    hmeta.clockStamp = clock_stamp;
    if (node == MemNode::DRAM)
        appLru.add(base_vpn);

    ++stats.thpCollapseAlloc;
    if (tieringPolicy)
        tieringPolicy->onThpCollapse(base_vpn, now);
    noteEvent(now);
    return CollapseResult::Collapsed;
}

void
Kernel::splitHugePage(PageNum base_vpn, Cycles now)
{
    MEMTIER_ASSERT(isHugeBase(base_vpn), "split of unaligned range");
    PageMeta *hm = pt.findHuge(base_vpn);
    MEMTIER_ASSERT(hm != nullptr && hm->present,
                   "splitting a non-huge range");
    const PageMeta copy = *hm;
    if (copy.node == MemNode::DRAM)
        appLru.remove(base_vpn);
    pt.eraseHuge(base_vpn);

    // The 512 subpages inherit the huge page's contiguous frames; the
    // allocator needs no notification (the frames stay allocated and
    // become individually freeable). A pending scan marker is dropped
    // rather than fanned out to 512 PTEs.
    for (std::uint64_t i = 0; i < kPagesPerHuge; ++i) {
        const PageNum vpn = base_vpn + i;
        PageMeta &m = pt.insert(vpn);
        m.frame = copy.frame + i;
        m.node = copy.node;
        m.owner = copy.owner;
        m.present = true;
        m.pinned = copy.pinned;
        m.promoted = copy.promoted;
        m.lastAccess = copy.lastAccess;
        m.clockStamp = copy.clockStamp;
        if (copy.node == MemNode::DRAM)
            listFor(m).add(vpn);
    }
    shootdownHuge(base_vpn);

    ++stats.thpSplitPage;
    if (tieringPolicy)
        tieringPolicy->onThpSplit(base_vpn, now);
    noteEvent(now);
}

std::uint32_t
Kernel::migratePages(Addr start, Addr end, MemNode target,
                     std::uint32_t max_pages, Cycles now)
{
    std::uint32_t moved = 0;
    for (PageNum vpn = pageOf(start);
         vpn < pageOf(end + kPageSize - 1) && moved < max_pages; ++vpn) {
        if (const PageMeta *hm = pt.findHuge(vpn);
            hm != nullptr && hm->present) {
            const PageNum base = hugeBaseOf(vpn);
            if (hm->pinned || hm->node == target) {
                vpn = base + kPagesPerHuge - 1;
                continue;
            }
            if (target == MemNode::NVM ||
                max_pages - moved < kPagesPerHuge) {
                // Demotion (or a budget smaller than the PMD) straddles
                // the huge page: demand-split and fall through to the
                // 4 KiB path for this and the following subpages.
                splitHugePage(base, now);
            } else {
                if (phys.dram().freePages() <=
                    minWatermarkPages() + kPagesPerHuge) {
                    break;
                }
                const Cycles c = promotePage(vpn, now);
                if (pt.findHuge(vpn) != nullptr) {
                    if (c > 0)
                        moved += static_cast<std::uint32_t>(kPagesPerHuge);
                    vpn = base + kPagesPerHuge - 1;
                } else if (c > 0) {
                    // Promotion demand-split the range and moved one
                    // subpage; keep walking the remaining PTEs.
                    ++moved;
                }
                continue;
            }
        }
        PageMeta *meta = pt.find(vpn);
        if (meta == nullptr || !meta->present || meta->pinned ||
            meta->node == target) {
            continue;
        }
        if (target == MemNode::DRAM) {
            if (phys.dram().freePages() <= minWatermarkPages())
                break;  // Do not drain DRAM below its reserve.
            if (promotePage(vpn, now) > 0)
                ++moved;
        } else {
            if (demotePage(vpn, *meta, /*direct=*/true, now))
                ++moved;
        }
    }
    noteEvent(now);
    return moved;
}

NumaStatSnapshot
Kernel::numastat() const
{
    NumaStatSnapshot snap;
    for (int n = 0; n < kNumNodes; ++n) {
        const auto node = static_cast<MemNode>(n);
        const MemoryTier &tier = phys.tier(node);
        snap.appPages[n] = tier.ownerPages(FrameOwner::App);
        snap.cachePages[n] = tier.ownerPages(FrameOwner::PageCache);
        snap.freePages[n] = tier.freePages();
        snap.retiredPages[n] = tier.retiredPages();
    }
    return snap;
}

}  // namespace memtier
