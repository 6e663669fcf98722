/**
 * @file
 * The simulated OS kernel: demand paging with DRAM-first allocation,
 * NUMA policies, page-cache management, and watermark-driven reclaim
 * that demotes cold DRAM pages to NVM (the tiering kernel's reclaim
 * path). The AutoNUMA scanning/promotion policy plugs in through the
 * TieringPolicy hook so the "AutoNUMA off" baseline is just a null hook.
 */

#ifndef MEMTIER_OS_KERNEL_H_
#define MEMTIER_OS_KERNEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.h"
#include "fault/circuit_breaker.h"
#include "mem/copy_engine.h"
#include "os/address_space.h"
#include "os/kernel_hooks.h"
#include "os/page_table.h"
#include "os/physical_memory.h"
#include "os/vmstat.h"
#include "thp/thp_params.h"

namespace memtier {

class FaultInjector;
class InvariantChecker;

/** Kernel tunables (watermarks, fault costs, reclaim batch sizes). */
struct KernelParams
{
    /** DRAM free fraction below which allocation falls back to NVM. */
    double minWatermarkFrac = 0.005;

    /** DRAM free fraction below which kswapd starts demoting. */
    double lowWatermarkFrac = 0.05;

    /** DRAM free fraction kswapd demotes down to. Sized generously so
     *  reclaim keeps enough headroom for the applications' recurring
     *  allocations to land in DRAM (the Figure 7 behaviour). */
    double highWatermarkFrac = 0.10;

    /** Pages demoted per kswapd invocation when below the low mark. */
    std::uint32_t kswapdBatchPages = 512;

    /** Pages demoted by one synchronous direct-reclaim episode. */
    std::uint32_t directReclaimBatchPages = 32;

    /** Cost of servicing a minor page fault, charged to the thread. */
    Cycles pageFaultCycles = 1400;

    /** Cost of taking a NUMA hint fault (trap + PTE fixup). */
    Cycles hintFaultCycles = 1100;

    /** Synchronous cost of migrating one page (copy 4 KiB + remap). */
    Cycles migratePageCycles = 5200;

    /**
     * Synchronous cost of migrating one 2 MiB huge page. A bulk copy
     * amortizes per-page remap overhead, so this is far below 512x the
     * single-page cost (2 MiB at ~20 GB/s plus one remap/shootdown).
     */
    Cycles hugeMigrateCycles = 260'000;

    /** Disk fetch cost per page-cache miss (about 2 GB/s streaming). */
    Cycles diskReadCyclesPerPage = 5200;

    /**
     * True when reclaim demotes pages to NVM (tiering kernel). When
     * false (vanilla kernel / AutoNUMA disabled), reclaim only drops
     * clean page-cache pages and never migrates application pages.
     */
    bool demoteOnReclaim = true;

    /** Extra promotion attempts after a transient migration failure. */
    std::uint32_t migrateRetryLimit = 3;

    /** Backoff charged before retry i is 2^i times this base cost. */
    Cycles migrateRetryBackoffCycles = 1300;

    /** Disk reads re-issued before a faulty page read is declared ok. */
    std::uint32_t diskReadRetryLimit = 4;

    /** Correctable ECC errors on one frame before it is soft-offlined. */
    std::uint32_t ceRetireThreshold = 3;

    /** Cost of the memory-failure handler itself (poison bookkeeping,
     *  rmap walk, shootdown), charged on top of any migration/re-read. */
    Cycles memoryFailureCycles = 20'000;

    /**
     * Copy workers in the migration copy engine (AutoTiering's
     * copy_page.c pool). 1 charges the legacy serial costs exactly;
     * more workers fan chunked copies out and shorten the synchronous
     * migration latency seen by the faulting thread.
     */
    std::uint32_t copyThreads = 1;

    /** Copy-engine chunk granularity in 4 KiB pages. */
    std::uint32_t copyChunkPages = 16;

    /** Migration circuit-breaker trip/decay tunables. */
    CircuitBreakerParams breaker;

    /** Transparent-huge-page model knobs (inert while disabled). */
    ThpParams thp;
};

/** Outcome of one khugepaged collapse attempt. */
enum class CollapseResult : std::uint8_t {
    Collapsed = 0,  ///< The range is now a PMD mapping.
    NotEligible,    ///< Holes, mixed tiers, pinned/marked pages, ...
    AllocFailed,    ///< No contiguous 2 MiB frame (fragmentation).
};

/** Result of resolving one page touch (TLB-miss path). */
struct TouchResult
{
    MemNode node = MemNode::DRAM;  ///< Residence after handling.
    Cycles cost = 0;               ///< Fault/migration cycles charged.
    bool pageFault = false;
    bool hintFault = false;

    /**
     * An uncorrectable ECC error killed this page: the frame was
     * poisoned and the mapping destroyed. The touch did not complete;
     * the workload must treat it like a SIGBUS (abort the iteration /
     * fail the request). @ref node still reports the failed frame's
     * tier so timing stays deterministic.
     */
    bool sigbus = false;
};

/** Per-node usage snapshot (the paper's numastat/free view). */
struct NumaStatSnapshot
{
    std::uint64_t appPages[kNumNodes] = {0, 0};
    std::uint64_t cachePages[kNumNodes] = {0, 0};
    std::uint64_t freePages[kNumNodes] = {0, 0};

    /** Frames permanently offlined by the memory-failure path. */
    std::uint64_t retiredPages[kNumNodes] = {0, 0};
};

/** The simulated kernel. */
class Kernel
{
  public:
    /**
     * @param phys the machine's two-tier physical memory.
     * @param params kernel tunables.
     */
    Kernel(PhysicalMemory &phys, const KernelParams &params);

    /** Install the CPU-side TLB shootdown client (required). */
    void setShootdownClient(TlbShootdownClient *client);

    /** Install the AutoNUMA tiering policy (nullptr = AutoNUMA off). */
    void setTieringPolicy(TieringPolicy *policy);

    /** Install the mmap/munmap observer (nullptr = no tracking). */
    void setSyscallObserver(SyscallObserver *observer);

    /** Install the fault injector (nullptr = infallible kernel). */
    void setFaultInjector(FaultInjector *injector);

    /** Install the invariant checker (nullptr = no checking). */
    void setInvariantChecker(InvariantChecker *checker);

    // -- Syscall surface ---------------------------------------------

    /** mmap: create a VMA; pages populate on first touch. */
    Addr mmap(Cycles now, std::uint64_t bytes, ObjectId object,
              const std::string &site);

    /** munmap: free all pages of the region starting at @p start. */
    void munmap(Cycles now, Addr start);

    /** mbind: set the placement policy of the region at @p start. */
    void mbind(Addr start, const MemPolicy &policy);

    // -- Address translation / faults --------------------------------

    /**
     * Resolve a touch of @p vpn from the page-walk path: services the
     * minor fault or hint fault if one is pending and refreshes the
     * page's recency stamp (accessed-bit model).
     */
    TouchResult touchPage(PageNum vpn, Cycles now, MemOp op);

    /** Residence of a present page (no fault handling, no recency). */
    MemNode nodeOf(PageNum vpn) const;

    /**
     * Monotonic counter bumped on every remap: migration, demotion,
     * exchange, THP collapse/split, munmap -- anything that issues a
     * TLB shootdown. The batched access path reads it at the head of a
     * same-line run and settles the run's tails only while it is
     * unchanged.
     */
    std::uint64_t translationEpoch() const { return xlatEpoch; }

    /** Page metadata, or nullptr when unmapped (for introspection). */
    const PageMeta *pageMeta(PageNum vpn) const;

    // -- Page cache ---------------------------------------------------

    /**
     * Reserve the page-cache address range for a file of @p bytes.
     * @return base address of the file's cache pages.
     */
    Addr registerFile(std::uint64_t bytes, const std::string &name);

    /**
     * Ensure file page at @p vpn (within a registered file range) is
     * cached, fetching from disk if needed.
     * @return cycles spent (0 when already cached).
     */
    Cycles ensureCached(PageNum vpn, Cycles now);

    // -- Reclaim / migration -----------------------------------------

    /** Periodic kswapd invocation; demotes when below the low mark. */
    void kswapdTick(Cycles now);

    /**
     * Promote @p vpn from NVM to DRAM (called by the tiering policy).
     * May trigger a small direct-reclaim episode to make room.
     * @return synchronous cycles spent, or 0 when promotion failed.
     */
    Cycles promotePage(PageNum vpn, Cycles now);

    /**
     * Directly swap the residence of an NVM page and a DRAM page
     * (AutoTiering-style exchange), bypassing the reclaim path: no
     * frame is allocated or freed on either tier, so the per-tier
     * resident counts are invariant across the call.
     *
     * @param nvm_vpn present, unpinned NVM-resident page (promoted).
     * @param dram_vpn present, unpinned DRAM-resident app page
     *        (demoted in its place).
     * @return synchronous cycles spent (two page copies + remaps), or
     *         0 when the exchange was not possible.
     */
    Cycles exchangePages(PageNum nvm_vpn, PageNum dram_vpn, Cycles now);

    /**
     * Coldest unpinned DRAM-resident application page per the reclaim
     * clock, for use as an exchange victim.
     * @return the page, or kNoPage when none qualifies.
     */
    PageNum pickExchangeVictim(Cycles now);

    /** True when DRAM has free capacity above the high watermark. */
    bool dramHasFreeCapacity() const;

    /**
     * True while the migration circuit breaker is open: promotions and
     * exchanges are refused and scanners should pause marking. Detects
     * the open->closed transition and notifies the tiering policy.
     */
    bool migrationsPaused(Cycles now);

    /** The migration circuit breaker (read-only introspection). */
    const CircuitBreaker &migrationBreaker() const { return breaker; }

    /**
     * Migrate present, unpinned pages of [start, end) to @p target
     * (move_pages(2) equivalent, used by object-granularity policies).
     * Migrations count into the promotion/demotion vmstat counters.
     * Huge pages promote whole when the budget allows and are demand-
     * split otherwise (a tiering decision straddling the PMD).
     *
     * @param max_pages migration budget.
     * @return pages actually migrated.
     */
    std::uint32_t migratePages(Addr start, Addr end, MemNode target,
                               std::uint32_t max_pages, Cycles now);

    // -- Transparent huge pages ---------------------------------------

    /**
     * Collapse the 512-page range at @p base_vpn into a PMD mapping
     * (khugepaged's work): every page must be present, on the same
     * tier, App-owned, unpinned, and free of a pending scan marker,
     * and a contiguous 2 MiB frame must be available on that tier.
     */
    CollapseResult collapseHugePage(PageNum base_vpn, Cycles now);

    /**
     * Split the PMD mapping at @p base_vpn back into 512 PTEs over the
     * same (contiguous) frames. Accounting-only at the allocator level;
     * the subpages become individually migratable afterwards.
     */
    void splitHugePage(PageNum base_vpn, Cycles now);

    /** True when @p vpn is covered by a present PMD mapping. */
    bool
    isHugeMapped(PageNum vpn) const
    {
        const PageMeta *hm = pt.findHuge(vpn);
        return hm != nullptr && hm->present;
    }

    /** Mutable PMD metadata covering @p vpn (scanner marks it). */
    PageMeta *hugeMetaMutable(PageNum vpn) { return pt.findHuge(vpn); }

    /** Issue a huge-TLB shootdown for the range at @p base_vpn. */
    void shootdownHuge(PageNum base_vpn);

    /** Live PMD mappings (for reports). */
    std::size_t hugeMappings() const { return pt.hugeSize(); }

    // -- Introspection ------------------------------------------------

    /** Cumulative counters. */
    const VmStat &vmstat() const { return stats; }

    /** Mutable counters (the tiering policy updates candidate counts). */
    VmStat &vmstatMutable() { return stats; }

    /** Per-node usage (numastat + free equivalent). */
    NumaStatSnapshot numastat() const;

    /** The process address space (scanner iterates its VMAs). */
    const AddressSpace &addressSpace() const { return space; }

    /** Physical memory (tier timing access from the CPU model). */
    PhysicalMemory &physicalMemory() { return phys; }

    /** Mutable page metadata (scanner marks PROT_NONE through this). */
    PageMeta *pageMetaMutable(PageNum vpn) { return pt.find(vpn); }

    /** Issue a TLB shootdown for @p vpn (used by the scanner). */
    void shootdown(PageNum vpn);

    /** Kernel tunables in effect. */
    const KernelParams &params() const { return cfg; }

    /** The migration copy engine (bandwidth/queue introspection). */
    const CopyEngine &copyEngine() const { return copyEngine_; }

    /** Resize the migration copy worker pool (live "copy_threads"
     *  tunable); a same-size call is a strict no-op. */
    void setCopyThreads(std::uint32_t workers)
    {
        copyEngine_.setWorkers(workers);
    }

  private:
    friend class InvariantChecker;  ///< Reads internal state, only.

    /** Which reclaim LRU a DRAM page sits on. */
    enum class LruList : std::uint8_t { AppLru, CacheLru };

    /** One CLOCK list over DRAM-resident pages. */
    struct ClockList
    {
        std::vector<PageNum> pages;
        std::unordered_map<PageNum, std::size_t> pos;
        std::size_t hand = 0;

        void add(PageNum vpn);
        void remove(PageNum vpn);
        bool contains(PageNum vpn) const { return pos.count(vpn) != 0; }
        std::size_t size() const { return pages.size(); }
    };

    TouchResult handlePageFault(PageNum vpn, Cycles now);

    /**
     * Query the ECC fault points for a touch of @p vpn on @p meta's
     * frame and run the memory-failure handler when one fires. A UE
     * takes the hard path (@ref hardMemoryFailure); a CE past the
     * retire threshold soft-offlines the page. A huge mapping is split
     * first so only one 4 KiB frame is ever retired.
     *
     * @param huge_base base vpn of the covering PMD, or kNoPage.
     * @param remapped set when the mapping was split or moved (the
     *        caller must re-resolve its metadata pointers).
     * @return true when the handler completed the touch itself (SIGBUS
     *         raised, or a cache page dropped and re-read) and @p
     *         result holds the final outcome.
     */
    bool maybeEccFault(PageNum vpn, PageNum huge_base, Cycles now,
                       TouchResult &result, bool *remapped);

    /**
     * Hard memory-failure path for a present 4 KiB mapping (Linux
     * memory_failure()): unmap, retire the frame, then either re-read
     * a clean page-cache page from disk or raise the SIGBUS-analogue
     * for an anonymous page.
     */
    void hardMemoryFailure(PageNum vpn, PageMeta &meta, Cycles now,
                           TouchResult &result);

    /**
     * Soft-offline @p vpn (Linux soft_offline_page()): migrate it to a
     * healthy frame on the same tier (fallback: the other tier) with
     * the usual bounded retry/backoff, then retire the old frame. On
     * exhaustion the page stays where it is and its CE history resets.
     * @return cycles charged to the touching thread.
     */
    Cycles softOfflinePage(PageNum vpn, PageMeta &meta, Cycles now);

    MemNode choosePlacement(const Vma &vma, PageNum vpn);
    bool tryHugeFaultAlloc(const Vma &vma, PageNum vpn, Cycles now,
                           TouchResult &result);
    TouchResult touchHugePage(PageNum vpn, PageMeta &hmeta, Cycles now);
    Cycles promoteHugePage(PageNum base_vpn, Cycles now);
    void freeHugeMapping(PageNum base_vpn, PageMeta &hmeta);
    PageMeta *lruMeta(PageNum vpn);
    void freePage(PageNum vpn, PageMeta &meta);
    bool demotePage(PageNum vpn, PageMeta &meta, bool direct,
                    Cycles now);
    bool dropCachePage(PageNum vpn, PageMeta &meta);
    std::uint32_t reclaimBatch(std::uint32_t target, bool direct,
                               Cycles now);
    PageNum pickVictim(ClockList &list, Cycles now);
    ClockList &listFor(const PageMeta &meta);

    /**
     * Allocate a frame on @p node, subject to injected allocation
     * failures on the DRAM tier (NVM allocation only fails for real,
     * when the tier is full).
     */
    std::optional<FrameNum> allocFrame(MemNode node, FrameOwner owner,
                                       Cycles now);

    /** Feed the breaker one migration outcome; count trips. */
    void recordMigration(bool success, Cycles now);

    /**
     * Route a synchronous page copy of @p bytes through the copy
     * engine; the legacy charge is migratePageCycles per 4 KiB page.
     * @return cycles the caller waits for the copy.
     */
    Cycles chargedCopy(Cycles now, std::uint64_t bytes);

    /** Synchronous 2 MiB copy (legacy charge: hugeMigrateCycles). */
    Cycles chargedCopyHuge(Cycles now);

    /** Background (demotion) copy: occupies workers, charges nothing. */
    void backgroundCopy(Cycles now, std::uint64_t bytes);

    /** Mirror copy-engine counters into vmstat (parallel pools only). */
    void mirrorCopyCounters();

    /** Tick the invariant checker after a kernel event. */
    void noteEvent(Cycles now);

    std::uint64_t minWatermarkPages() const;
    std::uint64_t lowWatermarkPages() const;
    std::uint64_t highWatermarkPages() const;

    PhysicalMemory &phys;
    KernelParams cfg;
    AddressSpace space;
    PageTable pt;
    VmStat stats;

    ClockList appLru;    ///< DRAM-resident application pages.
    ClockList cacheLru;  ///< DRAM-resident page-cache pages.

    TlbShootdownClient *shootdownClient = nullptr;
    TieringPolicy *tieringPolicy = nullptr;
    SyscallObserver *observer = nullptr;
    FaultInjector *faults = nullptr;
    InvariantChecker *invariants = nullptr;

    CircuitBreaker breaker;
    bool breakerOpenNotified = false;

    CopyEngine copyEngine_;

    /** Global translation epoch; see translationEpoch(). */
    std::uint64_t xlatEpoch = 0;

    ObjectId nextFileId = -2;  ///< Page-cache "objects" get negative ids.
};

}  // namespace memtier

#endif  // MEMTIER_OS_KERNEL_H_
