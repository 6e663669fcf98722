/**
 * @file
 * Upcall interfaces the kernel uses to talk to layers above it without
 * depending on them: TLB shootdowns into the CPU model, tiering-policy
 * decisions (implemented by the policy subsystem), and syscall
 * observation (implemented by the profiler's mmap tracker).
 */

#ifndef MEMTIER_OS_KERNEL_HOOKS_H_
#define MEMTIER_OS_KERNEL_HOOKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/types.h"

namespace memtier {

struct PageMeta;
struct MetricsView;
class AccessObserver;
class TunableRegistry;

/** Sentinel for "no page" in policy/kernel exchanges. */
inline constexpr PageNum kNoPage = static_cast<PageNum>(-1);

/** Implemented by the CPU model: invalidate cached translations. */
class TlbShootdownClient
{
  public:
    virtual ~TlbShootdownClient() = default;

    /** Invalidate @p vpn in every logical thread's TLB. */
    virtual void tlbShootdown(PageNum vpn) = 0;

    /**
     * Invalidate the 2 MiB translation at @p base_vpn in every logical
     * thread's huge TLB. Default no-op so clients that predate the THP
     * model keep compiling (they never see huge mappings).
     */
    virtual void tlbShootdownHuge(PageNum base_vpn) { (void)base_vpn; }
};

/** A policy's answer to "may I demote this DRAM page?". */
struct DemotionDecision
{
    enum class Action : std::uint8_t {
        Allow,     ///< Demote the proposed victim (kernel default).
        Veto,      ///< Keep the victim in DRAM; reclaim moves on.
        Redirect,  ///< Demote @ref alternative instead of the victim.
    };

    Action action = Action::Allow;
    PageNum alternative = kNoPage;  ///< Victim for Action::Redirect.

    static DemotionDecision allow() { return {}; }

    static DemotionDecision
    veto()
    {
        return {Action::Veto, kNoPage};
    }

    static DemotionDecision
    redirect(PageNum vpn)
    {
        return {Action::Redirect, vpn};
    }
};

/** One named cumulative counter exported by a policy. */
using PolicyCounter = std::pair<std::string, std::uint64_t>;

/**
 * Full lifecycle interface between the kernel and a tiering policy.
 *
 * The kernel owns the mechanism (faults, placement, reclaim, migration)
 * and consults the installed policy at every decision point. Every hook
 * has a neutral default, so a policy only implements the events it
 * cares about:
 *
 *  - @ref onHintFault     a scanner-marked page was touched (promote?).
 *  - @ref scanTick        periodic scan invocation (mark pages).
 *  - @ref onFirstTouchAlloc  first-touch placement of a new page.
 *  - @ref onDemotionRequest  reclaim proposes a demotion (veto/redirect?).
 *  - @ref snapshotStats   export policy-private counters for reports.
 *  - @ref accessObserver  receive every access the engine executes.
 */
class TieringPolicy
{
  public:
    virtual ~TieringPolicy() = default;

    /** Stable short name ("autonuma", "exchange", ...). */
    virtual const char *name() const = 0;

    /**
     * A hint page fault occurred on @p vpn.
     *
     * @param vpn faulting page.
     * @param now fault time (the "hint page fault time").
     * @param meta the page's metadata (scanTime holds the scan time).
     * @return extra cycles charged to the faulting thread (e.g. the
     *         synchronous cost of a promotion migration). Policies that
     *         never scan never see one and keep the default.
     */
    virtual Cycles
    onHintFault(PageNum vpn, Cycles now, PageMeta &meta)
    {
        (void)vpn;
        (void)now;
        (void)meta;
        return 0;
    }

    /**
     * Periodic scan invocation, driven by the engine's service clock
     * every @ref scanPeriod cycles. Policies that do not scan keep the
     * default no-op and return 0 from scanPeriod().
     */
    virtual void scanTick(Cycles now) { (void)now; }

    /** Period of @ref scanTick in cycles; 0 disables the scan service. */
    virtual Cycles scanPeriod() const { return 0; }

    /**
     * A page is being populated on first touch into a Default-policy
     * VMA (mbind-pinned regions never consult the policy). @p chosen is
     * the kernel's DRAM-first proposal; the returned node is where the
     * page is placed (allocation failure still falls back to the other
     * tier).
     */
    virtual MemNode
    onFirstTouchAlloc(PageNum vpn, Cycles now, MemNode chosen)
    {
        (void)vpn;
        (void)now;
        return chosen;
    }

    /**
     * Reclaim (kswapd or direct) proposes demoting @p vpn out of DRAM.
     * The policy may allow it, veto it (the page stays; reclaim skips
     * it this pass), or redirect reclaim to a different DRAM page --
     * the mechanism AutoTiering-style exchange policies use to protect
     * recently promoted pages from immediate demotion.
     */
    virtual DemotionDecision
    onDemotionRequest(PageNum vpn, Cycles now, const PageMeta &meta,
                      bool direct)
    {
        (void)vpn;
        (void)now;
        (void)meta;
        (void)direct;
        return DemotionDecision::allow();
    }

    /**
     * The memory-failure handler retired a frame on @p node (soft
     * offline past the CE threshold, or the uncorrectable hard path).
     * The tier's effective capacity shrank by one page; scanning
     * policies use this to back off promotions into an eroding tier.
     *
     * @param vpn the page that lived on the poisoned frame.
     * @param node tier of the retired frame.
     * @param uncorrectable true for the UE hard path, false for a
     *        CE-threshold soft offline.
     */
    virtual void
    onMemoryFailure(PageNum vpn, MemNode node, bool uncorrectable,
                    Cycles now)
    {
        (void)vpn;
        (void)node;
        (void)uncorrectable;
        (void)now;
    }

    /**
     * khugepaged collapsed the 4 KiB range at @p base_vpn into a PMD
     * mapping. Hotness state the policy tracked per 4 KiB page now
     * aggregates to the whole range.
     */
    virtual void
    onThpCollapse(PageNum base_vpn, Cycles now)
    {
        (void)base_vpn;
        (void)now;
    }

    /**
     * The PMD mapping at @p base_vpn was split back into 4 KiB PTEs
     * (demand split: a tiering decision straddled the huge page).
     */
    virtual void
    onThpSplit(PageNum base_vpn, Cycles now)
    {
        (void)base_vpn;
        (void)now;
    }

    /** Policy-private cumulative counters for reports/CSV export. */
    virtual std::vector<PolicyCounter> snapshotStats() const { return {}; }

    /**
     * The policy's access feed, or nullptr (the default) when it does
     * not watch accesses. The engine attaches it as an access observer
     * for the machine's whole life.
     */
    virtual AccessObserver *accessObserver() { return nullptr; }

    // -- Live tunable control plane -----------------------------------

    /**
     * Register this policy's live-adjustable tunables into @p registry
     * (keyed exactly like the "--tunable key=value" CLI surface, owner
     * tag == name()). PolicyRegistry::create calls it once right after
     * construction, then applies the "--tunable" assignments to the
     * keys it registered; policies without tunables keep the default
     * no-op.
     */
    virtual void registerTunables(TunableRegistry &registry)
    {
        (void)registry;
    }

    /**
     * Period of @ref epochTick in cycles; 0 (the default) disables the
     * epoch service entirely, so non-tuning policies cost nothing.
     */
    virtual Cycles epochPeriod() const { return 0; }

    /**
     * Per-epoch observation callback: the engine hands the policy a
     * fresh cumulative @ref MetricsView every @ref epochPeriod cycles.
     * Online tuners diff consecutive views and adjust tunables here.
     */
    virtual void
    epochTick(Cycles now, const MetricsView &mv)
    {
        (void)now;
        (void)mv;
    }
};

/** Implemented by the mmap tracker (syscall_intercept equivalent). */
class SyscallObserver
{
  public:
    virtual ~SyscallObserver() = default;

    /** An mmap created [addr, addr+bytes) for @p object at @p site. */
    virtual void onMmap(Cycles now, Addr addr, std::uint64_t bytes,
                        ObjectId object, const std::string &site) = 0;

    /** The region starting at @p addr was unmapped. */
    virtual void onMunmap(Cycles now, Addr addr, std::uint64_t bytes,
                          ObjectId object) = 0;
};

}  // namespace memtier

#endif  // MEMTIER_OS_KERNEL_HOOKS_H_
