/**
 * @file
 * Per-process page table: virtual page -> frame/tier plus the metadata
 * AutoNUMA tiering needs (PROT_NONE scan marker, scan timestamp) and the
 * metadata reclaim needs (recency stamp, owner, pin state).
 */

#ifndef MEMTIER_OS_PAGE_TABLE_H_
#define MEMTIER_OS_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.h"
#include "mem/memory_tier.h"

namespace memtier {

/**
 * Metadata of one mapped page. A huge (PMD) entry uses the same record:
 * @ref huge is set, @ref frame is the 512-frame-aligned base frame, and
 * the entry is keyed by the 2 MiB-aligned base vpn in the huge table.
 */
struct PageMeta
{
    FrameNum frame = 0;          ///< Frame within the owning tier.
    MemNode node = MemNode::DRAM;
    FrameOwner owner = FrameOwner::App;
    bool present = false;
    bool protNone = false;       ///< Marked by the AutoNUMA scanner.
    bool pinned = false;         ///< mbind-bound; never migrated/scanned.
    bool promoted = false;       ///< Was promoted NVM->DRAM at least once.
    bool exchanged = false;      ///< Entered DRAM via a page exchange.
    bool huge = false;           ///< PMD mapping covering 512 base pages.
    Cycles scanTime = 0;         ///< When the scanner marked the page.
    Cycles lastAccess = 0;       ///< Updated on page-walk (A-bit model).
    Cycles clockStamp = 0;       ///< Last visit of the reclaim clock hand.
};

/**
 * Two-level radix page table shaped like x86's PMD/PTE levels: a
 * directory indexed by `vpn >> kPagesPerHugeShift` owns one heap leaf
 * per populated 2 MiB range, and each leaf holds that range's 512 PTE
 * slots, a mapped bitmap and the range's PMD entry. A lookup is one
 * directory index plus one bitmap test.
 *
 * A virtual page is mapped by at most one of a PTE and its range's PMD
 * (the invariant checker enforces it). A leaf is released only once it
 * holds neither, so a PageMeta pointer stays valid until its own entry
 * is erased, whatever else in the range is inserted or erased.
 */
class PageTable
{
  public:
    /** Metadata of @p vpn, or nullptr when unmapped. */
    PageMeta *
    find(PageNum vpn)
    {
        Leaf *l = leafOf(vpn);
        const std::uint64_t s = slotOf(vpn);
        return l != nullptr && l->mapped(s) ? &l->pte[s] : nullptr;
    }

    /** Const lookup. */
    const PageMeta *
    find(PageNum vpn) const
    {
        const Leaf *l = leafOf(vpn);
        const std::uint64_t s = slotOf(vpn);
        return l != nullptr && l->mapped(s) ? &l->pte[s] : nullptr;
    }

    /** Insert a fresh entry for @p vpn (must not exist). */
    PageMeta &insert(PageNum vpn);

    /** Remove @p vpn's entry (must exist). */
    void erase(PageNum vpn);

    /** PMD entry covering @p vpn (any page of the range), or nullptr. */
    PageMeta *
    findHuge(PageNum vpn)
    {
        Leaf *l = leafOf(vpn);
        return l != nullptr && l->hasPmd ? &l->pmd : nullptr;
    }

    /** Const PMD lookup. */
    const PageMeta *
    findHuge(PageNum vpn) const
    {
        const Leaf *l = leafOf(vpn);
        return l != nullptr && l->hasPmd ? &l->pmd : nullptr;
    }

    /** Insert a fresh PMD entry for the range at @p base_vpn. */
    PageMeta &insertHuge(PageNum base_vpn);

    /** Remove the PMD entry at @p base_vpn (must exist). */
    void eraseHuge(PageNum base_vpn);

    /** Number of mapped 4 KiB pages (PMD entries not included). */
    std::size_t size() const { return ptes; }

    /** Number of live PMD mappings. */
    std::size_t hugeSize() const { return pmds; }

    /** Visit every 4 KiB entry as fn(vpn, meta), in vpn order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t d = 0; d < dir.size(); ++d) {
            const Leaf *l = dir[d].get();
            if (l == nullptr)
                continue;
            const PageNum base = static_cast<PageNum>(d)
                                 << kPagesPerHugeShift;
            for (std::size_t w = 0; w < kWords; ++w) {
                for (std::uint64_t bits = l->bits[w]; bits != 0;
                     bits &= bits - 1) {
                    const std::uint64_t s =
                        w * 64 + static_cast<std::uint64_t>(
                                     __builtin_ctzll(bits));
                    fn(base + s, l->pte[s]);
                }
            }
        }
    }

    /** Visit every PMD entry as fn(base_vpn, meta), in vpn order. */
    template <typename Fn>
    void
    forEachHuge(Fn &&fn) const
    {
        for (std::size_t d = 0; d < dir.size(); ++d) {
            const Leaf *l = dir[d].get();
            if (l != nullptr && l->hasPmd)
                fn(static_cast<PageNum>(d) << kPagesPerHugeShift, l->pmd);
        }
    }

  private:
    static constexpr std::size_t kWords = kPagesPerHuge / 64;

    /** One 2 MiB range: its PTE slots and its PMD entry. */
    struct Leaf
    {
        std::array<PageMeta, kPagesPerHuge> pte;
        std::array<std::uint64_t, kWords> bits{};  ///< Mapped PTE slots.
        std::uint32_t live = 0;                    ///< Set bits.
        bool hasPmd = false;
        PageMeta pmd;

        bool
        mapped(std::uint64_t s) const
        {
            return (bits[s >> 6] >> (s & 63)) & 1;
        }
    };

    static std::uint64_t
    slotOf(PageNum vpn)
    {
        return vpn & (kPagesPerHuge - 1);
    }

    Leaf *
    leafOf(PageNum vpn) const
    {
        const PageNum d = vpn >> kPagesPerHugeShift;
        return d < dir.size() ? dir[d].get() : nullptr;
    }

    /** Leaf of @p vpn's range, allocated (and the directory grown) on
     *  first use. */
    Leaf &leafFor(PageNum vpn);

    /** Free @p vpn's leaf once it maps nothing. */
    void releaseIfEmpty(PageNum vpn);

    std::vector<std::unique_ptr<Leaf>> dir;
    std::size_t ptes = 0;
    std::size_t pmds = 0;
};

}  // namespace memtier

#endif  // MEMTIER_OS_PAGE_TABLE_H_
