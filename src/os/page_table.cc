#include "os/page_table.h"

#include "base/logging.h"

namespace memtier {

namespace {

/** Pages in a 48-bit virtual address space: bounds the directory. */
constexpr PageNum kMaxVpn = PageNum{1} << (48 - kPageShift);

}  // namespace

PageTable::Leaf &
PageTable::leafFor(PageNum vpn)
{
    MEMTIER_ASSERT(vpn < kMaxVpn, "vpn beyond the 48-bit address space");
    const PageNum d = vpn >> kPagesPerHugeShift;
    if (d >= dir.size())
        dir.resize(d + 1);
    if (!dir[d])
        dir[d] = std::make_unique<Leaf>();
    return *dir[d];
}

void
PageTable::releaseIfEmpty(PageNum vpn)
{
    std::unique_ptr<Leaf> &l = dir[vpn >> kPagesPerHugeShift];
    if (l->live == 0 && !l->hasPmd)
        l.reset();
}

PageMeta &
PageTable::insert(PageNum vpn)
{
    Leaf &l = leafFor(vpn);
    const std::uint64_t s = slotOf(vpn);
    MEMTIER_ASSERT(!l.mapped(s), "page already mapped");
    l.bits[s >> 6] |= std::uint64_t{1} << (s & 63);
    ++l.live;
    ++ptes;
    l.pte[s] = PageMeta{};
    return l.pte[s];
}

void
PageTable::erase(PageNum vpn)
{
    Leaf *l = leafOf(vpn);
    const std::uint64_t s = slotOf(vpn);
    MEMTIER_ASSERT(l != nullptr && l->mapped(s), "erasing unmapped page");
    l->bits[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    --l->live;
    --ptes;
    releaseIfEmpty(vpn);
}

PageMeta &
PageTable::insertHuge(PageNum base_vpn)
{
    MEMTIER_ASSERT(isHugeBase(base_vpn), "PMD entry must be 2MiB-aligned");
    Leaf &l = leafFor(base_vpn);
    MEMTIER_ASSERT(!l.hasPmd, "huge range already mapped");
    l.hasPmd = true;
    ++pmds;
    l.pmd = PageMeta{};
    l.pmd.huge = true;
    return l.pmd;
}

void
PageTable::eraseHuge(PageNum base_vpn)
{
    Leaf *l = leafOf(base_vpn);
    MEMTIER_ASSERT(isHugeBase(base_vpn) && l != nullptr && l->hasPmd,
                   "erasing unmapped huge range");
    l->hasPmd = false;
    --pmds;
    releaseIfEmpty(base_vpn);
}

}  // namespace memtier
