#include "os/address_space.h"

#include "base/logging.h"

namespace memtier {

namespace {

/** Base of the simulated mmap area (clear of the null page and heap). */
constexpr Addr kMmapBase = 0x1'0000'0000ULL;

}  // namespace

AddressSpace::AddressSpace() : nextAddr(kMmapBase)
{
}

Addr
AddressSpace::mmap(std::uint64_t bytes, ObjectId object,
                   const std::string &site, bool page_cache)
{
    MEMTIER_ASSERT(bytes > 0, "mmap of zero bytes");
    const std::uint64_t pages = roundUpPages(bytes);

    // THP mode places regions on PMD boundaries (the kernel's
    // thp_get_unmapped_area behaviour); without it a region start is
    // only page-aligned and almost never begins a 2 MiB range.
    if (hugeAlign)
        nextAddr = roundUpHuge(nextAddr);

    Vma vma;
    vma.start = nextAddr;
    vma.end = nextAddr + pages * kPageSize;
    vma.bytes = bytes;
    vma.object = object;
    vma.site = site;
    vma.pageCache = page_cache;
    regions.emplace(vma.start, vma);

    // Leave one guard page between regions so adjacent objects never
    // share a page (keeps sample->object mapping unambiguous).
    nextAddr = vma.end + kPageSize;
    return vma.start;
}

Vma
AddressSpace::munmap(Addr start)
{
    auto it = regions.find(start);
    MEMTIER_ASSERT(it != regions.end(), "munmap of unknown region");
    Vma vma = it->second;
    regions.erase(it);
    return vma;
}

void
AddressSpace::mbind(Addr start, const MemPolicy &policy)
{
    auto it = regions.find(start);
    MEMTIER_ASSERT(it != regions.end(), "mbind of unknown region");
    it->second.policy = policy;
}

const Vma *
AddressSpace::find(Addr addr) const
{
    auto it = regions.upper_bound(addr);
    if (it == regions.begin())
        return nullptr;
    --it;
    return it->second.contains(addr) ? &it->second : nullptr;
}

const Vma *
AddressSpace::findExact(Addr start) const
{
    auto it = regions.find(start);
    return it == regions.end() ? nullptr : &it->second;
}

}  // namespace memtier
