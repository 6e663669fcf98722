/**
 * @file
 * Process virtual address space: VMAs created by mmap, destroyed by
 * munmap, and re-policied by mbind, as intercepted by the paper's
 * syscall_intercept methodology (Section 3.2).
 */

#ifndef MEMTIER_OS_ADDRESS_SPACE_H_
#define MEMTIER_OS_ADDRESS_SPACE_H_

#include <cstdint>
#include <map>
#include <string>

#include "base/types.h"
#include "os/mem_policy.h"

namespace memtier {

/** One virtual memory area created by a single mmap call. */
struct Vma
{
    Addr start = 0;       ///< First byte (page aligned).
    Addr end = 0;         ///< One past the last byte (page aligned).
    std::uint64_t bytes = 0;  ///< Requested length (end rounds it up).
    MemPolicy policy;     ///< Placement policy for pages in the region.
    ObjectId object = kNoObject;  ///< Tracked memory object id.
    std::string site;     ///< Allocation call-site tag ("call stack").
    bool pageCache = false;  ///< Kernel page-cache range (not scanned).

    std::uint64_t pages() const { return (end - start) >> kPageShift; }
    bool contains(Addr a) const { return a >= start && a < end; }
};

/** VMA container with a bump virtual-address allocator. */
class AddressSpace
{
  public:
    AddressSpace();

    /**
     * Create a VMA of @p bytes (rounded up to pages).
     * @param bytes requested size.
     * @param object tracked object id for the region.
     * @param site allocation-site tag recorded on the VMA.
     * @param page_cache true for kernel page-cache ranges.
     * @return the region's start address.
     */
    Addr mmap(std::uint64_t bytes, ObjectId object,
              const std::string &site, bool page_cache = false);

    /**
     * Remove the VMA starting at @p start (whole-region munmap, which is
     * how the tracked applications free objects).
     * @return the removed VMA.
     */
    Vma munmap(Addr start);

    /** Apply @p policy to the VMA starting at @p start. */
    void mbind(Addr start, const MemPolicy &policy);

    /** VMA covering @p addr, or nullptr. */
    const Vma *find(Addr addr) const;

    /** VMA starting exactly at @p start, or nullptr. */
    const Vma *findExact(Addr start) const;

    /** All VMAs keyed by start address. */
    const std::map<Addr, Vma> &vmas() const { return regions; }

    /**
     * Align future VMA starts to 2 MiB (THP mode) so collapse-eligible
     * PMD ranges exist. Off by default: the page-aligned legacy layout
     * is part of the bit-identical 4 KiB-mode contract.
     */
    void setHugeAlignment(bool on) { hugeAlign = on; }

    /** Whether VMA starts are 2 MiB-aligned. */
    bool hugeAlignment() const { return hugeAlign; }

  private:
    std::map<Addr, Vma> regions;
    Addr nextAddr;
    bool hugeAlign = false;
};

}  // namespace memtier

#endif  // MEMTIER_OS_ADDRESS_SPACE_H_
