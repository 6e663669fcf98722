#include "cache/set_assoc_cache.h"

#include "base/logging.h"

namespace memtier {

namespace {

std::uint64_t
setCount(const std::string &name, std::uint64_t size_bytes, unsigned ways)
{
    MEMTIER_ASSERT(ways > 0, "cache needs at least one way");
    if (ways > LruSets<1>::kMaxSlotWays) {
        fatal("cache %s has %u ways; at most %u are supported",
              name.c_str(), ways, LruSets<1>::kMaxSlotWays);
    }
    MEMTIER_ASSERT(size_bytes % (ways * kLineSize) == 0,
                   "cache size must be a multiple of ways * line size");
    return size_bytes / (ways * kLineSize);
}

}  // namespace

SetAssocCache::SetAssocCache(std::string name, std::uint64_t size_bytes,
                             unsigned ways)
    : label(std::move(name)), lines(setCount(label, size_bytes, ways), ways)
{
}

void
SetAssocCache::invalidate(Addr line)
{
    lines.invalidate(key(line, false));
}

void
SetAssocCache::clear()
{
    lines.clear();
}

}  // namespace memtier
