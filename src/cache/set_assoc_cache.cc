#include "cache/set_assoc_cache.h"

#include "base/logging.h"

namespace memtier {

namespace {

std::uint64_t
setCount(std::uint64_t size_bytes, unsigned ways)
{
    MEMTIER_ASSERT(ways > 0, "cache needs at least one way");
    MEMTIER_ASSERT(size_bytes % (ways * kLineSize) == 0,
                   "cache size must be a multiple of ways * line size");
    return size_bytes / (ways * kLineSize);
}

}  // namespace

SetAssocCache::SetAssocCache(std::string name, std::uint64_t size_bytes,
                             unsigned ways)
    : label(std::move(name)), lines(setCount(size_bytes, ways), ways)
{
}

void
SetAssocCache::accessRepeats(Addr line, std::uint64_t count,
                             bool any_write)
{
    MEMTIER_DEBUG_ASSERT(count > 0, "repeat accounting for zero accesses");
    const bool found = lines.touch(key(line, any_write));
    MEMTIER_ASSERT(found, "repeat accounting for a non-resident line");
    hit_count += count;
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
