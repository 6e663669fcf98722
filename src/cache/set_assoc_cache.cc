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

CacheEviction
SetAssocCache::evictionOf(const Lines::Victim &victim)
{
    CacheEviction evicted;
    if (victim.valid) {
        evicted.valid = true;
        evicted.line = victim.key >> 1;
        evicted.dirty = victim.key & 1;
        if (evicted.dirty)
            ++writeback_count;
    }
    return evicted;
}

bool
SetAssocCache::access(Addr line, bool is_write)
{
    if (lines.touch(key(line, is_write))) {
        ++hit_count;
        return true;
    }
    ++miss_count;
    return false;
}

CacheEviction
SetAssocCache::insert(Addr line, bool dirty)
{
    return evictionOf(lines.insert(key(line, dirty)));
}

bool
SetAssocCache::accessOrInsert(Addr line, bool dirty, CacheEviction &evicted)
{
    Lines::Victim victim;
    if (lines.touchOrInsert(key(line, dirty), victim)) {
        ++hit_count;
        return true;
    }
    ++miss_count;
    evicted = evictionOf(victim);
    return false;
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

bool
SetAssocCache::contains(Addr line) const
{
    return lines.contains(key(line, false));
}

}  // namespace memtier
