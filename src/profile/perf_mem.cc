#include "profile/perf_mem.h"

#include "base/logging.h"

namespace memtier {

PerfMemSampler::PerfMemSampler(const SamplerParams &params)
    : cfg(params), rng(params.seed)
{
}

std::uint32_t
PerfMemSampler::nextGap()
{
    const std::uint32_t jitter = cfg.period / 8;
    if (jitter == 0)
        return cfg.period;
    const auto delta =
        static_cast<std::uint32_t>(rng.nextBounded(2 * jitter + 1));
    return cfg.period - jitter + delta;
}

void
PerfMemSampler::onAccess(const AccessRecord &record)
{
    sample(record);
}

void
PerfMemSampler::passOver(ThreadId tid, std::uint64_t n)
{
    MEMTIER_ASSERT(n <= loadsToSkip(tid),
                   "passOver past the next due load");
    if (n == 0)
        return;  // tid may be a thread this sampler has not seen.
    countdown[tid] -= static_cast<std::uint32_t>(n);
    loads_seen += n;
}

void
PerfMemSampler::sample(const AccessRecord &record)
{
    if (record.op == MemOp::Store && !cfg.recordStores)
        return;
    if (record.op == MemOp::Load)
        ++loads_seen;

    if (record.tid >= countdown.size())
        countdown.resize(record.tid + 1, 0);
    auto &left = countdown[record.tid];
    if (left > 0) {
        --left;
        return;
    }
    left = nextGap();

    MemorySample s;
    s.time = record.time;
    s.vaddr = record.vaddr;
    s.latency = record.latency;
    s.tid = record.tid;
    // perf-mem resolves the data source of stores only at L1.
    s.level = record.op == MemOp::Store ? MemLevel::L1 : record.level;
    s.tlbMiss = record.tlbMiss;
    store.push_back(s);
}

}  // namespace memtier
