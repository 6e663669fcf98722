/**
 * @file
 * PerfMemSampler: the perf-mem equivalent. Counts every load the
 * engine executes and records every N-th one per thread (sampling, not
 * tracing -- Section 3.1 stresses that tracing all accesses is not
 * practical, and neither is keeping them all in a simulator run).
 * Unless it records stores, it takes the load-skip contract, so the
 * engine builds a record only for the loads it keeps.
 */

#ifndef MEMTIER_PROFILE_PERF_MEM_H_
#define MEMTIER_PROFILE_PERF_MEM_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "profile/sample.h"
#include "sim/access_observer.h"

namespace memtier {

/** Sampler configuration. */
struct SamplerParams
{
    /** Mean loads between samples per thread (prime avoids striding). */
    std::uint32_t period = 61;

    /** Also record stores (perf-mem sees stores only at L1). */
    bool recordStores = false;

    /** Jitter seed; sampling gaps vary +-period/8 deterministically. */
    std::uint64_t seed = 0x5eed5a;
};

/** Sampling observer; owns the collected samples. */
class PerfMemSampler : public AccessObserver
{
  public:
    /** @param params sampling configuration. */
    explicit PerfMemSampler(const SamplerParams &params = SamplerParams{});

    /** AccessObserver: maybe record this access. */
    void onAccess(const AccessRecord &record) override;

    /**
     * AccessObserver: consume a whole batch with one virtual dispatch;
     * per element only the non-virtual sampling filter runs.
     */
    void
    onBatch(const AccessRecord *records, std::size_t count) override
    {
        for (std::size_t i = 0; i < count; ++i)
            sample(records[i]);
    }

    /** AccessObserver: takes the load-skip contract unless stores are
     *  recorded. */
    bool skipsLoads() const override { return !cfg.recordStores; }

    /** AccessObserver: loads of @p tid before its next sample. */
    std::uint64_t
    loadsToSkip(ThreadId tid) const override
    {
        return tid < countdown.size() ? countdown[tid] : 0;
    }

    /**
     * AccessObserver: @p n unsampled loads of @p tid, counted exactly
     * as sample() counts them; no gap is drawn, so the draws stay in
     * sample order.
     */
    void passOver(ThreadId tid, std::uint64_t n) override;

    /** Collected samples in completion order per thread interleaving. */
    const std::vector<MemorySample> &samples() const { return store; }

    /** Move the samples out (ends this sampler's usefulness). */
    std::vector<MemorySample> takeSamples() { return std::move(store); }

    /** Total loads observed (sampled or not). */
    std::uint64_t loadsSeen() const { return loads_seen; }

  private:
    /** Sampling filter shared by the scalar and batch entry points. */
    void sample(const AccessRecord &record);

    SamplerParams cfg;
    Rng rng;
    std::vector<std::uint32_t> countdown;  ///< Per thread.
    std::vector<MemorySample> store;
    std::uint64_t loads_seen = 0;

    std::uint32_t nextGap();
};

}  // namespace memtier

#endif  // MEMTIER_PROFILE_PERF_MEM_H_
