/**
 * @file
 * Unit tests for the simulation engine: access path levels and costs,
 * fault integration, thread interleaving, barriers, services, TLB
 * shootdown, the timeline and the observers' load-skip contract.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "base/rng.h"
#include "sim/engine.h"

namespace memtier {
namespace {

/** Small deterministic machine for engine tests. */
SystemConfig
tinyConfig(std::uint32_t threads = 4)
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(512 * kPageSize);
    cfg.nvm = makeNvmParams(2048 * kPageSize);
    cfg.numThreads = threads;
    return cfg;
}

/** Records every access the engine reports. */
class RecordingObserver : public AccessObserver
{
  public:
    void onAccess(const AccessRecord &r) override { records.push_back(r); }
    std::vector<AccessRecord> records;
};

TEST(Engine, FirstAccessFaultsToDram)
{
    Engine eng(tinyConfig());
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 64 * kPageSize, 0, "obj");
    eng.load(t, a);
    EXPECT_EQ(eng.kernel().vmstat().pgfault, 1u);
    EXPECT_EQ(eng.kernel().nodeOf(pageOf(a)), MemNode::DRAM);
    EXPECT_EQ(eng.levelCount(MemLevel::DRAM), 1u);
}

TEST(Engine, RepeatAccessHitsL1)
{
    Engine eng(tinyConfig());
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, kPageSize, 0, "obj");
    eng.load(t, a);
    const Cycles before = t.clock();
    eng.load(t, a);
    const Cycles hit_cost = t.clock() - before;
    // L1 hit (or LFB residency window): small cost.
    EXPECT_LE(hit_cost, eng.config().issueCycles +
                            eng.config().cache.l3Latency);
    EXPECT_GE(eng.levelCount(MemLevel::L1) +
                  eng.levelCount(MemLevel::LFB),
              1u);
}

TEST(Engine, NvmAccessSlowerThanDram)
{
    SystemConfig cfg = tinyConfig();
    Engine eng(cfg);
    ThreadContext &t = eng.thread(0);

    const Addr dram_obj = eng.sysMmap(t, kPageSize, 0, "d");
    eng.kernel().mbind(dram_obj, MemPolicy::bind(MemNode::DRAM));
    const Addr nvm_obj = eng.sysMmap(t, kPageSize, 1, "n");
    eng.kernel().mbind(nvm_obj, MemPolicy::bind(MemNode::NVM));

    // Fault both in, then measure a cold (post-flush) load from each.
    eng.load(t, dram_obj);
    eng.load(t, nvm_obj);
    t.l1.clear();
    t.l2.clear();
    t.lfb = LineFillBuffer();

    Cycles c0 = t.clock();
    eng.load(t, dram_obj + 8 * kLineSize);
    const Cycles dram_cost = t.clock() - c0;
    t.l1.clear();
    t.l2.clear();
    c0 = t.clock();
    eng.load(t, nvm_obj + 8 * kLineSize);
    const Cycles nvm_cost = t.clock() - c0;

    EXPECT_GT(nvm_cost, dram_cost);
    EXPECT_EQ(eng.levelCount(MemLevel::NVM), 2u);
}

TEST(Engine, TlbMissReportedOnFirstTouch)
{
    Engine eng(tinyConfig());
    RecordingObserver obs;
    eng.setObserver(&obs);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, kPageSize, 0, "obj");
    eng.load(t, a);
    eng.load(t, a);
    ASSERT_EQ(obs.records.size(), 2u);
    EXPECT_TRUE(obs.records[0].tlbMiss);
    EXPECT_FALSE(obs.records[1].tlbMiss);
}

TEST(Engine, ShootdownInvalidatesAllThreads)
{
    Engine eng(tinyConfig(3));
    ThreadContext &t0 = eng.thread(0);
    const Addr a = eng.sysMmap(t0, kPageSize, 0, "obj");
    for (std::uint32_t i = 0; i < 3; ++i)
        eng.load(eng.thread(i), a);
    eng.tlbShootdown(pageOf(a));
    RecordingObserver obs;
    eng.setObserver(&obs);
    for (std::uint32_t i = 0; i < 3; ++i)
        eng.load(eng.thread(i), a);
    for (const auto &r : obs.records)
        EXPECT_TRUE(r.tlbMiss);
}

/** Set @p name to @p value for one scope, then restore it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (old_)
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(Engine, EnvOverridesRejectTypos)
{
    // Each override fatal()s before the kernel exists, so no machine
    // (and no copy-worker pool) is ever built from a bad value.
    const std::pair<const char *, const char *> bad[] = {
        {"MEMTIER_THP", "true"},
        {"MEMTIER_SCALAR_PATH", "enabled"},
        {"MEMTIER_CHECK_INVARIANTS", "yes"},
        {"MEMTIER_COPY_THREADS", "0"},
        {"MEMTIER_COPY_THREADS", "65"},
        {"MEMTIER_COPY_THREADS", "four"},
    };
    for (const auto &[name, value] : bad) {
        EXPECT_DEATH(
            {
                setenv(name, value, 1);
                Engine eng(tinyConfig(1));
            },
            std::string(name) + "='" + value + "'")
            << name << "=" << value;
    }
}

TEST(Engine, CopyThreadsOverrideSizesTheCopyEngine)
{
    const ScopedEnv env("MEMTIER_COPY_THREADS", "3");
    Engine eng(tinyConfig(1));
    EXPECT_EQ(eng.kernel().copyEngine().params().workers, 3u);
}

TEST(Engine, ParallelForCoversRangeExactlyOnce)
{
    Engine eng(tinyConfig(5));
    std::vector<int> hits(1000, 0);
    eng.parallelFor(1000, [&](ThreadContext &, std::uint64_t i) {
        ++hits[i];
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Engine, ParallelForPartitionsAcrossThreads)
{
    Engine eng(tinyConfig(4));
    std::vector<std::uint64_t> per_thread(4, 0);
    eng.parallelFor(100, [&](ThreadContext &t, std::uint64_t) {
        ++per_thread[t.id()];
    });
    for (const auto count : per_thread)
        EXPECT_EQ(count, 25u);
}

TEST(Engine, ParallelForBarrierAlignsClocks)
{
    Engine eng(tinyConfig(4));
    ThreadContext &t0 = eng.thread(0);
    const Addr a = eng.sysMmap(t0, 64 * kPageSize, 0, "obj");
    eng.parallelFor(64, [&](ThreadContext &t, std::uint64_t i) {
        eng.store(t, a + i * kLineSize * 7 % (64 * kPageSize));
    });
    const Cycles c = eng.thread(0).clock();
    for (std::uint32_t i = 1; i < 4; ++i)
        EXPECT_EQ(eng.thread(i).clock(), c);
}

TEST(Engine, ParallelForDeterministic)
{
    auto run = [] {
        Engine eng(tinyConfig(4));
        ThreadContext &t0 = eng.thread(0);
        const Addr a = eng.sysMmap(t0, 256 * kPageSize, 0, "obj");
        eng.parallelFor(4096, [&](ThreadContext &t, std::uint64_t i) {
            eng.store(t, a + (i * 97) % (256 * kPageSize));
        });
        return eng.globalTime();
    };
    EXPECT_EQ(run(), run());
}

TEST(Engine, ParallelForEmptyRange)
{
    Engine eng(tinyConfig());
    const Cycles before = eng.globalTime();
    eng.parallelFor(0, [&](ThreadContext &, std::uint64_t) {
        FAIL() << "body must not run";
    });
    EXPECT_EQ(eng.globalTime(), before);
}

TEST(Engine, ParallelForFewerItemsThanThreads)
{
    Engine eng(tinyConfig(8));
    int runs = 0;
    eng.parallelFor(3, [&](ThreadContext &, std::uint64_t) { ++runs; });
    EXPECT_EQ(runs, 3);
}

TEST(Engine, StoresAllocateAndDirtyWritebacksFlow)
{
    SystemConfig cfg = tinyConfig(1);
    Engine eng(cfg);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 256 * kPageSize, 0, "obj");
    // Write a working set far larger than L1+L2+L3 to force dirty
    // evictions all the way to memory.
    for (Addr off = 0; off < 256 * kPageSize; off += kLineSize)
        eng.store(t, a + off);
    for (Addr off = 0; off < 256 * kPageSize; off += kLineSize)
        eng.store(t, a + off);
    EXPECT_GT(eng.thread(0).l1.writebacks() +
                  eng.thread(0).l2.writebacks() +
                  eng.sharedL3().writebacks(),
              0u);
}

TEST(Engine, TimelineSamplesAdvance)
{
    SystemConfig cfg = tinyConfig(2);
    cfg.timelinePeriod = secondsToCycles(0.0001);
    Engine eng(cfg);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 128 * kPageSize, 0, "obj");
    for (Addr off = 0; off < 128 * kPageSize; off += kLineSize)
        eng.store(t, a + off);
    ASSERT_GT(eng.timeline().size(), 2u);
    double prev = -1.0;
    for (const auto &p : eng.timeline()) {
        EXPECT_GT(p.sec, prev);
        prev = p.sec;
    }
}

TEST(Engine, KswapdServiceRunsUnderPressure)
{
    SystemConfig cfg = tinyConfig(1);
    cfg.dram = makeDramParams(128 * kPageSize);
    cfg.kswapdPeriod = secondsToCycles(0.0001);
    Engine eng(cfg);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 256 * kPageSize, 0, "obj");
    for (Addr off = 0; off < 256 * kPageSize; off += kPageSize)
        eng.store(t, a + off);
    // Drive time forward so kswapd ticks fire.
    for (Addr off = 0; off < 256 * kPageSize; off += kLineSize)
        eng.load(t, a + off);
    EXPECT_GT(eng.kernel().vmstat().pgdemoteKswapd, 0u);
}

TEST(Engine, FileReadPopulatesPageCache)
{
    Engine eng(tinyConfig(1));
    ThreadContext &t = eng.thread(0);
    const Addr f = eng.registerFile(8 * kPageSize, "in.sg");
    const Cycles before = t.clock();
    eng.fileReadPage(t, pageOf(f));
    EXPECT_GT(t.clock(), before);  // Disk fetch charged.
    const Cycles mid = t.clock();
    eng.fileReadPage(t, pageOf(f));
    EXPECT_EQ(t.clock(), mid);  // Cached: free.
    EXPECT_EQ(eng.kernel().numastat().cachePages[0], 1u);
}

TEST(Engine, GlobalTimeIsMaxClock)
{
    Engine eng(tinyConfig(3));
    eng.thread(1).setClock(5000);
    EXPECT_EQ(eng.globalTime(), 5000u);
    eng.barrier();
    EXPECT_GE(eng.thread(0).clock(), 5000u);
}

TEST(Engine, ObserverLatencyPositive)
{
    Engine eng(tinyConfig(1));
    RecordingObserver obs;
    eng.setObserver(&obs);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, kPageSize, 0, "obj");
    eng.load(t, a);
    ASSERT_EQ(obs.records.size(), 1u);
    EXPECT_GT(obs.records[0].latency, 0u);
    EXPECT_EQ(obs.records[0].level, MemLevel::DRAM);
    EXPECT_EQ(obs.records[0].op, MemOp::Load);
}

TEST(Engine, AutonumaDisabledHasNoPolicy)
{
    SystemConfig cfg = tinyConfig(1);
    cfg.autonumaEnabled = false;
    Engine eng(cfg);
    EXPECT_EQ(eng.autonuma(), nullptr);
}

TEST(Engine, AutonumaEnabledScansEventually)
{
    SystemConfig cfg = tinyConfig(1);
    cfg.autonuma.scanPeriod = secondsToCycles(0.0001);
    Engine eng(cfg);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 64 * kPageSize, 0, "obj");
    for (int pass = 0; pass < 20; ++pass) {
        for (Addr off = 0; off < 64 * kPageSize; off += kLineSize)
            eng.load(t, a + off);
    }
    ASSERT_NE(eng.autonuma(), nullptr);
    EXPECT_GT(eng.autonuma()->stats().pagesScanned, 0u);
    EXPECT_GT(eng.kernel().vmstat().numaHintFaults, 0u);
}

// ------------------------------------------------- Load-skip contract
//
// An observer under the load-skip contract must keep exactly the records
// it would keep if it saw every access, get no record it did not ask
// for, and leave every simulated value as it was.

/**
 * Keeps the first load of each thread and then every gap-th one, as a
 * sampler with a fixed period does; takes the load-skip contract when
 * built with @p skips. Counts every record delivered to it.
 */
class GapObserver : public AccessObserver
{
  public:
    GapObserver(std::uint64_t gap, bool skips) : gap_(gap), skips_(skips)
    {
    }

    void
    onAccess(const AccessRecord &r) override
    {
        ++delivered;
        if (r.op != MemOp::Load) {
            ++storesDelivered;
            return;
        }
        ++loads;
        std::uint64_t &left = leftFor(r.tid);
        if (left > 0) {
            --left;
            return;
        }
        left = gap_ - 1;
        kept.push_back(r);
    }

    bool skipsLoads() const override { return skips_; }

    std::uint64_t
    loadsToSkip(ThreadId tid) const override
    {
        return tid < left_.size() ? left_[tid] : 0;
    }

    void
    passOver(ThreadId tid, std::uint64_t n) override
    {
        EXPECT_GT(n, 0u);
        EXPECT_LE(n, loadsToSkip(tid));
        leftFor(tid) -= n;
        loads += n;
    }

    std::vector<AccessRecord> kept;
    std::uint64_t delivered = 0;
    std::uint64_t storesDelivered = 0;
    std::uint64_t loads = 0;

  private:
    std::uint64_t &
    leftFor(ThreadId tid)
    {
        if (tid >= left_.size())
            left_.resize(tid + 1, 0);
        return left_[tid];
    }

    std::uint64_t gap_;
    bool skips_;
    std::vector<std::uint64_t> left_;
};

/** Two threads on a DRAM tier smaller than the data, scanned often
 *  enough that services and remaps fire inside access calls. */
SystemConfig
skipConfig()
{
    SystemConfig cfg = tinyConfig(2);
    cfg.dram = makeDramParams(64 * kPageSize);
    cfg.autonuma.scanPeriod = secondsToCycles(0.00002);
    return cfg;
}

/**
 * Every bulk form on both threads in turn: mixed-op batches of
 * same-line runs, load and store ranges, gathers and scatters with
 * same-line neighbours, and single loads and stores.
 */
void
runMixedScript(Engine &eng)
{
    constexpr std::uint64_t kPages = 96;
    const Addr a = eng.sysMmap(eng.thread(0), kPages * kPageSize, 0, "obj");
    const std::uint64_t words = kPages * kPageSize / 8;
    Rng rng(11);
    std::vector<AccessRequest> reqs;
    std::vector<Addr> addrs;
    for (int round = 0; round < 400; ++round) {
        ThreadContext &t = eng.thread(round % 2);
        reqs.clear();
        const std::uint64_t runs = 1 + rng.nextBounded(6);
        for (std::uint64_t r = 0; r < runs; ++r) {
            const Addr head = a + rng.nextBounded(words - 8) * 8;
            const std::uint64_t len = 1 + rng.nextBounded(5);
            for (std::uint64_t k = 0; k < len; ++k) {
                reqs.push_back({head + 8 * k, rng.nextBool(0.3)
                                                  ? MemOp::Store
                                                  : MemOp::Load});
            }
        }
        eng.accessBatch(t, reqs);

        const std::uint32_t stride = 8u << rng.nextBounded(4);
        const std::uint64_t count = 1 + rng.nextBounded(40);
        eng.accessRange(t, a + rng.nextBounded(words - 320) * 8, count,
                        stride,
                        round % 3 == 0 ? MemOp::Store : MemOp::Load);

        addrs.clear();
        const std::uint64_t n = 1 + rng.nextBounded(30);
        for (std::uint64_t k = 0; k < n; ++k) {
            const bool neighbour = !addrs.empty() && rng.nextBool(0.4) &&
                                   addrs.back() + 8 < a + words * 8;
            addrs.push_back(neighbour ? addrs.back() + 8
                                      : a + rng.nextBounded(words) * 8);
        }
        eng.accessMany(t, addrs,
                       round % 4 == 1 ? MemOp::Store : MemOp::Load);

        eng.load(t, a + rng.nextBounded(words) * 8);
        eng.store(t, a + rng.nextBounded(words) * 8);
    }
}

std::uint64_t
totalAccesses(const Engine &eng)
{
    std::uint64_t n = 0;
    for (int l = 0; l < kNumMemLevels; ++l)
        n += eng.levelCount(static_cast<MemLevel>(l));
    return n;
}

void
expectSameMachine(Engine &a, Engine &b)
{
    ASSERT_EQ(a.threadCount(), b.threadCount());
    for (std::uint32_t i = 0; i < a.threadCount(); ++i)
        EXPECT_EQ(a.thread(i).clock(), b.thread(i).clock()) << "thread " << i;
    for (int l = 0; l < kNumMemLevels; ++l) {
        EXPECT_EQ(a.levelCount(static_cast<MemLevel>(l)),
                  b.levelCount(static_cast<MemLevel>(l)))
            << "level " << l;
    }
    EXPECT_EQ(std::memcmp(&a.kernel().vmstat(), &b.kernel().vmstat(),
                          sizeof(VmStat)),
              0);
}

void
expectSameRecords(const std::vector<AccessRecord> &a,
                  const std::vector<AccessRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tid, b[i].tid) << "record " << i;
        EXPECT_EQ(a[i].vaddr, b[i].vaddr) << "record " << i;
        EXPECT_EQ(a[i].op, b[i].op) << "record " << i;
        EXPECT_EQ(a[i].level, b[i].level) << "record " << i;
        EXPECT_EQ(a[i].latency, b[i].latency) << "record " << i;
        EXPECT_EQ(a[i].tlbMiss, b[i].tlbMiss) << "record " << i;
        EXPECT_EQ(a[i].time, b[i].time) << "record " << i;
    }
}

TEST(LoadSkip, KeepsWhatRecordEverythingKeeps)
{
    for (const std::uint64_t gap : {1u, 3u, 7u, 61u}) {
        SCOPED_TRACE(gap);
        Engine ref_eng(skipConfig());
        GapObserver ref(gap, false);
        ref_eng.setObserver(&ref);
        runMixedScript(ref_eng);

        Engine eng(skipConfig());
        GapObserver obs(gap, true);
        eng.setObserver(&obs);
        runMixedScript(eng);

        expectSameMachine(ref_eng, eng);
        expectSameRecords(ref.kept, obs.kept);
        EXPECT_EQ(obs.loads, ref.loads);
        // The reference saw every access; the skipping observer got a
        // record of the loads it kept and of nothing else.
        EXPECT_EQ(ref.delivered, totalAccesses(ref_eng));
        EXPECT_EQ(obs.delivered, obs.kept.size());
        EXPECT_EQ(obs.storesDelivered, 0u);
        // The script reached memory on both tiers and the scanner ran.
        EXPECT_GT(eng.levelCount(MemLevel::NVM), 0u);
        EXPECT_GT(eng.kernel().vmstat().numaHintFaults, 0u);
    }
}

TEST(LoadSkip, CountdownStraddlesCalls)
{
    // Calls of 3 loads against a gap of 5: every countdown crosses at
    // least one call boundary, through each bulk form in turn.
    Engine eng(tinyConfig(1));
    GapObserver obs(5, true);
    eng.setObserver(&obs);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 4 * kPageSize, 0, "obj");
    std::vector<Addr> expected;
    for (std::uint64_t call = 0; call < 30; ++call) {
        const Addr base = a + call * 3 * 64;
        for (std::uint64_t k = 0; k < 3; ++k) {
            if ((call * 3 + k) % 5 == 0)
                expected.push_back(base + k * 64);
        }
        if (call % 3 == 0) {
            eng.accessRange(t, base, 3, 64, MemOp::Load);
        } else if (call % 3 == 1) {
            const Addr addrs[] = {base, base + 64, base + 128};
            eng.accessMany(t, addrs, MemOp::Load);
        } else {
            const AccessRequest reqs[] = {{base, MemOp::Load},
                                          {base + 64, MemOp::Load},
                                          {base + 128, MemOp::Load}};
            eng.accessBatch(t, reqs);
        }
    }
    ASSERT_EQ(obs.kept.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(obs.kept[i].vaddr, expected[i]) << "sample " << i;
    EXPECT_EQ(obs.loads, 90u);
    EXPECT_EQ(obs.delivered, obs.kept.size());
}

TEST(LoadSkip, TwoObserversGetTheSoonestDueLoad)
{
    Engine ref_eng(skipConfig());
    GapObserver ref3(3, false);
    GapObserver ref5(5, false);
    ref_eng.setObserver(&ref3);
    ref_eng.addObserver(&ref5);
    runMixedScript(ref_eng);

    Engine eng(skipConfig());
    GapObserver obs3(3, true);
    GapObserver obs5(5, true);
    eng.setObserver(&obs3);
    eng.addObserver(&obs5);
    runMixedScript(eng);

    expectSameMachine(ref_eng, eng);
    expectSameRecords(ref3.kept, obs3.kept);
    expectSameRecords(ref5.kept, obs5.kept);
    EXPECT_EQ(obs3.loads, ref3.loads);
    EXPECT_EQ(obs5.loads, ref5.loads);
    // Each due load goes to both: the union of what either keeps (a
    // thread's completion times are distinct, so they name the load).
    std::set<std::pair<ThreadId, Cycles>> due;
    for (const AccessRecord &r : obs3.kept)
        due.insert({r.tid, r.time});
    for (const AccessRecord &r : obs5.kept)
        due.insert({r.tid, r.time});
    EXPECT_EQ(obs3.delivered, due.size());
    EXPECT_EQ(obs5.delivered, due.size());
    EXPECT_EQ(obs3.storesDelivered + obs5.storesDelivered, 0u);
}

TEST(LoadSkip, AnyObserverThatOptsOutGetsEveryRecord)
{
    Engine eng(skipConfig());
    GapObserver skipping(7, true);
    RecordingObserver all;
    eng.setObserver(&skipping);
    eng.addObserver(&all);
    runMixedScript(eng);
    EXPECT_EQ(all.records.size(), totalAccesses(eng));
    EXPECT_EQ(skipping.delivered, totalAccesses(eng));
    EXPECT_GT(skipping.storesDelivered, 0u);

    // Dropping the observer that opted out turns skipping back on.
    eng.setObserver(&skipping);
    const std::uint64_t before = skipping.delivered;
    const std::size_t kept_before = skipping.kept.size();
    runMixedScript(eng);
    EXPECT_EQ(skipping.delivered - before,
              skipping.kept.size() - kept_before);
}

// Parameterized: thread-count sweep for parallelFor coverage invariants.
class ParallelForSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ParallelForSweep, SumMatchesAnyThreadCount)
{
    Engine eng(tinyConfig(GetParam()));
    std::uint64_t sum = 0;
    eng.parallelFor(257, [&](ThreadContext &, std::uint64_t i) {
        sum += i;
    });
    EXPECT_EQ(sum, 257u * 256u / 2u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForSweep,
                         ::testing::Values(1, 2, 3, 7, 18));

}  // namespace
}  // namespace memtier
