/**
 * @file
 * Tests for the data-serving tier: Zipfian/open-loop request
 * generation, the KV and LSM stores against host reference models,
 * LSM flush/compaction invariants, driver determinism (same seed ->
 * bit-identical latency percentiles), and the fault-injection chaos
 * scenario with the kernel invariant checker enabled.
 */

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "base/rng.h"
#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "serve/kv_store.h"
#include "serve/lsm_store.h"
#include "serve/request_gen.h"
#include "serve/serve_driver.h"
#include "thp/thp_params.h"

namespace memtier {
namespace {

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(512 * kPageSize);
    cfg.nvm = makeNvmParams(4096 * kPageSize);
    cfg.numThreads = 4;
    return cfg;
}

// ----------------------------------------------------------- generator

TEST(ZipfianKeys, DeterministicAndInRange)
{
    ZipfianKeys keys(1024, 0.99);
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t k = keys.next(a);
        EXPECT_EQ(k, keys.next(b));
        EXPECT_LT(k, 1024u);
    }
}

TEST(ZipfianKeys, SkewConcentratesOnHotKeys)
{
    const std::uint64_t n = 1024;
    ZipfianKeys zipf(n, 0.99);
    ZipfianKeys unif(n, 0.0);
    const int draws = 20000;

    auto hot_fraction = [&](const ZipfianKeys &keys) {
        Rng rng(7);
        std::map<std::uint64_t, int> counts;
        for (int i = 0; i < draws; ++i)
            ++counts[keys.next(rng)];
        int best = 0;
        for (const auto &[k, c] : counts)
            best = std::max(best, c);
        return static_cast<double>(best) / draws;
    };

    // The zipfian hottest key draws a large share; uniform's does not.
    EXPECT_GT(hot_fraction(zipf), 0.05);
    EXPECT_LT(hot_fraction(unif), 0.01);
}

TEST(ZipfianKeys, RankScramblingIsABijection)
{
    const std::uint64_t n = 256;
    ZipfianKeys keys(n, 0.5);
    std::set<std::uint64_t> seen;
    for (std::uint64_t r = 0; r < n; ++r)
        seen.insert(keys.keyOfRank(r));
    EXPECT_EQ(seen.size(), n);
}

TEST(RequestGenerator, SameSeedSameStream)
{
    GeneratorParams p;
    p.numKeys = 1 << 10;
    p.requests = 5000;
    const std::vector<ServeRequest> a = generateAll(p);
    const std::vector<ServeRequest> b = generateAll(p);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), p.requests);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].phase, b[i].phase);
    }
}

TEST(RequestGenerator, ArrivalsIncreaseAndMixIsRoughlyConfigured)
{
    GeneratorParams p;
    p.numKeys = 1 << 10;
    p.requests = 10000;
    const std::vector<ServeRequest> reqs = generateAll(p);

    std::uint64_t gets = 0;
    std::uint64_t scans = 0;
    Cycles prev = 0;
    for (const ServeRequest &r : reqs) {
        EXPECT_GE(r.arrival, prev);
        prev = r.arrival;
        gets += r.op == ServeOp::Get;
        scans += r.op == ServeOp::Scan;
        if (r.op == ServeOp::Scan) {
            EXPECT_EQ(r.scanLength, p.scanLength);
        }
    }
    const double n = static_cast<double>(p.requests);
    EXPECT_NEAR(static_cast<double>(gets) / n, p.readFraction, 0.02);
    EXPECT_NEAR(static_cast<double>(scans) / n, p.scanFraction, 0.01);
}

TEST(RequestGenerator, StormWindowIsLabeledAndFaster)
{
    GeneratorParams p;
    RequestGenerator gen(p);

    const double in_storm = p.stormStartSec + p.stormDurationSec / 2;
    const double before = p.stormStartSec - p.stormDurationSec;
    EXPECT_EQ(gen.phaseAt(in_storm), ServePhase::Storm);
    EXPECT_NE(gen.phaseAt(before), ServePhase::Storm);
    EXPECT_GT(gen.rateAt(in_storm), 2.0 * p.baseRate);

    // Peak vs off-peak from the diurnal sin: crest above base rate,
    // trough below (clipped at 10%). Disable the storm so its window
    // cannot shadow the diurnal trough.
    GeneratorParams calm = p;
    calm.stormDurationSec = 0;
    RequestGenerator diurnal(calm);
    const double crest = calm.diurnalPeriodSec / 4;
    const double trough = 3 * calm.diurnalPeriodSec / 4;
    EXPECT_EQ(diurnal.phaseAt(crest), ServePhase::Peak);
    EXPECT_EQ(diurnal.phaseAt(trough), ServePhase::OffPeak);
    EXPECT_GT(diurnal.rateAt(crest), calm.baseRate);
    EXPECT_LT(diurnal.rateAt(trough), calm.baseRate);
    EXPECT_GE(diurnal.rateAt(trough), 0.1 * calm.baseRate);
}

/** FNV-1a over the bytes of each value added. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    template <typename T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (const unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
};

/** Hash of every field of every request of @p p's stream. */
std::uint64_t
streamHash(const GeneratorParams &p)
{
    Fnv f;
    for (const ServeRequest &r : generateAll(p)) {
        f.add(r.arrival);
        f.add(r.op);
        f.add(r.key);
        f.add(r.scanLength);
        f.add(r.phase);
    }
    return f.h;
}

// The stream is an absolute golden: arrivals depend on the diurnal
// rate at each arrival instant, phases on the diurnal sign and the
// storm window, keys on the Zipfian or uniform draw.
TEST(RequestGenerator, StreamMatchesAbsoluteGolden)
{
    GeneratorParams zipf;
    zipf.numKeys = 1 << 12;
    GeneratorParams unif = zipf;
    unif.zipfTheta = 0.0;
    GeneratorParams zipf_calm = zipf;
    zipf_calm.stormDurationSec = 0;
    GeneratorParams unif_calm = unif;
    unif_calm.stormDurationSec = 0;
    GeneratorParams flat = zipf;
    flat.diurnalAmplitude = 0;

    const std::pair<const GeneratorParams *, std::uint64_t> golden[] = {
        {&zipf, 0x7eb8662c0fde53bbULL},
        {&unif, 0x19ac76db1ec6ae44ULL},
        {&zipf_calm, 0xae299a40734ecfbbULL},
        {&unif_calm, 0xcd68c0763f1f91d0ULL},
        {&flat, 0x92ba50d0d945fb16ULL},
    };
    for (std::size_t i = 0; i < std::size(golden); ++i) {
        const std::uint64_t h = streamHash(*golden[i].first);
        EXPECT_EQ(h, golden[i].second)
            << "stream " << i << ": 0x" << std::hex << h;
    }

    // Every phase occurs in the storm streams; none is a storm in the
    // calm ones.
    std::uint64_t per_phase[kNumServePhases] = {};
    for (const ServeRequest &r : generateAll(zipf))
        ++per_phase[static_cast<int>(r.phase)];
    for (int ph = 0; ph < kNumServePhases; ++ph)
        EXPECT_GT(per_phase[ph], 0u) << servePhaseName(
            static_cast<ServePhase>(ph));
    for (const ServeRequest &r : generateAll(zipf_calm))
        EXPECT_NE(r.phase, ServePhase::Storm);
}

// ------------------------------------------------------------ KV store

TEST(SimKvStore, MatchesHostMapReference)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);

    KvParams p;
    p.tableSlots = 1 << 11;
    p.arenaSlots = 1 << 10;
    p.valueWords = 4;
    SimKvStore store(eng, heap, t, p);

    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t key = rng.nextBounded(1 << 10);
        const double dice = rng.nextDouble();
        if (dice < 0.5) {
            const auto got = store.get(t, key);
            const auto it = ref.find(key);
            EXPECT_EQ(got.found, it != ref.end());
            if (it != ref.end()) {
                EXPECT_EQ(got.value,
                          SimKvStore::valueDigest(key, it->second,
                                                  p.valueWords));
            }
        } else if (dice < 0.85) {
            const std::uint64_t value = rng.next();
            store.set(t, key, value);
            ref[key] = value;
        } else {
            EXPECT_EQ(store.del(t, key), ref.erase(key) == 1);
        }
    }
    EXPECT_EQ(store.liveKeys(), ref.size());
    EXPECT_GT(store.totalProbes(), 0u);
    store.freeStorage(t);
    EXPECT_EQ(heap.liveAllocations(), 0u);
}

TEST(SimKvStore, DeleteFreesArenaForReuse)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);

    KvParams p;
    p.tableSlots = 1 << 8;
    p.arenaSlots = 64;  // Tight arena: reuse is mandatory.
    p.valueWords = 2;
    SimKvStore store(eng, heap, t, p);

    // Three full fill/drain rounds over a 64-key space exercise the
    // free list; without reuse the third round would exhaust the arena.
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t k = 0; k < 64; ++k)
            store.set(t, k, round * 1000 + k);
        for (std::uint64_t k = 0; k < 64; ++k)
            EXPECT_TRUE(store.del(t, k));
    }
    EXPECT_EQ(store.liveKeys(), 0u);
    store.freeStorage(t);
}

// ----------------------------------------------------------- LSM store

TEST(SimLsmStore, MatchesHostMapThroughFlushAndCompaction)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);

    LsmParams p;
    p.memtableSlots = 256;  // Small: forces rotation + flushes.
    p.maxImmutables = 1;
    p.l0CompactionThreshold = 2;
    p.blockCacheBlocks = 4;  // Small: forces cache eviction.
    SimLsmStore store(eng, heap, t, p);

    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(1234);
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = rng.nextBounded(1 << 10);
        const double dice = rng.nextDouble();
        if (dice < 0.4) {
            const auto got = store.get(t, key);
            const auto it = ref.find(key);
            EXPECT_EQ(got.found, it != ref.end()) << "key " << key;
            if (it != ref.end()) {
                EXPECT_EQ(got.value, it->second);
            }
        } else if (dice < 0.85) {
            const std::uint64_t value = rng.nextBounded(1ULL << 62) + 1;
            store.put(t, key, value);
            ref[key] = value;
        } else {
            store.del(t, key);
            ref.erase(key);
        }
    }

    // The churn must have exercised the full write path.
    EXPECT_GT(store.stats().flushes, 0u);
    EXPECT_GT(store.stats().compactions, 0u);
    EXPECT_GT(store.stats().blockCacheHits, 0u);
    EXPECT_GT(store.stats().blockCacheMisses, 0u);

    // Every key still answers correctly after the dust settles.
    for (std::uint64_t key = 0; key < (1 << 10); ++key) {
        const auto got = store.get(t, key);
        const auto it = ref.find(key);
        ASSERT_EQ(got.found, it != ref.end()) << "key " << key;
        if (it != ref.end()) {
            EXPECT_EQ(got.value, it->second);
        }
    }
    store.freeStorage(t);
    EXPECT_EQ(heap.liveAllocations(), 0u);
}

TEST(SimLsmStore, FlushAllLeavesOneSortedTombstoneFreeRun)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);

    LsmParams p;
    p.memtableSlots = 256;
    p.maxImmutables = 1;
    p.l0CompactionThreshold = 3;
    SimLsmStore store(eng, heap, t, p);

    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t key = rng.nextBounded(512);
        if (rng.nextDouble() < 0.8) {
            const std::uint64_t value = rng.nextBounded(1ULL << 62) + 1;
            store.put(t, key, value);
            ref[key] = value;
        } else {
            store.del(t, key);
            ref.erase(key);
        }
    }
    store.flushAll(t);

    EXPECT_EQ(store.mutableEntries(), 0u);
    EXPECT_EQ(store.immutableCount(), 0u);
    EXPECT_EQ(store.l0Count(), 0u);
    ASSERT_TRUE(store.hasL1());

    // L1 is exactly the live reference set, strictly ascending (no
    // duplicates, no tombstones).
    const std::vector<std::uint64_t> &keys = store.l1Keys();
    ASSERT_EQ(keys.size(), ref.size());
    std::uint64_t i = 0;
    for (const auto &[k, v] : ref) {
        EXPECT_EQ(keys[i], k);
        if (i > 0) {
            EXPECT_LT(keys[i - 1], keys[i]);
        }
        const auto got = store.get(t, k);
        EXPECT_TRUE(got.found);
        EXPECT_EQ(got.value, v);
        ++i;
    }

    // Scans over the compacted run are deterministic and non-trivial.
    const std::uint64_t d1 = store.scan(t, 0, 32);
    const std::uint64_t d2 = store.scan(t, 0, 32);
    EXPECT_EQ(d1, d2);
    EXPECT_NE(d1, 0u);
    store.freeStorage(t);
}

// -------------------------------------------------------------- driver

ServingSpec
smallSpec(ServeApp app)
{
    ServingSpec spec;
    spec.app = app;
    spec.gen.numKeys = 1 << 10;
    spec.gen.requests = 3000;
    spec.kv.tableSlots = 1 << 11;
    spec.kv.arenaSlots = 1 << 10;
    spec.kv.valueWords = 8;
    spec.lsm.memtableSlots = 512;
    spec.serverThreads = 2;
    return spec;
}

TEST(ServingDriver, SameSeedBitIdenticalReport)
{
    for (const ServeApp app : {ServeApp::KV, ServeApp::LSM}) {
        const ServingSpec spec = smallSpec(app);
        ServingReport a;
        ServingReport b;
        {
            Engine eng(tinyConfig());
            SimHeap heap(eng);
            a = runServing(eng, heap, spec);
        }
        {
            Engine eng(tinyConfig());
            SimHeap heap(eng);
            b = runServing(eng, heap, spec);
        }
        EXPECT_EQ(a.requests, spec.gen.requests);
        EXPECT_EQ(a.checksum, b.checksum);
        EXPECT_EQ(a.latency.count(), b.latency.count());
        EXPECT_EQ(a.latency.sum(), b.latency.sum());
        EXPECT_EQ(a.latency.percentile(0.50), b.latency.percentile(0.50));
        EXPECT_EQ(a.latency.percentile(0.99), b.latency.percentile(0.99));
        EXPECT_EQ(a.latency.percentile(0.999),
                  b.latency.percentile(0.999));
        EXPECT_EQ(a.totalSeconds, b.totalSeconds);
        for (int ph = 0; ph < kNumServePhases; ++ph)
            EXPECT_EQ(a.phaseLatency[ph].count(),
                      b.phaseLatency[ph].count());
    }
}

TEST(ServingDriver, QueueingShowsUpInLatency)
{
    // At a crushing arrival rate every request after the first queues,
    // so the mean latency must far exceed the per-request service time
    // observed at a trickle rate. Background tiering is off so the
    // trickle run's idle gaps don't accrue hinting faults that would
    // mask the queueing delta.
    SystemConfig cfg = tinyConfig();
    cfg.autonumaEnabled = false;
    ServingSpec relaxed = smallSpec(ServeApp::KV);
    relaxed.gen.requests = 500;
    relaxed.gen.baseRate = 1e3;  // Effectively idle servers.
    ServingSpec crushed = relaxed;
    crushed.gen.baseRate = 1e8;  // Far beyond service capacity.

    ServingReport slow;
    ServingReport fast;
    {
        Engine eng(cfg);
        SimHeap heap(eng);
        slow = runServing(eng, heap, relaxed);
    }
    {
        Engine eng(cfg);
        SimHeap heap(eng);
        fast = runServing(eng, heap, crushed);
    }
    EXPECT_GT(fast.latency.mean(), 10.0 * slow.latency.mean());
}

TEST(ServingDriver, PhaseHistogramsPartitionTheRequests)
{
    const ServingSpec spec = smallSpec(ServeApp::KV);
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    const ServingReport rep = runServing(eng, heap, spec);

    std::uint64_t phase_total = 0;
    for (int ph = 0; ph < kNumServePhases; ++ph)
        phase_total += rep.phaseLatency[ph].count();
    EXPECT_EQ(phase_total, rep.latency.count());
    EXPECT_EQ(rep.latency.count(), rep.requests);
    std::uint64_t op_total = 0;
    for (const std::uint64_t c : rep.opCounts)
        op_total += c;
    EXPECT_EQ(op_total, rep.requests);
    EXPECT_GT(rep.prefillSeconds, 0.0);
    EXPECT_GT(rep.totalSeconds, rep.prefillSeconds);
}

// ------------------------------------------- exp-layer integration

TEST(ServingWorkloads, SpecMappingAndNames)
{
    WorkloadSpec w;
    w.app = App::KV;
    w.kind = GraphKind::Kron;
    w.scale = 10;
    w.trials = 2;
    EXPECT_EQ(w.name(), "kv_zipf");
    EXPECT_TRUE(isServingApp(App::KV));
    EXPECT_TRUE(isServingApp(App::LSM));
    EXPECT_FALSE(isServingApp(App::PR));

    ServingSpec spec = servingSpecFor(w);
    EXPECT_EQ(spec.app, ServeApp::KV);
    EXPECT_EQ(spec.gen.numKeys, 1u << 10);
    EXPECT_EQ(spec.gen.requests, 10000u);
    EXPECT_DOUBLE_EQ(spec.gen.zipfTheta, 0.99);
    EXPECT_GE(spec.kv.arenaSlots, spec.gen.numKeys);

    w.app = App::LSM;
    w.kind = GraphKind::Urand;
    EXPECT_EQ(w.name(), "lsm_unif");
    spec = servingSpecFor(w);
    EXPECT_EQ(spec.app, ServeApp::LSM);
    EXPECT_DOUBLE_EQ(spec.gen.zipfTheta, 0.0);
}

RunConfig
servingRunConfig(App app)
{
    RunConfig rc;
    rc.workload.app = app;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 10;
    rc.workload.trials = 1;
    rc.sampling = false;
    rc.sys.dram = makeDramParams(512 * kPageSize);
    rc.sys.nvm = makeNvmParams(4096 * kPageSize);
    return rc;
}

TEST(ServingWorkloads, RunWorkloadProducesServingReport)
{
    const RunResult r = runWorkload(servingRunConfig(App::KV));
    EXPECT_TRUE(r.hasServing);
    EXPECT_EQ(r.workloadName, "kv_zipf");
    EXPECT_EQ(r.serving.requests, 5000u);
    EXPECT_EQ(r.outputChecksum, r.serving.checksum);
    EXPECT_GT(r.loadSeconds, 0.0);
    EXPECT_GT(r.computeSeconds, 0.0);
    EXPECT_GT(r.totalAccesses, 0u);
}

TEST(ServingWorkloads, ChecksumIsPolicyInvariant)
{
    RunConfig autonuma = servingRunConfig(App::LSM);
    autonuma.policy = "autonuma";
    RunConfig interleave = servingRunConfig(App::LSM);
    interleave.policy = "interleave";

    const RunResult a = runWorkload(autonuma);
    const RunResult b = runWorkload(interleave);
    EXPECT_EQ(a.outputChecksum, b.outputChecksum);
    EXPECT_GT(a.serving.lsm.flushes, 0u);
    EXPECT_EQ(a.serving.lsm.flushes, b.serving.lsm.flushes);
}

/** Serving config under tier pressure: DRAM far below the store
 *  footprint and compressed AutoNUMA clocks, so scans, migrations and
 *  (with a plan installed) migration faults actually fire within the
 *  short simulated run. */
RunConfig
pressuredServingConfig(App app)
{
    RunConfig rc = servingRunConfig(app);
    // Scale 13 keeps the touched footprint (KV arena; LSM block cache
    // plus SST page cache) well above the shrunken DRAM.
    rc.workload.scale = 13;
    rc.sys.dram = makeDramParams(48 * kPageSize);
    rc.sys.autonuma.scanPeriod = secondsToCycles(0.0005);
    rc.sys.autonuma.adjustPeriod = secondsToCycles(0.002);
    rc.sys.autonuma.rateLimitBytesPerSec = 4 * kMiB;
    return rc;
}

// ------------------------------------------- absolute serving golden
//
// Both stores at 2^12 keys on a DRAM small enough that AutoNUMA
// promotes and kswapd demotes during the run: the request stream, the
// store, the kernel and the tier devices all feed these numbers.

struct ServingGolden
{
    double totalSeconds;
    std::uint64_t checksum;
    /** p50, p99, p999 latency in cycles. */
    std::array<double, 3> latency;
    /** kvProbes, then LSM flushes, compactions, block-cache hits and
     *  misses, SST probes. */
    std::array<std::uint64_t, 6> store;
    std::array<std::uint64_t, kNumMemLevels> levels;
    std::uint64_t vmstatHash;  ///< Every VmStat word.
};

RunConfig
servingGoldenConfig(App app)
{
    RunConfig rc = pressuredServingConfig(app);
    rc.workload.scale = 12;
    return rc;
}

void
expectServingGolden(const RunResult &r, const ServingGolden &g)
{
    const ServingReport &s = r.serving;
    const std::array<double, 3> latency = {s.latency.percentile(0.50),
                                           s.latency.percentile(0.99),
                                           s.latency.percentile(0.999)};
    const std::array<std::uint64_t, 6> store = {
        s.kvProbes,          s.lsm.flushes,          s.lsm.compactions,
        s.lsm.blockCacheHits, s.lsm.blockCacheMisses, s.lsm.sstProbes};
    std::array<std::uint64_t, kNumMemLevels> levels{};
    for (int l = 0; l < kNumMemLevels; ++l)
        levels[l] = r.levelCounts[l];
    static_assert(sizeof(VmStat) % sizeof(std::uint64_t) == 0,
                  "VmStat hashes as plain uint64 counters");
    Fnv vm;
    vm.add(r.vmstat);

    EXPECT_EQ(s.totalSeconds, g.totalSeconds);
    EXPECT_EQ(s.checksum, g.checksum);
    EXPECT_EQ(latency, g.latency);
    EXPECT_EQ(store, g.store);
    EXPECT_EQ(levels, g.levels);
    EXPECT_EQ(vm.h, g.vmstatHash);
    if (::testing::Test::HasFailure()) {
        std::printf("captured: {%.17g, 0x%" PRIx64 "ULL, {%.17g, %.17g, "
                    "%.17g}, {", s.totalSeconds, s.checksum, latency[0],
                    latency[1], latency[2]);
        for (const std::uint64_t v : store)
            std::printf("%" PRIu64 "u, ", v);
        std::printf("}, {");
        for (const std::uint64_t v : levels)
            std::printf("%" PRIu64 "u, ", v);
        std::printf("}, 0x%" PRIx64 "ULL}\n", vm.h);
    }

    // The run exercises what the golden is meant to pin.
    EXPECT_GT(r.vmstat.pgpromoteSuccess, 0u);
    EXPECT_GT(r.vmstat.pgdemoteKswapd + r.vmstat.pgdemoteDirect, 0u);
}

TEST(ServingGolden, KvZipf4k)
{
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    expectServingGolden(runWorkload(servingGoldenConfig(App::KV)),
                        {0.0074879026923076923, 0xe88ab8cf571e31c2ULL,
                         {5507.3421052631575, 159746.27500000005,
                          181590.36500000028},
                         {13026u, 0u, 0u, 0u, 0u, 0u},
                         {107660u, 173725u, 7095u, 6648u, 9115u, 18920u},
                         0x71bebd6a3fb210b8ULL});
}

TEST(ServingGolden, LsmZipf4k)
{
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    expectServingGolden(runWorkload(servingGoldenConfig(App::LSM)),
                        {0.0047389876923076921, 0x1594d02d6f2bd472ULL,
                         {54, 8128.1350000000139, 54273.023000000205},
                         {0u, 10u, 2u, 22648u, 16u, 22664u},
                         {89463u, 14453u, 10191u, 5399u, 3499u, 210u},
                         0xc6577982154503bbULL});
}

// THP set in the config, so every CI mode runs it. 2^14 keys put the
// KV arena over whole 2 MiB ranges and 4 MiB of DRAM leaves room for
// huge frames: PMD mappings are faulted in, one is split under
// migration, and the pages promote and demote.
TEST(ServingGolden, KvZipf16kThp)
{
    RunConfig rc = servingGoldenConfig(App::KV);
    rc.workload.scale = 14;
    rc.sys.dram = makeDramParams(4 * kMiB);
    rc.sys.thp.enabled = true;
    const RunResult r = runWorkload(rc);
    expectServingGolden(r, {0.017381873846153847, 0x405f9479a81851ecULL,
                           {1985.8599999999999, 27955.622000000021,
                            48810.341000000073},
                           {32294u, 0u, 0u, 0u, 0u, 0u},
                           {91495u, 586038u, 5456u, 5307u, 93508u, 4737u},
                           0x480147bfaec04feeULL});
    EXPECT_GT(r.vmstat.thpFaultAlloc, 0u);
    EXPECT_GT(r.vmstat.thpSplitPage, 0u);
}

TEST(ServingWorkloads, ChaosRunSurvivesFaultsWithInvariantsOn)
{
    for (const App app : {App::KV, App::LSM}) {
        RunConfig clean = pressuredServingConfig(app);
        const RunResult base = runWorkload(clean);

        RunConfig chaos = pressuredServingConfig(app);
        chaos.sys.faults = FaultPlan::parseOrDie(
            "migrate:p=0.2,burst=4;alloc:p=0.02;seed=7");
        chaos.sys.checkInvariants = true;
        chaos.sys.invariantCheckPeriod = 512;
        const RunResult r = runWorkload(chaos);

        // Faults fired, invariants held, and the answers are exactly
        // the fault-free answers.
        EXPECT_GT(r.faultsInjected, 0u) << appName(app);
        EXPECT_GT(r.invariantChecksRun, 0u) << appName(app);
        EXPECT_EQ(r.outputChecksum, base.outputChecksum) << appName(app);
    }
}

}  // namespace
}  // namespace memtier
