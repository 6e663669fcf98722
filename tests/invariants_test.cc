/**
 * @file
 * Property/invariant torture tests: drive the kernel and engine with
 * randomized operation sequences and check global invariants after
 * every step -- frame conservation, page-table/placement consistency,
 * counter monotonicity, and engine/level accounting. The chaos variant
 * repeats the torture under a fault-injection plan with the runtime
 * invariant checker armed. The golden variants run fixed fault plans
 * (migration, exchange, allocation and ECC faults) on 4 KiB and THP
 * machines and pin an absolute digest of the final kernel state, so
 * every migration path -- promotion, huge promotion, demotion,
 * exchange and soft offline -- is held to its exact accounting.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "fault/fault_plan.h"
#include "runtime/sim_heap.h"
#include "sim/engine.h"

namespace memtier {
namespace {

/**
 * The torture machine. The THP machine's DRAM holds six 2 MiB blocks:
 * room for huge fault allocations and huge promotions, yet small
 * enough that reclaim splits and demotes huge pages.
 */
SystemConfig
tortureConfig(std::uint64_t seed, bool thp = false)
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(thp ? 12 * kMiB : 128 * kPageSize);
    cfg.nvm = makeNvmParams(thp ? 32 * kMiB : 512 * kPageSize);
    cfg.numThreads = 3;
    cfg.kswapdPeriod = secondsToCycles(0.0002);
    cfg.autonuma.scanPeriod = secondsToCycles(0.0005);
    cfg.autonuma.scanPagesPerRound = 64;
    cfg.thp.enabled = thp;
    cfg.seed = seed;
    return cfg;
}

/** Check cross-component conservation invariants. */
void
checkInvariants(Engine &eng)
{
    // 1. Frame conservation per tier: used + free == total.
    const NumaStatSnapshot snap = eng.kernel().numastat();
    for (int node = 0; node < kNumNodes; ++node) {
        const MemoryTier &tier = eng.physicalMemory().tier(
            static_cast<MemNode>(node));
        ASSERT_EQ(snap.appPages[node] + snap.cachePages[node] +
                      snap.freePages[node] + snap.retiredPages[node],
                  tier.totalPages());
        ASSERT_EQ(tier.usedPages() + tier.freePages(),
                  tier.totalPages());
    }

    // 2. Every mapped region's present pages live on a real tier and
    //    respect pinned policies.
    for (const auto &[start, vma] : eng.kernel().addressSpace().vmas()) {
        for (PageNum vpn = pageOf(vma.start); vpn < pageOf(vma.end);
             ++vpn) {
            const PageMeta *meta = eng.kernel().pageMeta(vpn);
            if (meta == nullptr || !meta->present)
                continue;
            if (vma.policy.mode == MemPolicy::Mode::Bind) {
                ASSERT_EQ(meta->node, vma.policy.node);
            }
            if (vma.policy.mode == MemPolicy::Mode::Split) {
                ASSERT_EQ(meta->node,
                          vma.policy.nodeForPage(vpn -
                                                 pageOf(vma.start)));
            }
        }
    }

    // 3. Migration counters are consistent: successes add up (an
    //    exchange moves two pages and also counts one promotion).
    const VmStat &vm = eng.kernel().vmstat();
    ASSERT_EQ(vm.pgmigrateSuccess,
              vm.pgpromoteSuccess + vm.pgdemoteKswapd + vm.pgdemoteDirect +
                  vm.pgexchangeSuccess);
    ASSERT_LE(vm.pgpromoteDemoted, vm.pgpromoteSuccess);
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

/** The final kernel state of a torture run, pinned by the goldens. */
struct TortureDigest
{
    std::uint64_t vmstatHash = 0;  ///< Every VmStat word, in order.
    std::uint64_t breakerTrips = 0;
    std::uint64_t numa[4][kNumNodes] = {};  ///< app, cache, free, retired.
    Cycles globalTime = 0;
    /** (vpn, node, frame, owner, protNone, promoted, exchanged, huge)
     *  of every mapped page, in address order. */
    std::uint64_t pageHash = 0;

    bool
    operator==(const TortureDigest &o) const
    {
        return std::memcmp(this, &o, sizeof(*this)) == 0;
    }
};

TortureDigest
digestOf(Engine &eng)
{
    TortureDigest d;
    const VmStat &vs = eng.kernel().vmstat();
    std::uint64_t words[sizeof(VmStat) / sizeof(std::uint64_t)];
    std::memcpy(words, &vs, sizeof(VmStat));
    Fnv vm;
    for (const std::uint64_t w : words)
        vm.add(w);
    d.vmstatHash = vm.h;
    d.breakerTrips = vs.breakerTrips;
    const NumaStatSnapshot snap = eng.kernel().numastat();
    for (int n = 0; n < kNumNodes; ++n) {
        d.numa[0][n] = snap.appPages[n];
        d.numa[1][n] = snap.cachePages[n];
        d.numa[2][n] = snap.freePages[n];
        d.numa[3][n] = snap.retiredPages[n];
    }
    d.globalTime = eng.globalTime();
    Fnv pages;
    for (const auto &[start, vma] : eng.kernel().addressSpace().vmas()) {
        for (PageNum vpn = pageOf(vma.start); vpn < pageOf(vma.end);
             ++vpn) {
            const PageMeta *m = eng.kernel().pageMeta(vpn);
            if (m == nullptr || !m->present)
                continue;
            pages.add(vpn);
            pages.add(m->node);
            pages.add(m->frame);
            pages.add(m->owner);
            pages.add(m->protNone);
            pages.add(m->promoted);
            pages.add(m->exchanged);
            pages.add(m->huge);
        }
    }
    d.pageHash = pages.h;
    return d;
}

/** @p d in the golden table's own layout. */
std::string
formatDigest(const TortureDigest &d)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{0x%016" PRIx64 "ULL, %" PRIu64 "u, "
                  "{{%" PRIu64 "u, %" PRIu64 "u}, {%" PRIu64 "u, %" PRIu64
                  "u}, {%" PRIu64 "u, %" PRIu64 "u}, {%" PRIu64
                  "u, %" PRIu64 "u}}, %" PRIu64 "u, 0x%016" PRIx64 "ULL}",
                  d.vmstatHash, d.breakerTrips, d.numa[0][0], d.numa[0][1],
                  d.numa[1][0], d.numa[1][1], d.numa[2][0], d.numa[2][1],
                  d.numa[3][0], d.numa[3][1], d.globalTime, d.pageHash);
    return buf;
}

/** What a torture run leaves behind for the golden checks. */
struct TortureOutcome
{
    TortureDigest digest;
    VmStat vm;
    /** Direct promotions that moved a whole huge page. */
    std::uint64_t hugePromotions = 0;
};

/** Which ops and machine a torture run uses. */
struct TortureShape
{
    /** Pinned (Bind/Split) placements are only asserted conformant in
     *  fault-free runs: an injected allocation failure on a pinned
     *  fault legitimately falls back to the other tier, so the chaos
     *  variants stick to the default policy. */
    bool allowMbind = false;

    /** Direct promotions and exchanges beside the move_pages op. The
     *  fault-free mbind run keeps the original op mix: enough direct
     *  promotions can fill DRAM with bound pages, and a DRAM-bound
     *  fault then falls back to NVM (Kernel::handlePageFault). */
    bool migrationOps = true;

    /** 2 MiB objects, whole-object population and collapses, and
     *  migration budgets large enough to promote a huge page. */
    bool thp = false;
};

/** Present page holding a random element of @p v, or nullptr. */
template <typename V>
const PageMeta *
randomPage(Engine &eng, Rng &rng, const V &v, PageNum *vpn)
{
    *vpn = pageOf(v.base() + rng.nextBounded(v.size()) * 8);
    const PageMeta *m = eng.kernel().pageMeta(*vpn);
    return m != nullptr && m->present ? m : nullptr;
}

/**
 * The randomized torture loop shared by every variant: mmap, mbind,
 * munmap, move_pages, direct promotions, exchanges, collapses (THP
 * shape) and accesses at random, checking the conservation invariants
 * as it goes.
 *
 * @param out when set, receives the kernel state taken after the last
 *     op and before the final cleanup.
 */
void
tortureLoop(Engine &eng, std::uint64_t seed, TortureShape shape,
            TortureOutcome *out = nullptr)
{
    SimHeap heap(eng);
    Rng rng(seed);
    Kernel &kern = eng.kernel();

    struct Live
    {
        SimVector<std::int64_t> vec;
    };
    std::vector<Live> live;
    std::uint64_t prev_faults = 0;
    const std::uint64_t big_pages = 2 * kPagesPerHuge;

    for (int step = 0; step < 600; ++step) {
        ThreadContext &t =
            eng.thread(static_cast<std::uint32_t>(rng.nextBounded(3)));
        const std::uint64_t action = rng.nextBounded(100);

        if (action < 12 && live.size() < 24) {
            // mmap a 1..32 page object, sometimes bound; the THP shape
            // also maps 1..2 MiB-range objects, at most three at once.
            std::uint64_t pages = 1 + rng.nextBounded(32);
            if (shape.thp && rng.nextBool(0.3)) {
                std::size_t big = 0;
                for (const Live &l : live)
                    big += l.vec.size() * 8 > 32 * kPageSize;
                if (big < 3)
                    pages = kPagesPerHuge + rng.nextBounded(kPagesPerHuge + 1);
            }
            auto v = heap.alloc<std::int64_t>(
                t, "torture" + std::to_string(rng.nextBounded(6)),
                pages * 512);
            if (shape.allowMbind && rng.nextBool(0.25)) {
                kern.mbind(
                    v.base(),
                    rng.nextBool(0.5)
                        ? MemPolicy::bind(rng.nextBool(0.5)
                                              ? MemNode::DRAM
                                              : MemNode::NVM)
                        : MemPolicy::split(rng.nextBounded(pages)));
            }
            live.push_back({v});
        } else if (action < 18 && !live.empty()) {
            // munmap a random object.
            const std::size_t idx = rng.nextBounded(live.size());
            heap.free(t, live[idx].vec);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        } else if (action < 22 && !live.empty()) {
            // Whole-object migration (move_pages).
            const std::size_t idx = rng.nextBounded(live.size());
            const auto &v = live[idx].vec;
            const std::uint64_t budget = shape.thp ? big_pages : 16;
            kern.migratePages(
                v.base(), v.base() + v.size() * 8,
                rng.nextBool(0.5) ? MemNode::DRAM : MemNode::NVM,
                static_cast<std::uint32_t>(1 + rng.nextBounded(budget)),
                t.clock());
        } else if (shape.migrationOps && action < 26 && !live.empty()) {
            // Policy-style promotion of one NVM page (or huge page).
            PageNum vpn;
            const PageMeta *m = randomPage(
                eng, rng, live[rng.nextBounded(live.size())].vec, &vpn);
            if (m != nullptr && m->node == MemNode::NVM) {
                const bool huge = m->huge;
                const Cycles c = kern.promotePage(vpn, t.clock());
                if (out != nullptr && huge && c > 0 && kern.isHugeMapped(vpn))
                    ++out->hugePromotions;
                t.advance(c);
            }
        } else if (shape.migrationOps && action < 30 && !live.empty()) {
            // AutoTiering-style exchange of an NVM page with the
            // reclaim clock's coldest DRAM page.
            PageNum vpn;
            const PageMeta *m = randomPage(
                eng, rng, live[rng.nextBounded(live.size())].vec, &vpn);
            if (m != nullptr && m->node == MemNode::NVM) {
                const PageNum victim = kern.pickExchangeVictim(t.clock());
                if (victim != kNoPage)
                    t.advance(kern.exchangePages(vpn, victim, t.clock()));
            }
        } else if (shape.thp && action < 36 && !live.empty()) {
            // Populate a whole object, then split each 2 MiB range it
            // covers, gather it onto NVM and collapse it there again
            // (khugepaged's work, on demand); the promotion ops later
            // move it whole.
            const auto &v = live[rng.nextBounded(live.size())].vec;
            const std::uint64_t pages = (v.size() * 8 + kPageSize - 1) /
                                        kPageSize;
            eng.accessRange(t, v.base(), pages,
                            static_cast<std::uint32_t>(kPageSize),
                            MemOp::Store);
            for (PageNum base = hugeBaseOf(pageOf(v.base()) +
                                           kPagesPerHuge - 1);
                 base + kPagesPerHuge <= pageOf(v.base()) + pages;
                 base += kPagesPerHuge) {
                if (kern.isHugeMapped(base))
                    kern.splitHugePage(base, t.clock());
                // Re-run the move while it makes progress: an injected
                // copy failure leaves a page behind on DRAM.
                for (int pass = 0;
                     pass < 4 &&
                     kern.migratePages(pageBase(base),
                                       pageBase(base + kPagesPerHuge),
                                       MemNode::NVM, kPagesPerHuge,
                                       t.clock()) > 0;
                     ++pass) {
                }
                kern.collapseHugePage(base, t.clock());
            }
        } else if (!live.empty()) {
            // A burst of random loads/stores.
            const std::size_t idx = rng.nextBounded(live.size());
            const auto &v = live[idx].vec;
            for (int burst = 0; burst < 24; ++burst) {
                const std::uint64_t i = rng.nextBounded(v.size());
                if (rng.nextBool(0.4))
                    v.set(t, i, static_cast<std::int64_t>(step));
                else
                    v.get(t, i);
            }
        }

        if (step % 37 == 0) {
            checkInvariants(eng);
            // 4. Fault counter is monotone.
            const std::uint64_t faults = kern.vmstat().pgfault;
            ASSERT_GE(faults, prev_faults);
            prev_faults = faults;
            // 5. Level counts add up to total operations issued.
            std::uint64_t level_sum = 0;
            for (int l = 0; l < kNumMemLevels; ++l) {
                level_sum +=
                    eng.levelCount(static_cast<MemLevel>(l));
            }
            std::uint64_t thread_ops = 0;
            for (std::uint32_t i = 0; i < eng.threadCount(); ++i) {
                thread_ops += eng.thread(i).loads;
                thread_ops += eng.thread(i).stores;
            }
            ASSERT_EQ(level_sum, thread_ops);
        }
    }
    // Final sweep.
    checkInvariants(eng);
    if (out != nullptr) {
        out->digest = digestOf(eng);
        out->vm = kern.vmstat();
    }

    // Cleanup: everything freed leaves both tiers' app usage at zero.
    for (auto &l : live)
        heap.free(eng.thread(0), l.vec);
    const NumaStatSnapshot end = kern.numastat();
    EXPECT_EQ(end.appPages[0], 0u);
    EXPECT_EQ(end.appPages[1], 0u);
}

class KernelTorture : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KernelTorture, RandomOpsPreserveInvariants)
{
    Engine eng(tortureConfig(GetParam()));
    tortureLoop(eng, GetParam(),
                {.allowMbind = true, .migrationOps = false});
}

TEST_P(KernelTorture, ThpRandomOpsPreserveInvariants)
{
    Engine eng(tortureConfig(GetParam(), /*thp=*/true));
    tortureLoop(eng, GetParam(), {.allowMbind = true, .thp = true});
}

TEST_P(KernelTorture, ChaosRunSurvivesFaultsUnderInvariantChecker)
{
    // Same torture, but with transient faults injected and the kernel's
    // own invariant checker sweeping every 64 events. The chaos CI
    // stage overrides the plan via MEMTIER_FAULT_PLAN.
    SystemConfig cfg = tortureConfig(GetParam());
    cfg.checkInvariants = true;
    cfg.invariantCheckPeriod = 64;
    const FaultPlan fallback = FaultPlan::parseOrDie(
        "migrate:p=0.05,burst=4;alloc:p=0.02;seed=" +
        std::to_string(GetParam() + 1));
    cfg.faults = FaultPlan::fromEnvOr("MEMTIER_FAULT_PLAN", fallback);

    Engine eng(cfg);
    tortureLoop(eng, GetParam(), {});

    ASSERT_NE(eng.invariantChecker(), nullptr);
    eng.invariantChecker()->checkNow(eng.globalTime());
    EXPECT_GT(eng.invariantChecker()->checksRun(), 0u);
    if (cfg.faults.anyEnabled()) {
        ASSERT_NE(eng.faultInjector(), nullptr);
        if (std::getenv("MEMTIER_FAULT_PLAN") == nullptr) {
            EXPECT_GT(eng.faultInjector()->totalInjected(), 0u);
        }
    }
}

/**
 * The torture under a fixed plan that fails migrations, exchanges,
 * DRAM allocations and ECC reads, with the invariant checker armed.
 * The plan is fixed (MEMTIER_FAULT_PLAN is not read) and the copy pool
 * is sized after construction (MEMTIER_COPY_THREADS cannot move it),
 * so the digest is absolute.
 */
TortureOutcome
goldenRun(std::uint64_t seed, bool thp, std::uint32_t copy_threads)
{
    SystemConfig cfg = tortureConfig(seed, thp);
    cfg.checkInvariants = true;
    cfg.invariantCheckPeriod = 64;
    // Every correctable error soft-offlines its page.
    cfg.kernel.ceRetireThreshold = 1;
    // A torture run lasts about a millisecond: a short breaker window
    // lets it trip, pause promotions and exchanges, and close again.
    cfg.kernel.breaker.decayHalfLife = secondsToCycles(0.0002);
    cfg.kernel.breaker.cooldown = secondsToCycles(0.0001);
    cfg.faults = FaultPlan::parseOrDie(
        "migrate:p=0.05,burst=3;exchange:p=0.1;alloc:p=0.02;"
        "ecc_ce:p=0.01;ecc_ue:p=0.002;seed=" +
        std::to_string(seed + 1));
    Engine eng(cfg);
    eng.kernel().setCopyThreads(copy_threads);
    TortureOutcome out;
    tortureLoop(eng, seed, {.thp = thp}, &out);
    eng.invariantChecker()->checkNow(eng.globalTime());
    EXPECT_GT(eng.invariantChecker()->checksRun(), 0u);
    return out;
}

/** Golden digests of one seed, by [thp][copy threads 1, 4]. */
struct TortureGolden
{
    std::uint64_t seed;
    TortureDigest want[2][2];
};

// A mismatch prints the run's digest in this layout.
const TortureGolden kTortureGoldens[] = {
    {1,
     {{{0x9e9d4932a3ffc0cdULL, 0u,
        {{94u, 213u}, {0u, 0u}, {25u, 292u}, {9u, 7u}},
        2913632u, 0x7b51782d6bb5d0c2ULL},
       {0x38f46d8a2dcff448ULL, 0u,
        {{92u, 215u}, {0u, 0u}, {27u, 290u}, {9u, 7u}},
        3050586u, 0x42cedef14492459cULL}},
      {{0x5fc2adcdd43b8f7fULL, 0u,
        {{327u, 1011u}, {0u, 0u}, {2729u, 7179u}, {16u, 2u}},
        3727608u, 0x025fcaf37319a84dULL},
       {0x5be81908a7584edbULL, 0u,
        {{326u, 1012u}, {0u, 0u}, {2733u, 7176u}, {13u, 4u}},
        6260713u, 0x581c6a3e022f042dULL}}}},
    {7,
     {{{0x26c4f2f1009cb56eULL, 2u,
        {{86u, 262u}, {0u, 0u}, {29u, 245u}, {13u, 5u}},
        2759832u, 0x131eda053bda04e1ULL},
       {0x8c5f64e88010e59fULL, 2u,
        {{100u, 248u}, {0u, 0u}, {17u, 259u}, {11u, 5u}},
        2952169u, 0x8010298137399679ULL}},
      {{0x6ab4fb0c4a67b79fULL, 1u,
        {{1841u, 582u}, {0u, 0u}, {1216u, 7605u}, {15u, 5u}},
        3667302u, 0x7cf6ce1496c94638ULL},
       {0xfca8be93932be38fULL, 1u,
        {{1841u, 582u}, {0u, 0u}, {1215u, 7606u}, {16u, 4u}},
        5354853u, 0x4d332c27cfd2a4d8ULL}}}},
    {42,
     {{{0x1e5ee73ff39e6ab2ULL, 0u,
        {{108u, 232u}, {0u, 0u}, {14u, 274u}, {6u, 6u}},
        2384868u, 0x4bd82d426f894ecbULL},
       {0xc6cbefdd09fa9359ULL, 0u,
        {{106u, 234u}, {0u, 0u}, {15u, 273u}, {7u, 5u}},
        2451941u, 0xe31a1e0238a36992ULL}},
      {{0x081e916883d4cfafULL, 0u,
        {{375u, 1856u}, {0u, 0u}, {2672u, 6330u}, {25u, 6u}},
        3773624u, 0x89732a5cfd713ab2ULL},
       {0xb0229595e430acdcULL, 0u,
        {{373u, 1854u}, {0u, 0u}, {2666u, 6332u}, {33u, 6u}},
        10100472u, 0xf0330120cc4349fbULL}}}},
    {1337,
     {{{0x20e87581957771e8ULL, 0u,
        {{89u, 246u}, {0u, 0u}, {35u, 260u}, {4u, 6u}},
        2484617u, 0xfe1a390ada445ba4ULL},
       {0x7f214edfff3ae1daULL, 0u,
        {{95u, 240u}, {0u, 0u}, {29u, 266u}, {4u, 6u}},
        2544227u, 0x72faa62864a0f480ULL}},
      {{0x078c1f5b8a07977fULL, 0u,
        {{964u, 1256u}, {0u, 0u}, {2092u, 6934u}, {16u, 2u}},
        3727032u, 0xe53e4a6e789f8448ULL},
       {0x649922159917c193ULL, 0u,
        {{1477u, 743u}, {0u, 0u}, {1576u, 7442u}, {19u, 7u}},
        5948206u, 0x39277ec35d861537ULL}}}},
    {90210,
     {{{0x13b3d4e6e3d0bf6cULL, 0u,
        {{87u, 160u}, {0u, 0u}, {39u, 345u}, {2u, 7u}},
        2600577u, 0xee6f9a8a8ead34a0ULL},
       {0xf0251451905cbf6dULL, 0u,
        {{99u, 148u}, {0u, 0u}, {27u, 355u}, {2u, 9u}},
        2934408u, 0x9f528db608a28561ULL}},
      {{0xa5a2fcea1aacb1cbULL, 0u,
        {{771u, 75u}, {0u, 0u}, {2287u, 8113u}, {14u, 4u}},
        3262601u, 0xede8c6506bc138a4ULL},
       {0xfd8225e9ad04dd0eULL, 0u,
        {{770u, 77u}, {0u, 0u}, {2289u, 8110u}, {13u, 5u}},
        6291821u, 0x9aeccf963297897eULL}}}},
};

void
expectTortureGolden(std::uint64_t seed, bool thp)
{
    const TortureGolden *golden = nullptr;
    for (const TortureGolden &g : kTortureGoldens)
        golden = g.seed == seed ? &g : golden;
    EXPECT_NE(golden, nullptr) << "no golden for seed " << seed;
    for (const std::uint32_t copy_threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "copy threads " << copy_threads);
        const TortureDigest got = goldenRun(seed, thp, copy_threads).digest;
        const TortureDigest want =
            golden != nullptr ? golden->want[thp][copy_threads == 4]
                              : TortureDigest{};
        EXPECT_TRUE(got == want) << "captured: " << formatDigest(got);
    }
}

TEST_P(KernelTorture, GoldenChaosRunMatchesAbsoluteDigest)
{
    // 4 KiB pages only: MEMTIER_THP=ON changes every counter.
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    expectTortureGolden(GetParam(), /*thp=*/false);
}

TEST_P(KernelTorture, ThpGoldenChaosRunMatchesAbsoluteDigest)
{
    expectTortureGolden(GetParam(), /*thp=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelTorture,
                         ::testing::Values(1, 7, 42, 1337, 90210));

TEST(KernelTortureGolden, PlansReachEveryMigrationPath)
{
    // The golden digests pin every migration path only if the fixed
    // plans really drive each one somewhere across the seeds.
    std::vector<TortureOutcome> runs;
    for (const std::uint64_t seed : {1, 7, 42, 1337, 90210}) {
        for (const bool thp : {false, true}) {
            for (const std::uint32_t copy_threads : {1u, 4u})
                runs.push_back(goldenRun(seed, thp, copy_threads));
        }
    }
    for (const std::string_view name :
         {"pgpromote_demoted", "pgdemote_kswapd", "pgdemote_direct",
          "pgexchange_success", "pgexchange_thrash", "pgmigrate_fail",
          "promote_retry", "promote_paused", "breaker_trips",
          "thp_collapse_alloc", "thp_split_page", "hwpoison_soft_offline",
          "hwpoison_soft_offline_fail", "hwpoison_sigbus",
          "pgcopy_parallel"}) {
        const auto c = std::find_if(
            std::begin(kVmStatCounters), std::end(kVmStatCounters),
            [&](const VmStatCounter &e) { return e.name == name; });
        ASSERT_NE(c, std::end(kVmStatCounters)) << name;
        EXPECT_TRUE(std::any_of(runs.begin(), runs.end(),
                                [&](const TortureOutcome &r) {
                                    return r.vm.*c->field > 0;
                                }))
            << name;
    }
    EXPECT_TRUE(std::any_of(runs.begin(), runs.end(),
                            [](const TortureOutcome &r) {
                                return r.hugePromotions > 0;
                            }));
}

}  // namespace
}  // namespace memtier
