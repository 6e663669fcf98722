/**
 * @file
 * Tests for the policy subsystem: the tunables map, the registry, the
 * sweep cross product, the kernel's exchange/veto hooks, and the
 * regression guarantee that "autonuma" selected through the registry is
 * bit-identical to the pre-registry AutoNUMA path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/sweep.h"
#include "os/kernel.h"
#include "os/physical_memory.h"
#include "policy/exchange_policy.h"
#include "policy/policy_registry.h"
#include "policy/static_policies.h"
#include "policy/tunable_registry.h"
#include "policy/tunables.h"
#include "thp/thp_params.h"

namespace memtier {
namespace {

// -------------------------------------------------------- PolicyTunables

TEST(PolicyTunables, ParsesAssignments)
{
    PolicyTunables t;
    EXPECT_TRUE(t.parseAssignment("scan_period_ms=10"));
    EXPECT_TRUE(t.has("scan_period_ms"));
    EXPECT_EQ(t.getU64("scan_period_ms", 0), 10u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(PolicyTunables, RejectsMalformedAssignments)
{
    PolicyTunables t;
    std::string error;
    EXPECT_FALSE(t.parseAssignment("no_equals_sign", &error));
    EXPECT_NE(error.find("expected key=value"), std::string::npos);
    EXPECT_FALSE(t.parseAssignment("=value_without_key", &error));
    EXPECT_NE(error.find("expected key=value"), std::string::npos);
    EXPECT_FALSE(t.parseAssignment("k=", &error));
    EXPECT_NE(error.find("empty value"), std::string::npos);
    EXPECT_NE(error.find("'k'"), std::string::npos);
    EXPECT_EQ(t.size(), 0u);
}

TEST(PolicyTunables, DuplicateAssignmentIsAnError)
{
    PolicyTunables t;
    std::string error;
    EXPECT_TRUE(t.parseAssignment("k=1", &error));
    EXPECT_FALSE(t.parseAssignment("k=2", &error));
    EXPECT_NE(error.find("duplicate tunable 'k'"), std::string::npos);
    EXPECT_NE(error.find("'1'"), std::string::npos);
    // The first assignment survives untouched.
    EXPECT_EQ(t.getU64("k", 0), 1u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(PolicyTunables, TypedGettersFallBackWhenAbsent)
{
    PolicyTunables t;
    EXPECT_EQ(t.getU64("missing", 42), 42u);
    EXPECT_DOUBLE_EQ(t.getDouble("missing", 2.5), 2.5);
    EXPECT_EQ(t.getMillis("missing", 1234), Cycles{1234});
}

TEST(PolicyTunables, MillisConvertToCycles)
{
    PolicyTunables t;
    t.set("period", "2");
    EXPECT_EQ(t.getMillis("period", 0), secondsToCycles(0.002));
    t.set("period", "0.5");
    EXPECT_EQ(t.getMillis("period", 0), secondsToCycles(0.0005));
}

TEST(PolicyTunables, UnknownKeysAgainstAllowList)
{
    PolicyTunables t;
    t.set("good", "1");
    t.set("bogus", "2");
    const std::vector<std::string> unknown = t.unknownKeys({"good"});
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "bogus");
    EXPECT_TRUE(t.unknownKeys({"good", "bogus"}).empty());
}

TEST(PolicyTunables, AssignmentsRoundTrip)
{
    PolicyTunables t;
    t.set("b", "2");
    t.set("a", "1");
    EXPECT_EQ(t.assignments(),
              (std::vector<std::string>{"a=1", "b=2"}));
}

// --------------------------------------------------------------- Sweep

TEST(Sweep, NoAxesYieldsOneEmptyCombination)
{
    const auto combos = sweepCombinations({});
    ASSERT_EQ(combos.size(), 1u);
    EXPECT_TRUE(combos[0].empty());
}

TEST(Sweep, CrossProductFirstAxisSlowest)
{
    const std::vector<SweepAxis> axes = {
        {"a", {"1", "2"}},
        {"b", {"x", "y", "z"}},
    };
    const auto combos = sweepCombinations(axes);
    ASSERT_EQ(combos.size(), 6u);
    EXPECT_EQ(combos.front(),
              (std::vector<std::pair<std::string, std::string>>{
                  {"a", "1"}, {"b", "x"}}));
    EXPECT_EQ(combos.back(),
              (std::vector<std::pair<std::string, std::string>>{
                  {"a", "2"}, {"b", "z"}}));
}

// ------------------------------------------------------- PolicyRegistry

/** A machine with tiny tiers so capacity effects are easy to trigger. */
class PolicyKernelTest : public ::testing::Test
{
  protected:
    PolicyKernelTest()
        : phys(makeDramParams(kDramPages * kPageSize),
               makeNvmParams(kNvmPages * kPageSize)),
          kern(phys, KernelParams{})
    {
        kern.setShootdownClient(&shootdown);
    }

    /** mmap @p pages pages and touch each once (first-touch allocate). */
    Addr
    populate(std::uint64_t pages, Cycles start = 1000)
    {
        const Addr base = kern.mmap(start, pages * kPageSize, 1, "test");
        for (std::uint64_t i = 0; i < pages; ++i)
            kern.touchPage(pageOf(base) + i, start + i, MemOp::Store);
        return base;
    }

    /** First populated page currently resident on @p node. */
    PageNum
    findResident(Addr base, std::uint64_t pages, MemNode node) const
    {
        for (std::uint64_t i = 0; i < pages; ++i) {
            if (kern.nodeOf(pageOf(base) + i) == node)
                return pageOf(base) + i;
        }
        return kNoPage;
    }

    class CountingShootdown : public TlbShootdownClient
    {
      public:
        void tlbShootdown(PageNum) override { ++count; }
        std::uint64_t count = 0;
    };

    static constexpr std::uint64_t kDramPages = 64;
    static constexpr std::uint64_t kNvmPages = 512;

    PhysicalMemory phys;
    CountingShootdown shootdown;
    Kernel kern;
};

TEST_F(PolicyKernelTest, RegistryListsBuiltinsSorted)
{
    const std::vector<std::string> names =
        PolicyRegistry::instance().names();
    EXPECT_EQ(names, (std::vector<std::string>{
                         "autonuma", "autotune", "dram-only",
                         "exchange", "interleave", "object-dynamic"}));
    for (const std::string &name : names) {
        EXPECT_TRUE(PolicyRegistry::instance().contains(name));
        EXPECT_FALSE(
            PolicyRegistry::instance().description(name).empty());
    }
    EXPECT_FALSE(PolicyRegistry::instance().contains("nope"));
}

TEST_F(PolicyKernelTest, RegistryCreatesEveryBuiltin)
{
    for (const std::string &name :
         PolicyRegistry::instance().names()) {
        TunableRegistry reg;
        PolicyContext ctx{kern, AutoNumaParams{}, PolicyTunables{}, reg};
        std::string error;
        const auto policy =
            PolicyRegistry::instance().create(name, ctx, &error);
        ASSERT_NE(policy, nullptr) << name << ": " << error;
        EXPECT_EQ(policy->name(), name);
    }
}

TEST_F(PolicyKernelTest, TunableKeysMatchWhatEachPolicyRegisters)
{
    // The hand-written key lists drive create()'s unknown-key check
    // and policy_sweep --list; they must name exactly what each policy
    // registers under its own name.
    PolicyRegistry &policies = PolicyRegistry::instance();
    for (const std::string &name : policies.names()) {
        if (name == "autotune")
            continue;
        TunableRegistry reg;
        std::string error;
        const auto policy = policies.create(
            name, PolicyContext{kern, AutoNumaParams{}, PolicyTunables{},
                                reg},
            &error);
        ASSERT_NE(policy, nullptr) << name << ": " << error;
        std::vector<std::string> listed = policies.tunableKeys(name);
        std::sort(listed.begin(), listed.end());
        EXPECT_EQ(listed, reg.keysOwnedBy(name)) << name;
        EXPECT_EQ(listed, reg.keys()) << name;
    }

    // autotune registers nothing of its own: it accepts its meta keys
    // plus whatever its base registers.
    const std::vector<std::string> meta = {
        "base",     "epoch_ms", "max_restarts", "max_steps",
        "min_gain", "min_step", "seed",         "step"};
    EXPECT_EQ(policies.tunableKeys("autotune"), meta);
    for (const std::string &base : policies.names()) {
        if (base == "autotune")
            continue;
        TunableRegistry reg;
        PolicyContext ctx{kern, AutoNumaParams{}, PolicyTunables{}, reg};
        ctx.tunables.set("base", base);
        std::string error;
        const auto policy = policies.create("autotune", ctx, &error);
        ASSERT_NE(policy, nullptr) << base << ": " << error;
        EXPECT_TRUE(reg.keysOwnedBy("autotune").empty()) << base;
        std::vector<std::string> listed = policies.tunableKeys(base);
        std::sort(listed.begin(), listed.end());
        EXPECT_EQ(reg.keysOwnedBy(base), listed) << base;
    }
}

TEST_F(PolicyKernelTest, RegistryRejectsUnknownName)
{
    TunableRegistry reg;
    PolicyContext ctx{kern, AutoNumaParams{}, PolicyTunables{}, reg};
    std::string error;
    EXPECT_EQ(PolicyRegistry::instance().create("numad", ctx, &error),
              nullptr);
    EXPECT_NE(error.find("unknown policy 'numad'"), std::string::npos);
    EXPECT_NE(error.find("autonuma"), std::string::npos);  // Suggests.
}

TEST_F(PolicyKernelTest, RegistryRejectsUnknownTunable)
{
    TunableRegistry reg;
    PolicyContext ctx{kern, AutoNumaParams{}, PolicyTunables{}, reg};
    ctx.tunables.set("exchange_batch", "8");  // An exchange-only key.
    std::string error;
    EXPECT_EQ(
        PolicyRegistry::instance().create("autonuma", ctx, &error),
        nullptr);
    EXPECT_NE(error.find("exchange_batch"), std::string::npos);
}

TEST_F(PolicyKernelTest, ObjectDynamicIsRegisteredWithoutTunables)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    const std::vector<std::string> names = reg.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "object-dynamic"),
              names.end());
    EXPECT_TRUE(reg.tunableKeys("object-dynamic").empty());

    // No key is understood, not even the scanner's.
    TunableRegistry tunables;
    PolicyContext ctx{kern, AutoNumaParams{}, PolicyTunables{}, tunables};
    ctx.tunables.set("scan_period_ms", "7");
    std::string error;
    EXPECT_EQ(reg.create("object-dynamic", ctx, &error), nullptr);
    EXPECT_NE(error.find("scan_period_ms"), std::string::npos);

    // Built with its defaults, it rebalances every 20 ms and asks for
    // the access feed.
    const auto policy = reg.create("object-dynamic",
                                   PolicyContext{kern, AutoNumaParams{},
                                                 PolicyTunables{},
                                                 tunables},
                                   &error);
    ASSERT_NE(policy, nullptr) << error;
    EXPECT_EQ(policy->scanPeriod(), secondsToCycles(0.02));
    EXPECT_NE(policy->accessObserver(), nullptr);
}

TEST_F(PolicyKernelTest, RegistryAppliesTunables)
{
    TunableRegistry reg;
    PolicyContext ctx{kern, AutoNumaParams{}, PolicyTunables{}, reg};
    ctx.tunables.set("scan_period_ms", "7");
    std::string error;
    const auto policy =
        PolicyRegistry::instance().create("autonuma", ctx, &error);
    ASSERT_NE(policy, nullptr) << error;
    EXPECT_EQ(policy->scanPeriod(), secondsToCycles(0.007));
    EXPECT_EQ(reg.formatValue("scan_period_ms"), "7");
}

// ------------------------------------------------------- Exchange hooks

TEST_F(PolicyKernelTest, ExchangeSwapsResidenceKeepingTierCounts)
{
    // Overfill DRAM so the tail of the region lands on NVM.
    const std::uint64_t pages = kDramPages + 32;
    const Addr base = populate(pages);
    const PageNum up = findResident(base, pages, MemNode::NVM);
    ASSERT_NE(up, kNoPage);

    const PageNum down = kern.pickExchangeVictim(500000);
    ASSERT_NE(down, kNoPage);
    ASSERT_EQ(kern.nodeOf(down), MemNode::DRAM);

    const std::uint64_t dram_used = phys.dram().usedPages();
    const std::uint64_t nvm_used = phys.nvm().usedPages();
    const std::uint64_t shootdowns = shootdown.count;

    const Cycles cost = kern.exchangePages(up, down, 600000);
    EXPECT_GT(cost, 0u);
    EXPECT_EQ(kern.nodeOf(up), MemNode::DRAM);
    EXPECT_EQ(kern.nodeOf(down), MemNode::NVM);

    // The exchange must never change per-tier resident counts: no
    // frame is created or destroyed, the two pages trade places.
    EXPECT_EQ(phys.dram().usedPages(), dram_used);
    EXPECT_EQ(phys.nvm().usedPages(), nvm_used);
    EXPECT_EQ(kern.vmstat().pgexchangeSuccess, 1u);
    EXPECT_EQ(kern.vmstat().pgmigrateSuccess, 2u);
    EXPECT_EQ(shootdown.count, shootdowns + 2);  // Both mappings.

    // Both pages stay present and touchable without a page fault.
    EXPECT_FALSE(kern.touchPage(up, 700000, MemOp::Load).pageFault);
    EXPECT_FALSE(kern.touchPage(down, 700001, MemOp::Load).pageFault);
}

TEST_F(PolicyKernelTest, ExchangeBackCountsThrash)
{
    const std::uint64_t pages = kDramPages + 32;
    const Addr base = populate(pages);
    const PageNum up = findResident(base, pages, MemNode::NVM);
    const PageNum down = kern.pickExchangeVictim(500000);
    ASSERT_NE(up, kNoPage);
    ASSERT_NE(down, kNoPage);

    ASSERT_GT(kern.exchangePages(up, down, 600000), 0u);
    // Swapping straight back pushes the exchanged-in page out again:
    // that is exchange thrash, the failure mode the protection window
    // exists to prevent.
    ASSERT_GT(kern.exchangePages(down, up, 700000), 0u);
    EXPECT_EQ(kern.vmstat().pgexchangeSuccess, 2u);
    EXPECT_EQ(kern.vmstat().pgexchangeThrash, 1u);
    EXPECT_GE(kern.vmstat().pgpromoteDemoted, 1u);
}

TEST_F(PolicyKernelTest, ExchangeRejectsWrongResidence)
{
    const std::uint64_t pages = kDramPages + 32;
    const Addr base = populate(pages);
    const PageNum dram_page = findResident(base, pages, MemNode::DRAM);
    const PageNum nvm_page = findResident(base, pages, MemNode::NVM);
    ASSERT_NE(dram_page, kNoPage);
    ASSERT_NE(nvm_page, kNoPage);

    // Arguments reversed / unmapped pages: no-op, no counter movement.
    EXPECT_EQ(kern.exchangePages(dram_page, nvm_page, 600000), 0u);
    EXPECT_EQ(kern.exchangePages(nvm_page, nvm_page, 600000), 0u);
    EXPECT_EQ(kern.exchangePages(kNoPage, dram_page, 600000), 0u);
    EXPECT_EQ(kern.vmstat().pgexchangeSuccess, 0u);
    EXPECT_EQ(kern.vmstat().pgmigrateSuccess, 0u);
}

// ---------------------------------------------------------- Veto hooks

TEST_F(PolicyKernelTest, VetoedDemotionLeavesPageTableConsistent)
{
    DramOnlyPolicy policy(kern);  // Vetoes every demotion.
    kern.setTieringPolicy(&policy);
    const std::uint64_t pages = kDramPages + 32;
    const Addr base = populate(pages);

    std::vector<MemNode> nodes_before;
    for (std::uint64_t i = 0; i < pages; ++i)
        nodes_before.push_back(kern.nodeOf(pageOf(base) + i));
    const std::uint64_t dram_used = phys.dram().usedPages();
    const std::uint64_t nvm_used = phys.nvm().usedPages();

    // DRAM is packed solid, so kswapd wants to demote -- and the
    // policy vetoes every proposal. The bounded veto budget guarantees
    // this returns instead of spinning.
    kern.kswapdTick(500000);

    EXPECT_EQ(kern.vmstat().pgdemoteKswapd, 0u);
    EXPECT_EQ(kern.vmstat().pgdemoteDirect, 0u);
    EXPECT_GT(kern.vmstat().pgdemoteVetoed, 0u);
    EXPECT_EQ(phys.dram().usedPages(), dram_used);
    EXPECT_EQ(phys.nvm().usedPages(), nvm_used);

    // Every page is still mapped, resident where it was, and touchable
    // without a fault.
    for (std::uint64_t i = 0; i < pages; ++i) {
        const PageNum vpn = pageOf(base) + i;
        const PageMeta *meta = kern.pageMeta(vpn);
        ASSERT_NE(meta, nullptr);
        EXPECT_TRUE(meta->present);
        EXPECT_EQ(meta->node, nodes_before[i]);
        EXPECT_FALSE(
            kern.touchPage(vpn, 600000 + i, MemOp::Load).pageFault);
    }
    EXPECT_EQ(policy.stats().demotionsVetoed,
              kern.vmstat().pgdemoteVetoed);
    kern.setTieringPolicy(nullptr);
}

// ------------------------------------------- AutoNUMA regression golden
//
// The exact VmStat deltas and output checksum this workload produced on
// the pre-registry seed tree, recaptured when the batched access
// pipeline restructured the apps' issue order and again when PageRank's
// gather phase moved to per-range bulk reads (which drop the duplicate
// per-vertex offset loads, shifting fault and migration timing; the
// page-fault count and output checksum were unchanged by both
// recaptures). The registry path must reproduce them bit for bit -- any
// drift means a refactor changed AutoNUMA behaviour.
// The hotpath golden tests separately assert that the batched and
// forced-scalar paths both produce exactly these numbers.

RunConfig
goldenConfig()
{
    RunConfig rc;
    rc.workload.app = App::PR;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 13;
    rc.workload.trials = 8;
    rc.sampling = false;
    rc.sys.dram = makeDramParams(192 * kPageSize);
    rc.sys.nvm = makeNvmParams(4096 * kPageSize);
    rc.sys.autonuma.scanPeriod = secondsToCycles(0.0005);
    rc.sys.autonuma.adjustPeriod = secondsToCycles(0.002);
    rc.sys.autonuma.rateLimitBytesPerSec = 4 * kMiB;
    return rc;
}

void
expectGolden(const RunResult &r)
{
    EXPECT_EQ(r.vmstat.pgfault, 249u);
    EXPECT_EQ(r.vmstat.numaHintFaults, 1984u);
    EXPECT_EQ(r.vmstat.pgpromoteSuccess, 805u);
    EXPECT_EQ(r.vmstat.pgpromoteDemoted, 631u);
    EXPECT_EQ(r.vmstat.pgdemoteKswapd, 213u);
    EXPECT_EQ(r.vmstat.pgdemoteDirect, 640u);
    EXPECT_EQ(r.vmstat.pgdemoteVetoed, 0u);
    EXPECT_EQ(r.vmstat.pgexchangeSuccess, 0u);
    EXPECT_EQ(r.vmstat.pgexchangeThrash, 0u);
    EXPECT_EQ(r.vmstat.pgmigrateSuccess, 1658u);
    EXPECT_EQ(r.vmstat.promoteCandidates, 805u);
    EXPECT_EQ(r.vmstat.promoteRateLimited, 0u);
    EXPECT_EQ(r.vmstat.pageCacheDrops, 0u);
    EXPECT_EQ(r.outputChecksum, 0xb5d59696c650f8d5ull);
    EXPECT_DOUBLE_EQ(r.totalSeconds, 0.010627439615384615);
}

// The goldens were captured with 4 KiB pages only; MEMTIER_THP=ON
// legitimately changes every counter, so the exact-value comparison
// only holds without it.
#define SKIP_UNDER_FORCED_THP()                                          \
    do {                                                                 \
        if (thpForcedByEnv())                                            \
            GTEST_SKIP() << "golden values captured with THP off";       \
    } while (0)

TEST(AutoNumaRegression, LegacyModePathMatchesSeed)
{
    SKIP_UNDER_FORCED_THP();
    const RunResult r = runWorkload(goldenConfig());
    EXPECT_TRUE(r.hasAutoNuma);
    expectGolden(r);
}

TEST(AutoNumaRegression, RegistryPathMatchesSeed)
{
    SKIP_UNDER_FORCED_THP();
    RunConfig rc = goldenConfig();
    rc.policy = "autonuma";
    const RunResult r = runWorkload(rc);
    EXPECT_EQ(r.policyName, "autonuma");
    EXPECT_FALSE(r.policyCounters.empty());
    expectGolden(r);
}

TEST(AutoNumaRegression, TunablesExpressTheSameConfig)
{
    SKIP_UNDER_FORCED_THP();
    RunConfig rc = goldenConfig();
    // Wipe the struct-level overrides and express them as registry
    // tunables instead; the run must still match the golden values.
    rc.sys.autonuma = AutoNumaParams{};
    rc.policy = "autonuma";
    rc.tunables = {"scan_period_ms=0.5", "adjust_period_ms=2",
                   "rate_limit_kib=4096"};
    expectGolden(runWorkload(rc));
}

TEST(AutoNumaRegression, EffectiveTunablesReflectConstruction)
{
    SKIP_UNDER_FORCED_THP();
    RunConfig rc = goldenConfig();
    rc.sys.autonuma = AutoNumaParams{};
    rc.policy = "autonuma";
    rc.tunables = {"scan_period_ms=0.5", "adjust_period_ms=2",
                   "rate_limit_kib=4096"};
    const RunResult r = runWorkload(rc);
    auto value = [&](const std::string &k) -> std::string {
        for (const auto &[key, v] : r.effectiveTunables) {
            if (key == k)
                return v;
        }
        return "<missing>";
    };
    // Nothing tuned at runtime: the effective values are exactly the
    // construction-time assignments (plus kernel/policy defaults).
    EXPECT_EQ(value("scan_period_ms"), "0.5");
    EXPECT_EQ(value("adjust_period_ms"), "2");
    EXPECT_EQ(value("rate_limit_kib"), "4096");
    EXPECT_EQ(value("copy_threads"), "1");
}

TEST(AutoNumaRegression, AutotuneObserveOnlyMatchesSeed)
{
    SKIP_UNDER_FORCED_THP();
    RunConfig rc = goldenConfig();
    rc.sys.autonuma = AutoNumaParams{};
    // The autotune wrapper with max_steps=0 observes every epoch but
    // never writes the registry: the wrapped autonuma run must stay
    // bit-identical to the seed golden.
    rc.policy = "autotune";
    rc.tunables = {"base=autonuma", "max_steps=0",
                   "scan_period_ms=0.5", "adjust_period_ms=2",
                   "rate_limit_kib=4096"};
    const RunResult r = runWorkload(rc);
    EXPECT_EQ(r.policyName, "autotune");
    EXPECT_FALSE(r.metricsEpochs.empty());
    expectGolden(r);
}

// --------------------------------------------------- vmstat counter table

TEST(VmStatTable, DumpPinsEveryNameAndWord)
{
    // The counter names are an external format (/proc/vmstat): the
    // full ordered list is pinned so that a rename is deliberate. The
    // dump must parse with a /proc/vmstat reader, and its i-th value
    // must be the i-th VmStat word.
    const std::vector<std::string> pinned = {
        "pgfault", "numa_hint_faults", "pgpromote_success",
        "pgpromote_demoted", "pgdemote_kswapd", "pgdemote_direct",
        "pgdemote_vetoed", "pgexchange_success", "pgexchange_thrash",
        "pgmigrate_success", "promote_candidates", "promote_rate_limited",
        "page_cache_drops", "pgmigrate_fail", "promote_retry",
        "promote_paused", "pgalloc_fail", "disk_read_retry",
        "breaker_trips", "thp_fault_alloc", "thp_fault_fallback",
        "thp_collapse_alloc", "thp_collapse_fail", "thp_split_page",
        "thp_unmap_huge", "hwpoison_ce", "hwpoison_ue",
        "hwpoison_soft_offline", "hwpoison_soft_offline_fail",
        "hwpoison_sigbus", "hwpoison_cache_dropped",
        "hwpoison_frames_retired", "pgcopy_chunks", "pgcopy_parallel",
        "pgcopy_queued_chunks", "pgcopy_busy_cycles"};
    const RunResult r = runWorkload(goldenConfig());
    ASSERT_GT(r.vmstat.pgmigrateSuccess, 0u);
    std::uint64_t words[sizeof(VmStat) / sizeof(std::uint64_t)];
    std::memcpy(words, &r.vmstat, sizeof(VmStat));

    std::ostringstream dump;
    writeVmstat(dump, r.vmstat);
    std::istringstream in(dump.str());
    std::vector<std::string> names;
    std::string line;
    while (std::getline(in, line)) {
        char key[64];
        unsigned long val = 0;
        ASSERT_EQ(std::sscanf(line.c_str(), "%63s %lu", key, &val), 2)
            << line;
        ASSERT_EQ(line, std::string(key) + " " + std::to_string(val));
        ASSERT_LT(names.size(), std::size(words)) << line;
        EXPECT_EQ(val, words[names.size()]) << key;
        names.emplace_back(key);
    }
    EXPECT_EQ(names, pinned);
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              names.size());
}

// --------------------------------------------------- Policy end-to-end

TEST(PolicyEndToEnd, StaticPoliciesNeverMigrate)
{
    RunConfig rc = goldenConfig();
    rc.policy = "dram-only";
    const RunResult dram_only = runWorkload(rc);
    EXPECT_EQ(dram_only.policyName, "dram-only");
    EXPECT_EQ(dram_only.vmstat.pgmigrateSuccess, 0u);
    EXPECT_EQ(dram_only.vmstat.pgpromoteSuccess, 0u);
    EXPECT_EQ(dram_only.vmstat.pgdemoteKswapd, 0u);
    EXPECT_EQ(dram_only.vmstat.pgdemoteDirect, 0u);
    EXPECT_EQ(dram_only.vmstat.numaHintFaults, 0u);

    rc.policy = "interleave";
    const RunResult interleave = runWorkload(rc);
    EXPECT_EQ(interleave.vmstat.pgmigrateSuccess, 0u);
    // Interleave really stripes: first touches land on both tiers.
    // (finalNumastat is useless here -- the runner unmaps the graph
    // before harvesting, so resident counts are zero by then.)
    std::uint64_t to_dram = 0;
    std::uint64_t to_nvm = 0;
    for (const auto &[key, value] : interleave.policyCounters) {
        if (key == "first_touch_dram")
            to_dram = value;
        if (key == "first_touch_nvm")
            to_nvm = value;
    }
    EXPECT_GT(to_dram, 0u);
    EXPECT_GT(to_nvm, 0u);

    // Placement must never change application output.
    EXPECT_EQ(dram_only.outputChecksum, interleave.outputChecksum);
    EXPECT_EQ(dram_only.outputChecksum, 0xb5d59696c650f8d5ull);
}

TEST(PolicyEndToEnd, ExchangePolicyExchanges)
{
    RunConfig rc = goldenConfig();
    rc.policy = "exchange";
    rc.tunables = {"scan_period_ms=0.5", "protect_ms=2"};
    const RunResult r = runWorkload(rc);
    EXPECT_EQ(r.policyName, "exchange");
    EXPECT_GT(r.vmstat.pgexchangeSuccess, 0u);
    // The whole point: hot/cold swaps replace most reclaim demotions.
    EXPECT_LT(r.vmstat.pgdemoteKswapd + r.vmstat.pgdemoteDirect,
              r.vmstat.pgexchangeSuccess);
    EXPECT_EQ(r.outputChecksum, 0xb5d59696c650f8d5ull);
}

TEST(PolicyEndToEnd, ExchangeMatchesAbsoluteGolden)
{
    SKIP_UNDER_FORCED_THP();
    // The exchange run above, pinned absolutely: every VmStat word,
    // every policy counter, the simulated time and the checksum. The
    // exchange policy shares AutoNUMA's PROT_NONE scanner, so a change
    // to the scan walk or to the policy hooks shows here.
    RunConfig rc = goldenConfig();
    rc.policy = "exchange";
    rc.tunables = {"scan_period_ms=0.5", "protect_ms=2"};
    const RunResult r = runWorkload(rc);

    constexpr std::size_t kWords = sizeof(VmStat) / sizeof(std::uint64_t);
    static_assert(kWords == 36, "recapture: VmStat gained a field");
    std::array<std::uint64_t, kWords> words{};
    std::memcpy(words.data(), &r.vmstat, sizeof(VmStat));
    const std::array<std::uint64_t, kWords> golden = {
        249u, 2104u, 770u, 658u, 96u, 0u, 0u, 770u, 658u, 1636u, 0u, 0u,
        0u,   0u,    0u,   0u,   0u,  0u, 0u, 0u,   0u,   0u,    0u, 0u,
        0u,   0u,    0u,   0u,   0u,  0u, 0u, 0u,   0u,   0u,    0u, 0u};
    EXPECT_EQ(words, golden);

    const std::vector<PolicyCounter> counters = {
        {"pages_scanned", 2947u},  {"hint_faults", 2104u},
        {"hint_faults_nvm", 1334u}, {"promotions", 0u},
        {"exchanges", 770u},       {"rejected_cold", 0u},
        {"rejected_batch", 564u},  {"no_victim", 0u},
        {"demotions_vetoed", 0u},  {"scans_paused", 0u},
        {"memory_failures", 0u},   {"promotions_held_off", 0u},
    };
    EXPECT_EQ(r.policyCounters, counters);
    EXPECT_EQ(r.totalSeconds, 0.011406998846153846);
    EXPECT_EQ(r.outputChecksum, 0xb5d59696c650f8d5ull);
    if (::testing::Test::HasFailure()) {
        std::printf("captured vmstat: {");
        for (const std::uint64_t w : words)
            std::printf("%" PRIu64 "u, ", w);
        std::printf("}\ncaptured counters: {");
        for (const auto &[key, value] : r.policyCounters)
            std::printf("{\"%s\", %" PRIu64 "u}, ", key.c_str(), value);
        std::printf("}\ncaptured seconds: %.17g\n", r.totalSeconds);
    }
}

}  // namespace
}  // namespace memtier
