/**
 * @file
 * Tests for the fault-injection subsystem: plan parsing, the injector's
 * deterministic per-point streams, the migration circuit breaker, the
 * kernel's failure-aware migration paths, and end-to-end properties --
 * deterministic replay of faulty runs, observer-only invariant
 * checking, and the workload-survives-20%-migration-failures
 * acceptance scenario.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/env.h"
#include "exp/runner.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "os/invariants.h"
#include "os/kernel.h"
#include "os/physical_memory.h"
#include "sim/engine.h"

namespace memtier {
namespace {

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlan, ParsesFullSpec)
{
    const FaultPlan plan = FaultPlan::parseOrDie(
        "migrate:p=0.2,burst=8;alloc:p=0.05;"
        "nvmlat:p=0.01,extra_ns=400;seed=7");
    EXPECT_TRUE(plan.anyEnabled());
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.at(FaultPoint::Migration).probability, 0.2);
    EXPECT_EQ(plan.at(FaultPoint::Migration).burstLength, 8u);
    EXPECT_DOUBLE_EQ(plan.at(FaultPoint::FrameAlloc).probability, 0.05);
    EXPECT_EQ(plan.at(FaultPoint::FrameAlloc).burstLength, 1u);
    EXPECT_DOUBLE_EQ(plan.at(FaultPoint::NvmLatency).probability, 0.01);
    EXPECT_GT(plan.at(FaultPoint::NvmLatency).extraCycles, 0u);
    EXPECT_FALSE(plan.at(FaultPoint::Exchange).enabled());
    EXPECT_FALSE(plan.at(FaultPoint::DiskRead).enabled());
}

TEST(FaultPlan, ParsesTimeWindows)
{
    const FaultPlan plan =
        FaultPlan::parseOrDie("diskread:p=0.5,from_ms=1,to_ms=2.5");
    EXPECT_DOUBLE_EQ(plan.at(FaultPoint::DiskRead).fromSec, 0.001);
    EXPECT_DOUBLE_EQ(plan.at(FaultPoint::DiskRead).toSec, 0.0025);
}

TEST(FaultPlan, EmptySpecIsNoFaults)
{
    FaultPlan plan;
    EXPECT_TRUE(FaultPlan::parse("", &plan));
    EXPECT_FALSE(plan.anyEnabled());
    EXPECT_EQ(plan.summary(), "(no faults)");
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "migrate",             // No colon.
        "bogus:p=0.5",         // Unknown point.
        "migrate:p=1.5",       // Probability out of range.
        "migrate:p=abc",       // Non-numeric probability.
        "migrate:p=0.1,burst=0",  // Burst must be >= 1.
        "migrate:burst=4",     // Point without p= stays disabled.
        "migrate:q=1",         // Unknown key.
        "seed=abc",            // Non-numeric seed.
    };
    for (const char *spec : bad) {
        FaultPlan plan;
        plan.seed = 99;  // Sentinel: parse failure must not touch out.
        std::string error;
        EXPECT_FALSE(FaultPlan::parse(spec, &plan, &error)) << spec;
        EXPECT_FALSE(error.empty()) << spec;
        EXPECT_EQ(plan.seed, 99u) << spec;
    }
}

TEST(FaultPlan, ParsesEccPoints)
{
    const FaultPlan plan =
        FaultPlan::parseOrDie("ecc_ce:p=0.1,burst=2;ecc_ue:p=0.01;seed=3");
    EXPECT_TRUE(plan.at(FaultPoint::EccCorrectable).enabled());
    EXPECT_DOUBLE_EQ(plan.at(FaultPoint::EccCorrectable).probability,
                     0.1);
    EXPECT_EQ(plan.at(FaultPoint::EccCorrectable).burstLength, 2u);
    EXPECT_TRUE(plan.at(FaultPoint::EccUncorrectable).enabled());
    const std::string s = plan.summary();
    EXPECT_NE(s.find("ecc_ce"), std::string::npos) << s;
    EXPECT_NE(s.find("ecc_ue"), std::string::npos) << s;
}

TEST(FaultPlan, PointCountDerivedFromSentinel)
{
    // kNumFaultPoints derives from the enum's Count sentinel, so every
    // point has a stable name and a parseable spelling.
    EXPECT_EQ(kNumFaultPoints, static_cast<int>(FaultPoint::Count));
    for (int i = 0; i < kNumFaultPoints; ++i) {
        const auto point = static_cast<FaultPoint>(i);
        const char *name = faultPointName(point);
        ASSERT_NE(name, nullptr);
        const FaultPlan plan =
            FaultPlan::parseOrDie(std::string(name) + ":p=0.5");
        EXPECT_TRUE(plan.at(point).enabled()) << name;
    }
}

TEST(FaultPlan, UnknownPointErrorNamesTheAlternatives)
{
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::parse("bogus:p=0.5", &plan, &error));
    EXPECT_NE(error.find("bogus"), std::string::npos) << error;
    EXPECT_NE(error.find("ecc_ce"), std::string::npos) << error;
    EXPECT_NE(error.find("ecc_ue"), std::string::npos) << error;
}

TEST(FaultPlan, OutOfRangeProbabilityErrorIsSpecific)
{
    for (const char *spec : {"migrate:p=1.5", "ecc_ce:p=-0.25"}) {
        FaultPlan plan;
        std::string error;
        EXPECT_FALSE(FaultPlan::parse(spec, &plan, &error)) << spec;
        EXPECT_NE(error.find("out of range"), std::string::npos)
            << spec << ": " << error;
    }
}

TEST(FaultPlan, SummaryNamesEnabledPoints)
{
    const FaultPlan plan =
        FaultPlan::parseOrDie("migrate:p=0.2,burst=8;seed=7");
    const std::string s = plan.summary();
    EXPECT_NE(s.find("migrate p=0.2"), std::string::npos) << s;
    EXPECT_NE(s.find("burst=8"), std::string::npos) << s;
    EXPECT_NE(s.find("seed=7"), std::string::npos) << s;
}

TEST(FaultPlan, FromEnvOrPrefersEnvironment)
{
    const char *var = "MEMTIER_TEST_FAULT_PLAN";
    unsetenv(var);
    FaultPlan fallback;
    fallback.seed = 123;
    EXPECT_EQ(FaultPlan::fromEnvOr(var, fallback).seed, 123u);

    setenv(var, "migrate:p=0.5;seed=11", 1);
    const FaultPlan from_env = FaultPlan::fromEnvOr(var, fallback);
    EXPECT_EQ(from_env.seed, 11u);
    EXPECT_DOUBLE_EQ(from_env.at(FaultPoint::Migration).probability,
                     0.5);
    unsetenv(var);
}

// -------------------------------------------------------- FaultInjector

std::vector<bool>
decisionTrace(FaultInjector &inj, FaultPoint point, int n)
{
    std::vector<bool> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        out.push_back(
            inj.shouldFail(point, static_cast<Cycles>(1000 + i)));
    }
    return out;
}

TEST(FaultInjector, SameSeedGivesIdenticalDecisions)
{
    const FaultPlan plan = FaultPlan::parseOrDie("migrate:p=0.3;seed=5");
    FaultInjector a(plan);
    FaultInjector b(plan);
    const std::vector<bool> ta =
        decisionTrace(a, FaultPoint::Migration, 2000);
    const std::vector<bool> tb =
        decisionTrace(b, FaultPoint::Migration, 2000);
    EXPECT_EQ(ta, tb);
    EXPECT_GT(a.injected(FaultPoint::Migration), 0u);
    EXPECT_LT(a.injected(FaultPoint::Migration), 2000u);
    EXPECT_EQ(a.totalInjected(), b.totalInjected());
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    FaultInjector a(FaultPlan::parseOrDie("migrate:p=0.3;seed=5"));
    FaultInjector b(FaultPlan::parseOrDie("migrate:p=0.3;seed=6"));
    EXPECT_NE(decisionTrace(a, FaultPoint::Migration, 2000),
              decisionTrace(b, FaultPoint::Migration, 2000));
}

TEST(FaultInjector, BurstFailsConsecutively)
{
    FaultInjector inj(
        FaultPlan::parseOrDie("migrate:p=0.05,burst=4;seed=9"));
    const std::vector<bool> trace =
        decisionTrace(inj, FaultPoint::Migration, 4000);
    // Every maximal run of failures is at least one full burst long
    // (later triggers may chain bursts, so runs are >= 4, not == 4).
    std::size_t i = 0;
    int runs = 0;
    while (i < trace.size()) {
        if (!trace[i]) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < trace.size() && trace[j])
            ++j;
        if (j < trace.size()) {  // Ignore a run truncated by the end.
            EXPECT_GE(j - i, 4u) << "short burst at " << i;
        }
        ++runs;
        i = j;
    }
    EXPECT_GT(runs, 0);
}

TEST(FaultInjector, TimeWindowConfinesFailures)
{
    FaultInjector inj(
        FaultPlan::parseOrDie("migrate:p=1,from_ms=1,to_ms=2"));
    EXPECT_FALSE(
        inj.shouldFail(FaultPoint::Migration, secondsToCycles(0.0005)));
    EXPECT_TRUE(
        inj.shouldFail(FaultPoint::Migration, secondsToCycles(0.0015)));
    EXPECT_FALSE(
        inj.shouldFail(FaultPoint::Migration, secondsToCycles(0.0025)));
    // Out-of-window queries are not even counted.
    EXPECT_EQ(inj.queried(FaultPoint::Migration), 1u);
    EXPECT_EQ(inj.injected(FaultPoint::Migration), 1u);
}

TEST(FaultInjector, DisabledPointNeverFires)
{
    FaultInjector inj(FaultPlan::parseOrDie("migrate:p=0.5"));
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.shouldFail(FaultPoint::FrameAlloc,
                                    static_cast<Cycles>(i)));
    }
    EXPECT_EQ(inj.queried(FaultPoint::FrameAlloc), 0u);
    EXPECT_EQ(inj.injected(FaultPoint::FrameAlloc), 0u);
}

TEST(FaultInjector, LatencyPenaltyMatchesPlanAmplitude)
{
    const FaultPlan plan =
        FaultPlan::parseOrDie("nvmlat:p=1,extra_ns=400");
    FaultInjector inj(plan);
    EXPECT_EQ(inj.latencyPenalty(FaultPoint::NvmLatency, 1000),
              plan.at(FaultPoint::NvmLatency).extraCycles);
    EXPECT_GT(inj.latencyPenalty(FaultPoint::NvmLatency, 1001), 0u);
    // A disabled point adds nothing.
    EXPECT_EQ(inj.latencyPenalty(FaultPoint::DiskRead, 1000), 0u);
}

// ------------------------------------------------------- CircuitBreaker

TEST(CircuitBreaker, TripsOnFailureBurstAndCoolsDown)
{
    CircuitBreaker b;
    const Cycles t = secondsToCycles(1.0);
    bool tripped = false;
    for (int i = 0; i < 8; ++i) {
        EXPECT_FALSE(tripped);
        tripped = b.record(false, t);
    }
    EXPECT_TRUE(tripped);
    EXPECT_EQ(b.trips(), 1u);
    EXPECT_TRUE(b.isOpen(t));
    EXPECT_TRUE(b.isOpen(t + b.params().cooldown - 1));
    EXPECT_FALSE(b.isOpen(t + b.params().cooldown));
}

TEST(CircuitBreaker, NeedsMinimumAttempts)
{
    CircuitBreaker b;
    const Cycles t = secondsToCycles(1.0);
    for (int i = 0; i < 7; ++i)
        EXPECT_FALSE(b.record(false, t));
    EXPECT_EQ(b.trips(), 0u);
    EXPECT_FALSE(b.isOpen(t));
    EXPECT_DOUBLE_EQ(b.failureRate(), 1.0);
}

TEST(CircuitBreaker, SuccessesHoldItClosed)
{
    // 75% successes stay under the 50% trip ratio; 75% failures cross
    // it as soon as the minimum-attempts floor is met.
    CircuitBreaker mostly_ok;
    CircuitBreaker mostly_bad;
    Cycles t = secondsToCycles(1.0);
    for (int i = 0; i < 40; ++i) {
        mostly_ok.record(i % 4 != 0, t);
        mostly_bad.record(i % 4 == 0, t);
        ++t;
    }
    EXPECT_EQ(mostly_ok.trips(), 0u);
    EXPECT_FALSE(mostly_ok.isOpen(t));
    EXPECT_GE(mostly_bad.trips(), 1u);
}

TEST(CircuitBreaker, OldFailuresDecayAway)
{
    CircuitBreaker b;
    const Cycles t0 = secondsToCycles(1.0);
    for (int i = 0; i < 6; ++i)
        EXPECT_FALSE(b.record(false, t0));
    // Twenty half-lives later the six old failures weigh ~nothing, so
    // six fresh failures still sit below the minimum-attempts floor.
    const Cycles t1 = t0 + 20 * b.params().decayHalfLife;
    for (int i = 0; i < 6; ++i)
        EXPECT_FALSE(b.record(false, t1));
    EXPECT_EQ(b.trips(), 0u);
}

// ------------------------------------------------ Kernel failure paths

/** Tiny-tier kernel with a pluggable fault injector. */
class FaultKernelTest : public ::testing::Test
{
  protected:
    FaultKernelTest()
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

    /**
     * Fill DRAM via one large region, park @p nvm_pages on NVM via a
     * second, then free the large region so DRAM has room again.
     * Returns the NVM-resident region's base.
     */
    Addr
    overflowToNvm(std::uint64_t nvm_pages)
    {
        const Addr big = populate(kDramPages);
        const Addr parked = populate(nvm_pages, 5000);
        EXPECT_EQ(findResident(parked, nvm_pages, MemNode::DRAM),
                  kNoPage);
        kern.munmap(6000, big);
        return parked;
    }

    class CountingShootdown : public TlbShootdownClient
    {
      public:
        void tlbShootdown(PageNum) override { ++count; }
        std::uint64_t count = 0;
    };

    static constexpr std::uint64_t kDramPages = 128;
    static constexpr std::uint64_t kNvmPages = 512;

    PhysicalMemory phys;
    CountingShootdown shootdown;
    Kernel kern;
};

TEST_F(FaultKernelTest, PromotionRetriesWithBackoffThenFails)
{
    const Addr parked = overflowToNvm(16);
    const PageNum victim = findResident(parked, 16, MemNode::NVM);
    ASSERT_NE(victim, kNoPage);

    FaultInjector inj(FaultPlan::parseOrDie("migrate:p=1"));
    kern.setFaultInjector(&inj);
    const std::uint64_t dram_free = phys.dram().freePages();

    const Cycles t = secondsToCycles(0.01);
    EXPECT_EQ(kern.promotePage(victim, t), 0u);

    // migrateRetryLimit (3) retries after the first failure: four
    // injected failures total, no success, and every transiently
    // grabbed DRAM frame released again.
    const VmStat &vm = kern.vmstat();
    EXPECT_EQ(vm.pgmigrateFail, 4u);
    EXPECT_EQ(vm.promoteRetry, 3u);
    EXPECT_EQ(vm.pgpromoteSuccess, 0u);
    EXPECT_EQ(vm.breakerTrips, 0u);  // 4 attempts < minAttempts (8).
    EXPECT_EQ(kern.nodeOf(victim), MemNode::NVM);
    EXPECT_EQ(phys.dram().freePages(), dram_free);

    InvariantChecker checker(kern);
    checker.checkNow(t);
}

TEST_F(FaultKernelTest, RepeatedFailuresTripBreakerAndPause)
{
    const Addr parked = overflowToNvm(16);
    const PageNum v1 = findResident(parked, 16, MemNode::NVM);
    const PageNum v2 = v1 + 1;
    const PageNum v3 = v1 + 2;
    ASSERT_EQ(kern.nodeOf(v3), MemNode::NVM);

    FaultInjector inj(FaultPlan::parseOrDie("migrate:p=1"));
    kern.setFaultInjector(&inj);
    const Cycles t = secondsToCycles(0.01);

    // Two failed promotions = 8 failed attempts: the 8th record crosses
    // the breaker's minimum-attempts floor at failure rate 1.0.
    EXPECT_EQ(kern.promotePage(v1, t), 0u);
    EXPECT_EQ(kern.promotePage(v2, t), 0u);
    EXPECT_EQ(kern.vmstat().breakerTrips, 1u);
    EXPECT_EQ(kern.migrationBreaker().trips(), 1u);
    EXPECT_TRUE(kern.migrationBreaker().isOpen(t));

    // While open, promotions are refused without touching the injector.
    const std::uint64_t fails_before = kern.vmstat().pgmigrateFail;
    EXPECT_EQ(kern.promotePage(v3, t), 0u);
    EXPECT_EQ(kern.vmstat().promotePaused, 1u);
    EXPECT_EQ(kern.vmstat().pgmigrateFail, fails_before);

    // After the cooldown (and with the transient fault gone) promotion
    // recovers.
    kern.setFaultInjector(nullptr);
    const Cycles later = t + kern.migrationBreaker().params().cooldown;
    EXPECT_FALSE(kern.migrationsPaused(later));
    EXPECT_GT(kern.promotePage(v3, later), 0u);
    EXPECT_EQ(kern.nodeOf(v3), MemNode::DRAM);
    EXPECT_EQ(kern.vmstat().pgpromoteSuccess, 1u);

    InvariantChecker checker(kern);
    checker.checkNow(later);
}

TEST_F(FaultKernelTest, InjectedAllocFailureFallsBackToNvm)
{
    FaultInjector inj(FaultPlan::parseOrDie("alloc:p=1"));
    kern.setFaultInjector(&inj);

    const Addr base = kern.mmap(1000, 4 * kPageSize, 1, "obj");
    for (std::uint64_t i = 0; i < 4; ++i)
        kern.touchPage(pageOf(base) + i, 1000 + i, MemOp::Store);

    // Every first touch wanted DRAM (it is empty), got an injected
    // ENOMEM, and degraded to NVM placement instead of OOMing.
    const VmStat &vm = kern.vmstat();
    EXPECT_EQ(vm.pgallocFail, 4u);
    EXPECT_EQ(vm.pgfault, 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(kern.nodeOf(pageOf(base) + i), MemNode::NVM);

    InvariantChecker checker(kern);
    checker.checkNow(2000);
}

TEST_F(FaultKernelTest, DiskReadErrorsRetryWithBoundedBudget)
{
    const Addr file = kern.registerFile(2 * kPageSize, "input.sg");
    FaultInjector inj(FaultPlan::parseOrDie("diskread:p=1"));
    kern.setFaultInjector(&inj);

    const Cycles cost = kern.ensureCached(pageOf(file), 1000);
    // p=1 exhausts the whole retry budget (diskReadRetryLimit = 4);
    // each re-issue charges another full disk read.
    EXPECT_EQ(kern.vmstat().diskReadRetry, 4u);
    EXPECT_GT(cost, 4 * KernelParams{}.diskReadCyclesPerPage);

    // Once cached, no further disk traffic and no further retries.
    EXPECT_EQ(kern.ensureCached(pageOf(file), 2000), 0u);
    EXPECT_EQ(kern.vmstat().diskReadRetry, 4u);
}

TEST_F(FaultKernelTest, FailedDemotionStopsReclaimWithoutDamage)
{
    const Addr a = kern.mmap(0, kDramPages * kPageSize, 1, "big");
    for (std::uint64_t i = 0; i < kDramPages - 2; ++i)
        kern.touchPage(pageOf(a) + i, 1000 + i, MemOp::Store);
    ASSERT_LT(phys.dram().freePages(), 32u);  // Below the low watermark.

    FaultInjector inj(FaultPlan::parseOrDie("migrate:p=1"));
    kern.setFaultInjector(&inj);
    kern.kswapdTick(secondsToCycles(0.01));

    const VmStat &vm = kern.vmstat();
    EXPECT_EQ(vm.pgdemoteKswapd, 0u);
    EXPECT_GE(vm.pgmigrateFail, 1u);

    // With the fault cleared the next wakeup drains DRAM as usual.
    kern.setFaultInjector(nullptr);
    kern.kswapdTick(secondsToCycles(0.02));
    EXPECT_GT(kern.vmstat().pgdemoteKswapd, 0u);

    InvariantChecker checker(kern);
    checker.checkNow(secondsToCycles(0.03));
}

TEST_F(FaultKernelTest, FailedExchangeHasNoSideEffects)
{
    const Addr big = populate(kDramPages);
    const Addr parked = populate(16, 5000);
    const PageNum dram_vpn = findResident(big, kDramPages, MemNode::DRAM);
    const PageNum nvm_vpn = findResident(parked, 16, MemNode::NVM);
    ASSERT_NE(dram_vpn, kNoPage);
    ASSERT_NE(nvm_vpn, kNoPage);

    FaultInjector inj(FaultPlan::parseOrDie("exchange:p=1"));
    kern.setFaultInjector(&inj);
    const Cycles t = secondsToCycles(0.01);
    EXPECT_EQ(kern.exchangePages(nvm_vpn, dram_vpn, t), 0u);
    EXPECT_EQ(kern.vmstat().pgexchangeSuccess, 0u);
    EXPECT_EQ(kern.vmstat().pgmigrateFail, 1u);
    EXPECT_EQ(kern.nodeOf(nvm_vpn), MemNode::NVM);
    EXPECT_EQ(kern.nodeOf(dram_vpn), MemNode::DRAM);

    // The same exchange succeeds once the fault clears.
    kern.setFaultInjector(nullptr);
    EXPECT_GT(kern.exchangePages(nvm_vpn, dram_vpn, t + 1), 0u);
    EXPECT_EQ(kern.vmstat().pgexchangeSuccess, 1u);
    EXPECT_EQ(kern.nodeOf(nvm_vpn), MemNode::DRAM);
    EXPECT_EQ(kern.nodeOf(dram_vpn), MemNode::NVM);

    InvariantChecker checker(kern);
    checker.checkNow(t + 2);
}

// ---------------------------------------------- Memory failure (ECC)

TEST_F(FaultKernelTest, CorrectableThresholdSoftOfflinesTheFrame)
{
    const Addr base = populate(4);
    const PageNum vpn = pageOf(base);
    const FrameNum old_frame = kern.pageMeta(vpn)->frame;
    const std::uint64_t healthy = phys.dram().healthyPages();

    FaultInjector inj(FaultPlan::parseOrDie("ecc_ce:p=1"));
    kern.setFaultInjector(&inj);

    // Threshold is 3 CEs on the same frame: the first two touches only
    // count, the third soft-offlines (migrate to a healthy frame, same
    // tier, retire the failing one). The touch itself still completes.
    const Cycles t = secondsToCycles(0.01);
    kern.touchPage(vpn, t, MemOp::Load);
    kern.touchPage(vpn, t + 1, MemOp::Load);
    EXPECT_EQ(kern.vmstat().hwpoisonSoftOffline, 0u);
    const TouchResult tr = kern.touchPage(vpn, t + 2, MemOp::Load);
    EXPECT_FALSE(tr.sigbus);

    const VmStat &vm = kern.vmstat();
    EXPECT_EQ(vm.hwpoisonCe, 3u);
    EXPECT_EQ(vm.hwpoisonSoftOffline, 1u);
    EXPECT_EQ(vm.hwpoisonFramesRetired, 1u);
    EXPECT_EQ(vm.hwpoisonSigbus, 0u);
    // Soft offline is not a promotion/demotion/exchange: the migration
    // counter identity is untouched.
    EXPECT_EQ(vm.pgmigrateSuccess, 0u);

    const PageMeta *meta = kern.pageMeta(vpn);
    ASSERT_NE(meta, nullptr);
    EXPECT_TRUE(meta->present);
    EXPECT_EQ(meta->node, MemNode::DRAM);  // Same tier preferred.
    EXPECT_NE(meta->frame, old_frame);
    EXPECT_TRUE(phys.dram().isRetired(old_frame));
    EXPECT_EQ(phys.dram().healthyPages(), healthy - 1);
    EXPECT_EQ(phys.dram().retiredPages(), 1u);

    InvariantChecker checker(kern);
    checker.checkNow(t + 3);
}

TEST_F(FaultKernelTest, UncorrectableAnonymousPageRaisesSigbus)
{
    const Addr base = populate(4);
    const PageNum vpn = pageOf(base) + 1;
    const FrameNum old_frame = kern.pageMeta(vpn)->frame;

    FaultInjector inj(FaultPlan::parseOrDie("ecc_ue:p=1"));
    kern.setFaultInjector(&inj);
    const Cycles t = secondsToCycles(0.01);
    const std::uint64_t shots = shootdown.count;
    const TouchResult tr = kern.touchPage(vpn, t, MemOp::Load);

    // The only copy of an anonymous page died with its frame: the
    // touch did not complete, the mapping is gone, the frame poisoned.
    EXPECT_TRUE(tr.sigbus);
    EXPECT_EQ(tr.node, MemNode::DRAM);  // Failed frame's tier (timing).
    const VmStat &vm = kern.vmstat();
    EXPECT_EQ(vm.hwpoisonUe, 1u);
    EXPECT_EQ(vm.hwpoisonSigbus, 1u);
    EXPECT_EQ(vm.hwpoisonFramesRetired, 1u);
    EXPECT_EQ(kern.pageMeta(vpn), nullptr);
    EXPECT_TRUE(phys.dram().isRetired(old_frame));
    EXPECT_GT(shootdown.count, shots);

    // The SIGBUS-analogue is survivable: a restarted iteration's next
    // touch takes a fresh minor fault onto a healthy frame.
    kern.setFaultInjector(nullptr);
    const std::uint64_t faults_before = vm.pgfault;
    const TouchResult again = kern.touchPage(vpn, t + 10, MemOp::Store);
    EXPECT_FALSE(again.sigbus);
    EXPECT_EQ(kern.vmstat().pgfault, faults_before + 1);
    ASSERT_NE(kern.pageMeta(vpn), nullptr);
    EXPECT_NE(kern.pageMeta(vpn)->frame, old_frame);

    InvariantChecker checker(kern);
    checker.checkNow(t + 11);
}

TEST_F(FaultKernelTest, UncorrectableCleanCachePageRereadsFromDisk)
{
    const Addr file = kern.registerFile(2 * kPageSize, "input.sg");
    const PageNum vpn = pageOf(file);
    kern.ensureCached(vpn, 1000);
    const FrameNum old_frame = kern.pageMeta(vpn)->frame;

    FaultInjector inj(FaultPlan::parseOrDie("ecc_ue:p=1"));
    kern.setFaultInjector(&inj);
    const Cycles t = secondsToCycles(0.01);
    const TouchResult tr = kern.touchPage(vpn, t, MemOp::Load);

    // A clean page-cache page has an intact copy on disk: the poisoned
    // frame is dropped and re-read, the touch completes without a kill
    // -- just slower by at least the disk fetch.
    EXPECT_FALSE(tr.sigbus);
    EXPECT_GE(tr.cost,
              KernelParams{}.memoryFailureCycles +
                  KernelParams{}.diskReadCyclesPerPage);
    const VmStat &vm = kern.vmstat();
    EXPECT_EQ(vm.hwpoisonUe, 1u);
    EXPECT_EQ(vm.hwpoisonCacheDropped, 1u);
    EXPECT_EQ(vm.hwpoisonSigbus, 0u);
    EXPECT_EQ(vm.hwpoisonFramesRetired, 1u);

    const PageMeta *meta = kern.pageMeta(vpn);
    ASSERT_NE(meta, nullptr);  // Remapped by the re-read.
    EXPECT_TRUE(meta->present);
    EXPECT_NE(meta->frame, old_frame);
    EXPECT_TRUE(phys.dram().isRetired(old_frame));

    InvariantChecker checker(kern);
    checker.checkNow(t + 1);
}

TEST_F(FaultKernelTest, SoftOfflineFallsBackToNvmWhenDramIsFull)
{
    // Fill DRAM completely so the home tier has no healthy free frame;
    // the soft offline must fall back to NVM rather than fail.
    // First-touch placement keeps a watermark reserve of free DRAM, so
    // drain that reserve through the allocator directly.
    const Addr big = populate(kDramPages);
    const PageNum vpn = pageOf(big);
    std::vector<FrameNum> drained;
    while (auto f = phys.dram().allocate(FrameOwner::App))
        drained.push_back(*f);
    ASSERT_EQ(phys.dram().freePages(), 0u);

    FaultInjector inj(FaultPlan::parseOrDie("ecc_ce:p=1"));
    kern.setFaultInjector(&inj);
    const Cycles t = secondsToCycles(0.01);
    for (int i = 0; i < 3; ++i)
        kern.touchPage(vpn, t + i, MemOp::Load);

    EXPECT_EQ(kern.vmstat().hwpoisonSoftOffline, 1u);
    const PageMeta *meta = kern.pageMeta(vpn);
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->node, MemNode::NVM);

    // Return the drained reserve so frame conservation holds again.
    for (const FrameNum f : drained)
        phys.dram().free(f, FrameOwner::App);
    InvariantChecker checker(kern);
    checker.checkNow(t + 4);
}

TEST_F(FaultKernelTest, OfflineStormTripsTheBreaker)
{
    const Addr base = populate(16);
    FaultInjector inj(FaultPlan::parseOrDie("ecc_ue:p=1"));
    kern.setFaultInjector(&inj);

    // Each UE is a hard offline recorded as a migration failure: eight
    // of them in one burst cross the breaker's minimum-attempts floor
    // at rate 1.0. (One timestamp for the whole storm: spreading the
    // records over cycles decays the attempt window fractionally below
    // the floor.)
    const Cycles t = secondsToCycles(0.01);
    for (std::uint64_t i = 0; i < 8; ++i) {
        const TouchResult tr =
            kern.touchPage(pageOf(base) + i, t, MemOp::Load);
        EXPECT_TRUE(tr.sigbus);
    }
    EXPECT_EQ(kern.vmstat().hwpoisonSigbus, 8u);
    EXPECT_GE(kern.vmstat().breakerTrips, 1u);
    EXPECT_TRUE(kern.migrationBreaker().isOpen(t + 8));

    InvariantChecker checker(kern);
    checker.checkNow(t + 9);
}

TEST_F(FaultKernelTest, CheckerReportDumpsEveryCounter)
{
    // A broken counter identity dies with the violation, followed by
    // the full vmstat dump in /proc/vmstat's "name value" lines.
    InvariantChecker checker(kern, 1);
    kern.setInvariantChecker(&checker);
    populate(4);
    ASSERT_GT(checker.checksRun(), 0u);
    ++kern.vmstatMutable().pgmigrateSuccess;
    EXPECT_DEATH(checker.checkNow(2000),
                 "pgmigrate_success=1 != promote\\+demote\\+exchange=0"
                 "(.|\n)*\npgfault 4\n(.|\n)*\npgmigrate_success 1\n"
                 "(.|\n)*panic: kernel invariant violated");
}

TEST(FaultThp, UncorrectableSplitsHugeMappingBeforeRetiring)
{
    // A UE on one 4 KiB subframe of a PMD mapping must poison only
    // that frame: the kernel splits the mapping first (as Linux
    // memory_failure() does) and the other 511 pages stay mapped.
    KernelParams kp;
    kp.thp.enabled = true;
    kp.thp.faultAlloc = true;
    PhysicalMemory phys(makeDramParams(2 * kPagesPerHuge * kPageSize),
                        makeNvmParams(8 * kPagesPerHuge * kPageSize));
    Kernel kern(phys, kp);

    const Addr a = kern.mmap(0, kHugePageSize, 0, "huge");
    const PageNum base = pageOf(a);
    kern.touchPage(base, 1000, MemOp::Store);
    ASSERT_EQ(kern.vmstat().thpFaultAlloc, 1u);
    ASSERT_TRUE(kern.isHugeMapped(base));

    FaultInjector inj(FaultPlan::parseOrDie("ecc_ue:p=1"));
    kern.setFaultInjector(&inj);
    const Cycles t = secondsToCycles(0.01);
    const TouchResult tr = kern.touchPage(base + 5, t, MemOp::Load);

    EXPECT_TRUE(tr.sigbus);
    const VmStat &vm = kern.vmstat();
    EXPECT_EQ(vm.thpSplitPage, 1u);
    EXPECT_EQ(vm.hwpoisonUe, 1u);
    EXPECT_EQ(vm.hwpoisonSigbus, 1u);
    EXPECT_EQ(vm.hwpoisonFramesRetired, 1u);  // One frame, not 512.
    EXPECT_EQ(phys.dram().retiredPages(), 1u);
    EXPECT_FALSE(kern.isHugeMapped(base));
    EXPECT_EQ(kern.pageMeta(base + 5), nullptr);
    for (std::uint64_t i = 0; i < kPagesPerHuge; ++i) {
        if (i == 5)
            continue;
        const PageMeta *meta = kern.pageMeta(base + i);
        ASSERT_NE(meta, nullptr) << i;
        EXPECT_TRUE(meta->present) << i;
    }

    InvariantChecker checker(kern);
    checker.checkNow(t + 1);
}

// -------------------------------------------------- Engine integration

TEST(FaultEngine, NoInjectorConstructedWithoutPlan)
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(64 * kPageSize);
    cfg.nvm = makeNvmParams(256 * kPageSize);
    Engine eng(cfg);
    EXPECT_EQ(eng.faultInjector(), nullptr);
    // The chaos CI stage forces the checker on via the environment, so
    // only assert its absence when that override is not active.
    if (!envFlag("MEMTIER_CHECK_INVARIANTS")) {
        EXPECT_EQ(eng.invariantChecker(), nullptr);
    }
}

TEST(FaultEngine, InjectorAndCheckerConstructedOnDemand)
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(64 * kPageSize);
    cfg.nvm = makeNvmParams(256 * kPageSize);
    cfg.faults = FaultPlan::parseOrDie("nvmlat:p=0.5,extra_ns=200");
    cfg.checkInvariants = true;
    Engine eng(cfg);
    EXPECT_NE(eng.faultInjector(), nullptr);
    EXPECT_NE(eng.invariantChecker(), nullptr);
}

// ----------------------------------------------------------- End-to-end

RunConfig
faultyConfig(const std::string &plan)
{
    RunConfig rc;
    rc.workload.app = App::BFS;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 13;
    rc.workload.trials = 4;
    rc.sampling = false;
    rc.sys.dram = makeDramParams(192 * kPageSize);
    rc.sys.nvm = makeNvmParams(4096 * kPageSize);
    rc.sys.autonuma.scanPeriod = secondsToCycles(0.0005);
    rc.sys.autonuma.adjustPeriod = secondsToCycles(0.002);
    rc.sys.autonuma.rateLimitBytesPerSec = 4 * kMiB;
    if (!plan.empty())
        rc.sys.faults = FaultPlan::parseOrDie(plan);
    return rc;
}

TEST(FaultEndToEnd, SameSeedReplaysBitIdentically)
{
    const RunConfig rc =
        faultyConfig("migrate:p=0.1,burst=4;alloc:p=0.02;seed=42");
    const RunResult a = runWorkload(rc);
    const RunResult b = runWorkload(rc);
    EXPECT_EQ(std::memcmp(&a.vmstat, &b.vmstat, sizeof(VmStat)), 0);
    EXPECT_EQ(a.outputChecksum, b.outputChecksum);
    EXPECT_DOUBLE_EQ(a.totalSeconds, b.totalSeconds);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_GT(a.faultsInjected, 0u);

    const RunResult c = runWorkload(
        faultyConfig("migrate:p=0.1,burst=4;alloc:p=0.02;seed=43"));
    EXPECT_NE(std::memcmp(&a.vmstat, &c.vmstat, sizeof(VmStat)), 0);
}

TEST(FaultEndToEnd, InvariantCheckerIsObserverOnly)
{
    RunConfig rc = faultyConfig("");
    const RunResult plain = runWorkload(rc);
    rc.sys.checkInvariants = true;
    rc.sys.invariantCheckPeriod = 64;
    const RunResult checked = runWorkload(rc);

    // Enabling the checker must not perturb the simulation at all.
    EXPECT_EQ(std::memcmp(&plain.vmstat, &checked.vmstat,
                          sizeof(VmStat)),
              0);
    EXPECT_EQ(plain.outputChecksum, checked.outputChecksum);
    EXPECT_DOUBLE_EQ(plain.totalSeconds, checked.totalSeconds);
    EXPECT_GT(checked.invariantChecksRun, 0u);

    // With no plan there is no injector and no injection-only counters.
    EXPECT_EQ(plain.faultsInjected, 0u);
    EXPECT_EQ(plain.vmstat.promoteRetry, 0u);
    EXPECT_EQ(plain.vmstat.pgallocFail, 0u);
    EXPECT_EQ(plain.vmstat.diskReadRetry, 0u);
    EXPECT_EQ(plain.vmstat.breakerTrips, 0u);
    EXPECT_EQ(plain.vmstat.promotePaused, 0u);
}

TEST(FaultEndToEnd, BfsSurvivesTwentyPercentMigrationFailures)
{
    // The acceptance scenario: a 20% transient migration-failure plan
    // with bursts of 8. The workload must complete with the same output
    // as a fault-free run, the breaker must trip at least once, and the
    // invariant checker must stay green throughout.
    const RunResult clean = runWorkload(faultyConfig(""));
    RunConfig rc = faultyConfig("migrate:p=0.2,burst=8;seed=7");
    rc.sys.checkInvariants = true;
    rc.sys.invariantCheckPeriod = 256;
    const RunResult r = runWorkload(rc);

    EXPECT_EQ(r.outputChecksum, clean.outputChecksum);
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_GT(r.vmstat.pgmigrateFail, 0u);
    EXPECT_GE(r.vmstat.breakerTrips, 1u);
    EXPECT_GT(r.vmstat.promotePaused, 0u);
    EXPECT_GT(r.invariantChecksRun, 0u);
}

TEST(FaultEndToEnd, NoEccPlanLeavesHwpoisonCountersZero)
{
    // Bit-identity contract: with the ECC points disabled nothing in
    // the memory-failure subsystem may run.
    const RunResult r = runWorkload(faultyConfig(""));
    EXPECT_EQ(r.vmstat.hwpoisonCe, 0u);
    EXPECT_EQ(r.vmstat.hwpoisonUe, 0u);
    EXPECT_EQ(r.vmstat.hwpoisonSoftOffline, 0u);
    EXPECT_EQ(r.vmstat.hwpoisonSoftOfflineFail, 0u);
    EXPECT_EQ(r.vmstat.hwpoisonSigbus, 0u);
    EXPECT_EQ(r.vmstat.hwpoisonCacheDropped, 0u);
    EXPECT_EQ(r.vmstat.hwpoisonFramesRetired, 0u);
    EXPECT_EQ(r.finalNumastat.retiredPages[0], 0u);
    EXPECT_EQ(r.finalNumastat.retiredPages[1], 0u);
    EXPECT_EQ(r.iterationsAborted, 0u);
    EXPECT_DOUBLE_EQ(r.availability(), 1.0);
}

TEST(FaultEndToEnd, EccPlanReplaysBitIdenticallyUnderInvariants)
{
    // The acceptance scenario for the memory-failure subsystem: an ECC
    // chaos plan heavy enough to retire frames and kill iterations must
    // replay bit-identically (identical vmstat, identical checksum)
    // with the invariant checker proving no poisoned frame is ever
    // mapped or re-allocated.
    RunConfig rc =
        faultyConfig("ecc_ce:p=0.05;ecc_ue:p=0.01;seed=42");
    rc.sys.checkInvariants = true;
    rc.sys.invariantCheckPeriod = 128;
    const RunResult a = runWorkload(rc);
    const RunResult b = runWorkload(rc);

    EXPECT_EQ(std::memcmp(&a.vmstat, &b.vmstat, sizeof(VmStat)), 0);
    EXPECT_EQ(a.outputChecksum, b.outputChecksum);
    EXPECT_DOUBLE_EQ(a.totalSeconds, b.totalSeconds);
    EXPECT_EQ(a.iterationsAborted, b.iterationsAborted);

    EXPECT_GT(a.vmstat.hwpoisonCe, 0u);
    EXPECT_GT(a.vmstat.hwpoisonUe, 0u);
    EXPECT_GT(a.vmstat.hwpoisonFramesRetired, 0u);
    EXPECT_EQ(a.vmstat.hwpoisonSoftOffline + a.vmstat.hwpoisonSigbus +
                  a.vmstat.hwpoisonCacheDropped,
              a.vmstat.hwpoisonFramesRetired);
    EXPECT_EQ(a.finalNumastat.retiredPages[0] +
                  a.finalNumastat.retiredPages[1],
              a.vmstat.hwpoisonFramesRetired);
    EXPECT_GT(a.invariantChecksRun, 0u);
    EXPECT_EQ(a.iterationsTotal, 4u);  // BFS trials.
    EXPECT_LE(a.availability(), 1.0);
}

TEST(FaultEndToEnd, ServingReportsAvailabilityUnderEcc)
{
    RunConfig rc;
    rc.workload.app = App::KV;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 12;
    rc.workload.trials = 2;
    rc.policy = "autonuma";
    rc.sampling = false;
    rc.sys.checkInvariants = true;
    rc.sys.invariantCheckPeriod = 256;
    rc.sys.faults = FaultPlan::parseOrDie("ecc_ue:p=0.05;seed=7");
    const RunResult r = runWorkload(rc);

    ASSERT_TRUE(r.hasServing);
    // Every SIGBUS in the serve phase failed exactly one request (the
    // prefill runs before request accounting, so <=), and the report's
    // availability reflects the failures.
    EXPECT_GT(r.serving.errors, 0u);
    EXPECT_LE(r.serving.errors, r.vmstat.hwpoisonSigbus);
    EXPECT_LT(r.serving.availability(), 1.0);
    EXPECT_EQ(r.iterationsAborted, r.serving.errors);
    EXPECT_GT(r.invariantChecksRun, 0u);

    // Failure handling is deterministic, like everything else.
    const RunResult again = runWorkload(rc);
    EXPECT_EQ(again.serving.errors, r.serving.errors);
    EXPECT_EQ(again.outputChecksum, r.outputChecksum);
}

}  // namespace
}  // namespace memtier
