/**
 * @file
 * Tests for the live tunable control plane: TunableRegistry edge cases
 * (clamping, rounding, no-op sets, observers, the unclamped
 * construction path) and the autotune wrapper policy's determinism --
 * two same-seed runs must produce bit-identical reports even when the
 * tuner mutates tunables while the workload runs.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "policy/tunable_registry.h"
#include "thp/thp_params.h"

namespace memtier {
namespace {

// ------------------------------------------------------ TunableRegistry

/** A registry with one double and one integer tunable backed by plain
 *  locals, plus counters observing every apply. */
class RegistryFixture : public ::testing::Test
{
  protected:
    RegistryFixture()
    {
        reg.add({"period_ms", "a double tunable", "alpha", 0.5, 100.0,
                 false, false, [this] { return period; },
                 [this](double v) {
                     period = v;
                     ++applies;
                 }});
        reg.add({"batch", "an integer tunable", "beta", 2.0, 64.0, true,
                 false, [this] { return double(batch); },
                 [this](double v) {
                     batch = static_cast<std::uint64_t>(v);
                     ++applies;
                 }});
    }

    TunableRegistry reg;
    double period = 10.0;
    std::uint64_t batch = 8;
    int applies = 0;
};

TEST_F(RegistryFixture, ListsAndFindsRegisteredKeys)
{
    EXPECT_EQ(reg.keys(),
              (std::vector<std::string>{"batch", "period_ms"}));
    EXPECT_EQ(reg.keysOwnedBy("alpha"),
              (std::vector<std::string>{"period_ms"}));
    EXPECT_EQ(reg.keysOwnedBy("beta"),
              (std::vector<std::string>{"batch"}));
    EXPECT_TRUE(reg.keysOwnedBy("nobody").empty());
    EXPECT_TRUE(reg.contains("batch"));
    EXPECT_FALSE(reg.contains("bogus"));
    EXPECT_EQ(reg.find("bogus"), nullptr);
    ASSERT_NE(reg.find("period_ms"), nullptr);
    EXPECT_EQ(reg.find("period_ms")->owner, "alpha");
    EXPECT_DOUBLE_EQ(reg.value("period_ms"), 10.0);
}

TEST_F(RegistryFixture, SetClampsIntoTheRegisteredRange)
{
    EXPECT_DOUBLE_EQ(reg.set("period_ms", 1000.0, 1), 100.0);
    EXPECT_DOUBLE_EQ(period, 100.0);
    EXPECT_DOUBLE_EQ(reg.set("period_ms", 0.001, 2), 0.5);
    EXPECT_DOUBLE_EQ(period, 0.5);
    EXPECT_EQ(applies, 2);
    EXPECT_EQ(reg.mutations(), 2u);
}

TEST_F(RegistryFixture, SetRoundsIntegerTunables)
{
    EXPECT_DOUBLE_EQ(reg.set("batch", 11.6, 1), 12.0);
    EXPECT_EQ(batch, 12u);
    EXPECT_DOUBLE_EQ(reg.set("batch", 5.4, 2), 5.0);
    EXPECT_EQ(batch, 5u);
    // Clamp happens before rounding: 1000 -> 64, 0.2 -> 2.
    EXPECT_DOUBLE_EQ(reg.set("batch", 1000.0, 3), 64.0);
    EXPECT_DOUBLE_EQ(reg.set("batch", 0.2, 4), 2.0);
    EXPECT_EQ(batch, 2u);
}

TEST_F(RegistryFixture, NoOpSetHasNoSideEffects)
{
    bool observed = false;
    reg.setApplyObserver(
        [&](const TunableRegistry::Tunable &, Cycles) {
            observed = true;
        });
    // Proposing the current value applies nothing.
    EXPECT_DOUBLE_EQ(reg.set("period_ms", 10.0, 1), 10.0);
    // A wild value that clamps back onto the current one is also a
    // no-op (8 rounds to 8).
    EXPECT_DOUBLE_EQ(reg.set("batch", 8.2, 2), 8.0);
    EXPECT_EQ(applies, 0);
    EXPECT_EQ(reg.mutations(), 0u);
    EXPECT_FALSE(observed);
}

TEST_F(RegistryFixture, ObserverSeesEveryAppliedSet)
{
    std::vector<std::pair<std::string, Cycles>> seen;
    reg.setApplyObserver(
        [&](const TunableRegistry::Tunable &t, Cycles now) {
            seen.emplace_back(t.key, now);
        });
    reg.set("period_ms", 20.0, 111);
    reg.set("batch", 4.0, 222);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], (std::pair<std::string, Cycles>{"period_ms", 111}));
    EXPECT_EQ(seen[1], (std::pair<std::string, Cycles>{"batch", 222}));
}

TEST_F(RegistryFixture, SetFromStringAppliesUnclamped)
{
    // The construction path must reproduce the CLI exactly: values
    // outside the online-tuning clamp range still apply verbatim.
    reg.setFromString("period_ms", "2500.5");
    EXPECT_DOUBLE_EQ(period, 2500.5);
    // Integer keys parse with getU64 semantics (base 0: hex works).
    reg.setFromString("batch", "0x80");
    EXPECT_EQ(batch, 128u);
    EXPECT_EQ(applies, 2);
    // The construction path counts no runtime mutations.
    EXPECT_EQ(reg.mutations(), 0u);
}

TEST_F(RegistryFixture, FormatsValuesByType)
{
    EXPECT_EQ(reg.formatValue("batch"), "8");
    EXPECT_EQ(reg.formatValue("period_ms"), "10");
    reg.set("period_ms", 12.25, 1);
    EXPECT_EQ(reg.formatValue("period_ms"), "12.25");
    reg.set("batch", 11.6, 2);
    EXPECT_EQ(reg.formatValue("batch"), "12");
    reg.setFromString("period_ms", "0.000125");
    EXPECT_EQ(reg.formatValue("period_ms"), "0.000125");
}

// ---------------------------------------------------- Autotune end-to-end

/** The policy goldens' workload with an aggressive tuning cadence so
 *  the hill climber takes many steps within the short run. */
RunConfig
tunedConfig()
{
    RunConfig rc;
    rc.workload.app = App::PR;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 13;
    rc.workload.trials = 8;
    rc.sampling = false;
    rc.sys.dram = makeDramParams(192 * kPageSize);
    rc.sys.nvm = makeNvmParams(4096 * kPageSize);
    rc.sys.autonuma = AutoNumaParams{};
    rc.policy = "autotune";
    rc.tunables = {"base=autonuma",  "epoch_ms=0.2", "min_gain=0",
                   "seed=7",         "scan_period_ms=0.5",
                   "adjust_period_ms=2", "rate_limit_kib=4096"};
    return rc;
}

std::uint64_t
counter(const RunResult &r, const std::string &key)
{
    for (const auto &[name, value] : r.policyCounters) {
        if (name == key)
            return value;
    }
    return ~0ULL;
}

TEST(AutotuneEndToEnd, TunerActuallyMovesTunables)
{
    const RunResult r = runWorkload(tunedConfig());
    EXPECT_EQ(r.policyName, "autotune");
    EXPECT_GT(counter(r, "tuner_epochs"), 0u);
    EXPECT_GT(counter(r, "tuner_applied"), 0u);
    // Every measured proposal was either kept or rolled back; at most
    // one proposal can still be pending when the run ends.
    const std::uint64_t settled =
        counter(r, "tuner_accepted") + counter(r, "tuner_reverted");
    EXPECT_LE(settled, counter(r, "tuner_applied"));
    EXPECT_GE(settled + 1, counter(r, "tuner_applied"));
    // The observation plane recorded one MetricsView per epoch.
    EXPECT_EQ(r.metricsEpochs.size(), counter(r, "tuner_epochs"));
    // Tuning must never change application output.
    EXPECT_EQ(r.outputChecksum, 0xb5d59696c650f8d5ull);
}

TEST(AutotuneEndToEnd, SameSeedReplaysBitIdentical)
{
    const RunResult a = runWorkload(tunedConfig());
    const RunResult b = runWorkload(tunedConfig());

    EXPECT_EQ(a.outputChecksum, b.outputChecksum);
    EXPECT_DOUBLE_EQ(a.totalSeconds, b.totalSeconds);
    EXPECT_EQ(a.vmstat.pgfault, b.vmstat.pgfault);
    EXPECT_EQ(a.vmstat.numaHintFaults, b.vmstat.numaHintFaults);
    EXPECT_EQ(a.vmstat.pgpromoteSuccess, b.vmstat.pgpromoteSuccess);
    EXPECT_EQ(a.vmstat.pgdemoteKswapd, b.vmstat.pgdemoteKswapd);
    EXPECT_EQ(a.vmstat.pgdemoteDirect, b.vmstat.pgdemoteDirect);
    EXPECT_EQ(a.vmstat.pgmigrateSuccess, b.vmstat.pgmigrateSuccess);

    // The whole tuner trajectory replays: every counter and every
    // effective tunable value is identical, not just the totals.
    ASSERT_EQ(a.policyCounters.size(), b.policyCounters.size());
    for (std::size_t i = 0; i < a.policyCounters.size(); ++i) {
        EXPECT_EQ(a.policyCounters[i].first, b.policyCounters[i].first);
        EXPECT_EQ(a.policyCounters[i].second, b.policyCounters[i].second)
            << a.policyCounters[i].first;
    }
    EXPECT_EQ(a.effectiveTunables, b.effectiveTunables);

    ASSERT_EQ(a.metricsEpochs.size(), b.metricsEpochs.size());
    for (std::size_t i = 0; i < a.metricsEpochs.size(); ++i) {
        EXPECT_EQ(a.metricsEpochs[i].now, b.metricsEpochs[i].now);
        EXPECT_EQ(a.metricsEpochs[i].accesses,
                  b.metricsEpochs[i].accesses);
        EXPECT_EQ(a.metricsEpochs[i].accessCycles,
                  b.metricsEpochs[i].accessCycles);
    }
}

TEST(AutotuneEndToEnd, TunedRunMatchesAbsoluteGolden)
{
    // 4 KiB pages only: MEMTIER_THP=ON changes every counter.
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    // The tuner's whole trajectory, pinned absolutely: its counters,
    // the base's counters, the tuned_*_milli values it converged to,
    // the effective tunables and the number of epochs it observed.
    const RunResult r = runWorkload(tunedConfig());
    const std::vector<PolicyCounter> counters = {
        {"tuner_epochs", 52u},
        {"tuner_idle_epochs", 0u},
        {"tuner_applied", 26u},
        {"tuner_accepted", 12u},
        {"tuner_reverted", 13u},
        {"tuner_halvings", 0u},
        {"tuner_restarts", 0u},
        {"pages_scanned", 2411u},
        {"hint_faults", 1709u},
        {"hint_faults_nvm", 705u},
        {"promoted_free_path", 0u},
        {"promoted_threshold_path", 705u},
        {"rejected_by_threshold", 0u},
        {"rejected_by_rate_limit", 0u},
        {"promotion_failures", 0u},
        {"scans_paused", 0u},
        {"huge_hint_faults", 0u},
        {"thp_collapses", 0u},
        {"thp_splits", 0u},
        {"memory_failures", 0u},
        {"promotions_held_off", 0u},
        {"tuned_adjust_period_ms_milli", 1406u},
        {"tuned_failure_holdoff_ms_milli", 9375u},
        {"tuned_hot_threshold_ms_milli", 62500u},
        {"tuned_rate_limit_kib_milli", 3840000u},
        {"tuned_scan_pages_milli", 192000u},
        {"tuned_scan_period_ms_milli", 469u},
        {"tuned_threshold_max_ms_milli", 468750u},
        {"tuned_threshold_min_ms_milli", 500u},
    };
    EXPECT_EQ(r.policyCounters, counters);
    const std::vector<std::pair<std::string, std::string>> effective = {
        {"adjust_period_ms", "1.40625"}, {"copy_threads", "1"},
        {"failure_holdoff_ms", "9.375"}, {"hot_threshold_ms", "62.5"},
        {"rate_limit_kib", "3840"},      {"scan_pages", "192"},
        {"scan_period_ms", "0.46875"},   {"threshold_max_ms", "468.75"},
        {"threshold_min_ms", "0.5"},
    };
    EXPECT_EQ(r.effectiveTunables, effective);
    EXPECT_EQ(r.metricsEpochs.size(), 52u);
    EXPECT_EQ(r.outputChecksum, 0xb5d59696c650f8d5ull);
    if (::testing::Test::HasFailure()) {
        std::printf("captured counters: {");
        for (const auto &[key, value] : r.policyCounters)
            std::printf("{\"%s\", %" PRIu64 "u}, ", key.c_str(), value);
        std::printf("}\ncaptured effective: {");
        for (const auto &[key, value] : r.effectiveTunables)
            std::printf("{\"%s\", \"%s\"}, ", key.c_str(), value.c_str());
        std::printf("}\ncaptured epochs: %zu\n", r.metricsEpochs.size());
    }
}

TEST(AutotuneEndToEnd, DifferentSeedsMayDivergeButStayCorrect)
{
    RunConfig rc = tunedConfig();
    const RunResult a = runWorkload(rc);
    for (std::string &t : rc.tunables) {
        if (t.rfind("seed=", 0) == 0)
            t = "seed=99";
    }
    const RunResult b = runWorkload(rc);
    // Output is placement-invariant regardless of the tuner's path.
    EXPECT_EQ(a.outputChecksum, b.outputChecksum);
}

TEST(AutotuneEndToEnd, WrapsTheExchangePolicyToo)
{
    RunConfig rc = tunedConfig();
    rc.tunables = {"base=exchange", "epoch_ms=0.2", "min_gain=0",
                   "scan_period_ms=0.5", "protect_ms=2"};
    const RunResult r = runWorkload(rc);
    EXPECT_EQ(r.policyName, "autotune");
    EXPECT_GT(r.vmstat.pgexchangeSuccess, 0u);
    EXPECT_GT(counter(r, "tuner_applied"), 0u);
    EXPECT_EQ(r.outputChecksum, 0xb5d59696c650f8d5ull);
}

TEST(AutotuneEndToEnd, ServingWorkloadExposesLatencyQuantiles)
{
    RunConfig rc;
    rc.workload.app = App::KV;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 12;
    rc.workload.trials = 2;
    rc.sampling = false;
    rc.sys.dram = makeDramParams(192 * kPageSize);
    rc.sys.nvm = makeNvmParams(4096 * kPageSize);
    rc.sys.autonuma = AutoNumaParams{};
    rc.policy = "autotune";
    rc.tunables = {"base=autonuma", "epoch_ms=0.2", "min_gain=0",
                   "scan_period_ms=0.5"};
    const RunResult r = runWorkload(rc);
    ASSERT_TRUE(r.hasServing);
    ASSERT_FALSE(r.metricsEpochs.empty());
    // At least one epoch fell inside the serve phase and sampled the
    // live latency histogram.
    bool saw_serving = false;
    for (const MetricsView &mv : r.metricsEpochs) {
        if (!mv.hasServing)
            continue;
        saw_serving = true;
        EXPECT_GE(mv.serveP99Cycles, mv.serveP50Cycles);
        EXPECT_GE(mv.serveP999Cycles, mv.serveP99Cycles);
    }
    EXPECT_TRUE(saw_serving);
}

}  // namespace
}  // namespace memtier
