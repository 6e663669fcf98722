/**
 * @file
 * Unit tests for the object-level placement core: the plan container
 * and the greedy/spill planner.
 */

#include <gtest/gtest.h>

#include "core/object_planner.h"
#include "core/placement_plan.h"

namespace memtier {
namespace {

SiteProfile
site(const std::string &name, std::uint64_t bytes,
     std::uint64_t ext_samples)
{
    SiteProfile p;
    p.site = name;
    p.peakLiveBytes = bytes;
    p.externalSamples = ext_samples;
    p.totalSamples = ext_samples;
    return p;
}

// -------------------------------------------------------- PlacementPlan

TEST(PlacementPlan, LookupBoundSite)
{
    PlacementPlan plan;
    plan.bindSite("x", MemPolicy::bind(MemNode::DRAM));
    const auto p = plan.lookup("x");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->node, MemNode::DRAM);
    EXPECT_FALSE(plan.lookup("y").has_value());
}

TEST(PlacementPlan, BindAllAppliesToUnknownSites)
{
    PlacementPlan plan = PlacementPlan::bindAll(MemNode::NVM);
    const auto p = plan.lookup("anything");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->node, MemNode::NVM);
}

TEST(PlacementPlan, RebindOverwrites)
{
    PlacementPlan plan;
    plan.bindSite("x", MemPolicy::bind(MemNode::DRAM));
    plan.bindSite("x", MemPolicy::bind(MemNode::NVM));
    EXPECT_EQ(plan.lookup("x")->node, MemNode::NVM);
    EXPECT_EQ(plan.size(), 1u);
}

// -------------------------------------------------------------- Planner

TEST(Planner, GreedyFillsDramInScoreOrder)
{
    // Profiles arrive sorted by score (as siteProfiles guarantees).
    std::vector<SiteProfile> profiles{
        site("hottest", 4 * kPageSize, 1000),
        site("warm", 4 * kPageSize, 100),
        site("cold", 4 * kPageSize, 10),
    };
    PlannerConfig cfg;
    cfg.dramBudgetBytes = 8 * kPageSize;  // Room for two sites.
    const PlannerResult r = buildPlan(profiles, cfg);
    EXPECT_EQ(r.plan.lookup("hottest")->node, MemNode::DRAM);
    EXPECT_EQ(r.plan.lookup("warm")->node, MemNode::DRAM);
    EXPECT_EQ(r.plan.lookup("cold")->node, MemNode::NVM);
    EXPECT_EQ(r.dramBytesPlanned, 8 * kPageSize);
    EXPECT_FALSE(r.spilled);
}

TEST(Planner, SkipsOverlargeObjectButKeepsFilling)
{
    std::vector<SiteProfile> profiles{
        site("huge", 100 * kPageSize, 1000),
        site("small", 2 * kPageSize, 100),
    };
    PlannerConfig cfg;
    cfg.dramBudgetBytes = 4 * kPageSize;
    const PlannerResult r = buildPlan(profiles, cfg);
    // Whole-object policy: huge cannot fit, small still placed.
    EXPECT_EQ(r.plan.lookup("huge")->node, MemNode::NVM);
    EXPECT_EQ(r.plan.lookup("small")->node, MemNode::DRAM);
}

TEST(Planner, SpillVariantSplitsFirstNonFitting)
{
    std::vector<SiteProfile> profiles{
        site("hot", 2 * kPageSize, 1000),
        site("big", 100 * kPageSize, 500),
        site("rest", 2 * kPageSize, 10),
    };
    PlannerConfig cfg;
    cfg.dramBudgetBytes = 10 * kPageSize;
    cfg.allowSpill = true;
    const PlannerResult r = buildPlan(profiles, cfg);
    EXPECT_TRUE(r.spilled);
    const auto big = r.plan.lookup("big");
    ASSERT_TRUE(big.has_value());
    EXPECT_EQ(big->mode, MemPolicy::Mode::Split);
    EXPECT_EQ(big->dramPages, 8u);  // 10 - 2 pages already used.
    // Everything after the spill goes entirely to NVM.
    EXPECT_EQ(r.plan.lookup("rest")->node, MemNode::NVM);
    EXPECT_EQ(r.dramBytesPlanned, 10 * kPageSize);
}

TEST(Planner, OnlyOneObjectSpills)
{
    std::vector<SiteProfile> profiles{
        site("big1", 100 * kPageSize, 1000),
        site("big2", 100 * kPageSize, 900),
    };
    PlannerConfig cfg;
    cfg.dramBudgetBytes = 10 * kPageSize;
    cfg.allowSpill = true;
    const PlannerResult r = buildPlan(profiles, cfg);
    EXPECT_EQ(r.plan.lookup("big1")->mode, MemPolicy::Mode::Split);
    EXPECT_EQ(r.plan.lookup("big2")->mode, MemPolicy::Mode::Bind);
    EXPECT_EQ(r.plan.lookup("big2")->node, MemNode::NVM);
}

TEST(Planner, ColdSitesGoToNvmRegardlessOfSize)
{
    std::vector<SiteProfile> profiles{site("cold", kPageSize, 0)};
    PlannerConfig cfg;
    cfg.dramBudgetBytes = 100 * kPageSize;
    cfg.minSamples = 1;
    const PlannerResult r = buildPlan(profiles, cfg);
    EXPECT_EQ(r.plan.lookup("cold")->node, MemNode::NVM);
    EXPECT_EQ(r.dramBytesPlanned, 0u);
}

TEST(Planner, ExactFitConsumesWholeBudget)
{
    std::vector<SiteProfile> profiles{site("a", 4 * kPageSize, 10)};
    PlannerConfig cfg;
    cfg.dramBudgetBytes = 4 * kPageSize;
    const PlannerResult r = buildPlan(profiles, cfg);
    EXPECT_EQ(r.plan.lookup("a")->node, MemNode::DRAM);
    EXPECT_EQ(r.dramBytesPlanned, 4 * kPageSize);
}

TEST(Planner, DecisionsPreserveRankingOrder)
{
    std::vector<SiteProfile> profiles{
        site("first", kPageSize, 100),
        site("second", kPageSize, 50),
    };
    PlannerConfig cfg;
    cfg.dramBudgetBytes = 8 * kPageSize;
    const PlannerResult r = buildPlan(profiles, cfg);
    ASSERT_EQ(r.decisions.size(), 2u);
    EXPECT_EQ(r.decisions[0].profile.site, "first");
    EXPECT_EQ(r.decisions[1].profile.site, "second");
}

TEST(Planner, DramBudgetHelper)
{
    EXPECT_EQ(dramBudget(1000, 0.1), 900u);
    EXPECT_EQ(dramBudget(1000, 0.0), 1000u);
}

// Parameterized: for any budget, planned DRAM bytes never exceed it and
// every site receives a decision.
class PlannerBudgetSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PlannerBudgetSweep, InvariantsHold)
{
    std::vector<SiteProfile> profiles;
    for (int i = 0; i < 12; ++i) {
        profiles.push_back(site(std::string("s").append(std::to_string(i)),
                                (1 + i % 5) * kPageSize,
                                1000 - i * 50));
    }
    PlannerConfig cfg;
    cfg.dramBudgetBytes = GetParam();
    cfg.allowSpill = (GetParam() % 2) == 0;
    const PlannerResult r = buildPlan(profiles, cfg);
    EXPECT_LE(r.dramBytesPlanned, cfg.dramBudgetBytes);
    EXPECT_EQ(r.plan.size(), profiles.size());
    for (const auto &p : profiles)
        EXPECT_TRUE(r.plan.lookup(p.site).has_value());
}

INSTANTIATE_TEST_SUITE_P(Budgets, PlannerBudgetSweep,
                         ::testing::Values(0, kPageSize,
                                           7 * kPageSize,
                                           16 * kPageSize,
                                           1024 * kPageSize));

}  // namespace
}  // namespace memtier
