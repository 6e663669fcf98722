/**
 * @file
 * Unit tests for the experiment harness helpers: report formatting,
 * workload registry, the runner and the sweep driver.
 */

#include <array>
#include <cctype>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bigraph/ooc_builder.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "exp/workloads.h"
#include "thp/thp_params.h"

namespace memtier {
namespace {

// --------------------------------------------------------------- report

TEST(Report, TableAlignsColumns)
{
    TextTable table({"a", "long_header"});
    table.addRow({"xx", "1"});
    table.addRow({"y", "22"});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
    EXPECT_NE(text.find("a   long_header"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(Report, Percent)
{
    EXPECT_EQ(pct(0.4911), "49.1%");
    EXPECT_EQ(pct(0.0), "0.0%");
    EXPECT_EQ(pct(1.0, 0), "100%");
    EXPECT_EQ(pct(-0.06), "-6.0%");
}

TEST(Report, Num)
{
    EXPECT_EQ(num(3.14159, 2), "3.14");
    EXPECT_EQ(num(2.0, 0), "2");
}

TEST(Report, FmtBytes)
{
    EXPECT_EQ(fmtBytes(512), "512.0 B");
    EXPECT_EQ(fmtBytes(8192), "8.0 KiB");
    EXPECT_EQ(fmtBytes(24 * kMiB), "24.0 MiB");
    EXPECT_EQ(fmtBytes(3 * kGiB), "3.0 GiB");
}

TEST(Report, FmtCount)
{
    EXPECT_EQ(fmtCount(0), "0");
    EXPECT_EQ(fmtCount(999), "999");
    EXPECT_EQ(fmtCount(1000), "1,000");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
}

TEST(Report, Banner)
{
    std::ostringstream out;
    banner(out, "hello");
    EXPECT_EQ(out.str(), "\n=== hello ===\n");
}

// ------------------------------------------------------------ workloads

TEST(Workloads, Names)
{
    EXPECT_STREQ(appName(App::BC), "bc");
    EXPECT_STREQ(appName(App::SSSP), "sssp");
    EXPECT_STREQ(graphKindName(GraphKind::Urand), "urand");
    WorkloadSpec w;
    w.app = App::CC;
    w.kind = GraphKind::Urand;
    EXPECT_EQ(w.name(), "cc_urand");
}

TEST(Workloads, PaperMatrixIsSixCombos)
{
    const auto list = paperWorkloads(12);
    ASSERT_EQ(list.size(), 6u);
    for (const auto &w : list) {
        EXPECT_EQ(w.scale, 12);
        EXPECT_GT(w.trials, 0);
    }
}

// ---------------------------------------------------------------- sweep

/**
 * A small sweep grid of eight cells: two scan periods x four workloads
 * -- segmented kron and urand, a segmented weighted SSSP and one
 * one-segment cell -- under pressured DRAM.
 */
SweepSpec
smallSweep()
{
    SweepSpec s;
    s.policy = "autonuma";
    s.axes = {{"adjust_period_ms", {"2"}},
              {"scan_period_ms", {"0.125", "0.25"}}};
    const auto add = [&](App app, GraphKind kind, int segments,
                         int trials) {
        WorkloadSpec w;
        w.app = app;
        w.kind = kind;
        w.scale = 10;
        w.trials = trials;
        w.segments = segments;
        s.workloads.push_back(w);
    };
    add(App::BC, GraphKind::Kron, 3, 1);
    add(App::BFS, GraphKind::Urand, 4, 2);
    add(App::SSSP, GraphKind::Kron, 2, 1);
    add(App::CC, GraphKind::Urand, 1, 1);
    s.sys.dram = makeDramParams(48 * kPageSize);
    s.sys.nvm = makeNvmParams(1024 * kPageSize);
    return s;
}

/** FNV-1a over the bytes of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(Sweep, CsvMatchesAbsoluteGolden)
{
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    // Captured from the serial cell loop; the default worker count
    // must reproduce it byte for byte.
    const SweepSpec spec = smallSweep();
    const std::vector<SweepPoint> points = runSweep(spec);
    ASSERT_EQ(points.size(), 8u);
    std::ostringstream csv;
    writeSweepCsv(spec, points, csv);
    EXPECT_EQ(fnv1a(csv.str()), 0x56d26fadbd968a1dULL)
        << std::hex << fnv1a(csv.str()) << "\n" << csv.str();

    // The grid exercises the policy: pages moved, and the scan period
    // changed the outcome of every workload.
    std::uint64_t moved = 0;
    for (const SweepPoint &p : points)
        moved += p.promotions + p.demotions;
    EXPECT_GT(moved, 0u);
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        EXPECT_NE(points[w].totalSeconds,
                  points[w + spec.workloads.size()].totalSeconds)
            << points[w].workload;
    }
    clearBigraphArtifacts();
}

/** Every field of @p a equals the same field of @p b. */
void
expectSamePoint(const SweepPoint &a, const SweepPoint &b,
                std::size_t cell)
{
    EXPECT_EQ(a.workload, b.workload) << "cell " << cell;
    EXPECT_EQ(a.policy, b.policy) << "cell " << cell;
    EXPECT_EQ(a.tunables, b.tunables) << "cell " << cell;
    EXPECT_EQ(a.effectiveTunables, b.effectiveTunables) << "cell " << cell;
    EXPECT_EQ(a.totalSeconds, b.totalSeconds) << "cell " << cell;
    EXPECT_EQ(a.computeSeconds, b.computeSeconds) << "cell " << cell;
    EXPECT_EQ(a.hintFaults, b.hintFaults) << "cell " << cell;
    EXPECT_EQ(a.promotions, b.promotions) << "cell " << cell;
    EXPECT_EQ(a.demotions, b.demotions) << "cell " << cell;
    EXPECT_EQ(a.exchanges, b.exchanges) << "cell " << cell;
    EXPECT_EQ(a.migrations, b.migrations) << "cell " << cell;
    EXPECT_EQ(a.thrash, b.thrash) << "cell " << cell;
    EXPECT_EQ(a.migrateFail, b.migrateFail) << "cell " << cell;
    EXPECT_EQ(a.promoteRetry, b.promoteRetry) << "cell " << cell;
    EXPECT_EQ(a.allocFail, b.allocFail) << "cell " << cell;
    EXPECT_EQ(a.diskReadRetry, b.diskReadRetry) << "cell " << cell;
    EXPECT_EQ(a.breakerTrips, b.breakerTrips) << "cell " << cell;
}

TEST(Sweep, PoolMatchesSerialLoop)
{
    // Eight cells on four workers, starting from cold caches each
    // time: the same points, CSV bytes and progress lines as one cell
    // at a time on the caller's thread.
    SweepSpec spec = smallSweep();
    const auto run = [&](unsigned jobs, std::string *csv_text,
                         std::string *progress_text) {
        clearBigraphArtifacts();
            spec.jobs = jobs;
        std::ostringstream progress;
        std::vector<SweepPoint> points = runSweep(spec, &progress);
        std::ostringstream csv;
        writeSweepCsv(spec, points, csv);
        *csv_text = csv.str();
        *progress_text = progress.str();
        return points;
    };
    std::string serial_csv, serial_progress, pool_csv, pool_progress;
    const std::vector<SweepPoint> serial =
        run(1, &serial_csv, &serial_progress);
    const std::vector<SweepPoint> pool = run(4, &pool_csv, &pool_progress);

    ASSERT_EQ(serial.size(), 8u);
    ASSERT_EQ(pool.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSamePoint(pool[i], serial[i], i);
    EXPECT_EQ(pool_csv, serial_csv);
    EXPECT_EQ(pool_progress, serial_progress);
    EXPECT_EQ(std::count(serial_progress.begin(), serial_progress.end(),
                         '\n'),
              8);
    EXPECT_EQ(serial_progress.rfind("sweep: autonuma bc_kron "
                                    "adjust_period_ms=2 "
                                    "scan_period_ms=0.125...\n",
                                    0),
              0u);
    clearBigraphArtifacts();
}

TEST(Sweep, BadTunableDiesBeforeAnyCell)
{
    // A value no policy can parse sits in the last combination. With
    // four workers the sweep still dies on the caller's thread before
    // any cell starts: the fatal message is all it prints, with no
    // progress line ahead of it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SweepSpec spec = smallSweep();
    spec.axes = {{"scan_period_ms", {"0.125", "x"}}};
    spec.jobs = 4;
    EXPECT_DEATH(runSweep(spec, &std::cerr),
                 "^fatal: tunable scan_period_ms=x is not a number\n$");
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

struct GraphRunGolden
{
    App app;
    GraphKind kind;
    double totalSeconds;
    double loadSeconds;
    std::uint64_t checksum;
    std::array<std::uint64_t, kNumMemLevels> levels;
    std::uint64_t hierarchyHash;  ///< Every HierarchyCounters word.
    std::uint64_t vmstatHash;     ///< Every VmStat word.
};

TEST(Runner, OneSegmentGraphRunsMatchAbsoluteGolden)
{
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    // Every graph app on both inputs at segments = 1, under AutoNUMA
    // on pressured DRAM. Captured from the monolithic loader the
    // one-segment build replaced: the input phase, the kernels and
    // every counter they move must not have changed.
    static_assert(sizeof(VmStat) % sizeof(std::uint64_t) == 0,
                  "VmStat hashes as plain uint64 counters");
    static_assert(sizeof(HierarchyCounters) % sizeof(std::uint64_t) == 0,
                  "HierarchyCounters hashes as plain uint64 counters");
    const GraphRunGolden goldens[] = {
        {App::BC, GraphKind::Kron, 0.00060689999999999995,
         0.00034095576923076924, 0xd19b9a522c3236c4ULL,
         {185338u, 43700u, 9550u, 11619u, 2814u, 1009u},
         0x80dd35bd5c09e4b4ULL, 0x18fb819c7c18abf6ULL},
        {App::BC, GraphKind::Urand, 0.00075080615384615383,
         0.00052033115384615388, 0xcaf2f93ca4a56219ULL,
         {272229u, 71238u, 21975u, 15469u, 3550u, 2811u},
         0x153675e6293b0bc2ULL, 0x7cc8c280b04a801fULL},
        {App::BFS, GraphKind::Kron, 0.00040971192307692305,
         0.00034095576923076924, 0xb4240ecbb53b918dULL,
         {30169u, 26418u, 1u, 1890u, 1624u, 662u},
         0xc0860238087f3fb2ULL, 0x1ea3cc07da3fe104ULL},
        {App::BFS, GraphKind::Urand, 0.00058674115384615381,
         0.00052033115384615388, 0x87c068ded802cb25ULL,
         {22570u, 36799u, 0u, 2296u, 1934u, 1413u},
         0x30db74a8832fd2d8ULL, 0xa09bf1e64f95e453ULL},
        {App::CC, GraphKind::Kron, 0.00059890192307692305,
         0.00034095576923076924, 0x9f8ef6f7a6e95cbdULL,
         {264792u, 28869u, 1136u, 2758u, 1730u, 541u},
         0x38e6276fcd7d3012ULL, 0xe86543036147e362ULL},
        {App::CC, GraphKind::Urand, 0.00064222384615384613,
         0.00052033115384615388, 0x861905782b71b4fULL,
         {425523u, 46982u, 289u, 2795u, 2224u, 1437u},
         0x22148b2e29b5f036ULL, 0x5133adbc88be3689ULL},
        {App::PR, GraphKind::Kron, 0.00045786615384615383,
         0.00034095576923076924, 0x5ba48b90a8bc50d0ULL,
         {81060u, 31794u, 726u, 2392u, 1807u, 615u},
         0xf15910aed573edf8ULL, 0x671e720f44e86fd1ULL},
        {App::PR, GraphKind::Urand, 0.00057754307692307687,
         0.00052033115384615388, 0xdc240e6ea02cd920ULL,
         {108560u, 60090u, 737u, 2531u, 2375u, 1511u},
         0xccf024a23db426d0ULL, 0x74f5673c1016c8dbULL},
        {App::SSSP, GraphKind::Kron, 0.0010697188461538461,
         0.00067435615384615389, 0xcb5990e36351b4eeULL,
         {277712u, 140558u, 9389u, 16833u, 7867u, 2545u},
         0xc5b48c58776c8989ULL, 0x12a177a41116d2d2ULL},
        {App::SSSP, GraphKind::Urand, 0.0015975557692307692,
         0.0010330496153846153, 0xd995bab95c956688ULL,
         {365703u, 272352u, 15565u, 17505u, 10609u, 11460u},
         0xae3a3b0b82d7336aULL, 0x29900c29242a9529ULL},
    };
    for (const GraphRunGolden &g : goldens) {
        RunConfig rc;
        rc.workload.app = g.app;
        rc.workload.kind = g.kind;
        rc.workload.scale = 10;
        rc.workload.trials = 2;
        rc.workload.segments = 1;
        rc.sampling = false;
        rc.tunables = {"scan_period_ms=0.125", "adjust_period_ms=2"};
        rc.sys.dram = makeDramParams(48 * kPageSize);
        rc.sys.nvm = makeNvmParams(1024 * kPageSize);
        const RunResult r = runWorkload(rc);

        std::array<std::uint64_t, kNumMemLevels> levels{};
        for (int l = 0; l < kNumMemLevels; ++l)
            levels[l] = r.levelCounts[l];
        Fnv hier;
        hier.add(r.hierarchy);
        Fnv vm;
        vm.add(r.vmstat);
        const std::string what = rc.workload.name();
        EXPECT_EQ(r.totalSeconds, g.totalSeconds) << what;
        EXPECT_EQ(r.loadSeconds, g.loadSeconds) << what;
        EXPECT_EQ(r.outputChecksum, g.checksum) << what;
        EXPECT_EQ(levels, g.levels) << what;
        EXPECT_EQ(hier.h, g.hierarchyHash) << what;
        EXPECT_EQ(vm.h, g.vmstatHash) << what;
        if (::testing::Test::HasFailure()) {
            std::string app = what.substr(0, what.find('_'));
            for (char &c : app)
                c = static_cast<char>(std::toupper(c));
            std::printf("captured: {App::%s, GraphKind::%s, %.17g, "
                        "%.17g, 0x%" PRIx64 "ULL, {",
                        app.c_str(),
                        g.kind == GraphKind::Kron ? "Kron" : "Urand",
                        r.totalSeconds, r.loadSeconds, r.outputChecksum);
            for (const std::uint64_t v : levels)
                std::printf("%" PRIu64 "u, ", v);
            std::printf("}, 0x%" PRIx64 "ULL, 0x%" PRIx64 "ULL},\n",
                        hier.h, vm.h);
        }
        // The runs exercise what the golden is meant to pin.
        EXPECT_GT(r.vmstat.pgpromoteSuccess, 0u) << what;
    }
}

TEST(Runner, NonPositiveSegmentsDieBeforeAnyRun)
{
    // segments < 1 names no segment: both entry points reject it
    // instead of clamping it onto some segment count.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const int segments : {0, -1}) {
        RunConfig rc;
        rc.workload.app = App::BFS;
        rc.workload.scale = 8;
        rc.workload.segments = segments;
        const std::string msg = "^fatal: workload bfs_kron: segments must "
                                "be >= 1 \\(got " +
                                std::to_string(segments) + "\\)\n$";
        EXPECT_DEATH(checkRunConfig(rc), msg) << segments;
        EXPECT_DEATH(runWorkload(rc), msg) << segments;
        SweepSpec spec = smallSweep();
        spec.jobs = 1;
        spec.workloads.back().segments = segments;
        EXPECT_DEATH(runSweep(spec, &std::cerr),
                     "^fatal: workload cc_urand: segments must be >= 1 "
                     "\\(got " + std::to_string(segments) + "\\)\n$")
            << segments;
    }
}

TEST(Runner, OneSegmentRunRegistersCsrObjects)
{
    // The allocation sites a one-segment graph run registers, with
    // their sizes: PlacementPlan sites and the object-level figures
    // key on these names.
    for (const App app : {App::PR, App::SSSP}) {
        RunConfig rc;
        rc.workload.app = app;
        rc.workload.scale = 10;
        rc.workload.trials = 1;
        rc.sampling = false;
        const RunResult r = runWorkload(rc);

        BigraphSpec bs;
        bs.scale = rc.workload.scale;
        bs.segments = 1;
        const std::uint64_t edges =
            static_cast<std::uint64_t>(prepareBigraph(bs).totalEdges);
        std::map<std::string, std::uint64_t> want = {
            {"csr.index.0", ((1u << 10) + 1) * sizeof(std::int64_t)},
            {"csr.adj.0", edges * sizeof(NodeId)}};
        if (app == App::SSSP)
            want["csr.wts.0"] = edges * sizeof(std::int32_t);
        std::map<std::string, std::uint64_t> got;
        for (const AllocationRecord &rec : r.tracker.records()) {
            if (rec.site.rfind("csr.", 0) == 0)
                got[rec.site] += rec.bytes;
        }
        EXPECT_EQ(got, want) << appName(app);
    }
    clearBigraphArtifacts();
}

TEST(Runner, SamplingDoesNotPerturbTiming)
{
    // The PEBS-style sampler observes accesses but must never change
    // the simulation's timing or results (a property perf itself only
    // approximates).
    RunConfig rc;
    rc.workload.app = App::BFS;
    rc.workload.kind = GraphKind::Urand;
    rc.workload.scale = 12;
    rc.workload.trials = 2;
    rc.sys.dram = makeDramParams(512 * kPageSize);
    rc.sys.nvm = makeNvmParams(2048 * kPageSize);
    rc.sampling = true;
    const RunResult with = runWorkload(rc);
    rc.sampling = false;
    const RunResult without = runWorkload(rc);
    EXPECT_EQ(with.totalSeconds, without.totalSeconds);
    EXPECT_EQ(with.outputChecksum, without.outputChecksum);
    EXPECT_GT(with.samples.size(), 0u);
    EXPECT_EQ(without.samples.size(), 0u);
}

}  // namespace
}  // namespace memtier
