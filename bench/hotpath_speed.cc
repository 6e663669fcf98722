/**
 * @file
 * Host-side throughput of the access hot path: the same PageRank sweep
 * executed through the forced scalar reference path and through the
 * batched pipeline (same-line coalescing, epoch-checked tail runs,
 * hoisted service checks, batch observer dispatch), plus the batched
 * pipeline again with the perf-mem sampler attached (period 61). The
 * three runs are bit-identical in every simulated observable -- this
 * bench verifies that, then reports wall-clock accesses/second, the
 * batched speedup and the sampled run's throughput relative to the
 * unsampled one (what observing costs, measured on one host in one
 * run).
 *
 * The sweep covers several graph scales; the headline ratios are
 * aggregates over the whole sweep (total accesses / total wall):
 * throughputs and the speedup from each path's best-of-reps walls,
 * sampled_over_batched as the median over reps of each rep's ratio,
 * whose batched and sampled runs ran back to back.
 *
 * Usage:
 *   hotpath_speed [--scales=A,B,...] [--scale=N] [--trials=N]
 *                 [--reps=N] [--out=PATH.json]
 *
 * --scale=N is shorthand for a single-scale sweep. --out writes a
 * machine-readable JSON record (BENCH_hotpath.json in the CI flow),
 * including a "host" object (CPU model, logical CPUs, compiler, build
 * type) that names the machine and build behind the numbers.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "bench_common.h"
#include "exp/runner.h"

using namespace memtier;

namespace {

RunConfig
benchConfig(int scale, int trials, bool scalar, bool sampled = false)
{
    RunConfig rc;
    rc.workload.app = App::PR;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = scale;
    rc.workload.trials = trials;
    rc.sampling = sampled;  // Off: measure the raw hot path.
    rc.sys.scalarPath = scalar;
    return rc;
}

/** Same simulated time, output, accesses and every vmstat counter. */
bool
sameRun(const RunResult &a, const RunResult &b)
{
    return a.totalSeconds == b.totalSeconds &&
           a.outputChecksum == b.outputChecksum &&
           a.totalAccesses == b.totalAccesses &&
           std::memcmp(&a.vmstat, &b.vmstat, sizeof(VmStat)) == 0;
}

/** Wall-clock seconds of one runWorkload invocation. */
double
timedRun(const RunConfig &rc, RunResult &out)
{
    const auto t0 = std::chrono::steady_clock::now();
    out = runWorkload(rc);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** One scale's best-of-reps measurement. */
struct ScaleResult
{
    int scale = 0;
    std::uint64_t accesses = 0;
    double scalarWall = 0.0;
    double batchedWall = 0.0;
    double sampledWall = 0.0;  ///< Batched, sampler on.
    /** Each rep's {batched, sampled} wall, run back to back. */
    std::vector<std::pair<double, double>> repWalls;
    bool identical = false;
};

ScaleResult
runScale(int scale, int trials, int reps)
{
    // Warm the graph cache and the allocator so neither path pays
    // first-use costs.
    RunResult warm;
    (void)timedRun(benchConfig(scale, 1, false), warm);

    // Best-of-reps wall clock for each path; the best runs are checked
    // for bit-identity (every run is deterministic).
    ScaleResult res;
    res.scale = scale;
    RunResult scalar_r;
    RunResult batched_r;
    RunResult sampled_r;
    for (int r = 0; r < reps; ++r) {
        RunResult sr;
        RunResult br;
        RunResult pr;
        const double sw = timedRun(benchConfig(scale, trials, true), sr);
        const double bw = timedRun(benchConfig(scale, trials, false), br);
        const double pw =
            timedRun(benchConfig(scale, trials, false, true), pr);
        if (r == 0 || sw < res.scalarWall) {
            res.scalarWall = sw;
            scalar_r = sr;
        }
        if (r == 0 || bw < res.batchedWall) {
            res.batchedWall = bw;
            batched_r = br;
        }
        res.repWalls.emplace_back(bw, pw);
        if (r == 0 || pw < res.sampledWall) {
            res.sampledWall = pw;
            sampled_r = pr;
        }
    }
    res.accesses = scalar_r.totalAccesses;
    res.identical = sameRun(scalar_r, batched_r) &&
                    sameRun(sampled_r, batched_r) &&
                    !sampled_r.samples.empty();
    return res;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<int> scales = {8, 9, 10};
    int trials = 48;
    int reps = 3;
    std::string out_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--scale=", 0) == 0) {
            scales = {parseInt(arg.substr(8), "--scale")};
        } else if (arg.rfind("--scales=", 0) == 0) {
            scales.clear();
            for (const std::string &item : splitCommas(arg.substr(9)))
                scales.push_back(parseInt(item, "--scales"));
        } else if (arg.rfind("--trials=", 0) == 0) {
            trials = parseInt(arg.substr(9), "--trials");
        } else if (arg.rfind("--reps=", 0) == 0) {
            reps = parseInt(arg.substr(7), "--reps");
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else {
            std::cerr << "usage: hotpath_speed [--scales=A,B,...]"
                         " [--scale=N] [--trials=N] [--reps=N]"
                         " [--out=PATH.json]\n";
            return 2;
        }
    }
    if (scales.empty() || trials <= 0 || reps <= 0) {
        std::cerr << "hotpath_speed: bad sweep parameters\n";
        return 2;
    }

    std::cout << "hotpath_speed: pr:kron sweep, " << trials
              << " trials per scale, best of " << reps << " reps\n";

    std::vector<ScaleResult> sweep;
    std::uint64_t accesses = 0;
    double scalar_wall = 0.0;
    double batched_wall = 0.0;
    double sampled_wall = 0.0;
    bool identical = true;
    for (const int scale : scales) {
        const ScaleResult res = runScale(scale, trials, reps);
        accesses += res.accesses;
        scalar_wall += res.scalarWall;
        batched_wall += res.batchedWall;
        sampled_wall += res.sampledWall;
        identical = identical && res.identical;
        const double s = (res.scalarWall / res.batchedWall);
        std::cout << "  scale " << res.scale << ": " << res.accesses
                  << " accesses, scalar " << res.scalarWall
                  << " s, batched " << res.batchedWall << " s, "
                  << s << "x, sampled " << res.sampledWall << " s\n";
        sweep.push_back(res);
    }

    if (!identical) {
        std::cerr << "hotpath_speed: scalar, batched and sampled runs"
                     " diverged -- the pipeline is broken\n";
        return 1;
    }

    const double scalar_aps =
        static_cast<double>(accesses) / scalar_wall;
    const double batched_aps =
        static_cast<double>(accesses) / batched_wall;
    const double speedup = batched_aps / scalar_aps;
    // Within one rep the batched and sampled runs of a scale run back
    // to back, so their ratio sees the same host state; the headline is
    // the median over reps of each rep's ratio over the whole sweep.
    std::vector<double> rep_ratios;
    for (int r = 0; r < reps; ++r) {
        double bw = 0.0;
        double pw = 0.0;
        for (const ScaleResult &res : sweep) {
            bw += res.repWalls[r].first;
            pw += res.repWalls[r].second;
        }
        rep_ratios.push_back(bw / pw);
    }
    std::sort(rep_ratios.begin(), rep_ratios.end());
    const std::size_t mid = rep_ratios.size() / 2;
    const double sampled_over_batched =
        rep_ratios.size() % 2 == 1
            ? rep_ratios[mid]
            : (rep_ratios[mid - 1] + rep_ratios[mid]) / 2.0;

    std::cout << "  accesses            " << accesses << "\n";
    std::cout << "  scalar   wall (s)   " << scalar_wall << "  ("
              << static_cast<std::uint64_t>(scalar_aps)
              << " accesses/s)\n";
    std::cout << "  batched  wall (s)   " << batched_wall << "  ("
              << static_cast<std::uint64_t>(batched_aps)
              << " accesses/s)\n";
    std::cout << "  sampled  wall (s)   " << sampled_wall << "\n";
    std::cout << "  speedup             " << speedup << "x\n";
    std::cout << "  sampled_over_batched " << sampled_over_batched
              << "x\n";
    std::cout << "  bit_identical       "
              << (identical ? "true" : "false") << "\n";

    if (!out_path.empty()) {
        Record rec{"hotpath_speed",
                   {{"workload", std::string("pr_kron_sweep")},
                    {"trials", trials},
                    {"reps", reps},
                    {"accesses", accesses},
                    {"scalar_wall_sec", scalar_wall},
                    {"batched_wall_sec", batched_wall},
                    {"sampled_wall_sec", sampled_wall},
                    {"scalar_accesses_per_sec", scalar_aps},
                    {"batched_accesses_per_sec", batched_aps},
                    {"speedup", speedup},
                    {"sampled_over_batched", sampled_over_batched},
                    {"bit_identical", identical}},
                   recordHost(),
                   "per_scale",
                   {}};
        for (const ScaleResult &r : sweep) {
            rec.rows.push_back({{"scale", r.scale},
                                {"accesses", r.accesses},
                                {"scalar_wall_sec", r.scalarWall},
                                {"batched_wall_sec", r.batchedWall},
                                {"sampled_wall_sec", r.sampledWall},
                                {"speedup", r.scalarWall / r.batchedWall}});
        }
        writeRecord(rec, out_path);
        std::cout << "  wrote " << out_path << "\n";
    }
    return 0;
}
