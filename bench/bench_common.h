/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Every bench accepts the MEMTIER_SCALE environment variable (log2
 * vertices, default 18) so the suite can be run faster (16) or at
 * higher fidelity (19-20) without recompiling.
 */

#ifndef MEMTIER_BENCH_BENCH_COMMON_H_
#define MEMTIER_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "base/logging.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "profile/analysis.h"

namespace memtier {

/** Experiment scale: MEMTIER_SCALE env var (10..24), default 18. */
inline int
benchScale()
{
    const char *env = std::getenv("MEMTIER_SCALE");
    if (env == nullptr)
        return 18;
    char *end = nullptr;
    const long scale = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || scale < 10 || scale > 24)
        fatal("MEMTIER_SCALE='%s' is not a scale in 10..24", env);
    return static_cast<int>(scale);
}

/**
 * Sparse sampling period used by the per-page touch/reuse analyses
 * (Figures 4 and 5). The paper samples a ~250 GB footprint with a few
 * million samples -- well under one sample per page; the default dense
 * period would count every page dozens of times and hide the
 * single-touch behaviour the paper reports.
 */
inline constexpr std::uint32_t kSparseSamplerPeriod = 8191;

/**
 * Tier capacity scaled with the workload so the footprint:DRAM pressure
 * is scale-invariant (base values are for the default scale 18).
 */
inline std::uint64_t
scaledCapacity(std::uint64_t base_at_18, int scale)
{
    return scale >= 18 ? base_at_18 << (scale - 18)
                       : base_at_18 >> (18 - scale);
}

/** Run one paper workload under @p policy (and @p plan) with sampling. */
inline RunResult
runBench(const WorkloadSpec &w, const std::string &policy = "autonuma",
         std::uint32_t sampler_period = 61,
         const PlacementPlan *plan = nullptr, bool thp = false)
{
    RunConfig rc;
    rc.workload = w;
    rc.policy = policy;
    rc.sampler.period = sampler_period;
    rc.sys.dram = makeDramParams(scaledCapacity(24 * kMiB, w.scale));
    rc.sys.nvm = makeNvmParams(scaledCapacity(96 * kMiB, w.scale));
    rc.sys.thp.enabled = thp;
    std::cerr << "running " << w.name() << " [" << policy
              << (plan ? ", plan" : "") << (thp ? ", thp" : "")
              << "] scale=" << w.scale << "...\n";
    return runWorkload(rc, plan);
}

/**
 * Consume a leading `--thp` argument if present (shared by the benches
 * that report a THP column). Returns true and shifts argv when found.
 */
inline bool
consumeThpFlag(int &argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--thp") {
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            return true;
        }
    }
    return false;
}

/** The host CPU's model name from /proc/cpuinfo, or "unknown". */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

/**
 * JSON object naming the machine and build that produced a record;
 * "nproc" is the CPUs this process may run on (its affinity mask),
 * the width a sweep's cell pool defaults to.
 */
inline std::string
hostJson()
{
#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    std::ostringstream os;
    os << "{\"cpu\": \"" << cpuModel() << "\", \"nproc\": "
       << affinityCpuCount() << ", \"compiler\": \""
       << compiler << "\", \"build_type\": \""
       << MEMTIER_BUILD_TYPE << "\"}";
    return os.str();
}

/** Header block naming the experiment. */
inline void
benchHeader(const std::string &what, const std::string &paper_ref)
{
    std::cout << "memtier reproduction: " << what << "\n"
              << "paper reference:      " << paper_ref << "\n"
              << "scale:                2^" << benchScale()
              << " vertices (set MEMTIER_SCALE to change)\n";
}

}  // namespace memtier

#endif  // MEMTIER_BENCH_BENCH_COMMON_H_
