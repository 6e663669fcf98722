/**
 * @file
 * Social-network influence analysis -- the paper's motivating BC use
 * case ("in social network analysis [BC] is actively used for computing
 * the user influence index", Section 4.1) -- run twice: once under
 * AutoNUMA and once under the object-level static mapping, comparing
 * execution time, NVM traffic, and the top influencers found.
 *
 *   $ ./examples/social_influence [scale]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "exp/runner.h"
#include "profile/analysis.h"

using namespace memtier;

namespace {

/** Scale a capacity with the graph size (base value is for 2^16). */
std::uint64_t
scaledBytes(std::uint64_t base, int scale)
{
    return scale >= 16 ? base << (scale - 16) : base >> (16 - scale);
}

}  // namespace


int
main(int argc, char **argv)
{
    const int scale = argc > 1 ? std::atoi(argv[1]) : 16;

    RunConfig rc;
    rc.workload.app = App::BC;
    rc.workload.kind = GraphKind::Kron;  // Power-law, like a social net.
    rc.workload.scale = scale;
    rc.workload.trials = 3;  // Sampled influence sources.
    // Size the tiers so the network does not fit in the fast tier.
    rc.sys.dram = makeDramParams(scaledBytes(6 * kMiB, scale));
    rc.sys.nvm = makeNvmParams(scaledBytes(24 * kMiB, scale));

    std::printf("computing influence on a 2^%d-user social network...\n",
                scale);

    // Pass 1: profile under AutoNUMA (the kernel's default tiering).
    const RunResult autonuma = runWorkload(rc);
    const ExternalSplit base_split = externalSplit(autonuma.samples);

    // Pass 2: the paper's object-level static mapping, planned from the
    // profile of pass 1.
    const PlacementPlan plan =
        planFromProfile(autonuma, rc.sys.dram.capacityBytes,
                        /*spill=*/false);
    const RunResult object = runWorkload(rc, &plan);
    const ExternalSplit obj_split = externalSplit(object.samples);

    std::printf("\n%-22s %12s %12s\n", "", "AutoNUMA", "object-level");
    std::printf("%-22s %11.3fs %11.3fs\n", "execution time",
                autonuma.totalSeconds, object.totalSeconds);
    std::printf("%-22s %11.1f%% %11.1f%%\n", "NVM share of ext hits",
                base_split.nvmFrac * 100.0, obj_split.nvmFrac * 100.0);
    std::printf("%-22s %12llu %12llu\n", "pages promoted",
                static_cast<unsigned long long>(
                    autonuma.vmstat.pgpromoteSuccess),
                static_cast<unsigned long long>(
                    object.vmstat.pgpromoteSuccess));
    std::printf("\nobject-level mapping is %.1f%% faster (identical "
                "results: %s)\n",
                (1.0 - object.totalSeconds / autonuma.totalSeconds) *
                    100.0,
                autonuma.outputChecksum == object.outputChecksum
                    ? "yes"
                    : "NO");

    std::printf("\nplacement plan:\n");
    for (const auto &[site, policy] : plan.entries()) {
        const char *where =
            policy.mode == MemPolicy::Mode::Split
                ? "split DRAM/NVM"
                : (policy.node == MemNode::DRAM ? "DRAM" : "NVM");
        std::printf("  %-18s -> %s\n", site.c_str(), where);
    }
    return 0;
}
