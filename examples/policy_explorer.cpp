/**
 * @file
 * Policy explorer: a command-line driver that runs any paper workload
 * under any memory-management mode and prints a full report -- the tool
 * you reach for when exploring "what would AutoNUMA / static mapping /
 * all-NVM do to my workload?".
 *
 *   $ ./examples/policy_explorer bc kron autonuma 16
 *   $ ./examples/policy_explorer cc urand object_spill 17
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "base/logging.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "profile/analysis.h"

using namespace memtier;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [app] [graph] [mode] [scale]\n"
        "  app:   bc | bfs | cc | pr          (default bc)\n"
        "  graph: kron | urand                (default kron)\n"
        "  mode:  autonuma | notiering | object_static | object_spill |\n"
        "         object_dynamic | all_dram | all_nvm (default autonuma)\n"
        "         (object_static/spill: autonuma + a profiled plan;\n"
        "         notiering/all_*: the vanilla kernel)\n"
        "  scale: log2 vertices, 12..20       (default 16)\n",
        argv0);
    std::exit(1);
}

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
    RunConfig rc;
    rc.workload.app = App::BC;
    rc.workload.kind = GraphKind::Kron;
    std::string mode = "autonuma";
    int scale = 16;

    if (argc > 1) {
        const std::string app = argv[1];
        if (app == "bc") rc.workload.app = App::BC;
        else if (app == "bfs") rc.workload.app = App::BFS;
        else if (app == "cc") rc.workload.app = App::CC;
        else if (app == "pr") rc.workload.app = App::PR;
        else usage(argv[0]);
    }
    if (argc > 2) {
        const std::string kind = argv[2];
        if (kind == "kron") rc.workload.kind = GraphKind::Kron;
        else if (kind == "urand") rc.workload.kind = GraphKind::Urand;
        else usage(argv[0]);
    }
    if (argc > 3) {
        mode = argv[3];
        if (mode == "object_dynamic") rc.policy = "object-dynamic";
        else if (mode == "notiering" || mode == "all_dram" ||
                 mode == "all_nvm") rc.policy = "";
        else if (mode != "autonuma" && mode != "object_static" &&
                 mode != "object_spill") usage(argv[0]);
    }
    if (argc > 4) {
        scale = std::atoi(argv[4]);
        if (scale < 12 || scale > 20)
            usage(argv[0]);
    }
    rc.workload.scale = scale;
    rc.workload.trials = rc.workload.app == App::BC ? 3 : 2;
    rc.sys.dram = makeDramParams(scaledBytes(6 * kMiB, scale));
    rc.sys.nvm = makeNvmParams(scaledBytes(24 * kMiB, scale));

    // Object modes need a profiling pass first; the all_* bounds bind
    // every allocation. An empty plan leaves placement to the kernel.
    PlacementPlan plan;
    if (mode == "object_static" || mode == "object_spill") {
        std::fprintf(stderr, "profiling pass under AutoNUMA...\n");
        const RunResult profile = runWorkload(rc);
        plan = planFromProfile(profile, rc.sys.dram.capacityBytes,
                               mode == "object_spill");
    } else if (mode == "all_dram") {
        rc.sys.dram.capacityBytes = rc.sys.nvm.capacityBytes * 4;
        plan = PlacementPlan::bindAll(MemNode::DRAM);
    } else if (mode == "all_nvm") {
        plan = PlacementPlan::bindAll(MemNode::NVM);
    }

    std::fprintf(stderr, "running %s under %s...\n",
                 rc.workload.name().c_str(), mode.c_str());
    const RunResult r = runWorkload(rc, &plan);

    banner(std::cout, r.workloadName + " under " + mode);
    const LevelShares ls = levelShares(r.samples);
    const ExternalSplit es = externalSplit(r.samples);
    const CostSplit cs = externalCostSplit(r.samples);

    TextTable summary({"metric", "value"});
    summary.addRow({"execution time", num(r.totalSeconds, 3) + " s"});
    summary.addRow({"  input reading", num(r.loadSeconds, 3) + " s"});
    summary.addRow({"  compute", num(r.computeSeconds, 3) + " s"});
    summary.addRow({"memory accesses", fmtCount(r.totalAccesses)});
    summary.addRow({"samples collected", fmtCount(r.samples.size())});
    summary.addRow({"outside caches", pct(ls.externalFrac)});
    summary.addRow({"  on DRAM", pct(es.dramFrac)});
    summary.addRow({"  on NVM", pct(es.nvmFrac)});
    summary.addRow({"NVM cost share", pct(cs.nvmCostFrac)});
    summary.addRow({"hint faults", fmtCount(r.vmstat.numaHintFaults)});
    summary.addRow({"promotions", fmtCount(r.vmstat.pgpromoteSuccess)});
    summary.addRow(
        {"demotions", fmtCount(r.vmstat.pgdemoteKswapd +
                               r.vmstat.pgdemoteDirect)});
    summary.addRow({"output checksum",
                    strprintf("%016llx",
                              static_cast<unsigned long long>(
                                  r.outputChecksum))});
    summary.print(std::cout);

    if (mode == "object_static" || mode == "object_spill") {
        std::cout << "\nplacement plan (" << plan.size() << " sites):\n";
        TextTable sites({"site", "placement"});
        for (const auto &[site, policy] : plan.entries()) {
            sites.addRow(
                {site, policy.mode == MemPolicy::Mode::Split
                           ? "split (" +
                                 std::to_string(policy.dramPages) +
                                 " pages DRAM, rest NVM)"
                           : (policy.node == MemNode::DRAM ? "DRAM"
                                                           : "NVM")});
        }
        sites.print(std::cout);
    }

    std::cout << "\ntop objects by external samples:\n";
    auto counts = objectAccessCounts(r.samples, r.tracker);
    std::sort(counts.begin(), counts.end(),
              [](const ObjectAccessCount &a, const ObjectAccessCount &b) {
                  return a.dramSamples + a.nvmSamples >
                         b.dramSamples + b.nvmSamples;
              });
    TextTable objects({"object", "site", "size", "DRAM", "NVM"});
    for (std::size_t i = 0; i < std::min<std::size_t>(8, counts.size());
         ++i) {
        const auto &c = counts[i];
        objects.addRow({std::to_string(c.object), c.site,
                        fmtBytes(c.bytes), fmtCount(c.dramSamples),
                        fmtCount(c.nvmSamples)});
    }
    objects.print(std::cout);
    return 0;
}
