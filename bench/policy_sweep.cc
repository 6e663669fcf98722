/**
 * @file
 * Parameter-sweep driver over the policy registry.
 *
 * Usage:
 *   policy_sweep [--policy=NAME] [--tunable KEY=V1,V2,...]...
 *                [--workload APP:KIND]... [--out=PATH.csv] [--jobs=N]
 *
 * Every --tunable flag contributes one sweep axis (comma-separated
 * values); the harness runs the full cross product over the workload
 * list, N cells at a time, and writes one CSV per sweep (identical for
 * every N). Defaults reproduce the AutoNUMA scan-period sweep on
 * pr:kron.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "bench_common.h"
#include "exp/sweep.h"
#include "fault/fault_plan.h"
#include "policy/policy_registry.h"

using namespace memtier;

namespace {

void
usage()
{
    std::cout
        << "usage: policy_sweep [--policy=NAME] "
           "[--tunable KEY=V1,V2,...]...\n"
           "                    [--workload APP:KIND]... "
           "[--out=PATH.csv] [--faults PLAN] [--thp]\n"
           "                    [--jobs=N]\n\n"
           "  --policy=NAME    registry policy to sweep "
           "(default autonuma)\n"
           "  --thp            map anonymous memory with 2 MiB PMD "
           "entries\n"
           "  --tunable K=Vs   one sweep axis; comma-separated values\n"
           "  --workload A:K   app {bc,bfs,cc,pr,sssp,kv,lsm} : "
           "graph {kron,urand}\n"
           "                   (kv/lsm: kron = zipfian keys, urand = "
           "uniform)\n"
           "  --segments=N     row-range CSR segments per graph "
           "(default 1)\n"
           "  --out=PATH       CSV output path "
           "(default results/sweep_<policy>.csv)\n"
           "  --faults PLAN    fault-injection plan applied to every "
           "point,\n"
           "                   e.g. 'migrate:p=0.2,burst=8;seed=7'\n"
           "  --jobs=N         sweep cells run at once (default 0 = "
           "the CPUs this\n"
           "                   process may run on; 1 = one at a time); "
           "output is\n"
           "                   the same for every N\n\n"
           "registered policies:\n";
    for (const std::string &name : PolicyRegistry::instance().names()) {
        std::cout << "  " << name << " -- "
                  << PolicyRegistry::instance().description(name) << "\n";
        for (const std::string &key :
             PolicyRegistry::instance().tunableKeys(name)) {
            std::cout << "      tunable: " << key << "\n";
        }
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    const int scale = std::max(12, benchScale() - 4);

    SweepSpec spec;
    spec.sys.thp.enabled = consumeThpFlag(argc, argv);
    std::string out_path;
    int segments = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value_of = [&](const std::string &flag) -> std::string {
            // Accept both --flag=value and --flag value.
            if (arg.size() > flag.size() && arg[flag.size()] == '=')
                return arg.substr(flag.size() + 1);
            if (i + 1 >= argc)
                fatal("%s needs a value", flag.c_str());
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else if (arg.rfind("--policy", 0) == 0) {
            spec.policy = value_of("--policy");
        } else if (arg.rfind("--tunable", 0) == 0) {
            const std::string assignment = value_of("--tunable");
            const std::size_t eq = assignment.find('=');
            if (eq == std::string::npos || eq == 0)
                fatal("malformed --tunable '%s' (expected KEY=V1,V2)",
                      assignment.c_str());
            SweepAxis axis;
            axis.key = assignment.substr(0, eq);
            axis.values = splitCommas(assignment.substr(eq + 1));
            if (axis.values.empty())
                fatal("--tunable %s has no values", axis.key.c_str());
            spec.axes.push_back(std::move(axis));
        } else if (arg.rfind("--workload", 0) == 0) {
            spec.workloads.push_back(
                parseWorkload(value_of("--workload")));
        } else if (arg.rfind("--segments", 0) == 0) {
            segments = parseInt(value_of("--segments"), "--segments");
            if (segments < 1)
                fatal("--segments needs a positive count");
        } else if (arg.rfind("--out", 0) == 0) {
            out_path = value_of("--out");
        } else if (arg.rfind("--faults", 0) == 0) {
            spec.sys.faults = FaultPlan::parseOrDie(value_of("--faults"));
        } else if (arg.rfind("--jobs", 0) == 0) {
            const int jobs = parseInt(value_of("--jobs"), "--jobs");
            if (jobs < 0)
                fatal("--jobs needs a count >= 0");
            spec.jobs = static_cast<unsigned>(jobs);
        } else {
            usage();
            fatal("unknown argument '%s'", arg.c_str());
        }
    }

    if (!PolicyRegistry::instance().contains(spec.policy)) {
        usage();
        fatal("unknown policy '%s'", spec.policy.c_str());
    }
    if (spec.workloads.empty())
        spec.workloads.push_back(parseWorkload("pr:kron"));
    for (WorkloadSpec &w : spec.workloads) {
        w.scale = scale;
        w.trials = 2;
        w.segments = segments;
    }
    if (spec.axes.empty() && spec.policy == "autonuma") {
        // Sub-millisecond values: simulated runs at sweep scale last a
        // few milliseconds, so paper-scale periods would never fire.
        SweepAxis axis;
        axis.key = "scan_period_ms";
        axis.values = {"0.25", "0.5", "1", "2"};
        spec.axes.push_back(std::move(axis));
    }
    if (out_path.empty())
        out_path = "results/sweep_" + spec.policy + ".csv";

    spec.sys.dram = makeDramParams(scaledCapacity(24 * kMiB, scale));
    spec.sys.nvm = makeNvmParams(scaledCapacity(96 * kMiB, scale));
    // The scaled testbed compresses hours to milliseconds; compress the
    // default scan clocks to match or no scan fires inside a sweep
    // point. Explicit --tunable values still override these.
    spec.sys.autonuma.scanPeriod = secondsToCycles(0.0005);
    spec.sys.autonuma.adjustPeriod = secondsToCycles(0.002);

    benchHeader("parameter sweep over policy '" + spec.policy + "'",
                "parameter-tuning methodology for tiered-memory "
                "kernels");
    if (spec.sys.faults.anyEnabled())
        std::cout << "fault plan: " << spec.sys.faults.summary() << "\n";
    if (spec.sys.thp.enabled)
        std::cout << "thp: on (2 MiB PMD mappings)\n";
    const std::vector<SweepPoint> points = runSweep(spec, &std::cerr);

    std::ofstream csv_file(out_path);
    if (!csv_file)
        fatal("cannot open %s", out_path.c_str());
    writeSweepCsv(spec, points, csv_file);

    TextTable table([&spec] {
        std::vector<std::string> headers = {"workload"};
        for (const SweepAxis &axis : spec.axes)
            headers.push_back(axis.key);
        headers.insert(headers.end(),
                       {"exec (s)", "promotions", "demotions",
                        "exchanges", "thrash"});
        if (spec.sys.faults.anyEnabled()) {
            headers.insert(headers.end(),
                           {"migrate fail", "retries", "breaker trips"});
        }
        return headers;
    }());
    for (const SweepPoint &p : points) {
        std::vector<std::string> row = {p.workload};
        for (const auto &[key, value] : p.tunables) {
            (void)key;
            row.push_back(value);
        }
        row.insert(row.end(),
                   {num(p.totalSeconds, 3), fmtCount(p.promotions),
                    fmtCount(p.demotions), fmtCount(p.exchanges),
                    fmtCount(p.thrash)});
        if (spec.sys.faults.anyEnabled()) {
            row.insert(row.end(),
                       {fmtCount(p.migrateFail), fmtCount(p.promoteRetry),
                        fmtCount(p.breakerTrips)});
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nwrote " << out_path << " (" << points.size()
              << " points)\n";
    return 0;
}
