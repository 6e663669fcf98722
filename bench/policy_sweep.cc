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
           "  --segments=N     run every workload on the segmented "
           "CSR path (N row-range segments)\n"
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

/** Split "a,b,c" into {"a","b","c"}; empty segments are dropped. */
std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::size_t end = comma == std::string::npos ? s.size()
                                                           : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

App
parseApp(const std::string &s)
{
    if (s == "bc") return App::BC;
    if (s == "bfs") return App::BFS;
    if (s == "cc") return App::CC;
    if (s == "pr") return App::PR;
    if (s == "sssp") return App::SSSP;
    if (s == "kv") return App::KV;
    if (s == "lsm") return App::LSM;
    fatal("unknown app '%s' (expected bc, bfs, cc, pr, sssp, kv or lsm)",
          s.c_str());
}

GraphKind
parseKind(const std::string &s)
{
    if (s == "kron") return GraphKind::Kron;
    if (s == "urand") return GraphKind::Urand;
    fatal("unknown graph kind '%s' (expected kron or urand)", s.c_str());
}

WorkloadSpec
parseWorkload(const std::string &s, int scale)
{
    const std::size_t colon = s.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= s.size()) {
        fatal("malformed workload '%s' (expected APP:KIND, e.g. "
              "pr:kron)",
              s.c_str());
    }
    WorkloadSpec w;
    w.app = parseApp(s.substr(0, colon));
    w.kind = parseKind(s.substr(colon + 1));
    w.scale = scale;
    w.trials = 2;
    return w;
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
                parseWorkload(value_of("--workload"), scale));
        } else if (arg.rfind("--segments", 0) == 0) {
            segments = std::stoi(value_of("--segments"));
            if (segments < 1)
                fatal("--segments needs a positive count");
        } else if (arg.rfind("--out", 0) == 0) {
            out_path = value_of("--out");
        } else if (arg.rfind("--faults", 0) == 0) {
            spec.sys.faults = FaultPlan::parseOrDie(value_of("--faults"));
        } else if (arg.rfind("--jobs", 0) == 0) {
            const int jobs = std::stoi(value_of("--jobs"));
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
        spec.workloads.push_back(parseWorkload("pr:kron", scale));
    for (WorkloadSpec &w : spec.workloads)
        w.segments = segments;
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
