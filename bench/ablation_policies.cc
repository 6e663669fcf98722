/**
 * @file
 * Policy ablation: every registered tiering policy (autonuma, exchange,
 * dram-only, interleave) on the paper's workload matrix
 * {bc,bfs,cc} x {kron,urand}, at a reduced scale so the full grid stays
 * a few minutes. Prints one table per workload and writes the whole
 * grid to results/ablation_policies.csv (runtime, promotions,
 * demotions, exchanges per policy).
 */

#include "base/logging.h"
#include "bench_common.h"
#include "fault/fault_plan.h"

using namespace memtier;

namespace {

/** The four policies, in presentation order. */
const char *kPolicies[] = {"autonuma", "exchange", "dram-only",
                           "interleave"};

}  // namespace

int
main(int argc, char **argv)
{
    const bool thp = consumeThpFlag(argc, argv);
    FaultPlan faults;  // Applied to every run (default: no faults).
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--faults" && i + 1 < argc) {
            faults = FaultPlan::parseOrDie(argv[++i]);
        } else if (arg.rfind("--faults=", 0) == 0) {
            faults = FaultPlan::parseOrDie(arg.substr(9));
        } else {
            fatal("usage: ablation_policies [--thp] [--faults PLAN]\n"
                  "  PLAN e.g. 'migrate:p=0.2,burst=8;seed=7'");
        }
    }

    benchHeader("Policy ablation -- autonuma vs exchange vs static "
                "baselines",
                "extends the paper with the AutoTiering exchange policy "
                "(Sys-KU, ATC'21)");
    if (faults.anyEnabled())
        std::cout << "fault plan: " << faults.summary() << "\n";
    std::cout << "thp: " << (thp ? "on" : "off")
              << " (pass --thp for 2 MiB PMD mappings)\n";

    const int scale = std::max(12, benchScale() - 4);
    std::vector<GridCell> cells;
    for (const App app : {App::BC, App::BFS, App::CC}) {
        for (const GraphKind kind : {GraphKind::Kron, GraphKind::Urand}) {
            WorkloadSpec w;
            w.app = app;
            w.kind = kind;
            w.scale = scale;
            w.trials = 2;
            for (const std::string policy : kPolicies) {
                RunConfig rc;
                rc.workload = w;
                rc.policy = policy;
                rc.sys.dram = makeDramParams(scaledCapacity(24 * kMiB, scale));
                rc.sys.nvm = makeNvmParams(scaledCapacity(96 * kMiB, scale));
                rc.sys.thp.enabled = thp;
                rc.sys.faults = faults;
                // The scaled testbed compresses hours to milliseconds;
                // compress the scan clocks the same way or no scan ever
                // fires inside a run.
                if (policy == "autonuma") {
                    rc.tunables = {"scan_period_ms=0.5",
                                   "adjust_period_ms=2",
                                   "rate_limit_kib=4096"};
                } else if (policy == "exchange") {
                    rc.tunables = {"scan_period_ms=0.5", "protect_ms=2"};
                }
                cells.push_back(
                    {rc, "running " + w.name() + " [" + policy + "]..."});
            }
        }
    }

    std::vector<RecordRow> rows(cells.size());
    std::vector<std::vector<std::string>> text(cells.size());
    runCells(cells, 0, &std::cerr, [&](std::size_t i, const RunResult &r) {
        const ExternalSplit es = externalSplit(r.samples);
        const std::uint64_t demotions =
            r.vmstat.pgdemoteKswapd + r.vmstat.pgdemoteDirect;
        const std::uint64_t thrash =
            r.vmstat.pgpromoteDemoted + r.vmstat.pgexchangeThrash;
        const std::string &policy = cells[i].config.policy;
        rows[i] = {{"workload", r.workloadName},
                   {"policy", policy},
                   {"thp", std::string(thp ? "on" : "off")},
                   {"total_seconds", r.totalSeconds},
                   {"compute_seconds", r.computeSeconds},
                   {"ext_nvm_share", es.nvmFrac},
                   {"hint_faults", r.vmstat.numaHintFaults},
                   {"promotions", r.vmstat.pgpromoteSuccess},
                   {"demotions", demotions},
                   {"exchanges", r.vmstat.pgexchangeSuccess},
                   {"thrash", thrash},
                   {"migrate_fail", r.vmstat.pgmigrateFail},
                   {"promote_retry", r.vmstat.promoteRetry},
                   {"alloc_fail", r.vmstat.pgallocFail},
                   {"disk_read_retry", r.vmstat.diskReadRetry},
                   {"breaker_trips", r.vmstat.breakerTrips},
                   {"thp_fault_alloc", r.vmstat.thpFaultAlloc},
                   {"thp_collapse_alloc", r.vmstat.thpCollapseAlloc},
                   {"thp_split_page", r.vmstat.thpSplitPage}};
        text[i] = {policy,
                   num(r.totalSeconds, 3),
                   pct(es.nvmFrac),
                   fmtCount(r.vmstat.pgpromoteSuccess),
                   fmtCount(demotions),
                   fmtCount(r.vmstat.pgexchangeSuccess),
                   fmtCount(thrash)};
    });

    // One table per workload, its policies in presentation order.
    const std::size_t per_workload = std::size(kPolicies);
    for (std::size_t w = 0; w < cells.size(); w += per_workload) {
        std::cout << "\n" << cells[w].config.workload.name() << " (scale "
                  << scale << ")\n";
        TextTable table({"policy", "exec (s)", "NVM ext share",
                         "promotions", "demotions", "exchanges",
                         "thrash"});
        for (std::size_t i = w; i < w + per_workload; ++i)
            table.addRow(std::move(text[i]));
        table.print(std::cout);
    }
    writeRecord({"ablation_policies", {}, recordHost(), "cells",
                 std::move(rows)},
                "", "results/ablation_policies.csv");

    std::cout << "\nwrote results/ablation_policies.csv (" << cells.size()
              << " rows)\n"
              << "expected: exchange trades reclaim demotions for "
                 "direct exchanges and cuts\nthrash; the static "
                 "baselines bound the migration policies from both "
                 "sides.\n";
    return 0;
}
