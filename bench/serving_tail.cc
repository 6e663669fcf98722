/**
 * @file
 * Tail-latency characterization of the data-serving tier: the KV and
 * LSM applications replayed under the registry's tiering policies,
 * with and without THP, reporting p50/p99/p999 completion latency and
 * SLO-violation fractions per traffic phase (off-peak / peak /
 * connection storm).
 *
 * This is the serving-scenario counterpart of the paper's graph
 * sweeps: graph analytics measures throughput (execution time), a
 * data-serving tier lives and dies by its tail, which is exactly where
 * NVM-resident hot pages and migration stalls surface first. Policies
 * and THP move time, never answers: the bench asserts that every cell
 * of one app returns the same output checksum.
 *
 * Usage:
 *   serving_tail [--apps=kv,lsm] [--policies=P1,P2,...] [--no-thp]
 *                [--faults PLAN] [--trials=N]
 *                [--out=PATH.json] [--csv=PATH.csv]
 */

#include <iostream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "bench_common.h"
#include "fault/fault_plan.h"

using namespace memtier;

namespace {

/** One (app, policy, thp) cell's output. */
struct Row
{
    RecordRow record;
    std::vector<std::string> text;  ///< Its line of the printed table.
    std::uint64_t checksum = 0;
    std::uint64_t errors = 0;       ///< Requests killed by a SIGBUS.
};

}  // namespace

int
main(int argc, char **argv)
{
    // Serving stores are denser than graphs: a keyspace four scales
    // below the graph default keeps the same footprint:DRAM pressure.
    const int scale = std::max(12, benchScale() - 4);

    std::vector<std::string> apps = {"kv", "lsm"};
    std::vector<std::string> policies = {"autonuma", "exchange",
                                         "dram-only", "interleave"};
    std::vector<bool> thp_values = {false, true};
    FaultPlan faults;
    int trials = 2;
    std::string out_path = "BENCH_serving.json";
    std::string csv_path = "results/serving_tail.csv";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--apps=", 0) == 0) {
            apps = splitCommas(arg.substr(7));
        } else if (arg.rfind("--policies=", 0) == 0) {
            policies = splitCommas(arg.substr(11));
        } else if (arg == "--no-thp") {
            thp_values = {false};
        } else if (arg.rfind("--trials=", 0) == 0) {
            trials = parseInt(arg.substr(9), "--trials");
        } else if (arg == "--faults" && i + 1 < argc) {
            faults = FaultPlan::parseOrDie(argv[++i]);
        } else if (arg.rfind("--faults=", 0) == 0) {
            faults = FaultPlan::parseOrDie(arg.substr(9));
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else if (arg.rfind("--csv=", 0) == 0) {
            csv_path = arg.substr(6);
        } else {
            std::cerr << "usage: serving_tail [--apps=kv,lsm]"
                         " [--policies=P1,...] [--no-thp]"
                         " [--faults PLAN] [--trials=N]"
                         " [--out=PATH.json] [--csv=PATH.csv]\n";
            return 2;
        }
    }
    if (apps.empty() || policies.empty() || trials <= 0) {
        std::cerr << "serving_tail: bad sweep parameters\n";
        return 2;
    }

    benchHeader("data-serving tail latency under tiering policies",
                "serving-scenario extension of the paper's workload "
                "matrix (Section 4.1)");
    std::cout << "serving scale:        2^" << scale << " keys, "
              << trials * 5000 << " requests, "
              << (thp_values.size() > 1 ? "thp off+on" : "thp off")
              << "\n";
    if (faults.anyEnabled())
        std::cout << "fault plan:           " << faults.summary() << "\n";

    ServingSpec ref_spec;  // For the SLO threshold only.
    const Cycles slo = ref_spec.sloCycles();

    std::vector<GridCell> cells;
    for (const std::string &app : apps) {
        WorkloadSpec w = parseWorkload(app + ":kron");  // Zipfian keys.
        if (!isServingApp(w.app))
            fatal("unknown serving app '%s'", app.c_str());
        w.scale = scale;
        w.trials = trials;
        for (const bool thp : thp_values) {
            for (const std::string &policy : policies) {
                RunConfig rc;
                rc.workload = w;
                rc.policy = policy;
                rc.sampling = false;
                rc.sys.thp.enabled = thp;
                rc.sys.faults = faults;
                rc.sys.dram =
                    makeDramParams(scaledCapacity(24 * kMiB, scale));
                rc.sys.nvm =
                    makeNvmParams(scaledCapacity(96 * kMiB, scale));
                cells.push_back({rc, "running " + w.name() + " [" +
                                         policy + (thp ? ", thp" : "") +
                                         "]..."});
            }
        }
    }

    std::vector<Row> rows(cells.size());
    runCells(cells, 0, &std::cerr, [&](std::size_t i, const RunResult &r) {
        MEMTIER_ASSERT(r.hasServing, "serving run produced no report");
        const ServingReport &s = r.serving;
        const std::string &policy = cells[i].config.policy;
        const bool thp = cells[i].config.sys.thp.enabled;
        RecordRow record = {
            {"workload", r.workloadName},
            {"policy", policy},
            {"thp", thp},
            {"requests", s.requests},
            {"p50_usec", usec(s.latency.percentile(0.50))},
            {"p99_usec", usec(s.latency.percentile(0.99))},
            {"p999_usec", usec(s.latency.percentile(0.999))},
            {"mean_usec", usec(s.latency.mean())},
            {"max_usec", usec(static_cast<double>(s.latency.max()))},
            {"slo_violation", s.sloViolationFraction(slo)}};
        for (int ph = 0; ph < kNumServePhases; ++ph) {
            const LatencyHistogram &h = s.phaseLatency[ph];
            const std::string name =
                servePhaseName(static_cast<ServePhase>(ph));
            record.push_back({name + "_requests", h.count()});
            record.push_back(
                {name + "_p99_usec", usec(h.percentile(0.99))});
            record.push_back(
                {name + "_violation", h.violationFraction(slo)});
        }
        record.push_back({"prefill_sec", s.prefillSeconds});
        record.push_back({"total_sec", r.totalSeconds});
        record.push_back({"checksum", r.outputChecksum});

        const LatencyHistogram &storm =
            s.phaseLatency[static_cast<int>(ServePhase::Storm)];
        rows[i] = {std::move(record),
                   {r.workloadName, policy, thp ? "on" : "off",
                    num(usec(s.latency.percentile(0.50)), 2),
                    num(usec(s.latency.percentile(0.99)), 2),
                    num(usec(s.latency.percentile(0.999)), 2),
                    num(s.sloViolationFraction(slo), 4),
                    num(usec(storm.percentile(0.99)), 2),
                    num(storm.violationFraction(slo), 4)},
                   r.outputChecksum,
                   s.errors};
    });

    // Policies and THP move time, never answers: every cell of one app
    // returns the app's first cell's checksum, unless a memory failure
    // killed a request in either of them.
    const std::size_t per_app = rows.size() / apps.size();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &first = rows[i - i % per_app];
        MEMTIER_ASSERT(rows[i].errors != 0 || first.errors != 0 ||
                           rows[i].checksum == first.checksum,
                       "a policy or THP changed application output");
    }

    TextTable table({"workload", "policy", "thp", "p50 (us)", "p99 (us)",
                     "p999 (us)", "slo viol", "storm p99", "storm viol"});
    Record rec{"serving_tail",
               {{"scale", scale},
                {"requests", trials * 5000},
                {"slo_usec", ref_spec.sloMicros}},
               recordHost(),
               "cells",
               {}};
    for (Row &row : rows) {
        table.addRow(std::move(row.text));
        rec.rows.push_back(std::move(row.record));
    }
    table.print(std::cout);
    writeRecord(rec, out_path, csv_path);

    std::cout << "\nwrote " << out_path << " and " << csv_path << " ("
              << rows.size() << " cells)\n";
    return 0;
}
