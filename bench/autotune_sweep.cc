/**
 * @file
 * Tuned-vs-default comparison for the online autotune policy: every
 * workload runs twice from the same construction-time configuration --
 * once under plain "autonuma", once under "autotune" wrapping autonuma
 * -- and the bench reports end-to-end speedup plus the tuner's
 * trajectory counters and the effective (post-tuning) tunable values.
 * This is the "From Good to Great" experiment run online: the starting
 * point is the stock configuration and the hill climber has to find
 * the better scan cadence / promotion budget while the workload runs.
 *
 * Usage:
 *   autotune_sweep [--workload APP:KIND]... [--trials=N] [--seed=S]
 *                  [--epoch-ms=MS] [--out=PATH.json] [--csv=PATH.csv]
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "bench_common.h"

using namespace memtier;

namespace {

/** What one arm leaves of a run: its time, output and tuner moves. */
struct Arm
{
    double seconds = 0.0;
    std::uint64_t checksum = 0;
    std::uint64_t epochs = 0;
    std::uint64_t applied = 0;
    std::uint64_t accepted = 0;
    std::uint64_t reverted = 0;
    std::string effective;  ///< joinedTunables of the run.
};

std::uint64_t
counter(const RunResult &r, const std::string &key)
{
    for (const auto &[name, value] : r.policyCounters) {
        if (name == key)
            return value;
    }
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    const int scale = std::max(12, benchScale() - 4);

    std::vector<std::string> workload_names;
    int trials = 8;
    std::uint64_t seed = 42;
    double epoch_ms = 0.5;
    std::string out_path = "BENCH_autotune.json";
    std::string csv_path = "results/autotune_sweep.csv";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value_of = [&](const std::string &flag) -> std::string {
            if (arg.size() > flag.size() && arg[flag.size()] == '=')
                return arg.substr(flag.size() + 1);
            if (i + 1 >= argc)
                fatal("%s needs a value", flag.c_str());
            return argv[++i];
        };
        if (arg.rfind("--workload", 0) == 0) {
            workload_names.push_back(value_of("--workload"));
        } else if (arg.rfind("--trials", 0) == 0) {
            trials = parseInt(value_of("--trials"), "--trials");
        } else if (arg.rfind("--seed", 0) == 0) {
            seed = parseU64(value_of("--seed"), "--seed");
        } else if (arg.rfind("--epoch-ms", 0) == 0) {
            epoch_ms = parseDouble(value_of("--epoch-ms"), "--epoch-ms");
        } else if (arg.rfind("--out", 0) == 0) {
            out_path = value_of("--out");
        } else if (arg.rfind("--csv", 0) == 0) {
            csv_path = value_of("--csv");
        } else {
            std::cerr << "usage: autotune_sweep [--workload APP:KIND]..."
                         " [--trials=N] [--seed=S] [--epoch-ms=MS]"
                         " [--out=PATH.json] [--csv=PATH.csv]\n";
            return 2;
        }
    }
    if (workload_names.empty()) {
        workload_names = {"pr:kron", "bc:kron", "cc:kron", "kv:kron",
                          "lsm:kron"};
    }
    if (trials <= 0)
        fatal("--trials needs a positive count");

    // Both arms start from the identical mistuned configuration -- a
    // sluggish scan and a starved promotion budget, the kind of stock
    // setting "From Good to Great" shows admins actually run with. The
    // tuned arm may then move any of the base's registered tunables
    // while the workload runs; the default arm is stuck with them.
    const std::vector<std::string> base_tunables = {
        "scan_period_ms=2", "adjust_period_ms=2", "rate_limit_kib=128"};
    std::ostringstream meta;
    meta << "epoch_ms=" << epoch_ms;
    const std::string epoch_assignment = meta.str();

    benchHeader("online autotuning vs. the stock configuration",
                "parameter-tuning methodology for tiered-memory "
                "kernels, applied online");
    std::cout << "tuner:                base=autonuma, " << epoch_assignment
              << ", seed=" << seed << "\n";

    // Two cells per workload: the default arm, then the tuned arm.
    std::vector<GridCell> cells;
    for (const std::string &name : workload_names) {
        RunConfig rc;
        rc.workload = parseWorkload(name);
        rc.workload.scale = scale;
        rc.workload.trials = trials;
        rc.sampling = false;
        // One third of the standard testbed's DRAM: placement quality
        // has to matter for parameter tuning to have any headroom, so
        // this sweep runs under real capacity pressure.
        rc.sys.dram = makeDramParams(scaledCapacity(8 * kMiB, scale));
        rc.sys.nvm = makeNvmParams(scaledCapacity(96 * kMiB, scale));
        const std::string label = "running " + rc.workload.name();

        rc.policy = "autonuma";
        rc.tunables = base_tunables;
        cells.push_back({rc, label + " [autonuma]..."});

        rc.policy = "autotune";
        rc.tunables.push_back("base=autonuma");
        rc.tunables.push_back(epoch_assignment);
        rc.tunables.push_back("seed=" + std::to_string(seed));
        // Aggressive climb: the mistuned start is far from the optimum
        // (the promotion budget alone is off by an order of magnitude),
        // so take coarse steps and accept any measurable gain.
        rc.tunables.push_back("step=0.5");
        rc.tunables.push_back("min_gain=0.01");
        cells.push_back({rc, label + " [autotune]..."});
    }

    std::vector<Arm> arms(cells.size());
    runCells(cells, 0, &std::cerr, [&](std::size_t i, const RunResult &r) {
        arms[i] = {r.totalSeconds,
                   r.outputChecksum,
                   counter(r, "tuner_epochs"),
                   counter(r, "tuner_applied"),
                   counter(r, "tuner_accepted"),
                   counter(r, "tuner_reverted"),
                   joinedTunables(r)};
    });

    TextTable table({"workload", "default (s)", "tuned (s)", "speedup",
                     "applied", "accepted", "reverted"});
    Record rec{"autotune_sweep",
               {{"scale", scale}, {"seed", seed}, {"epoch_ms", epoch_ms}},
               recordHost(),
               "cells",
               {}};
    for (std::size_t i = 0; i < cells.size(); i += 2) {
        const Arm &def = arms[i];
        const Arm &tuned = arms[i + 1];
        MEMTIER_ASSERT(def.checksum == tuned.checksum,
                       "tuning changed application output");
        const std::string workload = cells[i].config.workload.name();
        const double speedup = def.seconds / tuned.seconds;
        table.addRow({workload, num(def.seconds, 4),
                      num(tuned.seconds, 4), num(speedup, 3),
                      fmtCount(tuned.applied), fmtCount(tuned.accepted),
                      fmtCount(tuned.reverted)});
        rec.rows.push_back({{"workload", workload},
                            {"default_seconds", def.seconds},
                            {"tuned_seconds", tuned.seconds},
                            {"speedup", speedup},
                            {"tuner_epochs", tuned.epochs},
                            {"tuner_applied", tuned.applied},
                            {"tuner_accepted", tuned.accepted},
                            {"tuner_reverted", tuned.reverted},
                            {"effective_tunables", tuned.effective}});
    }
    table.print(std::cout);
    writeRecord(rec, out_path, csv_path);

    std::cout << "\nwrote " << out_path << " and " << csv_path << " ("
              << rec.rows.size() << " cells)\n";
    return 0;
}
