/**
 * @file
 * Ablation studies beyond the paper's figures, exercising the design
 * choices DESIGN.md calls out:
 *
 *  1. Mode baselines: AutoNUMA vs. vanilla (no tiering) vs. all-DRAM
 *     (ideal) vs. all-NVM (worst case) vs. object-level.
 *  2. Promotion rate limit sweep (the tiering patch's key knob).
 *  3. Scanner aggressiveness sweep (scan period).
 *  4. DRAM-capacity sweep (how pressure changes the picture).
 *
 * Runs one workload (bc_kron) at a reduced scale so the whole ablation
 * stays a few minutes.
 */

#include "bench_common.h"

using namespace memtier;

namespace {

WorkloadSpec
ablationWorkload()
{
    WorkloadSpec w;
    w.app = App::BC;
    w.kind = GraphKind::Kron;
    w.scale = std::max(14, benchScale() - 2);
    w.trials = 2;
    return w;
}

RunConfig
baseConfig()
{
    RunConfig rc;
    rc.workload = ablationWorkload();
    // Scale the tiers with the reduced workload so pressure matches
    // the main experiments (footprint ~1.4x DRAM).
    const int shift = 18 - rc.workload.scale;
    rc.sys.dram = makeDramParams((24 * kMiB) >> shift);
    rc.sys.nvm = makeNvmParams((96 * kMiB) >> shift);
    return rc;
}

}  // namespace

int
main()
{
    benchHeader("Ablations -- mode baselines, rate limit, scan period, "
                "DRAM size",
                "DESIGN.md ablation index (extends the paper)");

    // -- 1. Mode baselines -------------------------------------------
    std::cout << "\n[1] memory-management mode baselines ("
              << ablationWorkload().name() << ")\n";
    {
        TextTable table({"mode", "exec (s)", "NVM ext share",
                         "promotions", "demotions"});
        RunResult profile_run;
        for (const std::string mode : {"all_dram", "autonuma", "notiering",
                                       "object_static", "all_nvm"}) {
            RunConfig rc = baseConfig();
            PlacementPlan plan;  // Empty: the kernel places everything.
            if (mode == "object_static") {
                plan = planFromProfile(profile_run,
                                       rc.sys.dram.capacityBytes,
                                       false);
            } else if (mode != "autonuma") {
                rc.policy = "";  // The vanilla kernel.
            }
            if (mode == "all_dram") {
                // Ideal bound: a DRAM tier large enough for everything.
                rc.sys.dram.capacityBytes = rc.sys.nvm.capacityBytes * 4;
                plan = PlacementPlan::bindAll(MemNode::DRAM);
            } else if (mode == "all_nvm") {
                plan = PlacementPlan::bindAll(MemNode::NVM);
            }
            std::cerr << "running mode " << mode << "...\n";
            RunResult r = runWorkload(rc, &plan);
            const ExternalSplit es = externalSplit(r.samples);
            table.addRow({mode, num(r.totalSeconds, 3),
                          pct(es.nvmFrac),
                          fmtCount(r.vmstat.pgpromoteSuccess),
                          fmtCount(r.vmstat.pgdemoteKswapd +
                                   r.vmstat.pgdemoteDirect)});
            if (mode == "autonuma")
                profile_run = std::move(r);  // Feeds the planner below.
        }
        table.print(std::cout);
        std::cout << "expected: all_dram fastest, all_nvm slowest, "
                     "object_static between all_dram\nand autonuma.\n";
    }

    // -- 2. Promotion rate limit sweep --------------------------------
    std::cout << "\n[2] promotion rate limit sweep\n";
    {
        TextTable table({"rate limit (KiB/s)", "exec (s)", "promotions",
                         "promote-then-demote", "rate-limited"});
        for (const std::uint64_t kib : {16ULL, 128ULL, 512ULL, 2048ULL,
                                        16384ULL}) {
            RunConfig rc = baseConfig();
            rc.sys.autonuma.rateLimitBytesPerSec = kib * kKiB;
            std::cerr << "running rate=" << kib << "KiB/s...\n";
            const RunResult r = runWorkload(rc);
            table.addRow({fmtCount(kib), num(r.totalSeconds, 3),
                          fmtCount(r.vmstat.pgpromoteSuccess),
                          fmtCount(r.vmstat.pgpromoteDemoted),
                          fmtCount(r.vmstat.promoteRateLimited)});
        }
        table.print(std::cout);
        std::cout << "expected: promotions grow with the budget; "
                     "beyond some point extra promotion\ntraffic stops "
                     "paying off (thrashing appears in the "
                     "promote-then-demote column).\n";
    }

    // -- 3. Scan period sweep ------------------------------------------
    std::cout << "\n[3] scanner aggressiveness sweep\n";
    {
        TextTable table({"scan period (ms)", "exec (s)", "hint faults",
                         "pages scanned", "promotions"});
        for (const double ms : {2.5, 10.0, 40.0, 160.0}) {
            RunConfig rc = baseConfig();
            rc.sys.autonuma.scanPeriod = secondsToCycles(ms / 1000.0);
            std::cerr << "running scan=" << ms << "ms...\n";
            const RunResult r = runWorkload(rc);
            table.addRow({num(ms, 1), num(r.totalSeconds, 3),
                          fmtCount(r.vmstat.numaHintFaults),
                          fmtCount(r.numaStats.pagesScanned),
                          fmtCount(r.vmstat.pgpromoteSuccess)});
        }
        table.print(std::cout);
        std::cout << "expected: faster scanning finds more candidates "
                     "but costs hint-fault overhead;\nslow scanning "
                     "starves the policy of information.\n";
    }

    // -- 4. DRAM capacity sweep ----------------------------------------
    std::cout << "\n[4] DRAM capacity sweep (AutoNUMA)\n";
    {
        TextTable table({"DRAM", "exec (s)", "ext NVM share",
                         "demotions"});
        const std::uint64_t base_dram =
            baseConfig().sys.dram.capacityBytes;
        for (const double factor : {0.5, 0.75, 1.0, 1.5, 3.0}) {
            RunConfig rc = baseConfig();
            rc.sys.dram = makeDramParams(static_cast<std::uint64_t>(
                static_cast<double>(base_dram) * factor));
            std::cerr << "running dram x" << factor << "...\n";
            const RunResult r = runWorkload(rc);
            const ExternalSplit es = externalSplit(r.samples);
            table.addRow({fmtBytes(rc.sys.dram.capacityBytes),
                          num(r.totalSeconds, 3), pct(es.nvmFrac),
                          fmtCount(r.vmstat.pgdemoteKswapd +
                                   r.vmstat.pgdemoteDirect)});
        }
        table.print(std::cout);
        std::cout << "expected: execution time and NVM share fall "
                     "monotonically as DRAM grows;\nonce the footprint "
                     "fits, tiering activity disappears.\n";
    }
    return 0;
}
