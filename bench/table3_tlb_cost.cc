/**
 * @file
 * Reproduces Table 3: mean external access cost (cycles) broken down by
 * node (DRAM/NVM) and TLB outcome (hit/miss), plus Finding 1's ratio of
 * NVM+TLB-miss to DRAM+TLB-miss cost.
 *
 * Paper values (DRAM hit/miss | NVM hit/miss):
 *   bc_kron 659/772 | 1833/2727      bc_urand 1675/1617 | 2862/3439
 *   bfs_kron 404/490 | 1572/2218     bfs_urand 578/734 | 2632/4183
 *   cc_kron 315/866 | 1170/2975      cc_urand 325/903 | 1345/4141
 *
 * With --thp every run maps anonymous memory with 2 MiB PMD entries:
 * the dTLB miss rate drops (one entry covers 512 pages and the walk is
 * one level shorter) and the NVMmiss/DRAMmiss ratio narrows, since the
 * TLB-miss penalty that compounds the NVM access cost shrinks.
 */

#include "bench_common.h"

using namespace memtier;

namespace {

/** Fraction of samples whose access was preceded by a dTLB miss. */
double
tlbMissRate(const std::vector<MemorySample> &samples)
{
    if (samples.empty())
        return 0.0;
    std::uint64_t miss = 0;
    for (const MemorySample &s : samples)
        miss += s.tlbMiss ? 1 : 0;
    return static_cast<double>(miss) /
           static_cast<double>(samples.size());
}

}  // namespace

int
main(int argc, char **argv)
{
    const bool thp = consumeThpFlag(argc, argv);
    benchHeader("Table 3 -- external cost by node and TLB outcome",
                "Section 6.1, Table 3 + Finding 1");
    std::cout << "thp:                  " << (thp ? "on" : "off")
              << " (pass --thp to map with 2 MiB PMD entries)\n";

    TextTable table({"Application", "THP", "DRAM TLB Hit",
                     "DRAM TLB Miss", "NVM TLB Hit", "NVM TLB Miss",
                     "dTLB miss rate", "NVMmiss/DRAMmiss"});
    double worst_ratio = 0.0;
    for (const WorkloadSpec &w : paperWorkloads(benchScale())) {
        const RunResult r = runBench(w, "autonuma", 61, nullptr, thp);
        const TlbCostMatrix m = tlbCostMatrix(r.samples);
        const double ratio =
            m.mean[0][1] > 0.0 ? m.mean[1][1] / m.mean[0][1] : 0.0;
        worst_ratio = std::max(worst_ratio, ratio);
        table.addRow({w.name(), thp ? "on" : "off", num(m.mean[0][0], 0),
                      num(m.mean[0][1], 0), num(m.mean[1][0], 0),
                      num(m.mean[1][1], 0), pct(tlbMissRate(r.samples)),
                      num(ratio, 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nFinding 1 check: NVM accesses preceded by a TLB miss "
                 "cost a multiple of the\nDRAM TLB-miss case (paper: 4x "
                 "average, up to 5.7x). Max ratio measured: "
              << num(worst_ratio, 2) << "x\n";
    if (thp) {
        std::cout << "THP on: compare against the default run -- the "
                     "dTLB miss rate falls and the\nNVM/DRAM miss-cost "
                     "ratio narrows as PMD reach absorbs page walks.\n";
    }
    return 0;
}
