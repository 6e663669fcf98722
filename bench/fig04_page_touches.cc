/**
 * @file
 * Reproduces Figure 4: among pages accessed outside the caches, the
 * share touched exactly once, exactly twice, and three or more times
 * (plus the share of external accesses falling on each class).
 *
 * Uses sparse sampling (see kSparseSamplerPeriod) to match the paper's
 * well-below-one-sample-per-page density; the paper reports 33-80% of
 * external accesses touching single-touch pages, with the single-touch
 * page share around 60% on average.
 */

#include "bench_common.h"

using namespace memtier;

int
main()
{
    benchHeader("Figure 4 -- page accesses with 1 / 2 / 3+ touches",
                "Section 5.2, Figure 4");

    TextTable table({"Workload", "pages 1", "pages 2", "pages 3+",
                     "accesses 1", "accesses 2", "accesses 3+",
                     "pages"});
    double sum_single = 0.0;
    int n = 0;
    for (const WorkloadSpec &w : paperWorkloads(benchScale())) {
        const RunResult r =
            runBench(w, "autonuma", kSparseSamplerPeriod);
        const TouchBuckets tb = pageTouchBuckets(r.samples);
        table.addRow({w.name(), pct(tb.pagesFrac[0]),
                      pct(tb.pagesFrac[1]), pct(tb.pagesFrac[2]),
                      pct(tb.accessFrac[0]), pct(tb.accessFrac[1]),
                      pct(tb.accessFrac[2]), fmtCount(tb.touchedPages)});
        sum_single += tb.pagesFrac[0];
        ++n;
    }
    table.print(std::cout);
    std::cout << "\nAverage single-touch page share: "
              << pct(sum_single / n)
              << " (paper: ~60% average).\nExpected shape: the "
                 "single-touch class dominates the page population, so "
                 "a\nreactive two-touch policy like AutoNUMA cannot "
                 "classify most pages as hot.\n";
    return 0;
}
