/**
 * @file
 * Peer-to-peer reachability -- the paper's BFS motivation ("locate all
 * the nearest or adjacent nodes in a peer-to-peer network",
 * Section 4.1): run BFS waves from several peers over a uniform-random
 * overlay network and report both the reachability structure and what
 * the memory system did underneath.
 *
 *   $ ./examples/reachability [scale]
 */

#include <cstdio>
#include <cstdlib>

#include "apps/bfs.h"
#include "base/rng.h"
#include "bigraph/ooc_builder.h"
#include "bigraph/segmented_csr.h"
#include "profile/analysis.h"
#include "profile/perf_mem.h"
#include "runtime/sim_heap.h"

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

    SystemConfig config;
    config.dram = makeDramParams(scaledBytes(6 * kMiB, scale));
    config.nvm = makeNvmParams(scaledBytes(24 * kMiB, scale));
    Engine engine(config);

    // Attach a perf-mem style sampler, exactly as the paper's
    // methodology does (Section 3.1).
    PerfMemSampler sampler;
    engine.setObserver(&sampler);

    SimHeap heap(engine);
    ThreadContext &t0 = engine.thread(0);

    std::printf("building a 2^%d-peer overlay network...\n", scale);
    BigraphSpec spec;
    spec.kind = BigraphKind::Urand;
    spec.scale = scale;
    spec.degree = 16;
    spec.seed = 7;
    spec.segments = 1;
    SegmentedCsrGraph graph =
        SegmentedCsrGraph::generate(engine, heap, t0, spec, "p2p-overlay");

    Rng rng(99);
    for (int wave = 0; wave < 4; ++wave) {
        const auto peer = static_cast<NodeId>(
            rng.nextBounded(static_cast<std::uint64_t>(graph.numNodes())));
        const BfsOutput out = runBfs(engine, heap, graph, peer);
        std::printf("wave %d from peer %-8d reached %lld/%lld peers in "
                    "%d hops max\n",
                    wave, peer, static_cast<long long>(out.reached),
                    static_cast<long long>(graph.numNodes()),
                    out.supersteps - 1);
    }

    // What did that cost the memory system?
    const auto samples = sampler.samples();
    const LevelShares ls = levelShares(samples);
    const ExternalSplit es = externalSplit(samples);
    const TlbCostMatrix tlb = tlbCostMatrix(samples);
    std::printf("\nmemory behaviour (perf-mem style samples: %zu):\n",
                samples.size());
    std::printf("  outside caches: %.1f%% (DRAM %.1f%% / NVM %.1f%% of "
                "external)\n",
                ls.externalFrac * 100.0, es.dramFrac * 100.0,
                es.nvmFrac * 100.0);
    if (tlb.count[1][1] > 0 && tlb.count[0][0] > 0) {
        std::printf("  NVM+TLB-miss loads average %.0f cycles vs %.0f "
                    "for DRAM+TLB-hit (%.1fx)\n",
                    tlb.mean[1][1], tlb.mean[0][0],
                    tlb.mean[1][1] / tlb.mean[0][0]);
    }
    std::printf("  promotions: %llu, demotions: %llu, hint faults: "
                "%llu\n",
                static_cast<unsigned long long>(
                    engine.kernel().vmstat().pgpromoteSuccess),
                static_cast<unsigned long long>(
                    engine.kernel().vmstat().pgdemoteKswapd +
                    engine.kernel().vmstat().pgdemoteDirect),
                static_cast<unsigned long long>(
                    engine.kernel().vmstat().numaHintFaults));
    std::printf("  simulated time: %.3f s\n",
                cyclesToSeconds(engine.globalTime()));

    graph.free(heap, t0);
    return 0;
}
