/**
 * @file
 * Quickstart: build a simulated tiered-memory machine, allocate objects,
 * run a tiny BFS, and inspect what AutoNUMA did.
 *
 *   $ ./examples/quickstart
 *
 * Walks through the core public API in order: SystemConfig -> Engine ->
 * SimHeap/SimVector -> graph apps -> vmstat/numastat introspection.
 */

#include <cstdio>
#include <iostream>

#include "apps/bfs.h"
#include "bigraph/ooc_builder.h"
#include "bigraph/segmented_csr.h"
#include "runtime/sim_heap.h"

using namespace memtier;

int
main()
{
    // 1. Describe the machine: a scaled version of the paper's testbed
    //    (Xeon Gold 6240, 18 threads, DRAM + Optane-as-NUMA-node).
    SystemConfig config;
    config.dram = makeDramParams(8 * kMiB);   // Fast tier.
    config.nvm = makeNvmParams(32 * kMiB);    // Slow tier, 4x larger.
    config.numThreads = 8;

    Engine engine(config);
    SimHeap heap(engine);
    ThreadContext &main_thread = engine.thread(0);

    // 2. Touch simulated memory directly: allocations are mmap-backed
    //    "objects", loads/stores are timed through TLB+caches+tiers.
    SimVector<std::int64_t> numbers =
        heap.alloc<std::int64_t>(main_thread, "quickstart.numbers", 1024);
    for (std::uint64_t i = 0; i < numbers.size(); ++i)
        numbers.set(main_thread, i, static_cast<std::int64_t>(i * i));
    std::printf("numbers[17] = %lld (thread clock: %.3f ms)\n",
                static_cast<long long>(numbers.get(main_thread, 17)),
                cyclesToSeconds(main_thread.clock()) * 1e3);
    heap.free(main_thread, numbers);

    // 3. Load a small Kronecker graph through the simulated page cache
    //    (the GAPBS ".sg read" phase) and run BFS on it.
    BigraphSpec spec;
    spec.kind = BigraphKind::Kron;
    spec.scale = 14;
    spec.degree = 16;
    spec.seed = 42;
    spec.segments = 1;
    SegmentedCsrGraph graph = SegmentedCsrGraph::generate(
        engine, heap, main_thread, spec, "quickstart");
    std::printf("loaded graph: %lld vertices, %lld directed edges\n",
                static_cast<long long>(graph.numNodes()),
                static_cast<long long>(graph.numEdges()));

    const BfsOutput bfs = runBfs(engine, heap, graph, /*source=*/0);
    std::printf("BFS reached %lld vertices in %d supersteps "
                "(%d bottom-up)\n",
                static_cast<long long>(bfs.reached), bfs.supersteps,
                bfs.bottomUpSteps);

    // 4. Ask the kernel what happened underneath.
    const NumaStatSnapshot numa = engine.kernel().numastat();
    std::printf("\n/proc/vmstat after the run:\n");
    writeVmstat(std::cout, engine.kernel().vmstat());
    std::printf("\nnumastat after the run:\n");
    std::printf("  DRAM in use:         %llu pages app, %llu page cache\n",
                static_cast<unsigned long long>(numa.appPages[0]),
                static_cast<unsigned long long>(numa.cachePages[0]));
    std::printf("  NVM in use:          %llu pages app, %llu page cache\n",
                static_cast<unsigned long long>(numa.appPages[1]),
                static_cast<unsigned long long>(numa.cachePages[1]));
    std::printf("\nsimulated wall time: %.3f s\n",
                cyclesToSeconds(engine.globalTime()));

    graph.free(heap, main_thread);
    return 0;
}
