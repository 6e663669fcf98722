/**
 * @file
 * Single-source shortest paths (frontier-based label-correcting
 * Bellman-Ford, a simplified form of GAPBS's delta-stepping) on
 * weighted graphs in simulated tiered memory. An extension workload
 * beyond the paper's three kernels.
 */

#ifndef MEMTIER_APPS_SSSP_H_
#define MEMTIER_APPS_SSSP_H_

#include <cstdint>
#include <vector>

#include "bigraph/segmented_csr.h"
#include "runtime/sim_heap.h"

namespace memtier {

/** Host-side result of one SSSP run. */
struct SsspOutput
{
    std::vector<std::int64_t> dist;  ///< Distance per vertex, -1 if
                                     ///< unreachable.
    int rounds = 0;                  ///< Relaxation rounds executed.
};

/**
 * Run SSSP from @p source. The graph must have weights loaded
 * (BigraphSpec::weighted, or CsrGraph::generateWeights before
 * SegmentedCsrGraph::fromHost).
 */
SsspOutput runSssp(Engine &engine, SimHeap &heap,
                   const SegmentedCsrView &g, NodeId source);

/** Untimed host reference (Dijkstra). */
std::vector<std::int64_t> hostSsspDistances(const CsrGraph &g,
                                            NodeId source);

}  // namespace memtier

#endif  // MEMTIER_APPS_SSSP_H_
