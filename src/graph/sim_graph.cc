#include "graph/sim_graph.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"
#include "graph/stream_load.h"
#include "runtime/sim_file.h"

namespace memtier {

SimCsrGraph
SimCsrGraph::load(Engine &engine, SimHeap &heap, ThreadContext &t,
                  const CsrGraph &host, const std::string &name)
{
    SimCsrGraph g;
    g.hostGraph = &host;

    SimFile file(engine, name + ".sg", host.serializedBytes());

    // Header: directed flag, edge count, node count.
    file.read(t, 0, 3 * sizeof(std::int64_t));

    const auto &offs = host.offsets();
    const auto &adj = host.adjacency();

    g.index = heap.alloc<std::int64_t>(t, "csr.index", offs.size());
    std::uint64_t file_pos = 3 * sizeof(std::int64_t);
    std::copy(offs.begin(), offs.end(), g.index.host());
    streamInPlace(file, t, file_pos, g.index);
    file_pos += offs.size() * sizeof(std::int64_t);

    g.adjacency = heap.alloc<NodeId>(t, "csr.adjacency", adj.size());
    std::copy(adj.begin(), adj.end(), g.adjacency.host());
    streamInPlace(file, t, file_pos, g.adjacency);
    file_pos += adj.size() * sizeof(NodeId);

    if (host.hasWeights()) {
        const auto &wts = host.weights();
        g.weights =
            heap.alloc<std::int32_t>(t, "csr.weights", wts.size());
        std::copy(wts.begin(), wts.end(), g.weights.host());
        streamInPlace(file, t, file_pos, g.weights);
    }
    return g;
}

void
SimCsrGraph::free(SimHeap &heap, ThreadContext &t)
{
    heap.free(t, index);
    heap.free(t, adjacency);
    if (weights.valid())
        heap.free(t, weights);
}

}  // namespace memtier
