/**
 * @file
 * Host-side graph representation: edge lists and the symmetric CSR the
 * GAPBS applications run on. "Host-side" means plain process memory;
 * the timed copy living in simulated tiered memory is a
 * SegmentedCsrGraph (src/bigraph).
 */

#ifndef MEMTIER_GRAPH_GRAPH_H_
#define MEMTIER_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

namespace memtier {

/** Vertex identifier (GAPBS uses 32-bit ids at these scales). */
using NodeId = std::int32_t;

/** One undirected edge. */
struct Edge
{
    NodeId u = 0;
    NodeId v = 0;
};

/** Edge list produced by the generators. */
using EdgeList = std::vector<Edge>;

/**
 * Compressed-sparse-row graph, symmetrized (undirected), deduplicated,
 * self-loop free -- the shape GAPBS builds for BC/BFS/CC on the kron
 * and urand inputs.
 */
class CsrGraph
{
  public:
    /**
     * Build from an edge list.
     * @param num_nodes vertex count (ids must be < num_nodes).
     * @param edges undirected edge list; duplicates and self loops are
     *        removed.
     */
    static CsrGraph fromEdgeList(NodeId num_nodes, const EdgeList &edges);

    /** Vertex count. */
    std::int64_t numNodes() const { return n; }

    /** Directed edge count (2x the undirected count). */
    std::int64_t numEdges() const { return offsets_.back(); }

    /** Degree of @p u. */
    std::int64_t
    degree(NodeId u) const
    {
        return offsets_[static_cast<std::size_t>(u) + 1] -
               offsets_[static_cast<std::size_t>(u)];
    }

    /** Neighbors of @p u. */
    std::span<const NodeId>
    neighbors(NodeId u) const
    {
        const auto begin = offsets_[static_cast<std::size_t>(u)];
        return {neigh.data() + begin,
                static_cast<std::size_t>(degree(u))};
    }

    /** CSR offsets array (size numNodes()+1). */
    const std::vector<std::int64_t> &offsets() const { return offsets_; }

    /** CSR adjacency array (size numEdges()). */
    const std::vector<NodeId> &adjacency() const { return neigh; }

    /**
     * Attach uniform-random edge weights in [1, 255] (the GAPBS .wsg
     * convention), deterministic in the endpoints so both directions of
     * an undirected edge carry the same weight.
     */
    void generateWeights(std::uint64_t seed);

    /** True when generateWeights() has run. */
    bool hasWeights() const { return !weight_values.empty(); }

    /** Weight of adjacency entry @p e (requires hasWeights()). */
    std::int32_t
    weight(std::int64_t e) const
    {
        return weight_values[static_cast<std::size_t>(e)];
    }

    /** Weights array (parallel to adjacency()). */
    const std::vector<std::int32_t> &weights() const
    {
        return weight_values;
    }

    /**
     * Size in bytes of the serialized .sg form (header + offsets +
     * adjacency), which is what the loading phase streams from disk.
     */
    std::uint64_t serializedBytes() const;

  private:
    std::int64_t n = 0;
    std::vector<std::int64_t> offsets_;
    std::vector<NodeId> neigh;
    std::vector<std::int32_t> weight_values;
};

}  // namespace memtier

#endif  // MEMTIER_GRAPH_GRAPH_H_
