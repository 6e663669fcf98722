/**
 * @file
 * Segmented CSR: the index and adjacency arrays split into fixed-size
 * row-range segments, each backed by its own mmap object
 * ("csr.index.<k>" / "csr.adj.<k>"), so the object-level policies and
 * AutoNUMA scanning can place, promote and demote row ranges
 * independently -- the layout Gill et al. use to fit massive graphs on
 * one tiered machine.
 *
 * Every CSR graph in simulated memory is built this way: by the
 * out-of-core builder (generate) or, for hand-built test graphs, from a
 * host CsrGraph (fromHost). One segment is the whole graph in one
 * index and one adjacency object.
 *
 * SegmentedCsrView is the traversal interface the applications run on:
 * it resolves (vertex -> segment, local offset) and issues the engine's
 * bulk accesses per segment.
 */

#ifndef MEMTIER_BIGRAPH_SEGMENTED_CSR_H_
#define MEMTIER_BIGRAPH_SEGMENTED_CSR_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "runtime/sim_heap.h"
#include "runtime/sim_vector.h"

namespace memtier {

struct BigraphSpec;

/**
 * One row-range segment of a segmented CSR graph.
 *
 * The index object holds rowCount()+1 *global* CSR offsets -- rows
 * [firstRow, rowEnd] inclusive of the terminator -- so a row's offset
 * pair always lives in one segment. Because consecutive rows' adjacency
 * is contiguous, the segment's adjacency object covers the global edge
 * range [edgeBase, edgeEnd) and local position = global - edgeBase.
 * The boundary offset is duplicated into both neighboring segments
 * (terminator of k == first entry of k+1), which keeps every per-row
 * access single-segment.
 */
struct CsrSegment
{
    NodeId firstRow = 0;          ///< First row of the segment.
    NodeId rowEnd = 0;            ///< One past the last row.
    std::int64_t edgeBase = 0;    ///< Global offset of index[firstRow].
    std::int64_t edgeEnd = 0;     ///< edgeBase + adjacency entries.
    SimVector<std::int64_t> index;   ///< rowCount()+1 global offsets.
    SimVector<NodeId> adj;           ///< Adjacency entries (may be
                                     ///< invalid when the segment has
                                     ///< no edges).
    SimVector<std::int32_t> weights; ///< Parallel to adj (weighted).

    /** Rows covered by this segment. */
    std::int64_t rowCount() const { return rowEnd - firstRow; }

    /** Adjacency entries in this segment. */
    std::int64_t edgeCount() const { return edgeEnd - edgeBase; }
};

/**
 * A segmented CSR graph materialized in simulated memory: the segment
 * descriptors and the simulated objects behind them. Produced by
 * SegmentedCsrGraph::generate or SegmentedCsrGraph::fromHost (declared
 * here, built in ooc_builder.cc). Movable, not copyable -- it owns the
 * simulated objects until free().
 */
class SegmentedCsrGraph
{
  public:
    SegmentedCsrGraph() = default;
    SegmentedCsrGraph(const SegmentedCsrGraph &) = delete;
    SegmentedCsrGraph &operator=(const SegmentedCsrGraph &) = delete;
    SegmentedCsrGraph(SegmentedCsrGraph &&) = default;
    SegmentedCsrGraph &operator=(SegmentedCsrGraph &&) = default;

    /**
     * Materialize the graph described by @p spec segment by segment via
     * the out-of-core builder: edges are streamed once from the
     * generator into per-segment disk spill buckets, sorted and
     * deduplicated per segment, then each segment is loaded through its
     * own timed SimFile ("<name>.seg<k>.sg") into its own mmap objects.
     * Each bucket is read in chunks straight into the objects' host
     * storage; beyond the graph itself the load holds one chunk.
     */
    static SegmentedCsrGraph generate(Engine &engine, SimHeap &heap,
                                      ThreadContext &t,
                                      const BigraphSpec &spec,
                                      const std::string &name);

    /**
     * Load the hand-built @p host as one segment ("<name>.seg0.sg",
     * "csr.index.0", "csr.adj.0", plus "csr.wts.0" when @p host has
     * weights), through the same timed materialization as generate.
     * For graphs no generator makes (chains, stars, small test inputs);
     * @p host need not outlive the result.
     */
    static SegmentedCsrGraph fromHost(Engine &engine, SimHeap &heap,
                                      ThreadContext &t,
                                      const CsrGraph &host,
                                      const std::string &name);

    /** Vertex count. */
    std::int64_t numNodes() const { return nodes_; }

    /** Directed edge count. */
    std::int64_t numEdges() const { return edges_; }

    /** Number of segments. */
    std::uint32_t segmentCount() const
    {
        return static_cast<std::uint32_t>(segs_.size());
    }

    /** Segment descriptors, ordered by row range. */
    const std::vector<CsrSegment> &segments() const { return segs_; }

    /** Rows per segment (the last segment may be short). */
    NodeId rowsPerSegment() const { return rowsPer_; }

    /** True when edge weights were materialized. */
    bool hasWeights() const { return weighted_; }

    /**
     * Content checksum of segment @p k (FNV-1a over its index then
     * adjacency values): deterministic in the spec, independent of the
     * segment build order. Computed on each call from the segment's
     * host arrays, so the segment must not have been freed.
     */
    std::uint64_t segmentChecksum(std::uint32_t k) const;

    /** Bytes of simulated memory across all segments' objects. */
    std::uint64_t footprintBytes() const { return footprint_; }

    /** Free every segment's simulated objects. */
    void
    free(SimHeap &heap, ThreadContext &t)
    {
        for (CsrSegment &s : segs_) {
            heap.free(t, s.index);
            if (s.adj.valid())
                heap.free(t, s.adj);
            if (s.weights.valid())
                heap.free(t, s.weights);
        }
        segs_.clear();
    }

  private:
    friend class SegmentedCsrView;

    std::vector<CsrSegment> segs_;
    std::int64_t nodes_ = 0;
    std::int64_t edges_ = 0;
    NodeId rowsPer_ = 0;
    std::uint64_t footprint_ = 0;
    bool weighted_ = false;
};

/**
 * The traversal interface of a CSR graph for the applications: resolves
 * (vertex -> segment, local offset) and issues through the engine's
 * bulk entry points. Cheap value type; the graph it views must outlive
 * it.
 */
class SegmentedCsrView
{
  public:
    SegmentedCsrView() = default;

    /** View over a segmented graph (implicit on purpose). */
    SegmentedCsrView(const SegmentedCsrGraph &g)  // NOLINT
        : nodes_(g.numNodes()), edges_(g.numEdges()),
          segs_(g.segments().data()),
          nsegs_(static_cast<std::uint32_t>(g.segments().size())),
          rowsPer_(std::max<NodeId>(g.rowsPerSegment(), 1))
    {
        edgeBases_.reserve(nsegs_);
        for (const CsrSegment &s : g.segments())
            edgeBases_.push_back(s.edgeBase);
    }

    /** True when this view refers to a graph. */
    bool valid() const { return segs_ != nullptr; }

    /** Vertex count. */
    std::int64_t numNodes() const { return nodes_; }

    /** Directed edge count. */
    std::int64_t numEdges() const { return edges_; }

    /** Number of segments. */
    std::uint32_t segmentCount() const { return nsegs_; }

    /** Segment descriptor @p k. */
    const CsrSegment &segment(std::uint32_t k) const { return segs_[k]; }

    /** True when edge weights are loaded. */
    bool hasWeights() const { return segs_[0].weights.valid(); }

    /** Segment owning row @p u. */
    std::uint32_t
    segmentOfRow(NodeId u) const
    {
        return std::min<std::uint32_t>(
            static_cast<std::uint32_t>(u / rowsPer_), nsegs_ - 1);
    }

    /** Segment owning global adjacency position @p e. */
    std::uint32_t
    segmentOfEdge(std::int64_t e) const
    {
        if (nsegs_ == 1)
            return 0;
        const auto it = std::upper_bound(edgeBases_.begin(),
                                         edgeBases_.end(), e);
        auto k = static_cast<std::uint32_t>(
            (it - edgeBases_.begin()) - 1);
        // Skip empty segments sharing the same base.
        while (segs_[k].edgeEnd <= e)
            ++k;
        return k;
    }

    /** Timed load of the CSR offset of vertex @p u. */
    std::int64_t
    offset(ThreadContext &t, NodeId u) const
    {
        const CsrSegment &s = segs_[segmentOfIndexPos(
            static_cast<std::uint64_t>(u))];
        return s.index.get(
            t, static_cast<std::uint64_t>(u - s.firstRow));
    }

    /** Timed load of adjacency entry @p e. */
    NodeId
    neighbor(ThreadContext &t, std::int64_t e) const
    {
        const CsrSegment &s = segs_[segmentOfEdge(e)];
        return s.adj.get(t,
                         static_cast<std::uint64_t>(e - s.edgeBase));
    }

    /**
     * Timed bulk read of the offset pair of @p u (degree probes that
     * don't need the adjacency row). Always one copyOut: a row's pair
     * lives in one segment by construction.
     */
    std::pair<std::int64_t, std::int64_t>
    offsetPair(ThreadContext &t, NodeId u) const
    {
        const CsrSegment &s = segs_[segmentOfRow(u)];
        const auto local = static_cast<std::uint64_t>(u - s.firstRow);
        std::int64_t offs[2];
        s.index.copyOut(t, local, local + 2, offs);
        return {offs[0], offs[1]};
    }

    /**
     * Timed bulk row read: loads the offset pair of @p u as one batch
     * and the whole adjacency row as batched loads into @p row. The
     * row's edges are contiguous within u's segment, so this is one
     * copyOut per array whatever the segment count.
     * @return the row's global CSR range [begin, end).
     */
    std::pair<std::int64_t, std::int64_t>
    neighborsInto(ThreadContext &t, NodeId u,
                  std::vector<NodeId> &row) const
    {
        const CsrSegment &s = segs_[segmentOfRow(u)];
        const auto local = static_cast<std::uint64_t>(u - s.firstRow);
        std::int64_t offs[2];
        s.index.copyOut(t, local, local + 2, offs);
        row.resize(static_cast<std::size_t>(offs[1] - offs[0]));
        s.adj.copyOut(t, static_cast<std::uint64_t>(offs[0] - s.edgeBase),
                      static_cast<std::uint64_t>(offs[1] - s.edgeBase),
                      row.data());
        return {offs[0], offs[1]};
    }

    /**
     * Timed bulk read of index positions [@p begin, @p end) into
     * @p dst. A chunk crossing a segment boundary reads the duplicated
     * boundary offset as the lower segment's terminator and resumes in
     * the next segment past its first entry; with one segment this
     * collapses to a single copyOut.
     */
    void
    offsetsInto(ThreadContext &t, std::uint64_t begin, std::uint64_t end,
                std::int64_t *dst) const
    {
        std::uint64_t b = begin;
        while (b < end) {
            const CsrSegment &s = segs_[segmentOfIndexPos(b)];
            const std::uint64_t stop = std::min<std::uint64_t>(
                end, static_cast<std::uint64_t>(s.rowEnd) + 1);
            const auto lo =
                b - static_cast<std::uint64_t>(s.firstRow);
            s.index.copyOut(
                t, lo, stop - static_cast<std::uint64_t>(s.firstRow),
                dst + (b - begin));
            b = stop;
        }
    }

    /**
     * Timed bulk read of global adjacency positions [@p begin, @p end)
     * into @p dst, split at segment boundaries.
     */
    void
    adjacencyInto(ThreadContext &t, std::int64_t begin, std::int64_t end,
                  NodeId *dst) const
    {
        std::int64_t b = begin;
        while (b < end) {
            const CsrSegment &s = segs_[segmentOfEdge(b)];
            const std::int64_t stop = std::min(end, s.edgeEnd);
            s.adj.copyOut(t, static_cast<std::uint64_t>(b - s.edgeBase),
                          static_cast<std::uint64_t>(stop - s.edgeBase),
                          dst + (b - begin));
            b = stop;
        }
    }

    /**
     * Timed bulk read of the edge weights for global CSR range
     * [@p begin, @p end) into @p out.
     */
    void
    weightsInto(ThreadContext &t, std::int64_t begin, std::int64_t end,
                std::vector<std::int32_t> &out) const
    {
        out.resize(static_cast<std::size_t>(end - begin));
        std::int64_t b = begin;
        while (b < end) {
            const CsrSegment &s = segs_[segmentOfEdge(b)];
            const std::int64_t stop = std::min(end, s.edgeEnd);
            s.weights.copyOut(
                t, static_cast<std::uint64_t>(b - s.edgeBase),
                static_cast<std::uint64_t>(stop - s.edgeBase),
                out.data() + (b - begin));
            b = stop;
        }
    }

    /** Timed load of the weight of adjacency entry @p e. */
    std::int32_t
    weightOf(ThreadContext &t, std::int64_t e) const
    {
        const CsrSegment &s = segs_[segmentOfEdge(e)];
        return s.weights.get(
            t, static_cast<std::uint64_t>(e - s.edgeBase));
    }

    /** Untimed degree of @p u (source sampling; no engine accesses). */
    std::int64_t
    rawDegree(NodeId u) const
    {
        const CsrSegment &s = segs_[segmentOfRow(u)];
        const auto local = static_cast<std::uint64_t>(u - s.firstRow);
        return s.index.raw(local + 1) - s.index.raw(local);
    }

  private:
    /**
     * Segment owning *index position* @p p (0..numNodes). A position on
     * a segment boundary maps to the upper segment's first entry; the
     * chunked readers above may still serve it from the lower segment's
     * duplicated terminator when a run crosses the boundary.
     */
    std::uint32_t
    segmentOfIndexPos(std::uint64_t p) const
    {
        return std::min<std::uint32_t>(
            static_cast<std::uint32_t>(
                p / static_cast<std::uint64_t>(rowsPer_)),
            nsegs_ - 1);
    }

    std::int64_t nodes_ = 0;
    std::int64_t edges_ = 0;
    const CsrSegment *segs_ = nullptr;
    std::uint32_t nsegs_ = 0;
    NodeId rowsPer_ = 1;
    std::vector<std::int64_t> edgeBases_;  ///< Per-segment edgeBase.
};

}  // namespace memtier

#endif  // MEMTIER_BIGRAPH_SEGMENTED_CSR_H_
