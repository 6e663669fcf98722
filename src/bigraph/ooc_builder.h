/**
 * @file
 * Out-of-core construction of segmented CSR graphs: edges are streamed
 * once from the generator into per-segment disk spill buckets, then
 * each bucket is sorted, deduplicated and materialized independently,
 * so host RSS is bounded by the largest single segment instead of the
 * whole edge list + CSR (which at scale 24+ would dwarf the host
 * machine). Every runner graph is built this way. Materialization
 * streams each bucket straight into the simulated allocations' host
 * storage, so it holds no copy of a segment of its own.
 *
 * The spill pipeline applies exactly CsrGraph::fromEdgeList's rules
 * (symmetrize, drop self loops, sort by (u, v), deduplicate) per
 * bucket -- bucketing by source row makes per-bucket dedup equal to
 * global dedup -- so the materialized content is identical to
 * CsrGraph::fromEdgeList of the same edges at any segment count.
 */

#ifndef MEMTIER_BIGRAPH_OOC_BUILDER_H_
#define MEMTIER_BIGRAPH_OOC_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace memtier {

/** Input generator of a segmented graph. */
enum class BigraphKind : std::uint8_t { Kron, Urand };

/** Name of @p kind ("kron"/"urand"). */
const char *bigraphKindName(BigraphKind kind);

/** Everything that identifies a segmented graph build. */
struct BigraphSpec
{
    BigraphKind kind = BigraphKind::Kron;
    int scale = 18;              ///< log2 vertices.
    int degree = 16;             ///< Average edges per vertex.
    std::uint64_t seed = 9241;   ///< Generator seed.
    std::uint32_t segments = 4;  ///< Row-range segments (clamped to n).

    /** Materialize edge weights (SSSP inputs): CsrGraph::generateWeights
     *  with seed ^ 0x5eed. */
    bool weighted = false;

    /**
     * Build segments in reverse row order (test hook): the artifacts
     * and per-segment checksums must not change, only the simulated
     * allocation order does.
     */
    bool reverseBuild = false;
};

/**
 * The reusable on-disk product of spill + sort + dedup for one spec:
 * per-segment files of sorted, deduplicated (u, v) pairs packed as
 * (u << 32 | v), plus the edge prefix sums. Cached per process so a
 * policy sweep re-materializes segments without regenerating edges.
 */
struct BigraphArtifacts
{
    std::string key;                       ///< Spec identity string.
    std::vector<std::string> segFiles;     ///< Packed-pair file paths.
    std::vector<std::int64_t> edgeCounts;  ///< Deduplicated, directed.
    std::vector<std::int64_t> edgeBases;   ///< Size segments+1 prefix.
    std::int64_t nodes = 0;
    std::int64_t totalEdges = 0;           ///< Directed edge count.
    std::uint32_t segments = 1;            ///< Effective segment count.
    NodeId rowsPerSegment = 0;
    std::uint64_t maxSpillBytes = 0;       ///< Largest pre-dedup bucket
                                           ///< (the host RSS bound).
};

/**
 * Spill directory for the packed-pair buckets: MEMTIER_SPILL_DIR when
 * set, else ".bigraph_spill" under the working directory. Created on
 * first use; clearBigraphArtifacts() and process exit remove it again
 * once it is empty, unless it existed before this process made it.
 */
std::string bigraphSpillDir();

/**
 * Run (or fetch from the process-wide cache) phases 1-2 for @p spec:
 * stream-generate, bucket to disk, sort + deduplicate per bucket.
 * reverseBuild does not participate in the cache key -- it only
 * affects materialization order. Thread-safe and single-flight: the
 * cache lock is held across lookup and build, so concurrent callers
 * of one spec build it once and get the same artifacts. The one lock
 * covers every spec: a build blocks every other call, including
 * lookups of specs already cached.
 */
const BigraphArtifacts &prepareBigraph(const BigraphSpec &spec);

/**
 * Phase 2 for one spill bucket at @p path whose sources all lie in
 * [@p first_row, @p first_row + @p row_count): sort by (u, v), drop
 * duplicates and rewrite the file in place. A per-row counting sort
 * over two streaming passes (count, then scatter the 4-byte targets),
 * then a sort + unique within each row. Host memory is the targets,
 * one offset per row and a sort scratch as long as the longest row.
 * Returns the deduplicated pair count.
 */
std::uint64_t sortAndDedupBucket(const std::string &path,
                                 NodeId first_row, NodeId row_count);

/**
 * Drop the artifact cache, delete its spill files and remove the spill
 * directory if this process created it and it is now empty (tests and
 * RSS-sensitive sweeps). Process exit does the same. Takes the cache
 * lock, but must not race a live run: a run materializing a graph
 * reads the spill files and holds references into the cache.
 */
void clearBigraphArtifacts();

}  // namespace memtier

#endif  // MEMTIER_BIGRAPH_OOC_BUILDER_H_
