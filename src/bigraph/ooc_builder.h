/**
 * @file
 * Out-of-core construction of segmented CSR graphs: edges are streamed
 * once from the generator into per-segment disk spill buckets, then
 * each bucket is sorted, deduplicated and materialized independently,
 * so host RSS is bounded by the largest single segment instead of the
 * whole edge list + CSR (which at scale 24+ would dwarf the machine
 * the monolithic datasetGraph path was built for).
 *
 * The spill pipeline applies exactly CsrGraph::fromEdgeList's rules
 * (symmetrize, drop self loops, sort by (u, v), deduplicate) per
 * bucket -- bucketing by source row makes per-bucket dedup equal to
 * global dedup -- so the materialized content is identical to the
 * monolithic build of the same spec at any segment count.
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

    /** Materialize edge weights (SSSP inputs); the weight stream uses
     *  seed ^ 0x5eed, matching weightedDatasetGraph. */
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
 * first use.
 */
std::string bigraphSpillDir();

/**
 * Run (or fetch from the process-wide cache) phases 1-2 for @p spec:
 * stream-generate, bucket to disk, sort + deduplicate per bucket.
 * reverseBuild does not participate in the cache key -- it only
 * affects materialization order.
 */
const BigraphArtifacts &prepareBigraph(const BigraphSpec &spec);

/**
 * Drop the artifact cache and delete its spill files (tests and
 * RSS-sensitive sweeps). Process exit does the same.
 */
void clearBigraphArtifacts();

}  // namespace memtier

#endif  // MEMTIER_BIGRAPH_OOC_BUILDER_H_
