/**
 * @file
 * The paper's workload matrix: {bc, bfs, cc} x {kron, urand}
 * (Section 4.1), at a configurable scale, plus pr as an extension. A
 * process-wide dataset cache builds each host graph once.
 */

#ifndef MEMTIER_EXP_WORKLOADS_H_
#define MEMTIER_EXP_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace memtier {

/** GAPBS kernel -- or data-serving application -- to run. */
enum class App : std::uint8_t { BC, BFS, CC, PR, SSSP, KV, LSM };

/** Input generator. For the serving apps the kind selects the key
 *  popularity instead: Kron -> zipfian (skewed), Urand -> uniform. */
enum class GraphKind : std::uint8_t { Kron, Urand };

/** Name of @p app ("bc", ...). */
const char *appName(App app);

/** True for the data-serving applications (KV, LSM). */
bool isServingApp(App app);

/** Name of @p kind ("kron"/"urand"). */
const char *graphKindName(GraphKind kind);

/** One workload = application + dataset + run parameters. */
struct WorkloadSpec
{
    App app = App::BC;
    GraphKind kind = GraphKind::Kron;

    /** log2 vertices (serving apps: log2 keys); default sized so the
     *  footprint exceeds the scaled 24 MiB DRAM (the paper's 228-292 GB
     *  vs. 192 GB). */
    int scale = 18;

    /** Average degree (GAPBS -k 16; unused by the serving apps). */
    int degree = 16;

    /** BC: sampled sources. BFS: sources (trials). CC: repetitions.
     *  PR: iterations. KV/LSM: requests in multiples of 5000. */
    int trials = 4;

    /** Deterministic workload seed. */
    std::uint64_t seed = 9241;

    /**
     * CSR segments. 1 = the classic monolithic path (host graph +
     * SimCsrGraph::load); > 1 switches the runner to the out-of-core
     * segmented build, which never materializes the whole host graph
     * and so unlocks scales past maxScale.
     */
    int segments = 1;

    /**
     * Largest scale the monolithic path may build (the host EdgeList
     * at scale 23/degree 16 is already ~4 GB). Scales above this
     * require segments > 1; the runner rejects the combination early
     * instead of letting the host allocation thrash the machine.
     */
    int maxScale = 22;

    /** "bc_kron" style name used throughout the paper's figures
     *  ("kv_zipf"/"kv_unif" style for the serving apps). */
    std::string name() const;
};

/** The paper's six workloads at the default scale. */
std::vector<WorkloadSpec> paperWorkloads(int scale = 18);

/**
 * Host graph for @p kind at @p scale/@p degree, built on first use and
 * held in a capped LRU cache (the "converter" step). The returned
 * shared_ptr keeps the graph alive across eviction, so callers may
 * hold it for as long as they need; the cache only bounds what *it*
 * retains between calls. Thread-safe: every cache function holds one
 * lock for its whole call, builds included, so concurrent callers of
 * one graph build it once.
 */
std::shared_ptr<const CsrGraph> datasetGraph(GraphKind kind, int scale,
                                             int degree,
                                             std::uint64_t seed = 9241);

/**
 * Weighted variant of datasetGraph (the GAPBS .wsg input for SSSP),
 * built and cached independently of the unweighted graph.
 */
std::shared_ptr<const CsrGraph>
weightedDatasetGraph(GraphKind kind, int scale, int degree,
                     std::uint64_t seed = 9241);

/**
 * Cap on host bytes the dataset cache retains (approximate CSR bytes;
 * least-recently-used graphs are dropped first). Default 1 GiB,
 * overridable with MEMTIER_DATASET_CACHE_MB. A cap of 0 disables
 * retention entirely (every call rebuilds).
 */
void setDatasetCacheCapBytes(std::uint64_t bytes);

/** Approximate host bytes currently retained by the dataset cache. */
std::uint64_t datasetCacheBytes();

/** Number of graphs currently retained by the dataset cache. */
std::size_t datasetCacheCount();

/** Drop every retained graph (outstanding shared_ptrs stay valid). */
void clearDatasetCache();

}  // namespace memtier

#endif  // MEMTIER_EXP_WORKLOADS_H_
