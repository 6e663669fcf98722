/**
 * @file
 * The paper's workload matrix: {bc, bfs, cc} x {kron, urand}
 * (Section 4.1), at a configurable scale, plus pr and sssp as
 * extensions and the kv/lsm serving apps.
 */

#ifndef MEMTIER_EXP_WORKLOADS_H_
#define MEMTIER_EXP_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

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

/** The kind graphKindName names @p name; fatal() on any other name. */
GraphKind parseGraphKind(const std::string &name);

/** The non-empty items of "a,b,c", in order. */
std::vector<std::string> splitCommas(const std::string &list);

/**
 * @p text as a number, for the command-line option @p what (named in
 * the message): fatal() when @p text is empty or not a number, has
 * trailing characters, or is out of the type's range.
 */
int parseInt(const std::string &text, const char *what);
std::uint64_t parseU64(const std::string &text, const char *what);
double parseDouble(const std::string &text, const char *what);

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
     * Row-range CSR segments the out-of-core builder splits the graph
     * into (>= 1; clamped to the vertex count). Each segment is its own
     * index and adjacency object, so placement and scanning can treat
     * row ranges independently.
     */
    int segments = 1;

    /** "bc_kron" style name used throughout the paper's figures
     *  ("kv_zipf"/"kv_unif" style for the serving apps). */
    std::string name() const;
};

/**
 * The workload "APP:KIND" names (appName and graphKindName, e.g.
 * "pr:kron"), with every other field at its default; fatal() on a
 * malformed or unknown name.
 */
WorkloadSpec parseWorkload(const std::string &name);

/** The paper's six workloads at the default scale. */
std::vector<WorkloadSpec> paperWorkloads(int scale = 18);

}  // namespace memtier

#endif  // MEMTIER_EXP_WORKLOADS_H_
