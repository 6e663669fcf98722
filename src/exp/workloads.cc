#include "exp/workloads.h"

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "base/logging.h"
#include "graph/generators.h"

namespace memtier {

const char *
appName(App app)
{
    switch (app) {
      case App::BC: return "bc";
      case App::BFS: return "bfs";
      case App::CC: return "cc";
      case App::PR: return "pr";
      case App::SSSP: return "sssp";
      case App::KV: return "kv";
      case App::LSM: return "lsm";
    }
    return "?";
}

bool
isServingApp(App app)
{
    return app == App::KV || app == App::LSM;
}

const char *
graphKindName(GraphKind kind)
{
    return kind == GraphKind::Kron ? "kron" : "urand";
}

std::string
WorkloadSpec::name() const
{
    if (isServingApp(app)) {
        // For serving apps the kind is the key-popularity shape.
        return std::string(appName(app)) +
               (kind == GraphKind::Kron ? "_zipf" : "_unif");
    }
    return std::string(appName(app)) + "_" + graphKindName(kind);
}

std::vector<WorkloadSpec>
paperWorkloads(int scale)
{
    std::vector<WorkloadSpec> out;
    for (const App app : {App::BC, App::BFS, App::CC}) {
        for (const GraphKind kind : {GraphKind::Kron, GraphKind::Urand}) {
            WorkloadSpec w;
            w.app = app;
            w.kind = kind;
            w.scale = scale;
            // Trial counts sized so every workload runs for several
            // simulated seconds without dominating the bench suite.
            switch (app) {
              case App::BC: w.trials = 3; break;
              case App::BFS: w.trials = 4; break;
              case App::CC: w.trials = 1; break;
              case App::PR: w.trials = 5; break;
              case App::SSSP: w.trials = 2; break;
              case App::KV:
              case App::LSM: w.trials = 4; break;
            }
            out.push_back(w);
        }
    }
    return out;
}

namespace {

/** Identity of one cached host graph. */
struct DatasetKey
{
    GraphKind kind;
    int scale;
    int degree;
    std::uint64_t seed;
    bool weighted;
    auto operator<=>(const DatasetKey &) const = default;
};

struct DatasetEntry
{
    std::shared_ptr<const CsrGraph> graph;
    std::uint64_t bytes = 0;
    std::uint64_t lastUse = 0;  ///< LRU tick of the latest hit.
};

/**
 * Shared state of the capped LRU dataset cache. Every public entry
 * point holds @c mu for its whole call, builds included, so callers
 * of one graph from several threads build it once.
 */
struct DatasetCache
{
    std::mutex mu;
    std::map<DatasetKey, DatasetEntry> entries;
    std::uint64_t totalBytes = 0;
    std::uint64_t tick = 0;
    std::uint64_t capBytes;

    DatasetCache()
    {
        capBytes = 1ULL << 30;  // 1 GiB default retention.
        if (const char *env = std::getenv("MEMTIER_DATASET_CACHE_MB");
            env && *env) {
            capBytes = std::strtoull(env, nullptr, 10) << 20;
        }
    }

    /** Evict least-recently-used graphs until under the cap. @p keep
     *  is never evicted (it is the entry being returned right now). */
    void
    enforceCap(const DatasetKey &keep)
    {
        while (totalBytes > capBytes && entries.size() > 1) {
            auto victim = entries.end();
            for (auto it = entries.begin(); it != entries.end(); ++it) {
                if (it->first == keep)
                    continue;
                if (victim == entries.end() ||
                    it->second.lastUse < victim->second.lastUse) {
                    victim = it;
                }
            }
            if (victim == entries.end())
                break;
            totalBytes -= victim->second.bytes;
            entries.erase(victim);
        }
    }

    /** Drop every entry. */
    void
    clear()
    {
        entries.clear();
        totalBytes = 0;
    }

    /**
     * The graph for @p key, built and retained on a miss. The caller
     * holds @c mu; the weighted build recurses for its unweighted base
     * without taking it again.
     */
    std::shared_ptr<const CsrGraph>
    get(const DatasetKey &key)
    {
        if (auto it = entries.find(key); it != entries.end()) {
            it->second.lastUse = ++tick;
            return it->second.graph;
        }

        std::shared_ptr<const CsrGraph> graph;
        if (key.weighted) {
            // Copy the (possibly cached) unweighted graph, then weight it.
            DatasetKey plain = key;
            plain.weighted = false;
            auto weighted_graph = std::make_shared<CsrGraph>(*get(plain));
            weighted_graph->generateWeights(key.seed ^ 0x5eed);
            graph = std::move(weighted_graph);
        } else {
            inform("generating %s graph, scale %d, degree %d",
                   graphKindName(key.kind), key.scale, key.degree);
            EdgeList edges =
                key.kind == GraphKind::Kron
                    ? generateKron(key.scale, key.degree, key.seed)
                    : generateUrand(key.scale, key.degree, key.seed);
            graph = std::make_shared<CsrGraph>(CsrGraph::fromEdgeList(
                static_cast<NodeId>(1LL << key.scale), edges));
        }

        DatasetEntry entry;
        entry.graph = graph;
        entry.bytes = graph->serializedBytes();
        entry.lastUse = ++tick;
        totalBytes += entry.bytes;
        entries.emplace(key, std::move(entry));
        enforceCap(key);
        if (capBytes == 0) {
            // Zero cap: hand the graph out but retain nothing.
            clear();
        }
        return graph;
    }
};

DatasetCache &
datasetCache()
{
    static DatasetCache cache;
    return cache;
}

std::shared_ptr<const CsrGraph>
cachedDataset(GraphKind kind, int scale, int degree, std::uint64_t seed,
              bool weighted)
{
    DatasetCache &cache = datasetCache();
    const std::lock_guard<std::mutex> lock(cache.mu);
    return cache.get({kind, scale, degree, seed, weighted});
}

}  // namespace

std::shared_ptr<const CsrGraph>
datasetGraph(GraphKind kind, int scale, int degree, std::uint64_t seed)
{
    return cachedDataset(kind, scale, degree, seed, false);
}

std::shared_ptr<const CsrGraph>
weightedDatasetGraph(GraphKind kind, int scale, int degree,
                     std::uint64_t seed)
{
    return cachedDataset(kind, scale, degree, seed, true);
}

void
setDatasetCacheCapBytes(std::uint64_t bytes)
{
    DatasetCache &cache = datasetCache();
    const std::lock_guard<std::mutex> lock(cache.mu);
    cache.capBytes = bytes;
    if (!cache.entries.empty()) {
        // Re-apply the cap with the most recent entry protected.
        DatasetKey newest = cache.entries.begin()->first;
        std::uint64_t best = 0;
        for (const auto &[key, entry] : cache.entries) {
            if (entry.lastUse >= best) {
                best = entry.lastUse;
                newest = key;
            }
        }
        cache.enforceCap(newest);
        if (bytes == 0)
            cache.clear();
    }
}

std::uint64_t
datasetCacheBytes()
{
    DatasetCache &cache = datasetCache();
    const std::lock_guard<std::mutex> lock(cache.mu);
    return cache.totalBytes;
}

std::size_t
datasetCacheCount()
{
    DatasetCache &cache = datasetCache();
    const std::lock_guard<std::mutex> lock(cache.mu);
    return cache.entries.size();
}

void
clearDatasetCache()
{
    DatasetCache &cache = datasetCache();
    const std::lock_guard<std::mutex> lock(cache.mu);
    cache.clear();
}

}  // namespace memtier
