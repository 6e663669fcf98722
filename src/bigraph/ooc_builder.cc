#include "bigraph/ooc_builder.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include <unistd.h>

#include "base/logging.h"
#include "base/rng.h"
#include "bigraph/segmented_csr.h"
#include "graph/generators.h"
#include "graph/stream_load.h"
#include "runtime/sim_file.h"

namespace memtier {

namespace {

/** Pack a directed edge for sorting: lexicographic (u, v) order of
 *  nonnegative NodeIds equals numeric order of the packed word. */
inline std::uint64_t
packPair(NodeId u, NodeId v)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u))
            << 32) |
           static_cast<std::uint32_t>(v);
}

inline NodeId
pairU(std::uint64_t p)
{
    return static_cast<NodeId>(p >> 32);
}

inline NodeId
pairV(std::uint64_t p)
{
    return static_cast<NodeId>(p & 0xffffffffULL);
}

/** RAII stdio handle. */
struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::string
specKey(const BigraphSpec &s)
{
    std::string key = bigraphKindName(s.kind);
    key += std::to_string(s.scale);
    key += 'd';
    key += std::to_string(s.degree);
    key += 's';
    key += std::to_string(s.seed);
    key += 'x';
    key += std::to_string(s.segments);
    return key;
}

/** MEMTIER_SPILL_DIR when set, else ".bigraph_spill". */
std::string
spillDirPath()
{
    if (const char *env = std::getenv("MEMTIER_SPILL_DIR"); env && *env)
        return env;
    return ".bigraph_spill";
}

/**
 * Process-wide artifact cache, keyed by spec identity. Its spill files
 * carry the process id, so concurrent processes sharing a spill
 * directory never truncate each other's buckets; they are deleted when
 * the cache is cleared or the process exits, and so is a spill
 * directory this process created, once it is empty. @c mu is held
 * across lookup and build, so concurrent callers of one spec build it
 * once.
 */
struct ArtifactCache
{
    std::mutex mu;
    std::map<std::string, BigraphArtifacts> byKey;
    std::set<std::string> ownedDirs;  ///< Spill dirs this process made.

    ~ArtifactCache() { clear(); }

    /** Create @p dir unless it exists, remembering that this process
     *  made it; the caller holds @c mu. */
    void
    makeDir(const std::string &dir)
    {
        std::error_code ec;
        if (std::filesystem::create_directories(dir, ec))
            ownedDirs.insert(dir);
        if (ec)
            fatal("bigraph: cannot create spill dir %s", dir.c_str());
    }

    /** Delete every spill file and entry, then every owned directory
     *  that is now empty; the caller holds @c mu (or the process is
     *  exiting). */
    void
    clear()
    {
        for (auto &[key, art] : byKey) {
            for (const std::string &path : art.segFiles) {
                std::error_code ec;
                std::filesystem::remove(path, ec);
            }
        }
        byKey.clear();
        // remove() deletes only an empty directory. One still holding
        // another process's buckets stays owned for the next clear.
        for (auto it = ownedDirs.begin(); it != ownedDirs.end();) {
            std::error_code ec;
            it = std::filesystem::remove(*it, ec) ? ownedDirs.erase(it)
                                                  : std::next(it);
        }
    }
};

ArtifactCache &
artifactCache()
{
    static ArtifactCache cache;
    return cache;
}

void
writeAll(std::FILE *f, const std::uint64_t *data, std::size_t count,
         const std::string &path)
{
    if (count == 0)
        return;
    const std::size_t written =
        std::fwrite(data, sizeof(std::uint64_t), count, f);
    if (written != count)
        fatal("bigraph: short write to %s", path.c_str());
}

/** Pairs per read/write chunk of a bucket file (256 KiB). */
constexpr std::size_t kChunkPairs = 1 << 15;

/**
 * Stream the packed pairs of the bucket at @p path through @p chunk
 * (kChunkPairs long): @p fn(got) sees chunk[0, got) for each read.
 */
template <typename Fn>
void
forEachPairChunk(const std::string &path,
                 std::vector<std::uint64_t> &chunk, Fn &&fn)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        fatal("bigraph: cannot open %s", path.c_str());
    std::size_t got;
    while ((got = std::fread(chunk.data(), sizeof(std::uint64_t),
                             kChunkPairs, f.get())) > 0)
        fn(got);
    if (std::ferror(f.get()))
        fatal("bigraph: read error on %s", path.c_str());
}

/**
 * Phase 1: stream the generator once, scattering both directions of
 * every non-loop edge into the owning segment's bucket file through
 * small host buffers.
 */
void
spillEdges(const BigraphSpec &spec, BigraphArtifacts &art)
{
    const std::uint32_t s_count = art.segments;
    const NodeId rows_per = art.rowsPerSegment;

    std::vector<FilePtr> files(s_count);
    for (std::uint32_t k = 0; k < s_count; ++k) {
        files[k].reset(std::fopen(art.segFiles[k].c_str(), "wb"));
        if (!files[k])
            fatal("bigraph: cannot create %s", art.segFiles[k].c_str());
    }

    constexpr std::size_t kBufPairs = 1 << 15;  // 256 KiB per bucket.
    std::vector<std::vector<std::uint64_t>> bufs(s_count);
    for (auto &b : bufs)
        b.reserve(kBufPairs);

    std::vector<std::uint64_t> spilled(s_count, 0);
    const auto bucketOf = [&](NodeId u) {
        return std::min<std::uint32_t>(
            static_cast<std::uint32_t>(u / rows_per), s_count - 1);
    };
    const auto push = [&](NodeId u, NodeId v) {
        const std::uint32_t k = bucketOf(u);
        bufs[k].push_back(packPair(u, v));
        if (bufs[k].size() >= kBufPairs) {
            writeAll(files[k].get(), bufs[k].data(), bufs[k].size(),
                     art.segFiles[k]);
            spilled[k] += bufs[k].size();
            bufs[k].clear();
        }
    };
    const auto emit = [&](NodeId u, NodeId v) {
        if (u == v)
            return;  // Drop self loops, as fromEdgeList does.
        push(u, v);
        push(v, u);
    };

    if (spec.kind == BigraphKind::Kron)
        forEachKronEdge(spec.scale, spec.degree, spec.seed, emit);
    else
        forEachUrandEdge(spec.scale, spec.degree, spec.seed, emit);

    for (std::uint32_t k = 0; k < s_count; ++k) {
        writeAll(files[k].get(), bufs[k].data(), bufs[k].size(),
                 art.segFiles[k]);
        spilled[k] += bufs[k].size();
        art.maxSpillBytes =
            std::max(art.maxSpillBytes,
                     spilled[k] * sizeof(std::uint64_t));
    }
}

/**
 * Sort the @p n targets at @p a whose set bits all lie below
 * @p key_bits: an LSD radix sort on 8-bit digits through @p scratch
 * (room for @p n), skipping digits on which every key agrees. Rows
 * shorter than 16 keys per digit (~the break-even on a Xeon host) use
 * a comparison sort instead.
 */
void
sortTargets(std::uint32_t *a, std::size_t n, std::uint32_t *scratch,
            int key_bits)
{
    const int digits = (key_bits + 7) / 8;
    if (n < 16 * static_cast<std::size_t>(digits)) {
        std::sort(a, a + n);
        return;
    }
    std::size_t count[4][256] = {};
    for (std::size_t i = 0; i < n; ++i) {
        for (int d = 0; d < digits; ++d)
            ++count[d][(a[i] >> (8 * d)) & 0xff];
    }
    std::uint32_t *src = a;
    std::uint32_t *dst = scratch;
    for (int d = 0; d < digits; ++d) {
        const int shift = 8 * d;
        std::size_t *bins = count[d];
        if (bins[(src[0] >> shift) & 0xff] == n)
            continue;
        std::size_t sum = 0;
        for (int b = 0; b < 256; ++b)
            sum += std::exchange(bins[b], sum);
        for (std::size_t i = 0; i < n; ++i)
            dst[bins[(src[i] >> shift) & 0xff]++] = src[i];
        std::swap(src, dst);
    }
    if (src != a)
        std::copy(src, src + n, a);
}

/**
 * Phase 2: sort and deduplicate every bucket and record the edge
 * counts -- global dedup falls out of per-bucket dedup because a
 * directed edge's bucket is a function of its source.
 */
void
sortAndDedup(BigraphArtifacts &art)
{
    for (std::uint32_t k = 0; k < art.segments; ++k) {
        const std::int64_t first =
            static_cast<std::int64_t>(k) * art.rowsPerSegment;
        const std::int64_t end = std::min<std::int64_t>(
            first + art.rowsPerSegment, art.nodes);
        art.edgeCounts[k] = static_cast<std::int64_t>(sortAndDedupBucket(
            art.segFiles[k], static_cast<NodeId>(first),
            static_cast<NodeId>(end - first)));
    }
    art.edgeBases.assign(art.segments + 1, 0);
    for (std::uint32_t k = 0; k < art.segments; ++k)
        art.edgeBases[k + 1] = art.edgeBases[k] + art.edgeCounts[k];
    art.totalEdges = art.edgeBases[art.segments];
}

}  // namespace

std::uint64_t
sortAndDedupBucket(const std::string &path, NodeId first_row,
                   NodeId row_count)
{
    std::vector<std::uint64_t> chunk(kChunkPairs);
    const auto rows = static_cast<std::size_t>(row_count);
    const auto rowOf = [&](std::uint64_t p) {
        return static_cast<std::size_t>(pairU(p) - first_row);
    };

    // Count pass: per-row counts and the targets' significant bits,
    // then an inclusive prefix sum, so start[r] is the end of row r
    // and start[rows] the pair count.
    std::vector<std::size_t> start(rows + 1, 0);
    std::uint32_t target_bits = 0;
    forEachPairChunk(path, chunk, [&](std::size_t got) {
        for (std::size_t i = 0; i < got; ++i) {
            const std::size_t r = rowOf(chunk[i]);
            MEMTIER_ASSERT(r < rows, "bigraph: pair outside its bucket");
            ++start[r];
            target_bits |= static_cast<std::uint32_t>(pairV(chunk[i]));
        }
    });
    const std::size_t longest =
        *std::max_element(start.begin(), start.end());
    for (std::size_t r = 1; r <= rows; ++r)
        start[r] += start[r - 1];

    // Scatter pass: fill each row backwards, which leaves start[r] at
    // the beginning of row r. Only the 4-byte targets stay resident.
    std::vector<std::uint32_t> targets(start[rows]);
    forEachPairChunk(path, chunk, [&](std::size_t got) {
        for (std::size_t i = 0; i < got; ++i)
            targets[--start[rowOf(chunk[i])]] =
                static_cast<std::uint32_t>(pairV(chunk[i]));
    });

    // Sort + unique each row, compacting the survivors to the front:
    // afterwards row r's kept targets are [start[r], start[r + 1]).
    std::vector<std::uint32_t> scratch(longest);
    const int key_bits = std::bit_width(target_bits);
    std::size_t kept = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        std::uint32_t *const begin = targets.data() + start[r];
        const std::size_t n = start[r + 1] - start[r];
        sortTargets(begin, n, scratch.data(), key_bits);
        std::uint32_t *const end = std::unique(begin, begin + n);
        if (begin != targets.data() + kept)
            std::copy(begin, end, targets.data() + kept);
        start[r] = kept;
        kept += static_cast<std::size_t>(end - begin);
    }
    start[rows] = kept;

    // Rewrite the bucket as packed pairs in (u, v) order -- the order
    // a sort of the packed words gives.
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        fatal("bigraph: cannot rewrite %s", path.c_str());
    std::size_t buffered = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const auto u = static_cast<NodeId>(first_row + r);
        for (std::size_t i = start[r]; i < start[r + 1]; ++i) {
            chunk[buffered++] =
                packPair(u, static_cast<NodeId>(targets[i]));
            if (buffered == kChunkPairs) {
                writeAll(f.get(), chunk.data(), buffered, path);
                buffered = 0;
            }
        }
    }
    writeAll(f.get(), chunk.data(), buffered, path);
    return kept;
}

const char *
bigraphKindName(BigraphKind kind)
{
    return kind == BigraphKind::Kron ? "kron" : "urand";
}

std::string
bigraphSpillDir()
{
    ArtifactCache &cache = artifactCache();
    const std::lock_guard<std::mutex> lock(cache.mu);
    const std::string dir = spillDirPath();
    cache.makeDir(dir);
    return dir;
}

const BigraphArtifacts &
prepareBigraph(const BigraphSpec &spec)
{
    MEMTIER_ASSERT(spec.scale > 0 && spec.scale < 32,
                   "bigraph scale out of range");
    MEMTIER_ASSERT(spec.segments >= 1, "bigraph needs >= 1 segment");

    const std::string key = specKey(spec);
    ArtifactCache &cache = artifactCache();
    const std::lock_guard<std::mutex> lock(cache.mu);
    if (const auto it = cache.byKey.find(key); it != cache.byKey.end())
        return it->second;

    BigraphArtifacts art;
    art.key = key;
    art.nodes = 1LL << spec.scale;
    // Even row split; the last segment may be short. Recompute the
    // effective count so no trailing segment is empty.
    const std::uint32_t requested = std::min<std::uint32_t>(
        spec.segments, static_cast<std::uint32_t>(art.nodes));
    art.rowsPerSegment = static_cast<NodeId>(
        (art.nodes + requested - 1) / requested);
    art.segments = static_cast<std::uint32_t>(
        (art.nodes + art.rowsPerSegment - 1) / art.rowsPerSegment);

    const std::string dir = spillDirPath();
    cache.makeDir(dir);
    art.segFiles.resize(art.segments);
    art.edgeCounts.assign(art.segments, 0);
    std::string stem = dir;
    stem += '/';
    stem += key;
    stem += ".p";
    stem += std::to_string(::getpid());
    stem += ".seg";
    for (std::uint32_t k = 0; k < art.segments; ++k) {
        art.segFiles[k] = stem;
        art.segFiles[k] += std::to_string(k);
        art.segFiles[k] += ".pairs";
    }
    // Another process sharing the directory removes it once empty
    // (ArtifactCache::clear). The first bucket keeps it non-empty from
    // here on; a directory removed before that is made again.
    for (int tries = 0;
         !FilePtr(std::fopen(art.segFiles[0].c_str(), "wb")); ++tries) {
        if (errno != ENOENT || tries == 8)
            fatal("bigraph: cannot create %s", art.segFiles[0].c_str());
        cache.makeDir(dir);
    }

    inform("bigraph: spilling %s scale %d into %u segment buckets",
           bigraphKindName(spec.kind), spec.scale, art.segments);
    spillEdges(spec, art);
    sortAndDedup(art);
    inform("bigraph: %lld directed edges across %u segments "
           "(max bucket %llu MiB)",
           static_cast<long long>(art.totalEdges), art.segments,
           static_cast<unsigned long long>(art.maxSpillBytes >> 20));

    return cache.byKey.emplace(key, std::move(art)).first->second;
}

void
clearBigraphArtifacts()
{
    ArtifactCache &cache = artifactCache();
    const std::lock_guard<std::mutex> lock(cache.mu);
    cache.clear();
}

std::uint64_t
SegmentedCsrGraph::segmentChecksum(std::uint32_t k) const
{
    MEMTIER_ASSERT(k < segs_.size() && segs_[k].index.valid(),
                   "bigraph: checksum of a freed segment");
    const auto fnv1a = [](std::uint64_t h, std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
        return h;
    };
    const CsrSegment &seg = segs_[k];
    std::uint64_t sum = 0xcbf29ce484222325ULL;
    const std::int64_t *const idx = seg.index.host();
    for (std::uint64_t r = 0; r < seg.index.size(); ++r)
        sum = fnv1a(sum, static_cast<std::uint64_t>(idx[r]));
    if (seg.adj.valid()) {
        const NodeId *const adj = seg.adj.host();
        for (std::uint64_t e = 0; e < seg.adj.size(); ++e) {
            sum = fnv1a(sum, static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(adj[e])));
        }
    }
    return sum;
}

namespace {

/**
 * Timed materialization of segment @p k of graph @p name, shared by
 * every way a graph is built: a .sg-sized SimFile "<name>.seg<k>.sg",
 * its header read, then index, adjacency and (when @p weighted)
 * weights, each its own fresh mmap object ("csr.index.<k>",
 * "csr.adj.<k>", "csr.wts.<k>") whose host storage the matching
 * @p fill_* callback writes untimed before the object is streamed in
 * through the page cache. @p seg's row and edge bounds must be set; a
 * segment without edges gets no adjacency or weights object.
 * @return the bytes of simulated memory the segment occupies.
 */
template <typename FillIndex, typename FillAdj, typename FillWeights>
std::uint64_t
materializeSegment(Engine &engine, SimHeap &heap, ThreadContext &t,
                   const std::string &name, std::uint32_t k,
                   bool weighted, CsrSegment &seg, FillIndex &&fill_index,
                   FillAdj &&fill_adj, FillWeights &&fill_weights)
{
    constexpr std::uint64_t kHeaderBytes = 3 * sizeof(std::int64_t);
    const auto rows = static_cast<std::uint64_t>(seg.rowCount());
    const auto cnt = static_cast<std::uint64_t>(seg.edgeCount());
    const std::uint64_t index_bytes = (rows + 1) * sizeof(std::int64_t);
    const std::uint64_t adj_bytes = cnt * sizeof(NodeId);
    const std::uint64_t wts_bytes =
        weighted ? cnt * sizeof(std::int32_t) : 0;

    std::string file_name = name;
    file_name += ".seg";
    file_name += std::to_string(k);
    file_name += ".sg";
    SimFile file(engine, file_name,
                 kHeaderBytes + index_bytes + adj_bytes + wts_bytes);
    file.read(t, 0, kHeaderBytes);
    std::uint64_t file_pos = kHeaderBytes;
    std::string suffix = ".";
    suffix += std::to_string(k);

    seg.index =
        heap.alloc<std::int64_t>(t, "csr.index" + suffix, rows + 1);
    fill_index(seg.index.host());
    streamInPlace(file, t, file_pos, seg.index);
    file_pos += index_bytes;
    if (cnt > 0) {
        seg.adj = heap.alloc<NodeId>(t, "csr.adj" + suffix, cnt);
        fill_adj(seg.adj.host());
        streamInPlace(file, t, file_pos, seg.adj);
        file_pos += adj_bytes;
        if (weighted) {
            seg.weights =
                heap.alloc<std::int32_t>(t, "csr.wts" + suffix, cnt);
            fill_weights(seg.weights.host());
            streamInPlace(file, t, file_pos, seg.weights);
        }
    }
    return index_bytes + adj_bytes + wts_bytes;
}

}  // namespace

SegmentedCsrGraph
SegmentedCsrGraph::generate(Engine &engine, SimHeap &heap,
                            ThreadContext &t, const BigraphSpec &spec,
                            const std::string &name)
{
    const BigraphArtifacts &art = prepareBigraph(spec);
    const std::uint64_t wseed = spec.seed ^ 0x5eed;

    SegmentedCsrGraph g;
    g.nodes_ = art.nodes;
    g.edges_ = art.totalEdges;
    g.rowsPer_ = art.rowsPerSegment;
    g.weighted_ = spec.weighted;
    g.segs_.resize(art.segments);

    std::vector<std::uint32_t> order(art.segments);
    for (std::uint32_t k = 0; k < art.segments; ++k)
        order[k] = spec.reverseBuild ? art.segments - 1 - k : k;

    // The only host staging is one bucket chunk, reused across
    // segments: values are written straight into each allocation's
    // host storage, then the timed stores are issued over it.
    std::vector<std::uint64_t> chunk(kChunkPairs);

    for (const std::uint32_t k : order) {
        CsrSegment &seg = g.segs_[k];
        seg.firstRow = static_cast<NodeId>(
            static_cast<std::int64_t>(k) * art.rowsPerSegment);
        seg.rowEnd = static_cast<NodeId>(
            std::min<std::int64_t>(static_cast<std::int64_t>(k + 1) *
                                       art.rowsPerSegment,
                                   art.nodes));
        seg.edgeBase = art.edgeBases[k];
        seg.edgeEnd = art.edgeBases[k + 1];
        const std::string &path = art.segFiles[k];
        const auto rows = static_cast<std::uint64_t>(seg.rowCount());
        const auto cnt = static_cast<std::uint64_t>(art.edgeCounts[k]);

        // Count pass: the local index with global offsets -- count per
        // row, prefix-sum, rebase onto the segment's global edge base.
        const auto fill_index = [&](std::int64_t *idx) {
            std::fill(idx, idx + rows + 1, 0);
            std::uint64_t seen = 0;
            forEachPairChunk(path, chunk, [&](std::size_t got) {
                for (std::size_t i = 0; i < got; ++i) {
                    const auto r = static_cast<std::uint64_t>(
                        pairU(chunk[i]) - seg.firstRow);
                    MEMTIER_ASSERT(r < rows, "bigraph: pair outside its "
                                             "segment");
                    ++idx[r + 1];
                }
                seen += got;
            });
            MEMTIER_ASSERT(seen == cnt,
                           "bigraph: spill file changed size");
            idx[0] = seg.edgeBase;
            for (std::uint64_t r = 1; r <= rows; ++r)
                idx[r] += idx[r - 1];
        };
        // Fill pass: the bucket is sorted by (u, v), so its targets in
        // file order are the adjacency array.
        const auto fill_adj = [&](NodeId *adj) {
            std::uint64_t filled = 0;
            forEachPairChunk(path, chunk, [&](std::size_t got) {
                MEMTIER_ASSERT(filled + got <= cnt,
                               "bigraph: spill file changed size");
                for (std::size_t i = 0; i < got; ++i)
                    adj[filled++] = pairV(chunk[i]);
            });
            MEMTIER_ASSERT(filled == cnt,
                           "bigraph: spill file changed size");
        };
        const auto fill_weights = [&](std::int32_t *wts) {
            const std::int64_t *const idx = seg.index.host();
            const NodeId *const adj = seg.adj.host();
            for (std::uint64_t r = 0; r < rows; ++r) {
                const NodeId u = seg.firstRow + static_cast<NodeId>(r);
                for (std::int64_t e = idx[r] - seg.edgeBase;
                     e < idx[r + 1] - seg.edgeBase; ++e) {
                    // Symmetric endpoint hash: both directions of an
                    // undirected edge get the same weight (matches
                    // CsrGraph::generateWeights).
                    const NodeId v = adj[e];
                    const auto lo =
                        static_cast<std::uint64_t>(std::min(u, v));
                    const auto hi =
                        static_cast<std::uint64_t>(std::max(u, v));
                    SplitMix64 h(wseed ^ (lo << 32 | hi));
                    wts[e] = static_cast<std::int32_t>(h.next() % 255 + 1);
                }
            }
        };
        g.footprint_ +=
            materializeSegment(engine, heap, t, name, k, spec.weighted,
                               seg, fill_index, fill_adj, fill_weights);
    }
    return g;
}

SegmentedCsrGraph
SegmentedCsrGraph::fromHost(Engine &engine, SimHeap &heap,
                            ThreadContext &t, const CsrGraph &host,
                            const std::string &name)
{
    SegmentedCsrGraph g;
    g.nodes_ = host.numNodes();
    g.edges_ = host.numEdges();
    g.rowsPer_ = static_cast<NodeId>(std::max<std::int64_t>(g.nodes_, 1));
    g.weighted_ = host.hasWeights();
    CsrSegment &seg = g.segs_.emplace_back();
    seg.rowEnd = static_cast<NodeId>(g.nodes_);
    seg.edgeEnd = g.edges_;
    const auto copyInto = [](const auto &from, auto *to) {
        std::copy(from.begin(), from.end(), to);
    };
    g.footprint_ = materializeSegment(
        engine, heap, t, name, 0, g.weighted_, seg,
        [&](std::int64_t *idx) { copyInto(host.offsets(), idx); },
        [&](NodeId *adj) { copyInto(host.adjacency(), adj); },
        [&](std::int32_t *wts) { copyInto(host.weights(), wts); });
    return g;
}

}  // namespace memtier
