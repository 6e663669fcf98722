/**
 * @file
 * Footprint-vs-scale sweep over the segmented CSR path: runs PageRank
 * on out-of-core-built graphs from the paper's default scale up to
 * multi-GB footprints (scale 24-25, two orders of magnitude above the
 * scale-18 default), reporting simulated accesses/second, migration
 * volume and DRAM-hit fraction per {scale, kind, mode} cell, plus the
 * host peak RSS that the segment-by-segment build keeps bounded. Each
 * row also times the out-of-core build (spill + sort) separately as
 * build_sec -- near zero when an earlier row at the same scale already
 * built the artifacts -- and the record names its host.
 *
 * Also self-checks the subsystem's golden property: a one-segment
 * out-of-core build must be bit-identical (simulated cycles, output,
 * per-level access counts) to the monolithic SimCsrGraph loader.
 *
 * Usage:
 *   scale_sweep [--rows=SCALE:KIND:MODE:SEGMENTS,...] [--trials=N]
 *               [--out=PATH.json] [--no-check]
 *
 * The default row set covers kron 18/20/22/24 and urand 25 under
 * autonuma (with a notiering contrast at the smaller scales). The
 * --rows form runs exactly the named cells, e.g.
 * --rows=22:kron:autonuma:8 (the CI regression gate re-runs a single
 * committed cell this way).
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/pagerank.h"
#include "base/logging.h"
#include "bench_common.h"
#include "bigraph/ooc_builder.h"
#include "bigraph/segmented_csr.h"
#include "exp/runner.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/sim_graph.h"
#include "runtime/sim_heap.h"

using namespace memtier;

namespace {

struct SweepRow
{
    int scale = 18;
    GraphKind kind = GraphKind::Kron;
    std::string mode = "autonuma";
    int segments = 4;
};

/** Default segment count: finer row-range placement as graphs grow. */
int
autoSegments(int scale)
{
    const int shifted = scale - 19;
    const int count = shifted <= 2 ? 4 : 1 << shifted;
    return std::min(count, 64);
}

/** Host peak RSS in bytes (Linux ru_maxrss is in KiB). */
std::uint64_t
peakRssBytes()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

struct RowResult
{
    SweepRow row;
    std::uint64_t footprintBytes = 0;
    std::int64_t nodes = 0;
    std::int64_t edges = 0;
    double loadSimSec = 0.0;
    double computeSimSec = 0.0;
    std::uint64_t totalAccesses = 0;
    double buildSec = 0.0;  ///< Spill + sort; ~0 when already cached.
    double wallSec = 0.0;
    double accessesPerSec = 0.0;
    std::uint64_t copyBytes = 0;
    double dramHitFraction = 0.0;
    std::uint64_t promoted = 0;
    std::uint64_t demoted = 0;
    std::uint64_t peakRss = 0;
};

std::string
parseMode(const std::string &s)
{
    if (s == "autonuma" || s == "notiering" || s == "all_nvm" ||
        s == "all_dram")
        return s;
    fatal("scale_sweep: unknown mode '%s' (expected autonuma, "
          "notiering, all_nvm or all_dram)",
          s.c_str());
}

GraphKind
parseKind(const std::string &s)
{
    if (s == "kron")
        return GraphKind::Kron;
    if (s == "urand")
        return GraphKind::Urand;
    fatal("scale_sweep: unknown kind '%s'", s.c_str());
}

SweepRow
parseRow(const std::string &s)
{
    std::stringstream ss(s);
    std::string part;
    std::vector<std::string> parts;
    while (std::getline(ss, part, ':'))
        parts.push_back(part);
    if (parts.size() < 3 || parts.size() > 4)
        fatal("scale_sweep: malformed row '%s' (expected "
              "SCALE:KIND:MODE[:SEGMENTS])",
              s.c_str());
    SweepRow row;
    row.scale = std::atoi(parts[0].c_str());
    if (row.scale < 10 || row.scale > 28)
        fatal("scale_sweep: scale %d out of range", row.scale);
    row.kind = parseKind(parts[1]);
    row.mode = parseMode(parts[2]);
    row.segments = parts.size() == 4 ? std::atoi(parts[3].c_str())
                                     : autoSegments(row.scale);
    if (row.segments < 1)
        fatal("scale_sweep: bad segment count in '%s'", s.c_str());
    return row;
}

RowResult
runRow(const SweepRow &row, int trials)
{
    RunConfig rc;
    rc.workload.app = App::PR;
    rc.workload.kind = row.kind;
    rc.workload.scale = row.scale;
    rc.workload.trials = trials;
    rc.workload.segments = row.segments;
    rc.sampling = false;
    rc.sys.dram = makeDramParams(scaledCapacity(24 * kMiB, row.scale));
    rc.sys.nvm = makeNvmParams(scaledCapacity(96 * kMiB, row.scale));
    // Every mode but autonuma is the vanilla kernel; the all_* bounds
    // bind every allocation, all_dram on a tier that holds everything.
    PlacementPlan plan;
    if (row.mode != "autonuma")
        rc.policy = "";
    if (row.mode == "all_dram") {
        rc.sys.dram.capacityBytes = rc.sys.nvm.capacityBytes * 4;
        plan = PlacementPlan::bindAll(MemNode::DRAM);
    } else if (row.mode == "all_nvm") {
        plan = PlacementPlan::bindAll(MemNode::NVM);
    }
    // Scan clocks compressed as in the sweep benches, or no scan fires
    // inside the short simulated runs.
    rc.sys.autonuma.scanPeriod = secondsToCycles(0.0005);
    rc.sys.autonuma.adjustPeriod = secondsToCycles(0.002);

    // Prewarm the spill artifacts so wall_sec times materialization +
    // simulated execution, not the one-off generate/sort pipeline --
    // otherwise the first mode at each scale pays generation and its
    // accesses/sec is not comparable to the cache-hitting second. The
    // prewarm is timed on its own as build_sec.
    const BigraphSpec bs{row.kind == GraphKind::Kron
                             ? BigraphKind::Kron
                             : BigraphKind::Urand,
                         row.scale,
                         16,
                         9241,
                         static_cast<std::uint32_t>(row.segments),
                         false,
                         false};
    const auto b0 = std::chrono::steady_clock::now();
    const BigraphArtifacts &art = prepareBigraph(bs);
    const double build_sec = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - b0)
                                 .count();

    std::cerr << "running scale " << row.scale << " "
              << graphKindName(row.kind) << " [" << row.mode
              << "] segments=" << row.segments << "...\n";
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = runWorkload(rc, &plan);
    const auto t1 = std::chrono::steady_clock::now();

    RowResult out;
    out.row = row;
    out.nodes = 1LL << row.scale;
    out.buildSec = build_sec;
    out.loadSimSec = r.loadSeconds;
    out.computeSimSec = r.computeSeconds;
    out.totalAccesses = r.totalAccesses;
    out.wallSec = std::chrono::duration<double>(t1 - t0).count();
    out.accessesPerSec =
        static_cast<double>(r.totalAccesses) / out.wallSec;
    out.copyBytes = r.copyBytes;
    const std::uint64_t dram =
        r.levelCounts[static_cast<int>(MemLevel::DRAM)];
    const std::uint64_t nvm =
        r.levelCounts[static_cast<int>(MemLevel::NVM)];
    out.dramHitFraction =
        dram + nvm > 0
            ? static_cast<double>(dram) /
                  static_cast<double>(dram + nvm)
            : 0.0;
    out.promoted = r.vmstat.pgpromoteSuccess;
    out.demoted = r.vmstat.pgdemoteKswapd + r.vmstat.pgdemoteDirect;
    out.peakRss = peakRssBytes();

    // Footprint of the segmented CSR = what the builder materialized.
    out.edges = art.totalEdges;
    out.footprintBytes =
        static_cast<std::uint64_t>(art.nodes + art.segments) * 8 +
        static_cast<std::uint64_t>(art.totalEdges) * 4;
    return out;
}

/**
 * Golden self-check at a small scale: a one-segment out-of-core build
 * must match the monolithic loader cycle for cycle.
 */
bool
segment1BitIdentical()
{
    BigraphSpec spec;
    spec.scale = 12;
    spec.degree = 16;
    spec.segments = 1;
    EdgeList edges = generateKron(spec.scale, spec.degree, spec.seed);
    const CsrGraph host = CsrGraph::fromEdgeList(
        static_cast<NodeId>(1LL << spec.scale), edges);

    SystemConfig cfg;
    cfg.dram = makeDramParams(scaledCapacity(24 * kMiB, spec.scale));
    cfg.nvm = makeNvmParams(scaledCapacity(96 * kMiB, spec.scale));

    Engine eng_a(cfg);
    SimHeap heap_a(eng_a);
    SimCsrGraph mono =
        SimCsrGraph::load(eng_a, heap_a, eng_a.thread(0), host, "gold");
    const PageRankOutput pr_a = runPageRank(eng_a, heap_a, mono, 2);
    mono.free(heap_a, eng_a.thread(0));

    Engine eng_b(cfg);
    SimHeap heap_b(eng_b);
    SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
        eng_b, heap_b, eng_b.thread(0), spec, "gold");
    const PageRankOutput pr_b = runPageRank(eng_b, heap_b, seg, 2);
    seg.free(heap_b, eng_b.thread(0));

    bool same = eng_b.globalTime() == eng_a.globalTime() &&
                pr_b.rank.size() == pr_a.rank.size();
    for (std::size_t v = 0; same && v < pr_a.rank.size(); ++v)
        same = pr_b.rank[v] == pr_a.rank[v];
    for (int l = 0; same && l < kNumMemLevels; ++l) {
        same = eng_b.levelCount(static_cast<MemLevel>(l)) ==
               eng_a.levelCount(static_cast<MemLevel>(l));
    }
    return same;
}

std::string
rowLabel(const SweepRow &r)
{
    return std::to_string(r.scale) + ":" + graphKindName(r.kind) + ":" +
           r.mode + ":" + std::to_string(r.segments);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<SweepRow> rows;
    int trials = 1;
    bool check = true;
    std::string out_path = "BENCH_scale.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--rows=", 0) == 0) {
            std::stringstream ss(arg.substr(7));
            std::string item;
            while (std::getline(ss, item, ','))
                rows.push_back(parseRow(item));
        } else if (arg.rfind("--trials=", 0) == 0) {
            trials = std::atoi(arg.c_str() + 9);
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else if (arg == "--no-check") {
            check = false;
        } else {
            std::cerr << "usage: scale_sweep "
                         "[--rows=SCALE:KIND:MODE[:SEGS],...] "
                         "[--trials=N] [--out=PATH.json] [--no-check]\n";
            return 2;
        }
    }
    if (trials <= 0) {
        std::cerr << "scale_sweep: bad trial count\n";
        return 2;
    }
    if (rows.empty()) {
        // Default: the committed footprint-vs-scale matrix. The
        // notiering contrast stops at 22 and the biggest graphs run
        // autonuma only, to bound suite wall time.
        for (const int scale : {18, 20, 22}) {
            rows.push_back({scale, GraphKind::Kron, "autonuma",
                            autoSegments(scale)});
            rows.push_back({scale, GraphKind::Kron, "notiering",
                            autoSegments(scale)});
        }
        rows.push_back(
            {24, GraphKind::Kron, "autonuma", autoSegments(24)});
        rows.push_back(
            {25, GraphKind::Urand, "autonuma", autoSegments(25)});
    }

    benchHeader("footprint-vs-scale sweep on the segmented CSR path",
                "paper-scale graph footprints (Section 4.1) via "
                "out-of-core segmented builds");

    bool golden = true;
    if (check) {
        golden = segment1BitIdentical();
        std::cout << "segment-1 golden check: "
                  << (golden ? "bit-identical" : "DIVERGED") << "\n";
        if (!golden) {
            std::cerr << "scale_sweep: one-segment build diverged from "
                         "the monolithic loader\n";
            return 1;
        }
        clearBigraphArtifacts();
    }

    std::vector<RowResult> results;
    int last_scale = -1;
    for (const SweepRow &row : rows) {
        if (last_scale != -1 && row.scale != last_scale) {
            // New scale: previous spill buckets are no longer needed.
            clearBigraphArtifacts();
        }
        last_scale = row.scale;
        results.push_back(runRow(row, trials));
        const RowResult &r = results.back();
        std::cout << "  " << rowLabel(row) << ": footprint "
                  << (r.footprintBytes >> 20) << " MiB, "
                  << r.totalAccesses << " accesses, "
                  << static_cast<std::uint64_t>(r.accessesPerSec)
                  << " accesses/s, dram_hit "
                  << r.dramHitFraction << ", build "
                  << r.buildSec << " s, migrated "
                  << (r.copyBytes >> 20) << " MiB, peak rss "
                  << (r.peakRss >> 20) << " MiB\n";
    }
    clearBigraphArtifacts();

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "scale_sweep: cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"scale_sweep\",\n"
        << "  \"app\": \"pr\",\n"
        << "  \"trials\": " << trials << ",\n"
        << "  \"host\": " << hostJson() << ",\n"
        << "  \"segment1_bit_identical\": "
        << (golden ? "true" : "false") << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RowResult &r = results[i];
        out << "    {\"scale\": " << r.row.scale << ", \"kind\": \""
            << graphKindName(r.row.kind) << "\", \"mode\": \""
            << r.row.mode << "\", \"segments\": "
            << r.row.segments << ", \"nodes\": " << r.nodes
            << ", \"edges\": " << r.edges << ", \"footprint_bytes\": "
            << r.footprintBytes << ", \"load_sim_sec\": "
            << r.loadSimSec << ", \"compute_sim_sec\": "
            << r.computeSimSec << ", \"total_accesses\": "
            << r.totalAccesses << ", \"build_sec\": " << r.buildSec
            << ", \"wall_sec\": " << r.wallSec
            << ", \"accesses_per_sec\": " << r.accessesPerSec
            << ", \"copy_bytes\": " << r.copyBytes
            << ", \"dram_hit_fraction\": " << r.dramHitFraction
            << ", \"pgpromote\": " << r.promoted << ", \"pgdemote\": "
            << r.demoted << ", \"peak_rss_bytes\": " << r.peakRss
            << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n"
        << "}\n";
    std::cout << "wrote " << out_path << " (" << results.size()
              << " rows)\n";
    return 0;
}
