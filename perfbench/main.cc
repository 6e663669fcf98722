/**
 * @file
 * memtier_perfbench: the repository benchmark. It drives memtier from
 * outside through its public entry points -- prepareBigraph (bigraph),
 * runWorkload and runSweep (exp) -- on one of four workloads, checks the
 * outputs and prints one JSON result object as the last line of stdout.
 *
 *   memtier_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--size full|tiny] [--out DIR]
 *
 * --trace 0 reports the end-to-end metrics: medians over repeated
 * set-ups and over measured calls repeated for S seconds, plus one
 * composed verification run. --trace 1 alternates untraced calls with a
 * traced run that composes the same calls runWorkload makes, records
 * host-time spans around each layer and counts accesses with an
 * AccessObserver; it reports the per-layer metrics and writes
 * DIR/trace.json (Chrome trace events) and DIR/self_time.tsv. Host
 * times are normalized by a speed probe (see SpeedProbe).
 * perfbench/run.py builds this binary and is the intended entry point.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/bc.h"
#include "apps/bfs.h"
#include "apps/pagerank.h"
#include "base/rng.h"
#include "bigraph/ooc_builder.h"
#include "bigraph/segmented_csr.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "profile/mmap_tracker.h"
#include "profile/perf_mem.h"
#include "runtime/sim_heap.h"
#include "serve/request_gen.h"
#include "serve/serve_driver.h"
#include "tracer.h"

using namespace memtier;
using perfbench::Tracer;

namespace {

/** Seed whose app checksums are recorded in the workload table. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Fewest measured runs per invocation, however short --seconds is. */
constexpr int kMinRuns = 3;

/** Simulated microseconds per cycle. */
constexpr double kUsPerCycle = 1e6 / static_cast<double>(kCyclesPerSecond);

/** One benchmark workload at one size. */
struct BenchWorkload
{
    std::string name;
    WorkloadSpec spec;        ///< App, input kind/scale, trials, segments.
    bool sampling = false;    ///< perf-mem sampler (period 61) on.
    double dramMiB = 24.0;    ///< DRAM tier; the NVM tier is 4x.
    std::vector<std::string> tunables;     ///< autonuma tunables.
    std::vector<std::string> scanPeriods;  ///< Sweep axis; empty = 1 cell.
    int setupReps = 5;        ///< Set-ups per invocation (median).
    std::uint64_t defaultChecksum = 0;     ///< App checksum at seed 1.
};

/** Inputs of every run derive from the --seed argument alone. */
std::uint64_t
workloadSeed(std::uint64_t seed)
{
    // splitmix64 finalizer: distinct, well-mixed seeds for 0, 1, 2, ...
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

WorkloadSpec
makeSpec(App app, GraphKind kind, int scale, int trials, int segments)
{
    WorkloadSpec w;
    w.app = app;
    w.kind = kind;
    w.scale = scale;
    w.trials = trials;
    w.segments = segments;
    return w;
}

/**
 * The workload table. Graph workloads compress the AutoNUMA clocks (as
 * the repository's sweep benches do) so scans fire inside runs that
 * last a fraction of a simulated second; DRAM is sized below each
 * footprint so the tiers are pressured.
 */
std::vector<BenchWorkload>
workloadTable(bool tiny)
{
    const std::vector<std::string> compressed = {"scan_period_ms=0.5",
                                                 "adjust_period_ms=2"};
    std::vector<BenchWorkload> t;

    BenchWorkload pr;
    pr.name = "pr_kron_ooc";
    pr.spec = tiny ? makeSpec(App::PR, GraphKind::Kron, 12, 2, 4)
                   : makeSpec(App::PR, GraphKind::Kron, 16, 4, 8);
    pr.dramMiB = tiny ? 0.375 : 6.0;
    pr.tunables = compressed;
    pr.defaultChecksum =
        tiny ? 0x8e8b4deab4c123caULL : 0x49cc1db39e19e7d9ULL;
    t.push_back(pr);

    BenchWorkload bfs;
    bfs.name = "bfs_urand_ooc";
    bfs.spec = tiny ? makeSpec(App::BFS, GraphKind::Urand, 12, 4, 4)
                    : makeSpec(App::BFS, GraphKind::Urand, 16, 8, 4);
    bfs.sampling = true;
    bfs.dramMiB = tiny ? 0.375 : 6.0;
    bfs.tunables = compressed;
    bfs.defaultChecksum =
        tiny ? 0xaa60fcb723276325ULL : 0x99be973864ca2325ULL;
    t.push_back(bfs);

    BenchWorkload kv;
    kv.name = "kv_zipf";
    kv.spec = tiny ? makeSpec(App::KV, GraphKind::Kron, 13, 2, 1)
                   : makeSpec(App::KV, GraphKind::Kron, 18, 80, 1);
    kv.dramMiB = tiny ? 0.75 : 24.0;
    kv.setupReps = 15;
    kv.defaultChecksum =
        tiny ? 0xffd35bf5f5ec35ceULL : 0xd2320a4fea3e5a8cULL;
    t.push_back(kv);

    BenchWorkload sweep;
    sweep.name = "sweep_bc_kron";
    sweep.spec = tiny ? makeSpec(App::BC, GraphKind::Kron, 11, 1, 4)
                      : makeSpec(App::BC, GraphKind::Kron, 14, 4, 8);
    sweep.dramMiB = tiny ? 0.1875 : 1.5;
    sweep.tunables = {"adjust_period_ms=2"};
    sweep.scanPeriods = tiny ? std::vector<std::string>{"0.03125", "0.0625",
                                                        "0.125", "0.25"}
                             : std::vector<std::string>{"0.125", "0.5", "2",
                                                        "8"};
    sweep.setupReps = 15;
    sweep.defaultChecksum =
        tiny ? 0x50965340e21f95b3ULL : 0xc62e5e0588ccee66ULL;
    t.push_back(sweep);
    return t;
}

bool isSweep(const BenchWorkload &bw) { return !bw.scanPeriods.empty(); }

SystemConfig
machine(const BenchWorkload &bw)
{
    SystemConfig sys;
    const auto dram = static_cast<std::uint64_t>(bw.dramMiB * kMiB);
    sys.dram = makeDramParams(dram);
    sys.nvm = makeNvmParams(dram * 4);
    return sys;
}

/** runWorkload's config for one cell (scan = "" outside the sweep). */
RunConfig
cellConfig(const BenchWorkload &bw, const std::string &scan)
{
    RunConfig rc;
    rc.workload = bw.spec;
    rc.sys = machine(bw);
    rc.sampling = bw.sampling;
    rc.policy = "autonuma";
    rc.tunables = bw.tunables;
    if (!scan.empty())
        rc.tunables.push_back("scan_period_ms=" + scan);
    return rc;
}

/** The same sweep as cellConfig over every scan period. */
SweepSpec
sweepSpec(const BenchWorkload &bw)
{
    SweepSpec s;
    s.policy = "autonuma";
    for (const std::string &assignment : bw.tunables) {
        const auto eq = assignment.find('=');
        s.axes.push_back({assignment.substr(0, eq),
                          {assignment.substr(eq + 1)}});
    }
    s.axes.push_back({"scan_period_ms", bw.scanPeriods});
    s.workloads = {bw.spec};
    s.sys = machine(bw);
    s.sampling = bw.sampling;
    return s;
}

BigraphSpec
bigraphSpec(const WorkloadSpec &w)
{
    BigraphSpec bs;
    bs.kind = w.kind == GraphKind::Kron ? BigraphKind::Kron
                                        : BigraphKind::Urand;
    bs.scale = w.scale;
    bs.degree = w.degree;
    bs.seed = w.seed;
    bs.segments = static_cast<std::uint32_t>(w.segments);
    return bs;
}

// ---------------------------------------------------------------------
// Statistics and output helpers.

/** Linear-interpolated quantile at q * (n - 1) (0 when empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double
sumOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
secondsSince(Tracer::Clock::time_point start)
{
    return std::chrono::duration<double>(Tracer::Clock::now() - start)
        .count();
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

/**
 * Host-speed probe. The speed a shared virtual machine gives a process
 * drifts (by up to 1.7x, in phases lasting minutes, on a 4-vCPU KVM
 * guest), which no amount of repetition inside one run averages out.
 * The probe is a fixed pointer chase over a random cycle in an L2-sized
 * buffer; it shares no code with memtier, so no change to memtier moves
 * it. Host times are reported normalized to a host on which one chase
 * takes kNominal seconds: raw seconds x kNominal / median chase time of
 * the run.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : next_(kEntries)
    {
        std::vector<std::uint32_t> order(kEntries);
        std::iota(order.begin(), order.end(), 0u);
        std::mt19937_64 rng(0x5eed);
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t i = 0; i < kEntries; ++i)
            next_[order[i]] = order[(i + 1) % kEntries];
    }

    /** Time one chase and keep the sample. */
    void
    sample()
    {
        const Tracer::Clock::time_point start = Tracer::Clock::now();
        std::uint32_t p = pos_;
        for (int i = 0; i < kHops; ++i)
            p = next_[p];
        pos_ = p;  // Keeps the chase observable.
        samples_.push_back(secondsSince(start));
    }

    /** Median raw chase time. */
    double seconds() const { return median(samples_); }

    /** Factor that normalizes raw host seconds. */
    double factor() const { return kNominal / seconds(); }

  private:
    static constexpr std::size_t kEntries =
        (256 << 10) / sizeof(std::uint32_t);
    static constexpr int kHops = 10'000'000;
    static constexpr double kNominal = 0.05;

    std::vector<std::uint32_t> next_;
    std::uint32_t pos_ = 0;
    std::vector<double> samples_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metrics in the order they are printed. */
struct Metrics
{
    std::vector<Metric> items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, value, unit});
    }
};

/** Oracle results of one invocation. */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    fail(const std::string &why)
    {
        problems.push_back(why);
        std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
    }
};

// ---------------------------------------------------------------------
// Simulated-counter signatures: two runs agree iff these are equal.

using Signature = std::vector<std::pair<std::string, std::string>>;

std::string u64(std::uint64_t v) { return std::to_string(v); }

Signature
signature(const RunResult &r)
{
    Signature s = {
        {"total_seconds", num(r.totalSeconds)},
        {"load_seconds", num(r.loadSeconds)},
        {"accesses", u64(r.totalAccesses)},
        {"checksum", u64(r.outputChecksum)},
        {"iterations", u64(r.iterationsTotal)},
        {"iterations_aborted", u64(r.iterationsAborted)},
        {"copy_bytes", u64(r.copyBytes)},
        {"copy_cycles", u64(r.copyChargedCycles)},
        {"samples", u64(r.samples.size())},
        {"numa.pages_scanned", u64(r.numaStats.pagesScanned)},
        {"numa.hint_faults", u64(r.numaStats.hintFaults)},
        {"numa.hint_faults_nvm", u64(r.numaStats.hintFaultsNvm)},
        {"numa.rejected_threshold", u64(r.numaStats.rejectedByThreshold)},
        {"numa.rejected_rate_limit",
         u64(r.numaStats.rejectedByRateLimit)},
    };
    for (int l = 0; l < kNumMemLevels; ++l) {
        s.push_back({std::string("level.") +
                         memLevelName(static_cast<MemLevel>(l)),
                     u64(r.levelCounts[l])});
    }
    // Every VmStat counter, whatever fields it grows.
    static_assert(std::is_trivially_copyable_v<VmStat> &&
                  sizeof(VmStat) % sizeof(std::uint64_t) == 0);
    std::uint64_t words[sizeof(VmStat) / sizeof(std::uint64_t)];
    std::memcpy(words, &r.vmstat, sizeof(words));
    for (std::size_t i = 0; i < std::size(words); ++i)
        s.push_back({"vmstat[" + std::to_string(i) + "]", u64(words[i])});
    if (r.hasServing) {
        const ServingReport &sv = r.serving;
        s.push_back({"serve.requests", u64(sv.requests)});
        s.push_back({"serve.errors", u64(sv.errors)});
        s.push_back({"serve.checksum", u64(sv.checksum)});
        s.push_back({"serve.latency_sum", u64(sv.latency.sum())});
        s.push_back({"serve.latency_max", u64(sv.latency.max())});
        for (int op = 0; op < 4; ++op) {
            s.push_back({"serve.op" + std::to_string(op),
                         u64(sv.opCounts[op])});
        }
    }
    return s;
}

/** What runSweep reports for one cell (its SweepPoint fields). */
Signature
signature(const SweepPoint &p)
{
    return {
        {"total_seconds", num(p.totalSeconds)},
        {"compute_seconds", num(p.computeSeconds)},
        {"hint_faults", u64(p.hintFaults)},
        {"promotions", u64(p.promotions)},
        {"demotions", u64(p.demotions)},
        {"exchanges", u64(p.exchanges)},
        {"migrations", u64(p.migrations)},
        {"thrash", u64(p.thrash)},
        {"migrate_fail", u64(p.migrateFail)},
    };
}

/** The SweepPoint fields of a composed cell, mapped as runSweep does. */
Signature
pointSignature(const RunResult &r)
{
    SweepPoint p;
    p.totalSeconds = r.totalSeconds;
    p.computeSeconds = r.computeSeconds;
    p.hintFaults = r.vmstat.numaHintFaults;
    p.promotions = r.vmstat.pgpromoteSuccess;
    p.demotions = r.vmstat.pgdemoteKswapd + r.vmstat.pgdemoteDirect;
    p.exchanges = r.vmstat.pgexchangeSuccess;
    p.migrations = r.vmstat.pgmigrateSuccess;
    p.thrash = r.vmstat.pgpromoteDemoted + r.vmstat.pgexchangeThrash;
    p.migrateFail = r.vmstat.pgmigrateFail;
    return signature(p);
}

/** "" when equal, else the first differing counter. */
std::string
difference(const Signature &a, const Signature &b)
{
    if (a.size() != b.size())
        return "counter sets differ in size";
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) {
            return a[i].first + " " + a[i].second + " vs " + b[i].first +
                   " " + b[i].second;
        }
    }
    return "";
}

// ---------------------------------------------------------------------
// The composed run: the calls runWorkload makes, one span each.

/** Counts every access the engine completes, by level. */
class CountingObserver : public AccessObserver
{
  public:
    void
    onAccess(const AccessRecord &r) override
    {
        ++levels[static_cast<int>(r.level)];
        tlbMisses += r.tlbMiss ? 1 : 0;
    }

    void
    onBatch(const AccessRecord *records, std::size_t count) override
    {
        for (std::size_t i = 0; i < count; ++i)
            onAccess(records[i]);
    }

    std::uint64_t levels[kNumMemLevels] = {};
    std::uint64_t tlbMisses = 0;
};

/** Order-independent digest, as the exp runner computes it. */
template <typename T>
std::uint64_t
digest(const std::vector<T> &values)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const T &v : values) {
        std::uint64_t bits = 0;
        static_assert(sizeof(T) <= sizeof(bits));
        std::memcpy(&bits, &v, sizeof(T));
        h += bits * 0x9e3779b97f4a7c15ULL;
    }
    return h;
}

/** BFS sources exactly as the exp runner draws them. */
std::vector<NodeId>
bfsSources(const SegmentedCsrView &g, int trials, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<NodeId> out;
    const auto n = static_cast<std::uint64_t>(g.numNodes());
    while (out.size() < static_cast<std::size_t>(trials)) {
        const auto s = static_cast<NodeId>(rng.nextBounded(n));
        if (g.rawDegree(s) > 0)
            out.push_back(s);
    }
    return out;
}

/**
 * One cell composed from the calls runWorkload makes on the registry
 * policy path (Engine, SegmentedCsrGraph::generate, the app kernel or
 * runServing), each inside a span. Fills the RunResult fields the
 * signature compares; @p op_sim receives the simulated seconds of each
 * graph operation (one BFS source, one PageRank or BC run).
 */
RunResult
composedCell(const RunConfig &config, Tracer &tracer,
             CountingObserver *counter, std::vector<double> *op_sim)
{
    auto cell = tracer.span("exp", "exp.cell");
    SystemConfig sys = config.sys;
    sys.autonumaEnabled = false;
    sys.tieringKernel = true;
    sys.policyName = config.policy;
    for (const std::string &assignment : config.tunables) {
        std::string err;
        if (!sys.policyTunables.parseAssignment(assignment, &err)) {
            std::cerr << "perfbench: bad tunable " << assignment << ": "
                      << err << "\n";
            std::exit(2);
        }
    }

    std::unique_ptr<Engine> eng;
    {
        auto s = tracer.span("sim", "sim.engine_init");
        eng = std::make_unique<Engine>(sys);
    }
    MmapTracker tracker;
    eng->kernel().setSyscallObserver(&tracker);
    PerfMemSampler sampler(config.sampler);
    if (config.sampling)
        eng->setObserver(&sampler);
    if (counter != nullptr)
        eng->addObserver(counter);
    SimHeap heap(*eng);

    const WorkloadSpec &w = config.workload;
    RunResult out;
    out.workloadName = w.name();
    if (isServingApp(w.app)) {
        auto s = tracer.span("serve", "serve.run");
        out.serving = runServing(*eng, heap, servingSpecFor(w));
        out.hasServing = true;
        out.outputChecksum = out.serving.checksum;
        out.loadSeconds = out.serving.prefillSeconds;
        out.iterationsTotal = out.serving.requests;
        out.iterationsAborted = out.serving.errors;
    } else {
        ThreadContext &t0 = eng->thread(0);
        SegmentedCsrGraph seg;
        {
            auto s = tracer.span("bigraph", "bigraph.materialize");
            seg = SegmentedCsrGraph::generate(*eng, heap, t0,
                                              bigraphSpec(w), w.name());
        }
        const SegmentedCsrView g = seg;
        out.loadSeconds = cyclesToSeconds(eng->globalTime());
        const auto timedOp = [&](auto &&kernel) {
            auto s = tracer.span("apps", "apps.kernel");
            const Cycles begin = eng->globalTime();
            kernel();
            op_sim->push_back(cyclesToSeconds(eng->globalTime() - begin));
            ++out.iterationsTotal;
        };
        switch (w.app) {
          case App::PR:
            timedOp([&] {
                out.outputChecksum =
                    digest(runPageRank(*eng, heap, g, w.trials).rank);
            });
            break;
          case App::BC:
            timedOp([&] {
                out.outputChecksum =
                    digest(runBc(*eng, heap, g, w.trials, w.seed).scores);
            });
            break;
          case App::BFS: {
            std::vector<NodeId> reached;
            for (const NodeId src : bfsSources(g, w.trials, w.seed)) {
                timedOp([&] {
                    reached.push_back(static_cast<NodeId>(
                        runBfs(*eng, heap, g, src).reached));
                });
            }
            out.outputChecksum = digest(reached);
            break;
          }
          default:
            std::cerr << "perfbench: no composed path for "
                      << w.name() << "\n";
            std::exit(2);
        }
        auto s = tracer.span("bigraph", "bigraph.free");
        seg.free(heap, t0);
    }

    out.totalSeconds = cyclesToSeconds(eng->globalTime());
    out.computeSeconds = out.totalSeconds - out.loadSeconds;
    out.samples = sampler.takeSamples();
    out.vmstat = eng->kernel().vmstat();
    if (eng->autonuma()) {
        out.numaStats = eng->autonuma()->stats();
        out.hasAutoNuma = true;
    }
    for (int l = 0; l < kNumMemLevels; ++l) {
        out.levelCounts[l] = eng->levelCount(static_cast<MemLevel>(l));
        out.totalAccesses += out.levelCounts[l];
    }
    out.copyBytes = eng->kernel().copyEngine().bytesCopied();
    out.copyChargedCycles = eng->kernel().copyEngine().chargedCycles();
    return out;
}

/** Every cell of the workload, composed. */
std::vector<RunResult>
composedRun(const BenchWorkload &bw, Tracer &tracer,
            CountingObserver *counter, std::vector<double> *op_sim)
{
    std::vector<RunResult> cells;
    if (!isSweep(bw)) {
        cells.push_back(
            composedCell(cellConfig(bw, ""), tracer, counter, op_sim));
        return cells;
    }
    for (const std::string &scan : bw.scanPeriods) {
        cells.push_back(
            composedCell(cellConfig(bw, scan), tracer, counter, op_sim));
    }
    return cells;
}

// ---------------------------------------------------------------------
// Set-up, the measured call, and the oracles.

/** What set-up produced, for the oracles and per-layer metrics. */
struct SetupOutcome
{
    std::vector<double> seconds;     ///< One entry per repetition.
    double spillMiB = 0.0;           ///< Bigraph spill bytes on disk.
    std::uint64_t streamOps[4] = {}; ///< KV: generated ops by ServeOp.
};

/**
 * The workload's host set-up before the first simulated access, repeated
 * setupReps times: a full out-of-core spill (prepareBigraph after
 * dropping the artifact cache) for graph inputs, or generating the
 * request stream that runServing replays for kv. The artifacts of the
 * last repetition stay cached for the measured calls.
 */
SetupOutcome
runSetup(const BenchWorkload &bw, Tracer &tracer)
{
    SetupOutcome out;
    const WorkloadSpec &w = bw.spec;
    for (int rep = 0; rep < bw.setupReps; ++rep) {
        if (isServingApp(w.app)) {
            auto s = tracer.span("serve", "serve.generate");
            const std::vector<ServeRequest> stream =
                generateAll(servingSpecFor(w).gen);
            out.seconds.push_back(s.elapsed());
            std::fill(std::begin(out.streamOps), std::end(out.streamOps),
                      0);
            for (const ServeRequest &r : stream)
                ++out.streamOps[static_cast<int>(r.op)];
        } else {
            clearBigraphArtifacts();
            auto s = tracer.span("bigraph", "bigraph.prepare");
            const BigraphArtifacts &art = prepareBigraph(bigraphSpec(w));
            out.seconds.push_back(s.elapsed());
            std::uint64_t bytes = 0;
            for (const std::string &f : art.segFiles)
                bytes += std::filesystem::file_size(f);
            out.spillMiB = static_cast<double>(bytes) / kMiB;
        }
    }
    return out;
}

/**
 * One measured call: runWorkload, or runSweep for the sweep. Only the
 * signatures are kept, so host memory does not grow with the number of
 * calls.
 */
struct Measured
{
    double seconds = 0.0;
    std::vector<Signature> cells;  ///< Per cell, comparable across runs.
};

Measured
measuredCall(const BenchWorkload &bw, Tracer &tracer)
{
    Measured m;
    if (isSweep(bw)) {
        const SweepSpec spec = sweepSpec(bw);
        auto s = tracer.span("exp", "exp.run_sweep");
        const std::vector<SweepPoint> points = runSweep(spec);
        m.seconds = s.elapsed();
        for (const SweepPoint &p : points)
            m.cells.push_back(signature(p));
    } else {
        const RunConfig rc = cellConfig(bw, "");
        auto s = tracer.span("exp", "exp.run_workload");
        const RunResult r = runWorkload(rc);
        m.seconds = s.elapsed();
        m.cells.push_back(signature(r));
    }
    return m;
}

/** Operations one measured call attempts. */
std::uint64_t
opsPerCall(const BenchWorkload &bw, const std::vector<RunResult> &cells)
{
    if (isSweep(bw))
        return cells.size();
    return cells.front().iterationsTotal;
}

/**
 * Output oracles on a composed run: recorded checksum at the default
 * seed, no aborted operation, at least one page migrated per cell,
 * distinct sweep cells, and the KV op mix equal to the generated
 * stream. @return false when the run's outputs are wrong.
 */
bool
checkOutputs(const BenchWorkload &bw, const std::vector<RunResult> &cells,
             const SetupOutcome &setup, std::uint64_t seed, Verdict *v)
{
    bool ok = true;
    for (const RunResult &r : cells) {
        if (seed == kDefaultSeed && r.outputChecksum != bw.defaultChecksum) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "checksum %016" PRIx64 " != recorded %016" PRIx64,
                          r.outputChecksum, bw.defaultChecksum);
            v->fail(buf);
            ok = false;
        }
        if (r.iterationsAborted != 0) {
            v->fail("aborted operations");
            ok = false;
        }
        const VmStat &vs = r.vmstat;
        if (vs.pgpromoteSuccess + vs.pgdemoteKswapd + vs.pgdemoteDirect ==
            0) {
            v->fail("a cell migrated no page");
            ok = false;
        }
        if (r.outputChecksum != cells.front().outputChecksum) {
            v->fail("cells disagree on the app checksum");
            ok = false;
        }
    }
    if (isSweep(bw) && cells.size() > 1) {
        bool all_same = true;
        for (const RunResult &r : cells)
            all_same = all_same && r.totalSeconds == cells[0].totalSeconds;
        if (all_same) {
            v->fail("every sweep cell reports the same sim_s");
            ok = false;
        }
    }
    const RunResult &r = cells.front();
    if (r.hasServing) {
        for (int op = 0; op < 4; ++op) {
            if (r.serving.opCounts[op] != setup.streamOps[op]) {
                v->fail("served op mix differs from the request stream");
                ok = false;
                break;
            }
        }
    }
    return ok;
}

/** Compare a measured call's cells with a composed run's. */
bool
agrees(const Measured &m, const BenchWorkload &bw,
       const std::vector<RunResult> &cells, const char *what, Verdict *v)
{
    if (m.cells.size() != cells.size()) {
        v->fail(std::string(what) + ": cell count differs");
        return false;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Signature mine = isSweep(bw) ? pointSignature(cells[i])
                                           : signature(cells[i]);
        const std::string diff = difference(m.cells[i], mine);
        if (!diff.empty()) {
            v->fail(std::string(what) + " differs from the measured call: " +
                    diff);
            return false;
        }
    }
    return true;
}

/** Simulated end-to-end metrics of a (deterministic) composed run. */
void
addSimMetrics(const std::vector<RunResult> &cells,
              const std::vector<double> &op_sim, Metrics *out)
{
    double sim_s = 0.0;
    std::uint64_t dram = 0;
    std::uint64_t nvm = 0;
    for (const RunResult &r : cells) {
        sim_s += r.totalSeconds;
        dram += r.levelCounts[static_cast<int>(MemLevel::DRAM)];
        nvm += r.levelCounts[static_cast<int>(MemLevel::NVM)];
    }
    out->add("sim_s", sim_s, "s");
    out->add("dram_hit_frac",
             ratio(static_cast<double>(dram), static_cast<double>(dram + nvm)),
             "frac");
    double p50 = 0.0;
    double p999 = 0.0;
    const RunResult &r = cells.front();
    if (r.hasServing) {
        p50 = r.serving.latency.percentile(0.5) * kUsPerCycle;
        p999 = r.serving.latency.percentile(0.999) * kUsPerCycle;
    } else {
        p50 = quantile(op_sim, 0.5) * 1e6;
        p999 = quantile(op_sim, 0.999) * 1e6;
    }
    out->add("sim_p50_us", p50, "us");
    out->add("sim_p999_us", p999, "us");
}

std::uint64_t
totalAccesses(const std::vector<RunResult> &cells)
{
    std::uint64_t n = 0;
    for (const RunResult &r : cells)
        n += r.totalAccesses;
    return n;
}

// ---------------------------------------------------------------------
// The two modes.

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string outDir = ".";
};

/** End-to-end metrics with tracing off. */
Metrics
untracedMode(const BenchWorkload &bw, const Options &opt, Verdict *v)
{
    Tracer off(false);
    SpeedProbe probe;
    probe.sample();
    const SetupOutcome setup = runSetup(bw, off);
    probe.sample();

    std::vector<double> run_s;
    std::vector<Measured> runs;
    const Tracer::Clock::time_point start = Tracer::Clock::now();
    while (runs.size() < static_cast<std::size_t>(kMinRuns) ||
           secondsSince(start) < opt.seconds) {
        runs.push_back(measuredCall(bw, off));
        run_s.push_back(runs.back().seconds);
        probe.sample();
        std::cerr << "perfbench: " << bw.name << " run "
                  << runs.size() << " " << run_s.back() << " s\n";
    }

    // One composed run: the oracles' outputs, the per-op simulated
    // times, and proof that it matches what runWorkload simulated.
    std::vector<double> op_sim;
    const std::vector<RunResult> cells =
        composedRun(bw, off, nullptr, &op_sim);
    const bool outputs_ok = checkOutputs(bw, cells, setup, opt.seed, v);
    const std::uint64_t ops = opsPerCall(bw, cells);
    for (const Measured &m : runs) {
        v->attempted += ops;
        if (!outputs_ok || !agrees(m, bw, cells, "composed run", v))
            v->failed += ops;
    }

    std::cerr << "perfbench: raw setup " << median(setup.seconds)
              << " s, raw run " << median(run_s) << " s, probe "
              << probe.seconds() << " s\n";
    Metrics out;
    out.add("setup_s", median(setup.seconds) * probe.factor(), "s");
    const double run = median(run_s) * probe.factor();
    out.add("run_s", run, "s");
    out.add("maccess_per_s",
            static_cast<double>(totalAccesses(cells)) / run / 1e6,
            "Macc/s");
    out.add("peak_rss_mb", peakRssMiB(), "MiB");
    addSimMetrics(cells, op_sim, &out);
    return out;
}

/**
 * Per-layer metrics of one traced pass (spans from @p first on), with
 * raw host times. Counts are summed over the pass's cells.
 */
Metrics
passMetrics(const BenchWorkload &bw, const Tracer &tr, std::size_t first,
            const std::vector<RunResult> &cells,
            const CountingObserver &counter)
{
    const auto spans = [&](const char *name) {
        return tr.durations(name, first);
    };
    const auto total = [&](auto field) {
        double sum = 0.0;
        for (const RunResult &r : cells)
            sum += static_cast<double>(field(r));
        return sum;
    };
    const auto level = [](MemLevel l) {
        return [l](const RunResult &r) {
            return r.levelCounts[static_cast<int>(l)];
        };
    };
    const std::vector<double> cell_s = spans("exp.cell");
    const std::vector<double> trial_s = spans("apps.kernel");
    const double accesses = total(
        [](const RunResult &r) { return r.totalAccesses; });
    const double promote = total(
        [](const RunResult &r) { return r.vmstat.pgpromoteSuccess; });
    const double hint_nvm = total(
        [](const RunResult &r) { return r.numaStats.hintFaultsNvm; });
    const ServingReport &sv = cells.front().serving;  // Empty off kv.
    const double slo =
        isServingApp(bw.spec.app)
            ? sv.sloViolationFraction(servingSpecFor(bw.spec).sloCycles())
            : 0.0;

    Metrics m;
    m.add("bigraph.materialize_s", sumOf(spans("bigraph.materialize")),
          "s");
    m.add("sim.engine_init_s", sumOf(spans("sim.engine_init")), "s");
    m.add("exp.cells", cell_s.size(), "count");
    m.add("exp.cell_p50_s", median(cell_s), "s");
    m.add("exp.cell_max_s", maxOf(cell_s), "s");
    m.add("sim.accesses", accesses, "count");
    m.add("sim.host_ns_per_access", ratio(sumOf(cell_s) * 1e9, accesses),
          "ns");
    m.add("apps.kernel_s", sumOf(trial_s), "s");
    m.add("apps.trials", trial_s.size(), "count");
    m.add("apps.trial_p50_s", median(trial_s), "s");
    m.add("apps.trial_max_s", maxOf(trial_s), "s");
    m.add("cache.l1_hits", counter.levels[0], "count");
    m.add("cache.lfb_hits", counter.levels[1], "count");
    m.add("cache.l2_hits", counter.levels[2], "count");
    m.add("cache.l3_hits", counter.levels[3], "count");
    m.add("cache.tlb_misses", counter.tlbMisses, "count");
    m.add("mem.dram_accesses", total(level(MemLevel::DRAM)), "count");
    m.add("mem.nvm_accesses", total(level(MemLevel::NVM)), "count");
    m.add("mem.copy_mb",
          total([](const RunResult &r) { return r.copyBytes; }) / kMiB,
          "MiB");
    m.add("os.pgfault",
          total([](const RunResult &r) { return r.vmstat.pgfault; }),
          "count");
    m.add("os.hint_faults",
          total([](const RunResult &r) { return r.vmstat.numaHintFaults; }),
          "count");
    m.add("os.pgpromote", promote, "count");
    m.add("os.pgdemote_kswapd",
          total([](const RunResult &r) { return r.vmstat.pgdemoteKswapd; }),
          "count");
    m.add("os.pgdemote_direct",
          total([](const RunResult &r) { return r.vmstat.pgdemoteDirect; }),
          "count");
    m.add("os.pgmigrate_fail",
          total([](const RunResult &r) { return r.vmstat.pgmigrateFail; }),
          "count");
    m.add("autonuma.pages_scanned",
          total([](const RunResult &r) { return r.numaStats.pagesScanned; }),
          "count");
    m.add("autonuma.rejected_rate_limit",
          total([](const RunResult &r) {
              return r.numaStats.rejectedByRateLimit;
          }),
          "count");
    m.add("autonuma.promote_yield", ratio(promote, hint_nvm), "frac");
    m.add("profile.samples",
          total([](const RunResult &r) { return r.samples.size(); }),
          "count");
    m.add("serve.run_s", sumOf(spans("serve.run")), "s");
    m.add("serve.requests", sv.requests, "count");
    m.add("serve.p50_us", sv.latency.percentile(0.5) * kUsPerCycle, "us");
    m.add("serve.p99_us", sv.latency.percentile(0.99) * kUsPerCycle, "us");
    m.add("serve.p999_us", sv.latency.percentile(0.999) * kUsPerCycle,
          "us");
    m.add("serve.slo_violation_frac", slo, "frac");
    return m;
}

/** Read a whole file ("" when missing). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Per-layer metrics: alternate an untraced measured call with a traced
 * composed run until --seconds have passed (at least one pair), check
 * that every traced pass simulated exactly what runWorkload did, and
 * report per-layer medians over the passes. Writes the trace files.
 */
Metrics
tracedMode(const BenchWorkload &bw, const Options &opt, Verdict *v)
{
    Tracer tr(true);
    SpeedProbe probe;
    probe.sample();
    const SetupOutcome setup = runSetup(bw, tr);
    probe.sample();

    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::vector<Metrics> passes;
    const Tracer::Clock::time_point start = Tracer::Clock::now();
    do {
        const Measured m = measuredCall(bw, tr);
        untraced_s.push_back(m.seconds);

        const std::size_t first = tr.spans().size();
        CountingObserver counter;
        std::vector<double> op_sim;
        std::vector<RunResult> cells;
        {
            auto s = tr.span("bench", "bench.traced_run");
            cells = composedRun(bw, tr, &counter, &op_sim);
            traced_s.push_back(s.elapsed());
        }
        const bool outputs_ok = checkOutputs(bw, cells, setup, opt.seed, v);
        bool same = agrees(m, bw, cells, "traced run", v);
        std::uint64_t seen = 0;
        for (const std::uint64_t n : counter.levels)
            seen += n;
        if (seen != totalAccesses(cells)) {
            v->fail("the counting observer missed accesses");
            same = false;
        }
        const std::uint64_t ops = opsPerCall(bw, cells);
        v->attempted += 2 * ops;
        if (!outputs_ok || !same)
            v->failed += 2 * ops;

        passes.push_back(passMetrics(bw, tr, first, cells, counter));
        probe.sample();
        std::cerr << "perfbench: " << bw.name << " pass "
                  << untraced_s.size() << " untraced " << untraced_s.back()
                  << " s, traced " << traced_s.back() << " s\n";
    } while (secondsSince(start) < opt.seconds);

    // Medians over the passes. Host times ("s", "ns") are normalized like
    // the end-to-end ones; "us" metrics are simulated, counts exact.
    const double norm = probe.factor();
    Metrics out;
    out.add("host.probe_s", probe.seconds(), "s");
    out.add("bigraph.prepare_s",
            isServingApp(bw.spec.app) ? 0.0 : median(setup.seconds) * norm,
            "s");
    out.add("bigraph.spill_mb", setup.spillMiB, "MiB");
    for (std::size_t i = 0; i < passes.front().items.size(); ++i) {
        const Metric &m = passes.front().items[i];
        std::vector<double> values;
        for (const Metrics &pass : passes)
            values.push_back(pass.items[i].value);
        const bool host_time = m.unit == "s" || m.unit == "ns";
        out.add(m.name, median(values) * (host_time ? norm : 1.0), m.unit);
    }
    out.add("trace.overhead_frac",
            median(traced_s) / median(untraced_s) - 1.0, "frac");

    // The trace files: Chrome trace events and the self-time table.
    std::filesystem::create_directories(opt.outDir);
    std::string prov = slurp(opt.outDir + "/provenance.json");
    if (prov.find('{') == std::string::npos)
        prov = "{}";
    std::ofstream json(opt.outDir + "/trace.json");
    tr.writeChromeJson(json, prov);
    std::ofstream tsv(opt.outDir + "/self_time.tsv");
    tsv << "layer\tspan\tcount\ttotal_s\tself_s\n";
    std::cerr << "perfbench: self time by span (" << untraced_s.size()
              << " traced passes)\n";
    for (const perfbench::SelfTimeRow &r : tr.selfTimes()) {
        tsv << r.layer << "\t" << r.name << "\t" << r.count << "\t"
            << num(r.totalSeconds) << "\t" << num(r.selfSeconds) << "\n";
        char line[160];
        std::snprintf(line, sizeof(line), "  %-24s %6" PRIu64
                      " x  total %9.4f s  self %9.4f s\n",
                      r.name.c_str(), r.count, r.totalSeconds,
                      r.selfSeconds);
        std::cerr << line;
    }
    return out;
}

void
printResult(const Verdict &v, const Metrics &metrics)
{
    std::cout << "{\"correct\": "
              << (v.problems.empty() && v.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << v.attempted
              << ", \"failed\": " << v.failed << ", \"metrics\": {";
    const char *sep = "";
    for (const Metric &m : metrics.items) {
        std::cout << sep << "\"" << m.name << "\": {\"value\": "
                  << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    }
    std::cout << "}}" << std::endl;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "memtier_perfbench: " << why << "\n"
              << "usage: memtier_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] [--out DIR]\n"
              << "workloads:";
    for (const BenchWorkload &bw : workloadTable(false))
        std::cerr << " " << bw.name;
    std::cerr << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string val = argv[++i];
        if (a == "--workload")
            o.workload = val;
        else if (a == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(val.c_str());
        else if (a == "--trace")
            o.trace = val == "1";
        else if (a == "--size" && (val == "full" || val == "tiny"))
            o.tiny = val == "tiny";
        else if (a == "--out")
            o.outDir = val;
        else
            usage("bad argument " + a + " " + val);
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::vector<BenchWorkload> table = workloadTable(opt.tiny);
    const auto it = std::find_if(
        table.begin(), table.end(),
        [&](const BenchWorkload &bw) { return bw.name == opt.workload; });
    if (it == table.end())
        usage("unknown workload " + opt.workload);
    BenchWorkload bw = *it;
    bw.spec.seed = workloadSeed(opt.seed);

    Verdict verdict;
    const Metrics metrics = opt.trace ? tracedMode(bw, opt, &verdict)
                                      : untracedMode(bw, opt, &verdict);
    clearBigraphArtifacts();  // Deletes the spill files.
    printResult(verdict, metrics);
    return 0;
}
