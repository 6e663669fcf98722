#include "exp/runner.h"

#include <algorithm>
#include <functional>

#include "apps/bc.h"
#include "apps/bfs.h"
#include "apps/cc.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "base/logging.h"
#include "bigraph/ooc_builder.h"
#include "bigraph/segmented_csr.h"
#include "core/object_planner.h"
#include "runtime/sim_heap.h"

namespace memtier {

namespace {

/** Order-independent 64-bit digest of a value sequence. */
template <typename T>
std::uint64_t
digest(const std::vector<T> &values)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const T &v : values) {
        std::uint64_t bits = 0;
        static_assert(sizeof(T) <= sizeof(bits));
        __builtin_memcpy(&bits, &v, sizeof(T));
        // Commutative combine so thread interleaving differences in
        // result *ordering* (there are none, but belt and braces) do
        // not matter; multiplication spreads the bits.
        h += bits * 0x9e3779b97f4a7c15ULL;
    }
    return h;
}

/** Deterministic BFS/SSSP sources: spread over the vertex range
 *  (untimed degree probes, identical draws on any segmentation). */
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

HierarchyCounters
hierarchyCounters(Engine &eng)
{
    HierarchyCounters c;
    const auto addLevel = [&c](int l, const SetAssocCache &cache) {
        c.hits[l] += cache.hits();
        c.misses[l] += cache.misses();
        c.writebacks[l] += cache.writebacks();
    };
    for (std::uint32_t i = 0; i < eng.threadCount(); ++i) {
        const ThreadContext &t = eng.thread(i);
        addLevel(0, t.l1);
        addLevel(1, t.l2);
        c.tlbL1Hits += t.tlb.l1Hits();
        c.tlbStlbHits += t.tlb.stlbHits();
        c.tlbMisses += t.tlb.misses();
        c.tlbHugeL1Hits += t.tlb.hugeL1Hits();
        c.tlbHugeStlbHits += t.tlb.hugeStlbHits();
        c.tlbHugeMisses += t.tlb.hugeMisses();
    }
    addLevel(2, eng.sharedL3());
    return c;
}

}  // namespace

/** Graph path of runWorkload: load, run, free. @return load seconds. */
static double runGraphWorkload(const RunConfig &config, Engine &eng,
                               SimHeap &heap, RunResult *out);

SystemConfig
runSystem(const RunConfig &config)
{
    SystemConfig sys = config.sys;
    sys.autonumaEnabled = false;
    sys.tieringKernel = !config.policy.empty();
    sys.policyName = config.policy;
    if (config.policy.empty() && !config.tunables.empty())
        fatal("tunables need a policy (got '%s')",
              config.tunables.front().c_str());
    for (const std::string &assignment : config.tunables) {
        std::string perr;
        if (!sys.policyTunables.parseAssignment(assignment, &perr)) {
            fatal("malformed tunable '%s': %s", assignment.c_str(),
                  perr.c_str());
        }
    }
    return sys;
}

/** fatal() unless @p w names at least one CSR segment. */
static void
checkSegments(const WorkloadSpec &w)
{
    if (!isServingApp(w.app) && w.segments < 1) {
        fatal("workload %s: segments must be >= 1 (got %d)",
              w.name().c_str(), w.segments);
    }
}

void
checkRunConfig(const RunConfig &config)
{
    checkSegments(config.workload);
    // Building the machine resolves the policy through the registry
    // and applies every tunable, fatal() on the first that fails.
    const Engine eng(runSystem(config));
}

RunResult
runWorkload(const RunConfig &config, const PlacementPlan *plan)
{
    Engine eng(runSystem(config));
    PerfMemSampler sampler(config.sampler);
    if (config.sampling)
        eng.addObserver(&sampler);
    RunResult out = runWorkloadOn(eng, config, plan);
    out.samples = sampler.takeSamples();
    return out;
}

RunResult
runWorkloadOn(Engine &eng, const RunConfig &config,
              const PlacementPlan *plan)
{
    checkSegments(config.workload);
    MmapTracker tracker;
    eng.kernel().setSyscallObserver(&tracker);

    SimHeap heap(eng);
    if (plan != nullptr)
        heap.setAdvisor(const_cast<PlacementPlan *>(plan));

    const WorkloadSpec &w = config.workload;
    RunResult out;
    out.workloadName = w.name();

    if (isServingApp(w.app)) {
        // Serving apps have no graph: the prefill is their
        // input-reading phase, the request replay their compute phase.
        out.serving = runServing(eng, heap, servingSpecFor(w));
        out.hasServing = true;
        out.outputChecksum = out.serving.checksum;
        out.loadSeconds = out.serving.prefillSeconds;
        out.iterationsTotal = out.serving.requests;
        out.iterationsAborted = out.serving.errors;
    } else {
        out.loadSeconds = runGraphWorkload(config, eng, heap, &out);
    }

    out.totalSeconds = cyclesToSeconds(eng.globalTime());
    out.computeSeconds = out.totalSeconds - out.loadSeconds;
    out.tracker = std::move(tracker);
    out.timeline = eng.timeline();
    out.vmstat = eng.kernel().vmstat();
    out.finalNumastat = eng.kernel().numastat();
    if (eng.autonuma()) {
        out.numaStats = eng.autonuma()->stats();
        out.hasAutoNuma = true;
    }
    if (eng.tieringPolicy()) {
        out.policyName = eng.tieringPolicy()->name();
        out.policyCounters = eng.tieringPolicy()->snapshotStats();
    }
    // Post-tuning values of every live tunable: what the machine
    // actually ran with at the end, not the defaults it started from.
    for (const std::string &key : eng.tunableRegistry().keys()) {
        out.effectiveTunables.emplace_back(
            key, eng.tunableRegistry().formatValue(key));
    }
    out.metricsEpochs = eng.metricsEpochs();
    for (int l = 0; l < kNumMemLevels; ++l) {
        out.levelCounts[l] = eng.levelCount(static_cast<MemLevel>(l));
        out.totalAccesses += out.levelCounts[l];
    }
    out.hierarchy = hierarchyCounters(eng);
    out.copyBytes = eng.kernel().copyEngine().bytesCopied();
    out.copyChargedCycles = eng.kernel().copyEngine().chargedCycles();
    if (eng.faultInjector())
        out.faultsInjected = eng.faultInjector()->totalInjected();
    if (eng.invariantChecker()) {
        // One final sweep so even short runs validate end-state.
        eng.invariantChecker()->checkNow(eng.globalTime());
        out.invariantChecksRun = eng.invariantChecker()->checksRun();
    }
    return out;
}

static double
runGraphWorkload(const RunConfig &config, Engine &eng, SimHeap &heap,
                 RunResult *out)
{
    const WorkloadSpec &w = config.workload;
    ThreadContext &t0 = eng.thread(0);

    // Input-reading phase (Figure 9's low-CPU prefix): the out-of-core
    // builder materializes the row-range segments one at a time, so no
    // whole host graph ever exists.
    BigraphSpec bs;
    bs.kind = w.kind == GraphKind::Kron ? BigraphKind::Kron
                                        : BigraphKind::Urand;
    bs.scale = w.scale;
    bs.degree = w.degree;
    bs.seed = w.seed;
    bs.segments = static_cast<std::uint32_t>(w.segments);
    bs.weighted = w.app == App::SSSP;
    SegmentedCsrGraph seg =
        SegmentedCsrGraph::generate(eng, heap, t0, bs, w.name());
    const SegmentedCsrView g = seg;
    const double load_sec = cyclesToSeconds(eng.globalTime());

    // A SIGBUS kill inside a trial aborts that trial (the paper app
    // would die; the harness restarts at the next source): its output
    // never reaches the checksum. Trials run back to back, so a delta
    // of the kernel's SIGBUS count across one pins the kill to it.
    const VmStat &vs = eng.kernel().vmstat();
    std::uint64_t sigbus_mark = vs.hwpoisonSigbus;
    const auto trialAborted = [&]() -> bool {
        const bool hit = vs.hwpoisonSigbus != sigbus_mark;
        sigbus_mark = vs.hwpoisonSigbus;
        if (hit)
            ++out->iterationsAborted;
        return hit;
    };
    std::uint64_t *checksum = &out->outputChecksum;

    switch (w.app) {
      case App::BC: {
        BcOutput bc = runBc(eng, heap, g, w.trials, w.seed);
        out->iterationsTotal = 1;  // One pass over all sampled sources.
        if (!trialAborted())
            *checksum = digest(bc.scores);
        break;
      }
      case App::BFS: {
        std::vector<NodeId> reached;
        for (const NodeId s : bfsSources(g, w.trials, w.seed)) {
            BfsOutput bfs = runBfs(eng, heap, g, s);
            ++out->iterationsTotal;
            if (!trialAborted())
                reached.push_back(static_cast<NodeId>(bfs.reached));
        }
        *checksum = digest(reached);
        break;
      }
      case App::CC: {
        std::vector<NodeId> comps;
        for (int i = 0; i < w.trials; ++i) {
            CcOutput cc = runCc(eng, heap, g);
            ++out->iterationsTotal;
            if (!trialAborted())
                comps.push_back(static_cast<NodeId>(cc.numComponents));
        }
        *checksum = digest(comps);
        break;
      }
      case App::PR: {
        PageRankOutput pr = runPageRank(eng, heap, g, w.trials);
        out->iterationsTotal = 1;  // One power iteration to convergence.
        if (!trialAborted())
            *checksum = digest(pr.rank);
        break;
      }
      case App::SSSP: {
        std::vector<std::int64_t> sums;
        for (const NodeId s : bfsSources(g, w.trials, w.seed)) {
            SsspOutput sp = runSssp(eng, heap, g, s);
            ++out->iterationsTotal;
            if (trialAborted())
                continue;
            std::int64_t sum = 0;
            for (const std::int64_t d : sp.dist)
                sum += d > 0 ? d : 0;
            sums.push_back(sum);
        }
        *checksum = digest(sums);
        break;
      }
      case App::KV:
      case App::LSM:
        MEMTIER_ASSERT(false, "serving apps do not run the graph path");
        break;
    }

    seg.free(heap, t0);
    return load_sec;
}

ServingSpec
servingSpecFor(const WorkloadSpec &w)
{
    MEMTIER_ASSERT(isServingApp(w.app), "not a serving workload");
    ServingSpec spec;
    spec.app = w.app == App::KV ? ServeApp::KV : ServeApp::LSM;
    spec.gen.numKeys = 1ULL << w.scale;
    spec.gen.requests = static_cast<std::uint64_t>(w.trials) * 5000;
    spec.gen.zipfTheta = w.kind == GraphKind::Kron ? 0.99 : 0.0;
    spec.gen.seed = w.seed;
    // Size the KV store to its keyspace: a half-full table plus one
    // arena slot per key (live keys never exceed the keyspace).
    spec.kv.tableSlots = spec.gen.numKeys * 2;
    spec.kv.arenaSlots = spec.gen.numKeys;
    // Scale the memtable with the keyspace so small workloads still
    // exercise rotation, flush and compaction (the default memtable
    // would swallow a 2^10 keyspace without ever filling).
    spec.lsm.memtableSlots =
        std::max<std::uint64_t>(256, spec.gen.numKeys / 8);
    return spec;
}

PlacementPlan
planFromProfile(const RunResult &profile,
                std::uint64_t dram_capacity_bytes, bool spill)
{
    const std::vector<SiteProfile> sites =
        siteProfiles(profile.samples, profile.tracker);
    PlannerConfig cfg;
    cfg.dramBudgetBytes = dramBudget(dram_capacity_bytes);
    cfg.allowSpill = spill;
    return buildPlan(sites, cfg).plan;
}

}  // namespace memtier
