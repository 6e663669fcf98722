#include "exp/sweep.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include <sched.h>

#include "base/csv.h"

namespace memtier {

std::vector<std::vector<std::pair<std::string, std::string>>>
sweepCombinations(const std::vector<SweepAxis> &axes)
{
    std::vector<std::vector<std::pair<std::string, std::string>>> combos;
    combos.emplace_back();  // The empty assignment.
    for (const SweepAxis &axis : axes) {
        std::vector<std::vector<std::pair<std::string, std::string>>>
            next;
        next.reserve(combos.size() * axis.values.size());
        for (const auto &combo : combos) {
            for (const std::string &value : axis.values) {
                auto extended = combo;
                extended.emplace_back(axis.key, value);
                next.push_back(std::move(extended));
            }
        }
        combos = std::move(next);
    }
    return combos;
}

namespace {

using Combo = std::vector<std::pair<std::string, std::string>>;

/** The run of one cell -- @p w under tunable assignment @p combo. */
RunConfig
cellConfig(const SweepSpec &spec, const Combo &combo,
           const WorkloadSpec &w)
{
    RunConfig rc;
    rc.workload = w;
    rc.sys = spec.sys;
    rc.sampling = spec.sampling;
    rc.policy = spec.policy;
    for (const auto &[key, value] : combo)
        rc.tunables.push_back(key + "=" + value);
    return rc;
}

/** Run one cell -- @p w under tunable assignment @p combo. */
SweepPoint
runCell(const SweepSpec &spec, const Combo &combo, const WorkloadSpec &w)
{
    const RunResult r = runWorkload(cellConfig(spec, combo, w));

    SweepPoint p;
    p.workload = w.name();
    p.policy = spec.policy;
    p.tunables = combo;
    for (const auto &[key, value] : r.effectiveTunables) {
        if (!p.effectiveTunables.empty())
            p.effectiveTunables += ";";
        p.effectiveTunables += key + "=" + value;
    }
    p.totalSeconds = r.totalSeconds;
    p.computeSeconds = r.computeSeconds;
    p.hintFaults = r.vmstat.numaHintFaults;
    p.promotions = r.vmstat.pgpromoteSuccess;
    p.demotions = r.vmstat.pgdemoteKswapd + r.vmstat.pgdemoteDirect;
    p.exchanges = r.vmstat.pgexchangeSuccess;
    p.migrations = r.vmstat.pgmigrateSuccess;
    p.thrash = r.vmstat.pgpromoteDemoted + r.vmstat.pgexchangeThrash;
    p.migrateFail = r.vmstat.pgmigrateFail;
    p.promoteRetry = r.vmstat.promoteRetry;
    p.allocFail = r.vmstat.pgallocFail;
    p.diskReadRetry = r.vmstat.diskReadRetry;
    p.breakerTrips = r.vmstat.breakerTrips;
    return p;
}

}  // namespace

unsigned
affinityCpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    // More CPUs than a cpu_set_t holds: fall back to the online count.
    return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<SweepPoint>
runSweep(const SweepSpec &spec, std::ostream *progress)
{
    const std::vector<Combo> combos = sweepCombinations(spec.axes);
    const std::size_t per_combo = spec.workloads.size();
    const std::size_t cells = combos.size() * per_combo;
    // A configuration error fatal()s here, on the caller's thread,
    // before any worker exists -- not in a cell while others run.
    for (const Combo &combo : combos) {
        for (const WorkloadSpec &w : spec.workloads)
            checkRunConfig(cellConfig(spec, combo, w));
    }

    std::vector<SweepPoint> points(cells);
    std::vector<std::exception_ptr> errors(cells);

    // Guards the claim cursor, the stop flag and the progress stream.
    std::mutex mu;
    std::size_t next = 0;
    bool failed = false;
    const auto worker = [&] {
        for (;;) {
            std::size_t i;
            {
                const std::lock_guard<std::mutex> lock(mu);
                if (failed || next == cells)
                    return;
                i = next++;
                if (progress != nullptr) {
                    *progress << "sweep: " << spec.policy << " "
                              << spec.workloads[i % per_combo].name();
                    for (const auto &[key, value] : combos[i / per_combo])
                        *progress << " " << key << "=" << value;
                    *progress << "...\n";
                }
            }
            try {
                points[i] = runCell(spec, combos[i / per_combo],
                                    spec.workloads[i % per_combo]);
            } catch (...) {
                errors[i] = std::current_exception();
                const std::lock_guard<std::mutex> lock(mu);
                failed = true;
            }
        }
    };

    const std::size_t workers = std::min<std::size_t>(
        spec.jobs == 0 ? affinityCpuCount() : spec.jobs, cells);
    std::vector<std::thread> pool;
    for (std::size_t k = 1; k < workers; ++k) {
        try {
            pool.emplace_back(worker);
        } catch (const std::system_error &) {
            break;  // No thread to spare: run on the ones we have.
        }
    }
    worker();  // The caller's thread is a worker too.
    for (std::thread &th : pool)
        th.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return points;
}

void
writeSweepCsv(const SweepSpec &spec,
              const std::vector<SweepPoint> &points, std::ostream &out)
{
    CsvWriter csv(out);
    std::vector<std::string> columns = {"workload", "policy", "thp"};
    for (const SweepAxis &axis : spec.axes)
        columns.push_back(axis.key);
    for (const char *metric :
         {"total_seconds", "compute_seconds", "hint_faults",
          "promotions", "demotions", "exchanges", "migrations",
          "thrash", "migrate_fail", "promote_retry", "alloc_fail",
          "disk_read_retry", "breaker_trips"}) {
        columns.push_back(metric);
    }
    columns.push_back("effective_tunables");
    csv.header(columns);

    const std::string thp = spec.sys.thp.enabled ? "on" : "off";
    for (const SweepPoint &p : points) {
        csv.cell(p.workload).cell(p.policy).cell(thp);
        for (const auto &[key, value] : p.tunables) {
            (void)key;
            csv.cell(value);
        }
        csv.cell(p.totalSeconds)
            .cell(p.computeSeconds)
            .cell(p.hintFaults)
            .cell(p.promotions)
            .cell(p.demotions)
            .cell(p.exchanges)
            .cell(p.migrations)
            .cell(p.thrash)
            .cell(p.migrateFail)
            .cell(p.promoteRetry)
            .cell(p.allocFail)
            .cell(p.diskReadRetry)
            .cell(p.breakerTrips)
            .cell(p.effectiveTunables);
        csv.endRow();
    }
}

}  // namespace memtier
