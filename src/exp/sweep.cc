#include "exp/sweep.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "base/affinity.h"
#include "exp/record.h"

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

/** The point of one cell -- @p w under @p combo, which gave @p r. */
SweepPoint
sweepPoint(const SweepSpec &spec, const Combo &combo,
           const WorkloadSpec &w, const RunResult &r)
{
    SweepPoint p;
    p.workload = w.name();
    p.policy = spec.policy;
    p.tunables = combo;
    p.effectiveTunables = joinedTunables(r);
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

std::string
joinedTunables(const RunResult &r)
{
    std::string out;
    for (const auto &[key, value] : r.effectiveTunables) {
        if (!out.empty())
            out += ";";
        out += key + "=" + value;
    }
    return out;
}

void
runCells(const std::vector<GridCell> &cells, unsigned jobs,
         std::ostream *progress,
         const std::function<void(std::size_t, const RunResult &)> &finish)
{
    // A configuration error fatal()s here, on the caller's thread,
    // before any worker exists -- not in a cell while others run.
    for (const GridCell &cell : cells)
        checkRunConfig(cell.config);

    std::vector<std::exception_ptr> errors(cells.size());
    // Guards the claim cursor, the stop flag and the progress stream.
    std::mutex mu;
    std::size_t next = 0;
    bool failed = false;
    const auto worker = [&] {
        for (;;) {
            std::size_t i;
            {
                const std::lock_guard<std::mutex> lock(mu);
                if (failed || next == cells.size())
                    return;
                i = next++;
                if (progress != nullptr)
                    *progress << cells[i].progress << "\n";
            }
            try {
                finish(i, runWorkload(cells[i].config));
            } catch (...) {
                errors[i] = std::current_exception();
                const std::lock_guard<std::mutex> lock(mu);
                failed = true;
            }
        }
    };

    const std::size_t workers = std::min<std::size_t>(
        jobs == 0 ? affinityCpuCount() : jobs, cells.size());
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
}

std::vector<SweepPoint>
runSweep(const SweepSpec &spec, std::ostream *progress)
{
    const std::vector<Combo> combos = sweepCombinations(spec.axes);
    const std::size_t per_combo = spec.workloads.size();
    std::vector<GridCell> cells;
    for (const Combo &combo : combos) {
        for (const WorkloadSpec &w : spec.workloads) {
            GridCell cell;
            cell.config.workload = w;
            cell.config.sys = spec.sys;
            cell.config.sampling = spec.sampling;
            cell.config.policy = spec.policy;
            cell.progress = "sweep: " + spec.policy + " " + w.name();
            for (const auto &[key, value] : combo) {
                cell.config.tunables.push_back(key + "=" + value);
                cell.progress += " " + key + "=" + value;
            }
            cell.progress += "...";
            cells.push_back(std::move(cell));
        }
    }
    std::vector<SweepPoint> points(cells.size());
    runCells(cells, spec.jobs, progress,
             [&](std::size_t i, const RunResult &r) {
                 points[i] = sweepPoint(spec, combos[i / per_combo],
                                        spec.workloads[i % per_combo], r);
             });
    return points;
}

void
writeSweepCsv(const SweepSpec &spec,
              const std::vector<SweepPoint> &points, std::ostream &out)
{
    Record rec;
    for (const SweepPoint &p : points) {
        RecordRow row = {
            {"workload", p.workload},
            {"policy", p.policy},
            {"thp", std::string(spec.sys.thp.enabled ? "on" : "off")}};
        for (const auto &[key, value] : p.tunables)
            row.push_back({key, value});
        row.insert(row.end(), {{"total_seconds", p.totalSeconds},
                               {"compute_seconds", p.computeSeconds},
                               {"hint_faults", p.hintFaults},
                               {"promotions", p.promotions},
                               {"demotions", p.demotions},
                               {"exchanges", p.exchanges},
                               {"migrations", p.migrations},
                               {"thrash", p.thrash},
                               {"migrate_fail", p.migrateFail},
                               {"promote_retry", p.promoteRetry},
                               {"alloc_fail", p.allocFail},
                               {"disk_read_retry", p.diskReadRetry},
                               {"breaker_trips", p.breakerTrips},
                               {"effective_tunables",
                                p.effectiveTunables}});
        rec.rows.push_back(std::move(row));
    }
    writeRecordCsv(rec, out);
}

}  // namespace memtier
