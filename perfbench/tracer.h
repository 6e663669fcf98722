/**
 * @file
 * Host-time spans for the benchmark's traced run: RAII scopes around the
 * calls into each memtier layer, kept in memory and written out at the
 * end as Chrome trace-event JSON plus a self-time table (a span's
 * duration minus the time its direct children cover).
 */

#ifndef MEMTIER_PERFBENCH_TRACER_H_
#define MEMTIER_PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One closed (or still open) host-time interval. */
struct Span
{
    std::string layer;   ///< memtier layer the call enters ("bigraph").
    std::string name;    ///< Call name ("bigraph.materialize").
    std::int64_t startNs = 0;
    std::int64_t endNs = -1;  ///< -1 while open.
    int parent = -1;          ///< Index of the enclosing span.

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

/** Self-time aggregate of every span sharing one name. */
struct SelfTimeRow
{
    std::string layer;
    std::string name;
    std::uint64_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
};

/**
 * Span recorder. A disabled tracer records nothing, so the same code
 * path serves the untraced verification run and the traced run.
 */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Closes its span when it leaves scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, int index) : tracer_(tracer), index_(index) {}
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope() { tracer_.close(index_); }

        /** Host seconds since the scope opened (valid while disabled). */
        double
        elapsed() const
        {
            return std::chrono::duration<double>(Clock::now() - start_)
                .count();
        }

      private:
        Tracer &tracer_;
        int index_;
        Clock::time_point start_ = Clock::now();
    };

    /** Open a span nested in the innermost open one. */
    [[nodiscard]] Scope
    span(std::string layer, std::string name)
    {
        if (!enabled_)
            return Scope(*this, -1);
        Span s;
        s.layer = std::move(layer);
        s.name = std::move(name);
        s.startNs = nowNs();
        s.parent = open_.empty() ? -1 : open_.back();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return Scope(*this, open_.back());
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Closed spans named @p name from index @p first on. */
    std::vector<double>
    durations(const std::string &name, std::size_t first = 0) const
    {
        std::vector<double> out;
        for (std::size_t i = first; i < spans_.size(); ++i) {
            if (spans_[i].name == name && spans_[i].endNs >= 0)
                out.push_back(spans_[i].seconds());
        }
        return out;
    }

    /** Per-name totals and self times, in first-seen order. */
    std::vector<SelfTimeRow>
    selfTimes() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0 && s.endNs >= 0)
                child[static_cast<std::size_t>(s.parent)] += s.seconds();
        }
        std::vector<SelfTimeRow> rows;
        std::map<std::string, std::size_t> row_of;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.endNs < 0)
                continue;
            auto [it, fresh] = row_of.emplace(s.name, rows.size());
            if (fresh)
                rows.push_back({s.layer, s.name, 0, 0.0, 0.0});
            SelfTimeRow &r = rows[it->second];
            ++r.count;
            r.totalSeconds += s.seconds();
            r.selfSeconds += s.seconds() - child[i];
        }
        return rows;
    }

    /**
     * Chrome trace-event JSON ("X" complete events, microsecond
     * timestamps from the first span); @p other_data_json is embedded
     * verbatim as the top-level "otherData" object.
     */
    void
    writeChromeJson(std::ostream &out,
                    const std::string &other_data_json) const
    {
        const std::int64_t t0 = spans_.empty() ? 0 : spans_[0].startNs;
        out << "{\"displayTimeUnit\":\"ms\",\"otherData\":"
            << other_data_json << ",\"traceEvents\":[\n"
            << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":1,\"args\":{\"name\":\"memtier_perfbench\"}}";
        char buf[64];
        for (const Span &s : spans_) {
            if (s.endNs < 0)
                continue;
            out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\""
                << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
            std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f}",
                          (s.startNs - t0) * 1e-3,
                          (s.endNs - s.startNs) * 1e-3);
            out << buf;
        }
        out << "\n]}\n";
    }

  private:
    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    void
    close(int index)
    {
        if (index < 0)
            return;
        spans_[static_cast<std::size_t>(index)].endNs = nowNs();
        open_.pop_back();
    }

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

}  // namespace perfbench

#endif  // MEMTIER_PERFBENCH_TRACER_H_
