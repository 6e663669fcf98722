#include "exp/workloads.h"

#include <charconv>
#include <sstream>
#include <system_error>

#include "base/logging.h"

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

namespace {

App
parseApp(const std::string &name)
{
    for (const App app : {App::BC, App::BFS, App::CC, App::PR, App::SSSP,
                          App::KV, App::LSM}) {
        if (name == appName(app))
            return app;
    }
    fatal("unknown app '%s' (expected bc, bfs, cc, pr, sssp, kv or lsm)",
          name.c_str());
}

}  // namespace

GraphKind
parseGraphKind(const std::string &name)
{
    for (const GraphKind kind : {GraphKind::Kron, GraphKind::Urand}) {
        if (name == graphKindName(kind))
            return kind;
    }
    fatal("unknown graph kind '%s' (expected kron or urand)",
          name.c_str());
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::istringstream in(list);
    for (std::string item; std::getline(in, item, ',');) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

namespace {

template <typename T>
T
parseNumber(const std::string &text, const char *what)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, err] = std::from_chars(text.data(), end, value);
    if (err == std::errc::result_out_of_range)
        fatal("%s: '%s' is out of range", what, text.c_str());
    if (err != std::errc{})
        fatal("%s: '%s' is not a number", what, text.c_str());
    if (stop != end)
        fatal("%s: '%s' has trailing characters", what, text.c_str());
    return value;
}

}  // namespace

int
parseInt(const std::string &text, const char *what)
{
    return parseNumber<int>(text, what);
}

std::uint64_t
parseU64(const std::string &text, const char *what)
{
    return parseNumber<std::uint64_t>(text, what);
}

double
parseDouble(const std::string &text, const char *what)
{
    return parseNumber<double>(text, what);
}

WorkloadSpec
parseWorkload(const std::string &name)
{
    const std::size_t colon = name.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= name.size()) {
        fatal("malformed workload '%s' (expected APP:KIND, e.g. "
              "pr:kron)",
              name.c_str());
    }
    WorkloadSpec w;
    w.app = parseApp(name.substr(0, colon));
    w.kind = parseGraphKind(name.substr(colon + 1));
    return w;
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

}  // namespace memtier
