#include "exp/workloads.h"

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

}  // namespace memtier
