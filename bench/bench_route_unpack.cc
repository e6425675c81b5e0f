// Route-unpacking bench (the route subsystem behind Router::Route and the
// server's "route" verb). Distance queries are label-only; a route
// additionally walks the parent hints edge by edge, so the natural unit is
// nanoseconds per unpacked edge. Three measurements per flavour:
//
//  - hint unpacking through the facade's RouteInto (caller-owned span, the
//    warm zero-allocation path the server uses),
//  - the same workload through the hint-less bidirectional-Dijkstra
//    fallback (what hint-less index files fall back to),
//  - k-alternative routes (k=4) per returned alternative.
//
// The ns/edge numbers are merged into BENCH_query.json as the "route"
// section and gated machine-matched by tools/check_bench.py.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchsupport/bench_json.h"
#include "benchsupport/table_printer.h"
#include "benchsupport/workload.h"
#include "common/timer.h"
#include "graph/road_network_generator.h"
#include "hc2l/hc2l.h"

namespace {

using namespace hc2l;

struct RouteNumbers {
  double ns_per_route = 0.0;
  double ns_per_edge = 0.0;
  double avg_path_edges = 0.0;
  double fallback_ns_per_edge = 0.0;
  double alt_ns_per_route = 0.0;  // k=4, per returned alternative
};

/// Times RouteInto over `pairs` on `router` and returns per-route /
/// per-edge nanoseconds. Each section runs kReps times and keeps the
/// fastest pass — the least-noise estimator, so a transient load spike on
/// the runner cannot trip the check_bench gate. The checksum defeats
/// dead-code elimination.
RouteNumbers MeasureRoutes(const Router& with_hints, const Router& fallback,
                           const std::vector<QueryPair>& pairs) {
  constexpr int kReps = 3;
  RouteNumbers out;
  std::vector<Vertex> buf(with_hints.NumVertices());
  Dist weight = 0;
  uint64_t checksum = 0;
  uint64_t edges = 0;

  // Warm-up pass (touches labels, hints and the TLS scratch).
  for (const auto& [s, t] : pairs) {
    if (const auto n = with_hints.RouteInto(s, t, buf, &weight); n.ok()) {
      checksum += *n;
    }
  }
  double hint_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    edges = 0;
    Timer timer;
    for (const auto& [s, t] : pairs) {
      const auto n = with_hints.RouteInto(s, t, buf, &weight);
      if (n.ok() && *n > 0) {
        edges += *n - 1;
        checksum += buf[*n - 1];
      }
    }
    const double s = timer.Seconds();
    if (rep == 0 || s < hint_s) hint_s = s;
  }
  out.ns_per_route = hint_s * 1e9 / pairs.size();
  out.ns_per_edge = edges > 0 ? hint_s * 1e9 / edges : 0.0;
  out.avg_path_edges = static_cast<double>(edges) / pairs.size();

  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t fb_edges = 0;
    Timer fb_timer;
    for (const auto& [s, t] : pairs) {
      const auto n = fallback.RouteInto(s, t, buf, &weight);
      if (n.ok() && *n > 0) {
        fb_edges += *n - 1;
        checksum += buf[*n - 1];
      }
    }
    const double ns = fb_edges > 0 ? fb_timer.Seconds() * 1e9 / fb_edges : 0.0;
    if (rep == 0 || ns < out.fallback_ns_per_edge) {
      out.fallback_ns_per_edge = ns;
    }
  }

  double alt_s = 0.0;
  uint64_t alternatives = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    alternatives = 0;
    Timer alt_timer;
    for (size_t i = 0; i < pairs.size() / 8; ++i) {
      const auto alts = with_hints.Routes(pairs[i].first, pairs[i].second, 4);
      if (alts.ok()) {
        alternatives += alts->size();
        for (const RoutePath& r : *alts) checksum += r.weight;
      }
    }
    const double s = alt_timer.Seconds();
    if (rep == 0 || s < alt_s) alt_s = s;
  }
  out.alt_ns_per_route =
      alternatives > 0 ? alt_s * 1e9 / alternatives : 0.0;

  if (checksum == 0) std::printf("(empty checksum)\n");
  return out;
}

}  // namespace

int main() {
  // Same grid48 topology and seed as the micro-query trajectory, so the
  // route numbers describe the same index the distance numbers do.
  RoadNetworkOptions opt;
  opt.rows = 48;
  opt.cols = 48;
  opt.seed = 2026;
  const Graph g = GenerateRoadNetwork(opt);
  const Digraph dg = GenerateDirectedRoadNetwork(opt, /*one_way_frac=*/0.2);

  std::printf("=== Route unpacking: label hints vs Dijkstra fallback ===\n");

  BuildOptions hintless_options;
  hintless_options.route_hints = false;

  Result<Router> und = Router::Build(g);
  Result<Router> und_fallback = Router::Build(g, hintless_options);
  Result<Router> dir = Router::Build(dg);
  Result<Router> dir_fallback = Router::Build(dg, hintless_options);
  if (!und.ok() || !und_fallback.ok() || !dir.ok() || !dir_fallback.ok()) {
    std::fprintf(stderr, "FATAL: build failed\n");
    return 1;
  }
  dir_fallback->AttachDigraph(dg);  // directed builds do not auto-attach

  const size_t kPairs = 20000;
  const auto pairs = UniformRandomPairs(g.NumVertices(), kPairs, 11);

  const RouteNumbers u = MeasureRoutes(*und, *und_fallback, pairs);
  const RouteNumbers d = MeasureRoutes(*dir, *dir_fallback, pairs);

  TablePrinter table({"Flavour", "ns/route", "ns/edge", "edges/route",
                      "fallback ns/edge", "k=4 ns/alt"});
  table.AddRow({"undirected", FormatDouble(u.ns_per_route, 1),
                FormatDouble(u.ns_per_edge, 2),
                FormatDouble(u.avg_path_edges, 1),
                FormatDouble(u.fallback_ns_per_edge, 2),
                FormatDouble(u.alt_ns_per_route, 1)});
  table.AddRow({"directed", FormatDouble(d.ns_per_route, 1),
                FormatDouble(d.ns_per_edge, 2),
                FormatDouble(d.avg_path_edges, 1),
                FormatDouble(d.fallback_ns_per_edge, 2),
                FormatDouble(d.alt_ns_per_route, 1)});
  table.Print();

  char section[640];
  std::snprintf(
      section, sizeof(section),
      "{\n"
      "    \"api\": \"router\",\n"
      "    \"queries\": %zu,\n"
      "    \"undirected\": {\"ns_per_route\": %.1f, \"ns_per_edge\": %.2f, "
      "\"avg_path_edges\": %.1f, \"fallback_ns_per_edge\": %.2f, "
      "\"alt_ns_per_route\": %.1f},\n"
      "    \"directed\": {\"ns_per_route\": %.1f, \"ns_per_edge\": %.2f, "
      "\"avg_path_edges\": %.1f, \"fallback_ns_per_edge\": %.2f, "
      "\"alt_ns_per_route\": %.1f}\n  }",
      kPairs, u.ns_per_route, u.ns_per_edge, u.avg_path_edges,
      u.fallback_ns_per_edge, u.alt_ns_per_route, d.ns_per_route,
      d.ns_per_edge, d.avg_path_edges, d.fallback_ns_per_edge,
      d.alt_ns_per_route);
  const char* json = std::getenv("HC2L_BENCH_JSON");
  const std::string path = json != nullptr ? json : "BENCH_query.json";
  if (!MergeBenchSection(path, "route", section)) return 1;
  std::printf("merged route section into %s\n", path.c_str());
  return 0;
}
