// Extension bench (Section 5.4 remark): dynamic weight updates. The balanced
// tree hierarchy is weight-independent, so after traffic-style weight changes
// only the distance values (contraction offsets, shortcuts, label arrays)
// need recomputation. This bench measures three tiers per dataset:
//
//  - a full Build() (partitioning + max-flow + labels, the paper's baseline),
//  - Router::RebuildLabels() (hierarchy reused, every label recomputed),
//  - Hc2lIndex::RepairLabels() on a small delta batch (scoped: only subtrees
//    whose separators cover a changed edge are recomputed — the live-traffic
//    path behind the server's update_weights verb).
//
// The scoped tier also reports the recomputed/total label-entry ratio, which
// is deterministic in (graph, deltas) and therefore CPU-independent: it is
// merged into BENCH_query.json as the "update_latency" section and gated by
// tools/check_bench.py on every runner.

#include <cstdio>
#include <cstdlib>

#include "benchsupport/bench_json.h"
#include "benchsupport/evaluation.h"
#include "benchsupport/table_printer.h"
#include "core/hc2l.h"
#include "hc2l/hc2l.h"

namespace {

using namespace hc2l;

Graph PerturbWeights(const Graph& g, double frac, uint64_t seed) {
  std::vector<Edge> edges = g.UndirectedEdges();
  Rng rng(seed);
  for (Edge& e : edges) {
    if (rng.Chance(frac)) {
      // Congestion: weight inflated 1x-4x.
      e.weight = static_cast<Weight>(e.weight * (1.0 + 3.0 * rng.NextDouble()));
    }
  }
  GraphBuilder builder(g.NumVertices());
  builder.AddEdges(edges);
  return std::move(builder).Build();
}

/// Small live-traffic batch: `count` spread-out edges congested 2x-4x.
/// Returns the updated graph and fills `deltas` with exactly those edges.
Graph SmallBatch(const Graph& g, size_t count, uint64_t seed,
                 std::vector<EdgeDelta>* deltas) {
  std::vector<Edge> edges = g.UndirectedEdges();
  Rng rng(seed);
  deltas->clear();
  const size_t stride = edges.size() / count;
  for (size_t i = 0; i < count; ++i) {
    Edge& e = edges[i * stride + rng.Below(stride)];
    e.weight = static_cast<Weight>(e.weight * (2.0 + 2.0 * rng.NextDouble()));
    deltas->push_back({e.u, e.v, e.weight});
  }
  GraphBuilder builder(g.NumVertices());
  builder.AddEdges(edges);
  return std::move(builder).Build();
}

}  // namespace

int main() {
  constexpr size_t kBatchEdges = 8;
  std::printf(
      "=== Extension: dynamic weight updates (Section 5.4) ===\n"
      "Bulk: 10%% of road segments congested -> full label rebuild.\n"
      "Live: %zu-edge batch -> scoped repair (only covering subtrees).\n\n",
      kBatchEdges);
  TablePrinter table({"Dataset", "full build[s]", "rebuild[s]", "repair[ms]",
                      "vs rebuild", "repaired/total", "queries exact"});
  std::string json_datasets;
  for (const DatasetSpec& spec : SelectedDatasets(WeightMode::kTravelTime)) {
    const Graph g = GenerateRoadNetwork(spec.options);
    Result<Router> index = Router::Build(g);
    if (!index.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", index.status().ToString().c_str());
      return 1;
    }
    const double full_build = index->Info().build_seconds;

    const Graph congested = PerturbWeights(g, 0.1, spec.options.seed + 1);
    Timer timer;
    if (Status s = index->RebuildLabels(congested); !s.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", s.ToString().c_str());
      return 1;
    }
    const double rebuild = timer.Seconds();

    // Live tier: a warmed core index takes a small batch through the scoped
    // repair; an identically warmed twin takes the same graph through the
    // full relabel walk for the apples-to-apples latency column.
    std::vector<EdgeDelta> deltas;
    const Graph live = SmallBatch(congested, kBatchEdges,
                                  spec.options.seed + 2, &deltas);
    Hc2lIndex repaired = Hc2lIndex::Build(congested);
    Hc2lIndex rebuilt = Hc2lIndex::Build(congested);
    if (!repaired.RebuildLabels(congested).ok() ||  // warm the repair cache
        !rebuilt.RebuildLabels(congested).ok()) {
      return 1;
    }
    Timer repair_timer;
    if (Status s = repaired.RepairLabels(live, deltas); !s.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", s.ToString().c_str());
      return 1;
    }
    const double repair_s = repair_timer.Seconds();
    Timer rebuild_timer;
    if (!rebuilt.RebuildLabels(live).ok()) return 1;
    const double rebuild_small = rebuild_timer.Seconds();
    const RepairStats& rs = repaired.LastRepairStats();
    const double total = static_cast<double>(rs.recomputed_entries +
                                             rs.reused_entries);
    const double ratio =
        total > 0 ? static_cast<double>(rs.recomputed_entries) / total : 1.0;

    // Spot-verify exactness of both tiers against a fresh build.
    const Result<Router> reference = Router::Build(congested);
    if (!reference.ok()) return 1;
    Rng rng(3);
    bool exact = true;
    for (int i = 0; i < 2000 && exact; ++i) {
      const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
      const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
      exact = index->DistanceUnchecked(s, t) ==
              reference->DistanceUnchecked(s, t) &&
              repaired.Query(s, t) == rebuilt.Query(s, t);
    }
    table.AddRow({spec.name, FormatSeconds(full_build),
                  FormatSeconds(rebuild),
                  FormatDouble(repair_s * 1e3, 2),
                  FormatDouble(rebuild_small /
                               std::max(repair_s, 1e-9), 1) + "x",
                  FormatDouble(ratio, 3),
                  exact ? "yes" : "NO"});
    std::fflush(stdout);

    char entry[320];
    std::snprintf(
        entry, sizeof(entry),
        "%s\n      \"%s\": {\"repair_ms\": %.3f, \"rebuild_ms\": %.3f, "
        "\"recomputed_entries\": %llu, \"reused_entries\": %llu, "
        "\"repair_ratio\": %.4f, \"scoped\": %s}",
        json_datasets.empty() ? "" : ",", spec.name.c_str(), repair_s * 1e3,
        rebuild_small * 1e3,
        static_cast<unsigned long long>(rs.recomputed_entries),
        static_cast<unsigned long long>(rs.reused_entries), ratio,
        rs.full_rebuild ? "false" : "true");
    json_datasets += entry;
  }
  table.Print();

  char head[96];
  std::snprintf(head, sizeof(head),
                "{\n"
                "    \"batch_edges\": %zu,\n"
                "    \"datasets\": {",
                kBatchEdges);
  const std::string section =
      std::string(head) + json_datasets + "}\n  }";
  const char* json = std::getenv("HC2L_BENCH_JSON");
  const std::string path = json != nullptr ? json : "BENCH_query.json";
  if (!MergeBenchSection(path, "update_latency", section)) return 1;
  std::printf("merged update_latency section into %s\n", path.c_str());
  return 0;
}
