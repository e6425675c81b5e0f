// perfbench_layers — the benchmark's per-layer driver. It times calls into
// each layer's public functions from outside the library, bottom to top:
//
//   simd    simd::MinPlusPadded            the min-plus kernel
//   core    Hc2lIndex                      label lookup, batch, route, repair
//   api     Router                         facade: validation, Execute, I/O
//   engine  ThreadedRouter                 the query engine (2 threads, as
//                                          hc2ld --threads 2 runs it)
//   shard   ShardedIndex                   3-shard boundary-table index
//   wire    RequestHandler::HandleLine     JSON parse + execute + format
//
// (reactor, the socket layer, is timed by perfbench_e2e against hc2ld.)
//
//   perfbench_layers --seed N --graph G --pairs P --work DIR
//
// Two kinds of numbers come out. Tight loops give each layer's per-call cost
// (medians of repeated passes), printed as one JSON object {"metrics":{...}}
// on stdout. A span replay then sends every pair of P (the replay pairs
// perfbench_e2e also sent through hc2ld) through each layer, one warm call
// per span, recording one span per call — layer, request id, the layer that
// calls it on the served point path, start, end — in memory, and writes
// them to DIR/spans-layers.csv at the end; run.py turns them into self
// times.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/hc2l.h"
#include "graph/dimacs_io.h"
#include "hc2l/hc2l.h"
#include "server/wire.h"
#include "shard/sharded_index.h"

namespace {

using namespace hc2l;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_layers: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Check(Result<T> r, const char* what) {
  if (!r.ok()) Fail(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) Fail(std::string(what) + ": " + st.ToString());
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Results feed this so no timed call can be optimized away.
volatile uint64_t g_sink = 0;

constexpr int kReps = 5;

/// Median over kReps passes of the mean cost of fn(i), i in [0, count).
template <typename Fn>
double PerCallNs(size_t count, Fn&& fn) {
  std::vector<double> passes;
  for (int r = 0; r < kReps; ++r) {
    uint64_t acc = 0;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < count; ++i) acc += fn(i);
    passes.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(count));
    g_sink = g_sink + acc;
  }
  return Median(passes);
}

/// Median wall time of `reps` runs of fn(), in seconds.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> runs;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    fn(r);
    runs.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return Median(runs);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One call of one layer in the span replay. `parent` names the layer that
/// makes this call on the served point path (empty at the top).
struct Span {
  const char* layer;
  const char* parent;
  uint32_t id;
  int64_t start;
  int64_t end;
};

/// The seeded update batches: kUpdateEdges edges each, new weight = old
/// weight x U[0.5, 1.5).
std::vector<std::vector<EdgeDelta>> UpdateBatches(const Graph& g, uint64_t seed,
                                                  int count) {
  constexpr int kUpdateEdges = 8;
  const std::vector<Edge> edges = g.UndirectedEdges();
  Rng rng(seed ^ 0x5eedu);
  std::vector<std::vector<EdgeDelta>> batches(count);
  for (auto& batch : batches) {
    for (int i = 0; i < kUpdateEdges; ++i) {
      const Edge& e = edges[rng.Below(edges.size())];
      const Weight w = std::max<Weight>(
          1, static_cast<Weight>(e.weight * (0.5 + rng.NextDouble())));
      batch.push_back({e.u, e.v, w});
    }
  }
  return batches;
}

Graph WithDeltas(Graph g, const std::vector<EdgeDelta>& deltas) {
  for (const EdgeDelta& d : deltas) {
    if (!g.UpdateEdgeWeight(d.u, d.v, d.weight)) Fail("bad update edge");
  }
  return g;
}

std::string PointLine(Vertex s, Vertex t) {
  return "{\"op\":\"point\",\"sources\":[" + std::to_string(s) +
         "],\"targets\":[" + std::to_string(t) + "]}";
}

std::string IdList(const std::vector<Vertex>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(ids[i]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_path, pairs_path, work;
  uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--graph") graph_path = val;
    else if (key == "--pairs") pairs_path = val;
    else if (key == "--work") work = val;
    else Fail("unknown flag " + key);
  }
  if (graph_path.empty() || pairs_path.empty() || work.empty()) {
    Fail("usage: perfbench_layers --seed N --graph G --pairs P --work DIR");
  }
  std::vector<Metric> m;

  // --- Construction, through public calls only. Together these explain
  // setup_s: build (hierarchy + labelling), save, open.
  const Graph g = Check(ReadDimacsGraph(graph_path), "read graph");
  const int64_t b0 = NowNs();
  Router router = Check(Router::Build(g), "Router::Build");
  m.push_back({"api.build_s", static_cast<double>(NowNs() - b0) * 1e-9, "s"});
  const int64_t r0 = NowNs();
  Check(router.RebuildLabels(g), "Router::RebuildLabels");
  m.push_back({"api.relabel_s", static_cast<double>(NowNs() - r0) * 1e-9, "s"});
  const std::string index_path = work + "/layers.idx";
  m.push_back({"api.save_ms", 1e3 * MedianSeconds(3, [&](int) {
                 Check(router.Save(index_path), "Router::Save");
               }), "ms"});
  m.push_back({"api.open_ms", 1e3 * MedianSeconds(3, [&](int) {
                 Check(Router::Open(index_path, OpenMode::kHeap), "Open heap");
               }), "ms"});
  m.push_back({"api.open_mmap_ms", 1e3 * MedianSeconds(3, [&](int) {
                 Check(Router::Open(index_path, OpenMode::kMmap), "Open mmap");
               }), "ms"});
  ShardOptions shard_options;
  shard_options.num_shards = 3;
  const int64_t s0 = NowNs();
  const ShardedIndex shard_index =
      Check(ShardedIndex::Build(g, shard_options), "ShardedIndex::Build");
  m.push_back({"shard.build_s", static_cast<double>(NowNs() - s0) * 1e-9, "s"});
  Hc2lIndex core = Check(Hc2lIndex::Load(index_path), "Hc2lIndex::Load");

  ParallelOptions parallel;
  parallel.num_threads = 2;
  const ThreadedRouter threaded =
      Check(router.WithThreads(parallel), "WithThreads");

  std::vector<std::pair<Vertex, Vertex>> pairs;
  {
    std::ifstream in(pairs_path);
    Vertex s = 0, t = 0;
    while (in >> s >> t) pairs.push_back({s, t});
  }
  if (pairs.empty()) Fail("no replay pairs in " + pairs_path);
  for (const auto& [s, t] : pairs) {
    if (s >= g.NumVertices() || t >= g.NumVertices()) Fail("pair out of range");
  }
  const size_t n_pairs = pairs.size();
  const size_t n_routes = std::min<size_t>(n_pairs, 512);

  // --- simd and core: the paper's query.
  std::vector<uint64_t> hubs(n_pairs, 0);
  uint64_t total_hubs = 0;
  for (size_t i = 0; i < n_pairs; ++i) {
    core.QueryCountingHubs(pairs[i].first, pairs[i].second, &hubs[i]);
    total_hubs += hubs[i];
  }
  const double mean_hubs =
      static_cast<double>(total_hubs) / static_cast<double>(n_pairs);
  m.push_back({"core.hubs_scanned", mean_hubs, "count"});
  m.push_back({"core.query_ns", PerCallNs(n_pairs, [&](size_t i) {
                 return core.Query(pairs[i].first, pairs[i].second);
               }), "ns"});

  // Kernel operands: 64 L2-resident array pairs padded like the arena, each
  // long enough for the longest scan in the replay.
  constexpr size_t kOperands = 64;
  const size_t max_len = simd::PaddedLength(
      std::max<uint64_t>(1, *std::max_element(hubs.begin(), hubs.end())));
  std::vector<uint32_t> operands(2 * kOperands * max_len);
  Rng rng(seed);
  for (uint32_t& x : operands) x = static_cast<uint32_t>(rng.Below(1u << 30));
  const auto kernel = [&](size_t i, size_t len) {
    const uint32_t* a = operands.data() + (i % kOperands) * max_len;
    const uint32_t* b =
        operands.data() + (kOperands + (i * 7) % kOperands) * max_len;
    return simd::MinPlusPadded(a, b, len);
  };
  const size_t mean_len = std::max<size_t>(1, static_cast<size_t>(mean_hubs + 0.5));
  m.push_back({"simd.minplus_ns",
               PerCallNs(n_pairs, [&](size_t i) { return kernel(i, mean_len); }),
               "ns"});

  constexpr size_t kBatchTargets = 4096;
  constexpr size_t kBatches = 16;
  std::vector<Vertex> batch_targets(kBatchTargets);
  for (size_t i = 0; i < kBatchTargets; ++i) {
    batch_targets[i] = pairs[i % n_pairs].second;
  }
  std::vector<Dist> batch_out(kBatchTargets);
  m.push_back({"core.batch_ns_per_target",
               PerCallNs(kBatches, [&](size_t i) {
                 core.BatchQueryInto(pairs[i].first, batch_targets,
                                     batch_out.data());
                 return batch_out[i];
               }) / kBatchTargets,
               "ns"});

  RoutePath path;
  uint64_t route_edges = 0;
  const int64_t rt0 = NowNs();
  for (size_t i = 0; i < n_routes; ++i) {
    Check(core.Route(pairs[i].first, pairs[i].second, &path), "Route");
    route_edges += path.vertices.empty() ? 0 : path.vertices.size() - 1;
  }
  const double route_ns = static_cast<double>(NowNs() - rt0);
  m.push_back({"core.route_ns_per_edge",
               route_ns / static_cast<double>(std::max<uint64_t>(1, route_edges)),
               "ns"});
  m.push_back({"core.route_edges",
               static_cast<double>(route_edges) / static_cast<double>(n_routes),
               "count"});

  // Repair: clone + scoped RepairLabels, on a warm repair cache, with the
  // two threads hc2ld gives UpdateWeights.
  const auto batches = UpdateBatches(g, seed, 3);
  Check(core.RebuildLabels(g), "Hc2lIndex::RebuildLabels");
  std::vector<double> clone_ms, repair_ms, recomputed_frac;
  for (const auto& deltas : batches) {
    const Graph updated = WithDeltas(g, deltas);
    const int64_t c0 = NowNs();
    Hc2lIndex clone = core.Clone();
    const int64_t c1 = NowNs();
    Check(clone.RepairLabels(updated, deltas, true, 2), "RepairLabels");
    const int64_t c2 = NowNs();
    clone_ms.push_back(static_cast<double>(c1 - c0) * 1e-6);
    repair_ms.push_back(static_cast<double>(c2 - c1) * 1e-6);
    const RepairStats& rs = clone.LastRepairStats();
    recomputed_frac.push_back(
        static_cast<double>(rs.recomputed_entries) /
        static_cast<double>(std::max<uint64_t>(
            1, rs.recomputed_entries + rs.reused_entries)));
  }
  m.push_back({"core.clone_ms", Median(clone_ms), "ms"});
  m.push_back({"core.repair_ms", Median(repair_ms), "ms"});
  m.push_back({"core.repair_recomputed_frac", Median(recomputed_frac), "ratio"});
  {
    // Chained like a live update stream: each update repairs the last one's
    // router (clone + repair + graph copy).
    std::vector<double> update_ms;
    Router current = Check(Router::Open(index_path), "Open for updates");
    current.AttachGraph(g);
    Check(current.RebuildLabels(g), "warm repair cache");
    for (const auto& deltas : batches) {
      const int64_t u0 = NowNs();
      Router next = Check(current.UpdateWeights(deltas, true, 2), "UpdateWeights");
      update_ms.push_back(static_cast<double>(NowNs() - u0) * 1e-6);
      current = std::move(next);
    }
    m.push_back({"api.update_weights_ms", Median(update_ms), "ms"});
  }

  // --- api and engine.
  m.push_back({"api.distance_ns", PerCallNs(n_pairs, [&](size_t i) {
                 return *router.Distance(pairs[i].first, pairs[i].second);
               }), "ns"});
  Dist one = 0;
  const auto execute_point = [&](const auto& executor, size_t i) {
    QueryRequest request;
    request.kind = QueryKind::kPointBatch;
    request.sources = {&pairs[i].first, 1};
    request.targets = {&pairs[i].second, 1};
    QueryOutput output;
    output.distances = {&one, 1};
    Check(executor.Execute(request, output).status(), "Execute");
    return one;
  };
  const double api_execute_ns = PerCallNs(
      n_pairs, [&](size_t i) { return execute_point(router, i); });
  m.push_back({"api.execute_point_ns", api_execute_ns, "ns"});
  constexpr size_t kSide = 256;
  constexpr size_t kMatrices = 6;
  std::vector<std::vector<Vertex>> sources(kMatrices), targets(kMatrices);
  for (size_t k = 0; k < kMatrices; ++k) {
    for (size_t i = 0; i < kSide; ++i) {
      sources[k].push_back(static_cast<Vertex>(rng.Below(g.NumVertices())));
      targets[k].push_back(static_cast<Vertex>(rng.Below(g.NumVertices())));
    }
  }
  std::vector<Dist> matrix(kSide * kSide);
  const double api_matrix_ms = 1e-6 * PerCallNs(kMatrices, [&](size_t k) {
    Check(router.DistanceMatrixInto(sources[k], targets[k], matrix), "matrix");
    return matrix[k];
  });
  const double engine_matrix_ms = 1e-6 * PerCallNs(kMatrices, [&](size_t k) {
    Check(threaded.DistanceMatrixInto(sources[k], targets[k], matrix), "matrix");
    return matrix[k];
  });
  m.push_back({"api.matrix_ms", api_matrix_ms, "ms"});
  m.push_back({"engine.matrix_ms", engine_matrix_ms, "ms"});
  m.push_back({"engine.speedup", api_matrix_ms / engine_matrix_ms, "ratio"});
  std::vector<Vertex> route_buf(g.NumVertices());
  m.push_back({"api.route_us", 1e-3 * PerCallNs(n_routes, [&](size_t i) {
                 Dist w = 0;
                 const size_t len = Check(
                     router.RouteInto(pairs[i].first, pairs[i].second,
                                      route_buf, &w),
                     "RouteInto");
                 return len + w;
               }), "us"});

  // --- wire: HandleLine with no socket, over the same router + engine.
  RequestHandler handler;
  std::string out;
  std::vector<std::string> point_lines;
  for (const auto& [s, t] : pairs) point_lines.push_back(PointLine(s, t));
  const double wire_point_ns = PerCallNs(n_pairs, [&](size_t i) {
    out.clear();
    handler.HandleLine(point_lines[i], router, threaded, &out);
    return out.size();
  });
  m.push_back({"wire.point_ns", wire_point_ns, "ns"});
  m.push_back({"wire.point_self_ns", wire_point_ns - api_execute_ns, "ns"});
  std::vector<std::string> matrix_lines;
  for (size_t k = 0; k < kMatrices; ++k) {
    matrix_lines.push_back("{\"op\":\"matrix\",\"sources\":[" +
                           IdList(sources[k]) + "],\"targets\":[" +
                           IdList(targets[k]) + "]}");
  }
  size_t matrix_bytes = 0;
  const double wire_matrix_ms = 1e-6 * PerCallNs(kMatrices, [&](size_t k) {
    out.clear();
    handler.HandleLine(matrix_lines[k], router, threaded, &out);
    matrix_bytes = out.size();
    return out.size();
  });
  if (out.rfind("{\"ok\":true", 0) != 0) Fail("wire matrix failed: " + out.substr(0, 200));
  m.push_back({"wire.matrix_self_ms", wire_matrix_ms - engine_matrix_ms, "ms"});
  m.push_back({"wire.bytes_per_pair",
               static_cast<double>(matrix_bytes) / (kSide * kSide), "B"});
  std::vector<std::string> route_lines;
  for (size_t i = 0; i < n_routes; ++i) {
    route_lines.push_back("{\"op\":\"route\",\"source\":" +
                          std::to_string(pairs[i].first) + ",\"target\":" +
                          std::to_string(pairs[i].second) + "}");
  }
  m.push_back({"wire.route_us", 1e-3 * PerCallNs(n_routes, [&](size_t i) {
                 out.clear();
                 handler.HandleLine(route_lines[i], router, threaded, &out);
                 return out.size();
               }), "us"});

  // --- shard.
  const size_t n_shard = std::min<size_t>(n_pairs, 1024);
  m.push_back({"shard.query_us", 1e-3 * PerCallNs(n_shard, [&](size_t i) {
                 return shard_index.Query(pairs[i].first, pairs[i].second);
               }), "us"});

  // --- Span replay: every replay pair through each layer, one span per
  // call, over the router and engine hc2ld serves.
  std::vector<Span> spans;
  spans.reserve(8 * n_pairs);
  // Each timed call follows an untimed one on the same request, so every
  // layer meets the request's labels in cache and the difference between a
  // layer and its child is code, not which of them took the cache misses.
  const auto replay = [&](const char* layer, const char* parent, size_t count,
                          auto&& fn) {
    uint64_t acc = 0;
    for (size_t i = 0; i < count; ++i) {
      acc += fn(i);
      const int64_t t0 = NowNs();
      acc += fn(i);
      const int64_t t1 = NowNs();
      spans.push_back({layer, parent, static_cast<uint32_t>(i + 1), t0, t1});
    }
    g_sink = g_sink + acc;
  };
  // Spans around nothing: what recording one span costs.
  replay("trace", "", n_pairs, [](size_t) { return 0; });
  replay("simd", "core", n_pairs,
         [&](size_t i) { return kernel(i, std::max<uint64_t>(1, hubs[i])); });
  replay("core", "engine", n_pairs, [&](size_t i) {
    return core.Query(pairs[i].first, pairs[i].second);
  });
  replay("shard", "", n_shard, [&](size_t i) {
    return shard_index.Query(pairs[i].first, pairs[i].second);
  });
  replay("api", "", n_pairs, [&](size_t i) { return execute_point(router, i); });
  replay("engine", "wire", n_pairs,
         [&](size_t i) { return execute_point(threaded, i); });
  replay("wire", "reactor", n_pairs, [&](size_t i) {
    out.clear();
    handler.HandleLine(point_lines[i], router, threaded, &out);
    return out.size();
  });
  {
    std::string csv = "layer,id,parent_layer,parent_id,start_ns,end_ns\n";
    for (const Span& s : spans) {
      csv += std::string(s.layer) + "," + std::to_string(s.id) + "," +
             s.parent + "," + (s.parent[0] != '\0' ? std::to_string(s.id) : "0") +
             "," + std::to_string(s.start) + "," + std::to_string(s.end) + "\n";
    }
    std::ofstream(work + "/spans-layers.csv") << csv;
  }

  std::string json = "{\"metrics\":{";
  for (size_t i = 0; i < m.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m[i].value);
    json += (i > 0 ? ",\"" : "\"") + m[i].name + "\":{\"value\":" + value +
            ",\"unit\":\"" + m[i].unit + "\"}";
  }
  json += "}}\n";
  std::fputs(json.c_str(), stdout);
  return 0;
}
