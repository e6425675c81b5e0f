// Randomized differential-oracle suite: HC2L (undirected and directed) must
// agree with Dijkstra on every query mode — point, batch, matrix, k-nearest —
// over hundreds of seeded random connected weighted graphs, including after a
// serialize/deserialize round-trip. Every assertion is wrapped in a
// SCOPED_TRACE carrying the seed, so a mismatch prints the exact failing
// configuration for offline reproduction.
//
// Weight palette deliberately spans the encoding range: unit weights, small
// ranges, and large values near 2^24 — with <= 64 vertices the longest
// shortest path stays below the 2^31 label-encoding bound while per-side
// sums stress the saturating kernel arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/directed_hc2l.h"
#include "core/hc2l.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "hc2l/query.h"
#include "hc2l/router.h"
#include "search/dijkstra.h"
#include "search/directed_dijkstra.h"
#include "shard/sharded_index.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::BatchQuery;
using ::hc2l::testing::DistanceMatrix;
using ::hc2l::testing::KNearest;

Weight RandomWeight(Rng& rng) {
  switch (rng.Below(4)) {
    case 0:
      return 1;  // unit weights
    case 1:
      return static_cast<Weight>(rng.Range(1, 16));
    case 2:
      return static_cast<Weight>(rng.Range(1, 10'000));
    default:
      // Large weights near the top of the per-edge range the 32-bit label
      // encoding supports for paths of <= 63 hops.
      return static_cast<Weight>(rng.Range((1u << 23), (1u << 24)));
  }
}

/// Random connected graph: a random spanning tree plus extra random edges.
/// Every 7th seed leaves out the tree edge of one vertex, producing a
/// disconnected graph so kInfDist propagation is exercised end-to-end too.
Graph RandomGraph(uint64_t seed, size_t* out_n) {
  Rng rng(seed);
  const size_t n = 2 + rng.Below(56);
  *out_n = n;
  GraphBuilder b(n);
  const bool disconnect = seed % 7 == 0 && n >= 4;
  const Vertex isolated = disconnect ? static_cast<Vertex>(1 + rng.Below(n - 1))
                                     : kInvalidVertex;
  for (Vertex v = 1; v < n; ++v) {
    if (v == isolated) continue;
    Vertex parent = static_cast<Vertex>(rng.Below(v));
    if (parent == isolated) parent = 0;
    b.AddEdge(v, parent, RandomWeight(rng));
  }
  const size_t extra = rng.Below(2 * n + 1);
  for (size_t e = 0; e < extra; ++e) {
    const Vertex u = static_cast<Vertex>(rng.Below(n));
    const Vertex v = static_cast<Vertex>(rng.Below(n));
    if (u == v || u == isolated || v == isolated) continue;
    b.AddEdge(u, v, RandomWeight(rng));
  }
  return std::move(b).Build();
}

/// Random digraph whose underlying undirected graph is connected: a randomly
/// oriented spanning tree (sometimes with the reverse arc too) plus random
/// extra arcs. Partial reachability is intended — it exercises unreachable
/// directed pairs. Every third seed additionally grows explicit pendant
/// chains off the base digraph — each link bidirectional (independent
/// weights), up-only or down-only — so the directed degree-one contraction's
/// one-way-pendant semantics face the oracle on purpose, not only by the
/// accident of spanning-tree leaves.
Digraph RandomDigraph(uint64_t seed, size_t* out_n) {
  Rng rng(seed ^ 0xD16A0000);
  const size_t base = 2 + rng.Below(38);
  const bool pendant_mode = seed % 3 == 0;
  const size_t num_chains = pendant_mode ? 1 + rng.Below(5) : 0;
  std::vector<uint32_t> chain_len(num_chains);
  size_t n = base;
  for (size_t c = 0; c < num_chains; ++c) {
    chain_len[c] = 1 + static_cast<uint32_t>(rng.Below(3));
    n += chain_len[c];
  }
  *out_n = n;
  DigraphBuilder b(n);
  for (Vertex v = 1; v < base; ++v) {
    const Vertex parent = static_cast<Vertex>(rng.Below(v));
    const Weight w = RandomWeight(rng);
    if (rng.Below(2) == 0) {
      b.AddArc(parent, v, w);
    } else {
      b.AddArc(v, parent, w);
    }
    if (rng.Below(3) == 0) {
      // Occasionally add the reverse direction with its own weight.
      if (rng.Below(2) == 0) {
        b.AddArc(v, parent, RandomWeight(rng));
      } else {
        b.AddArc(parent, v, RandomWeight(rng));
      }
    }
  }
  const size_t extra = rng.Below(2 * base + 1);
  for (size_t e = 0; e < extra; ++e) {
    const Vertex u = static_cast<Vertex>(rng.Below(base));
    const Vertex v = static_cast<Vertex>(rng.Below(base));
    if (u != v) b.AddArc(u, v, RandomWeight(rng));
  }
  Vertex next = static_cast<Vertex>(base);
  for (size_t c = 0; c < num_chains; ++c) {
    Vertex attach = static_cast<Vertex>(rng.Below(base));
    for (uint32_t hop = 0; hop < chain_len[c]; ++hop) {
      const Vertex v = next++;
      switch (rng.Below(3)) {
        case 0:  // bidirectional link, independent weights per direction
          b.AddArc(v, attach, RandomWeight(rng));
          b.AddArc(attach, v, RandomWeight(rng));
          break;
        case 1:  // up-only: the chain can exit but not be entered
          b.AddArc(v, attach, RandomWeight(rng));
          break;
        default:  // down-only: an enter-only dead end
          b.AddArc(attach, v, RandomWeight(rng));
          break;
      }
      attach = v;
    }
  }
  return std::move(b).Build();
}

/// A target list with the interesting shapes: a shuffled subset, duplicates,
/// and the source itself.
std::vector<Vertex> MakeTargets(Rng& rng, size_t n, Vertex source) {
  std::vector<Vertex> targets;
  const size_t count = 1 + rng.Below(n + 4);
  targets.reserve(count + 2);
  for (size_t i = 0; i < count; ++i) {
    targets.push_back(static_cast<Vertex>(rng.Below(n)));
  }
  targets.push_back(source);
  targets.push_back(targets[rng.Below(targets.size())]);  // duplicate
  return targets;
}

/// Oracle-side k-nearest: independent of SelectKNearest — stable sort of
/// candidate positions by oracle distance, unreachable excluded.
std::vector<std::pair<Dist, Vertex>> OracleKNearest(
    const std::vector<Dist>& oracle_dist, const std::vector<Vertex>& candidates,
    size_t k) {
  std::vector<size_t> idx(candidates.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return oracle_dist[candidates[a]] < oracle_dist[candidates[b]];
  });
  std::vector<std::pair<Dist, Vertex>> out;
  for (const size_t i : idx) {
    if (out.size() == k) break;
    if (oracle_dist[candidates[i]] == kInfDist) break;  // inf sorts last
    out.emplace_back(oracle_dist[candidates[i]], candidates[i]);
  }
  return out;
}

std::string RoundTripPath(const char* prefix, uint64_t seed) {
  return ::testing::TempDir() + "/" + prefix + "_" + std::to_string(seed) +
         ".hc2l";
}

/// Asserts `route` is a real path of the undirected graph: endpoints s and
/// t, every consecutive pair an existing edge, and the edge weights summing
/// to route.weight. Call through ASSERT_NO_FATAL_FAILURE.
void CheckRealUndirectedPath(const Graph& g, Vertex s, Vertex t,
                             const RoutePath& route) {
  ASSERT_FALSE(route.vertices.empty());
  ASSERT_EQ(route.vertices.front(), s);
  ASSERT_EQ(route.vertices.back(), t);
  if (route.vertices.size() == 1) {
    ASSERT_EQ(s, t);
    ASSERT_EQ(route.weight, Dist{0});
    return;
  }
  Dist sum = 0;
  for (size_t i = 0; i + 1 < route.vertices.size(); ++i) {
    const Vertex u = route.vertices[i];
    const Vertex v = route.vertices[i + 1];
    ASSERT_LT(u, g.NumVertices());
    ASSERT_LT(v, g.NumVertices());
    ASSERT_NE(u, v) << "hop " << i << " repeats vertex " << u;
    bool found = false;
    for (const Arc& a : g.Neighbors(u)) {
      if (a.to == v) {
        sum += a.weight;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "hop " << i << ": {" << u << "," << v
                       << "} is not an edge of the graph";
  }
  ASSERT_EQ(sum, route.weight) << "edge weights do not sum to the weight";
}

/// Directed twin: every hop must be a real arc traversed in its direction
/// (scanned over OutArcs, so one-way semantics are enforced).
void CheckRealDirectedPath(const Digraph& g, Vertex s, Vertex t,
                           const RoutePath& route) {
  ASSERT_FALSE(route.vertices.empty());
  ASSERT_EQ(route.vertices.front(), s);
  ASSERT_EQ(route.vertices.back(), t);
  if (route.vertices.size() == 1) {
    ASSERT_EQ(s, t);
    ASSERT_EQ(route.weight, Dist{0});
    return;
  }
  Dist sum = 0;
  for (size_t i = 0; i + 1 < route.vertices.size(); ++i) {
    const Vertex u = route.vertices[i];
    const Vertex v = route.vertices[i + 1];
    ASSERT_LT(u, g.NumVertices());
    ASSERT_LT(v, g.NumVertices());
    ASSERT_NE(u, v) << "hop " << i << " repeats vertex " << u;
    bool found = false;
    for (const Arc& a : g.OutArcs(u)) {
      if (a.to == v) {
        sum += a.weight;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "hop " << i << ": " << u << " -> " << v
                       << " is not an arc of the digraph (or is traversed "
                          "against its direction)";
  }
  ASSERT_EQ(sum, route.weight) << "arc weights do not sum to the weight";
}

/// Asserts an unpacked shortest route matches the oracle distance exactly
/// (empty path for unreachable pairs) and is a real path of the graph.
template <typename GraphT, typename CheckRealPath>
void CheckRouteAgainstOracle(const GraphT& g, Vertex s, Vertex t,
                             Dist expected, const RoutePath& route,
                             CheckRealPath check_real) {
  ASSERT_EQ(route.weight, expected) << "route weight != oracle distance";
  if (expected == kInfDist) {
    ASSERT_TRUE(route.vertices.empty()) << "unreachable pair carries a path";
    return;
  }
  ASSERT_NO_FATAL_FAILURE(check_real(g, s, t, route));
}

/// K-alternative routes: the first is the shortest path, weights ascend,
/// every alternative is a real path, and the vertex sequences are pairwise
/// distinct.
template <typename RoutesFn, typename GraphT, typename CheckRealPath>
void CheckAlternativesAgainstOracle(RoutesFn routes_fn, const GraphT& g,
                                    Vertex s, Vertex t, Dist expected,
                                    CheckRealPath check_real) {
  std::vector<RoutePath> alts;
  const Status st = routes_fn(s, t, size_t{4}, &alts);
  ASSERT_TRUE(st.ok()) << st.ToString();
  if (expected == kInfDist) {
    ASSERT_TRUE(alts.empty());
    return;
  }
  ASSERT_FALSE(alts.empty());
  ASSERT_LE(alts.size(), size_t{4});
  ASSERT_EQ(alts[0].weight, expected) << "first alternative is not optimal";
  for (size_t i = 0; i < alts.size(); ++i) {
    SCOPED_TRACE("alternative " + std::to_string(i));
    ASSERT_NO_FATAL_FAILURE(check_real(g, s, t, alts[i]));
    if (i > 0) {
      ASSERT_GE(alts[i].weight, alts[i - 1].weight);
    }
    for (size_t j = 0; j < i; ++j) {
      ASSERT_NE(alts[i].vertices, alts[j].vertices)
          << "duplicate of alternative " << j;
    }
  }
}

/// Runs the batch and matrix oracles through the facade's request/response
/// path (Router::Execute with caller-owned span outputs): the zero-copy API
/// must agree with the oracle bit for bit, like the index primitives do.
void CheckExecuteAgainstOracle(const Router& router,
                               const std::vector<std::vector<Dist>>& oracle,
                               Vertex batch_source,
                               const std::vector<Vertex>& targets,
                               const std::vector<Vertex>& sources) {
  QueryRequest request;
  request.kind = QueryKind::kPointBatch;
  request.sources = std::span<const Vertex>(&batch_source, 1);
  request.targets = targets;
  std::vector<Dist> batch_out(targets.size(), Dist{0xDEAD});
  const Result<QueryResponse> batch_resp =
      router.Execute(request, QueryOutput{batch_out, {}});
  ASSERT_TRUE(batch_resp.ok()) << batch_resp.status().ToString();
  ASSERT_EQ(batch_resp->written, targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    ASSERT_EQ(batch_out[i], oracle[batch_source][targets[i]])
        << "Execute batch target index " << i;
  }

  request.kind = QueryKind::kMatrix;
  request.sources = sources;
  std::vector<Dist> flat(sources.size() * targets.size(), Dist{0xDEAD});
  const Result<QueryResponse> matrix_resp =
      router.Execute(request, QueryOutput{flat, {}});
  ASSERT_TRUE(matrix_resp.ok()) << matrix_resp.status().ToString();
  ASSERT_EQ(matrix_resp->rows, sources.size());
  ASSERT_EQ(matrix_resp->cols, targets.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(flat[i * targets.size() + j], oracle[sources[i]][targets[j]])
          << "Execute matrix i=" << i << " j=" << j;
    }
  }
}

/// Runs the full differential check for one undirected seed.
void CheckUndirectedSeed(uint64_t seed) {
  SCOPED_TRACE("undirected oracle seed=" + std::to_string(seed));
  size_t n = 0;
  const Graph g = RandomGraph(seed, &n);

  Hc2lOptions options;
  options.contract_degree_one = seed % 2 == 0;
  options.tail_pruning = seed % 3 != 0;
  options.num_threads = 1 + seed % 3;
  options.leaf_size = 2 + seed % 7;
  const Hc2lIndex index = Hc2lIndex::Build(g, options);

  // Oracle: one Dijkstra sweep per source.
  Dijkstra dijkstra(g);
  std::vector<std::vector<Dist>> oracle(n);
  for (Vertex s = 0; s < n; ++s) {
    dijkstra.Run(s);
    oracle[s].resize(n);
    for (Vertex t = 0; t < n; ++t) oracle[s][t] = dijkstra.DistanceTo(t);
  }

  // Point queries: all pairs.
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      ASSERT_EQ(index.Query(s, t), oracle[s][t])
          << "point s=" << s << " t=" << t;
    }
  }

  Rng rng(seed * 7919 + 1);
  const Vertex batch_source = static_cast<Vertex>(rng.Below(n));
  const std::vector<Vertex> targets = MakeTargets(rng, n, batch_source);

  // Batch.
  const std::vector<Dist> batch = BatchQuery(index, batch_source, targets);
  ASSERT_EQ(batch.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    ASSERT_EQ(batch[i], oracle[batch_source][targets[i]])
        << "batch target index " << i;
  }

  // Matrix.
  std::vector<Vertex> sources;
  const size_t num_sources = 1 + rng.Below(5);
  for (size_t i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<Vertex>(rng.Below(n)));
  }
  const auto matrix = DistanceMatrix(index, sources, targets);
  ASSERT_EQ(matrix.size(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    ASSERT_EQ(matrix[i].size(), targets.size());
    for (size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(matrix[i][j], oracle[sources[i]][targets[j]])
          << "matrix i=" << i << " j=" << j;
    }
  }

  // K-nearest for several k, including 0 and beyond the candidate count.
  for (const size_t k : {size_t{0}, size_t{1}, size_t{3}, targets.size() + 5}) {
    const auto nearest = KNearest(index, batch_source, targets, k);
    const auto expected = OracleKNearest(oracle[batch_source], targets, k);
    ASSERT_EQ(nearest, expected) << "k=" << k;
  }

  // Route oracle, all pairs: the unpacked path's weight equals the oracle
  // distance, every hop is a real edge, and the edge weights sum to it.
  RoutePath route;
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      SCOPED_TRACE("route s=" + std::to_string(s) + " t=" + std::to_string(t));
      const Status st = index.Route(s, t, &route);
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_NO_FATAL_FAILURE(CheckRouteAgainstOracle(
          g, s, t, oracle[s][t], route, CheckRealUndirectedPath));
    }
  }

  // K-alternative routes on a diagonal sample of pairs.
  for (Vertex s = 0; s < n; s += 3) {
    const Vertex t = static_cast<Vertex>((s * 5 + 7) % n);
    SCOPED_TRACE("alts s=" + std::to_string(s) + " t=" + std::to_string(t));
    ASSERT_NO_FATAL_FAILURE(CheckAlternativesAgainstOracle(
        [&](Vertex a, Vertex b, size_t k, std::vector<RoutePath>* out) {
          return index.Routes(a, b, k, out);
        },
        g, s, t, oracle[s][t], CheckRealUndirectedPath));
  }

  // The same batch and matrix, through the facade's span-output request
  // path.
  BuildOptions facade_options;
  facade_options.contract_degree_one = options.contract_degree_one;
  facade_options.tail_pruning = options.tail_pruning;
  facade_options.num_threads = options.num_threads;
  facade_options.leaf_size = options.leaf_size;
  const Result<Router> router = Router::Build(g, facade_options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  CheckExecuteAgainstOracle(*router, oracle, batch_source, targets, sources);

  // The facade route path agrees with the oracle too.
  for (Vertex s = 0; s < n; s += 5) {
    const Vertex t = static_cast<Vertex>((s * 3 + 1) % n);
    const Status st = router->Route(s, t, &route);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_NO_FATAL_FAILURE(CheckRouteAgainstOracle(
        g, s, t, oracle[s][t], route, CheckRealUndirectedPath));
  }

  // A hint-less build answers routes through the attached-graph fallback
  // (Build(const Graph&) attaches automatically) — old index files without
  // hint stores behave the same way after Open + AttachGraph.
  BuildOptions hintless_options = facade_options;
  hintless_options.route_hints = false;
  const Result<Router> hintless = Router::Build(g, hintless_options);
  ASSERT_TRUE(hintless.ok()) << hintless.status().ToString();
  for (Vertex s = 0; s < n; s += 4) {
    const Vertex t = static_cast<Vertex>((s * 7 + 2) % n);
    const Status st = hintless->Route(s, t, &route);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_NO_FATAL_FAILURE(CheckRouteAgainstOracle(
        g, s, t, oracle[s][t], route, CheckRealUndirectedPath));
  }

  // Serialize / deserialize round-trip must preserve every mode.
  const std::string path = RoundTripPath("oracle_und", seed);
  const Status saved = index.Save(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  const auto loaded = Hc2lIndex::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      ASSERT_EQ(loaded->Query(s, t), oracle[s][t])
          << "round-trip point s=" << s << " t=" << t;
    }
  }
  ASSERT_EQ(BatchQuery(*loaded, batch_source, targets), batch);
  ASSERT_EQ(DistanceMatrix(*loaded, sources, targets), matrix);
  ASSERT_EQ(KNearest(*loaded, batch_source, targets, 3),
            KNearest(index, batch_source, targets, 3));
  // Hints survive the round-trip: the loaded index unpacks correct routes.
  ASSERT_TRUE(loaded->HasRouteHints());
  for (Vertex s = 0; s < n; s += 2) {
    for (Vertex t = 1; t < n; t += 3) {
      SCOPED_TRACE("round-trip route s=" + std::to_string(s) +
                   " t=" + std::to_string(t));
      const Status st = loaded->Route(s, t, &route);
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_NO_FATAL_FAILURE(CheckRouteAgainstOracle(
          g, s, t, oracle[s][t], route, CheckRealUndirectedPath));
    }
  }
}

/// Runs the full differential check for one directed seed.
void CheckDirectedSeed(uint64_t seed) {
  SCOPED_TRACE("directed oracle seed=" + std::to_string(seed));
  size_t n = 0;
  const Digraph g = RandomDigraph(seed, &n);

  Hc2lOptions options;
  options.contract_degree_one = seed % 2 == 0;
  options.tail_pruning = seed % 3 != 0;
  options.num_threads = 1 + seed % 2;
  options.leaf_size = 2 + seed % 7;
  const DirectedHc2lIndex index = DirectedHc2lIndex::Build(g, options);

  std::vector<std::vector<Dist>> oracle(n);
  for (Vertex s = 0; s < n; ++s) {
    oracle[s] = DirectedDistancesFrom(g, s, SearchDirection::kForward);
  }

  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      ASSERT_EQ(index.Query(s, t), oracle[s][t])
          << "point s=" << s << " t=" << t;
    }
  }

  Rng rng(seed * 6007 + 3);
  const Vertex batch_source = static_cast<Vertex>(rng.Below(n));
  const std::vector<Vertex> targets = MakeTargets(rng, n, batch_source);

  const std::vector<Dist> batch = BatchQuery(index, batch_source, targets);
  ASSERT_EQ(batch.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    ASSERT_EQ(batch[i], oracle[batch_source][targets[i]])
        << "batch target index " << i;
  }

  std::vector<Vertex> sources;
  const size_t num_sources = 1 + rng.Below(5);
  for (size_t i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<Vertex>(rng.Below(n)));
  }
  const auto matrix = DistanceMatrix(index, sources, targets);
  ASSERT_EQ(matrix.size(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(matrix[i][j], oracle[sources[i]][targets[j]])
          << "matrix i=" << i << " j=" << j;
    }
  }

  for (const size_t k : {size_t{0}, size_t{2}, targets.size() + 5}) {
    const auto nearest = KNearest(index, batch_source, targets, k);
    const auto expected = OracleKNearest(oracle[batch_source], targets, k);
    ASSERT_EQ(nearest, expected) << "k=" << k;
  }

  // Route oracle, all directed pairs: weight equals the oracle distance and
  // every hop is a real arc traversed in its direction (one-way semantics).
  RoutePath route;
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      SCOPED_TRACE("route s=" + std::to_string(s) + " t=" + std::to_string(t));
      const Status st = index.Route(s, t, &route);
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_NO_FATAL_FAILURE(CheckRouteAgainstOracle(
          g, s, t, oracle[s][t], route, CheckRealDirectedPath));
    }
  }

  // K-alternative directed routes on a diagonal sample.
  for (Vertex s = 0; s < n; s += 3) {
    const Vertex t = static_cast<Vertex>((s * 5 + 7) % n);
    SCOPED_TRACE("alts s=" + std::to_string(s) + " t=" + std::to_string(t));
    ASSERT_NO_FATAL_FAILURE(CheckAlternativesAgainstOracle(
        [&](Vertex a, Vertex b, size_t k, std::vector<RoutePath>* out) {
          return index.Routes(a, b, k, out);
        },
        g, s, t, oracle[s][t], CheckRealDirectedPath));
  }

  // The directed facade request path against the same oracle.
  BuildOptions facade_options;
  facade_options.contract_degree_one = options.contract_degree_one;
  facade_options.tail_pruning = options.tail_pruning;
  facade_options.num_threads = options.num_threads;
  facade_options.leaf_size = options.leaf_size;
  const Result<Router> router = Router::Build(g, facade_options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  CheckExecuteAgainstOracle(*router, oracle, batch_source, targets, sources);

  // Hint-less directed build: routes fall back to the attached digraph.
  BuildOptions hintless_options = facade_options;
  hintless_options.route_hints = false;
  Result<Router> hintless = Router::Build(g, hintless_options);
  ASSERT_TRUE(hintless.ok()) << hintless.status().ToString();
  hintless->AttachDigraph(g);
  for (Vertex s = 0; s < n; s += 4) {
    const Vertex t = static_cast<Vertex>((s * 7 + 2) % n);
    const Status st = hintless->Route(s, t, &route);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_NO_FATAL_FAILURE(CheckRouteAgainstOracle(
        g, s, t, oracle[s][t], route, CheckRealDirectedPath));
  }

  const std::string path = RoundTripPath("oracle_dir", seed);
  const Status saved = index.Save(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  const auto loaded = DirectedHc2lIndex::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumVertices(), n);
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      ASSERT_EQ(loaded->Query(s, t), oracle[s][t])
          << "round-trip point s=" << s << " t=" << t;
    }
  }
  ASSERT_EQ(BatchQuery(*loaded, batch_source, targets), batch);
  ASSERT_EQ(DistanceMatrix(*loaded, sources, targets), matrix);
  // Hints survive the round-trip: the loaded index unpacks correct directed
  // routes.
  ASSERT_TRUE(loaded->HasRouteHints());
  for (Vertex s = 0; s < n; s += 2) {
    for (Vertex t = 1; t < n; t += 3) {
      SCOPED_TRACE("round-trip route s=" + std::to_string(s) +
                   " t=" + std::to_string(t));
      const Status st = loaded->Route(s, t, &route);
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_NO_FATAL_FAILURE(CheckRouteAgainstOracle(
          g, s, t, oracle[s][t], route, CheckRealDirectedPath));
    }
  }
}

/// Removes a sharded manifest and its per-shard index files.
void RemoveShardFiles(const std::string& manifest, size_t num_shards) {
  std::remove(manifest.c_str());
  for (size_t k = 0; k < num_shards; ++k) {
    std::remove((manifest + "." + std::to_string(k)).c_str());
  }
}

/// Compares a (re)loaded sharded index against the monolithic reference on a
/// strided sample of pairs: distances bit-identical, routes real and optimal.
template <typename MonoIndex, typename GraphT, typename CheckRealPath>
void CheckShardedSample(const ShardedIndex& sharded, const MonoIndex& mono,
                        const GraphT& g, size_t n, CheckRealPath check_real) {
  RoutePath route;
  for (Vertex s = 0; s < n; s += 2) {
    for (Vertex t = 1; t < n; t += 3) {
      SCOPED_TRACE("sample s=" + std::to_string(s) + " t=" + std::to_string(t));
      const Dist expected = mono.Query(s, t);
      ASSERT_EQ(sharded.Query(s, t), expected);
      const Status st = sharded.Route(s, t, &route);
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_NO_FATAL_FAILURE(
          CheckRouteAgainstOracle(g, s, t, expected, route, check_real));
    }
  }
}

/// Full sharded differential for one seed, templated over flavour: the graph
/// cut into 2-4 shards must answer every mode bit-identically to the
/// monolithic index over the same graph — point and batch distances, real
/// and optimal routes, k-alternatives — including after a manifest
/// save/reload in both heap and mmap modes and through the Router::Open
/// magic sniff.
template <typename MonoIndex, typename GraphT, typename CheckRealPath>
void CheckShardedSeed(uint64_t seed, const GraphT& g, size_t n,
                      const char* flavour, CheckRealPath check_real) {
  const MonoIndex mono = MonoIndex::Build(g, {});

  ShardOptions options;
  options.num_shards = static_cast<uint32_t>(std::min<uint64_t>(
      2 + seed % 3, n));  // 2-4 shards, clamped to tiny graphs
  options.leaf_size = 2 + static_cast<uint32_t>(seed % 7);
  options.tail_pruning = seed % 3 != 0;
  options.contract_degree_one = seed % 2 == 0;
  options.num_threads = 1 + static_cast<uint32_t>(seed % 2);
  const Result<ShardedIndex> built = ShardedIndex::Build(g, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ShardedIndex& sharded = *built;
  ASSERT_EQ(sharded.NumShards(), options.num_shards);
  ASSERT_EQ(sharded.NumVertices(), n);

  // Point distances, all pairs: bit-identical to the monolithic index.
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      ASSERT_EQ(sharded.Query(s, t), mono.Query(s, t))
          << "point s=" << s << " t=" << t;
    }
  }

  // Batch with duplicate / self / shuffled targets, against the monolithic
  // batch answer.
  Rng rng(seed * 7331 + 11);
  const Vertex batch_source = static_cast<Vertex>(rng.Below(n));
  const std::vector<Vertex> targets = MakeTargets(rng, n, batch_source);
  const std::vector<Dist> expected_batch =
      BatchQuery(mono, batch_source, targets);
  std::vector<Dist> batch(targets.size(), Dist{0xDEAD});
  sharded.BatchQueryInto(batch_source, targets, batch.data());
  ASSERT_EQ(batch, expected_batch);

  // Route oracle, all pairs: weight equals the monolithic distance, every
  // hop a real edge/arc of the original graph.
  RoutePath route;
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      SCOPED_TRACE("route s=" + std::to_string(s) + " t=" + std::to_string(t));
      const Status st = sharded.Route(s, t, &route);
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_NO_FATAL_FAILURE(CheckRouteAgainstOracle(
          g, s, t, mono.Query(s, t), route, check_real));
    }
  }

  // K-alternative cross-shard routes on a diagonal sample.
  for (Vertex s = 0; s < n; s += 3) {
    const Vertex t = static_cast<Vertex>((s * 5 + 7) % n);
    SCOPED_TRACE("alts s=" + std::to_string(s) + " t=" + std::to_string(t));
    ASSERT_NO_FATAL_FAILURE(CheckAlternativesAgainstOracle(
        [&](Vertex a, Vertex b, size_t k, std::vector<RoutePath>* out) {
          return sharded.Routes(a, b, k, out);
        },
        g, s, t, mono.Query(s, t), check_real));
  }

  // Manifest save / reload round-trip, heap and mmap: the reloaded index
  // stays bit-identical on a strided pair sample.
  const std::string manifest = ::testing::TempDir() + "/oracle_shard_" +
                               flavour + "_" + std::to_string(seed) + ".hc2s";
  const Status saved = sharded.Save(manifest);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  for (const bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "reload mmap" : "reload heap");
    const Result<ShardedIndex> reload = ShardedIndex::Load(manifest, use_mmap);
    ASSERT_TRUE(reload.ok()) << reload.status().ToString();
    ASSERT_EQ(reload->NumShards(), sharded.NumShards());
    ASSERT_EQ(reload->NumVertices(), n);
    ASSERT_EQ(reload->MappedBytes() > 0, use_mmap);
    ASSERT_NO_FATAL_FAILURE(
        CheckShardedSample(*reload, mono, g, n, check_real));
  }

  // The facade sniffs the manifest magic and serves it through the same
  // surface as a monolithic file.
  const Result<Router> router = Router::Open(manifest, OpenMode::kMmap);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  for (Vertex s = 0; s < n; s += 5) {
    const Vertex t = static_cast<Vertex>((s * 3 + 1) % n);
    const Result<Dist> d = router->Distance(s, t);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_EQ(*d, mono.Query(s, t)) << "facade s=" << s << " t=" << t;
  }
  RemoveShardFiles(manifest, options.num_shards);
}

void CheckShardedUndirectedSeed(uint64_t seed) {
  SCOPED_TRACE("sharded undirected seed=" + std::to_string(seed));
  size_t n = 0;
  const Graph g = RandomGraph(seed, &n);
  CheckShardedSeed<Hc2lIndex>(seed, g, n, "und", CheckRealUndirectedPath);
}

void CheckShardedDirectedSeed(uint64_t seed) {
  SCOPED_TRACE("sharded directed seed=" + std::to_string(seed));
  size_t n = 0;
  const Digraph g = RandomDigraph(seed, &n);
  CheckShardedSeed<DirectedHc2lIndex>(seed, g, n, "dir",
                                      CheckRealDirectedPath);
}

// 140 undirected + 80 directed seeds = 220 random graphs, sharded so ctest
// can run them in parallel and a timeout pins the failing range.

TEST(DifferentialOracle, UndirectedSeeds1To70) {
  for (uint64_t seed = 1; seed <= 70; ++seed) CheckUndirectedSeed(seed);
}

TEST(DifferentialOracle, UndirectedSeeds71To140) {
  for (uint64_t seed = 71; seed <= 140; ++seed) CheckUndirectedSeed(seed);
}

TEST(DifferentialOracle, DirectedSeeds1To40) {
  for (uint64_t seed = 1; seed <= 40; ++seed) CheckDirectedSeed(seed);
}

TEST(DifferentialOracle, DirectedSeeds41To80) {
  for (uint64_t seed = 41; seed <= 80; ++seed) CheckDirectedSeed(seed);
}

// The same 220 seeds again, each cut into 2-4 shards: sharded routing must
// be indistinguishable from the monolithic index, on- and off-disk.

TEST(DifferentialOracle, ShardedUndirectedSeeds1To70) {
  for (uint64_t seed = 1; seed <= 70; ++seed) CheckShardedUndirectedSeed(seed);
}

TEST(DifferentialOracle, ShardedUndirectedSeeds71To140) {
  for (uint64_t seed = 71; seed <= 140; ++seed) {
    CheckShardedUndirectedSeed(seed);
  }
}

TEST(DifferentialOracle, ShardedDirectedSeeds1To40) {
  for (uint64_t seed = 1; seed <= 40; ++seed) CheckShardedDirectedSeed(seed);
}

TEST(DifferentialOracle, ShardedDirectedSeeds41To80) {
  for (uint64_t seed = 41; seed <= 80; ++seed) CheckShardedDirectedSeed(seed);
}

}  // namespace
}  // namespace hc2l
