#include "search/dijkstra.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "common/rng.h"
#include "graph/digraph.h"
#include "graph/road_network_generator.h"
#include "search/directed_dijkstra.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::FloydWarshall;
using ::hc2l::testing::MakeCycle;
using ::hc2l::testing::MakeGrid;
using ::hc2l::testing::MakePath;

TEST(Dijkstra, PathGraphDistances) {
  Graph g = MakePath(6, 3);
  Dijkstra d(g);
  d.Run(0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(d.DistanceTo(v), 3u * v);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  Graph g = std::move(b).Build();
  Dijkstra d(g);
  d.Run(0);
  EXPECT_EQ(d.DistanceTo(2), kInfDist);
}

TEST(Dijkstra, ReusableAcrossRuns) {
  Graph g = MakePath(5, 2);
  Dijkstra d(g);
  d.Run(0);
  EXPECT_EQ(d.DistanceTo(4), 8u);
  d.Run(4);
  EXPECT_EQ(d.DistanceTo(0), 8u);
  EXPECT_EQ(d.DistanceTo(4), 0u);
}

TEST(Dijkstra, EarlyExitAtTarget) {
  Graph g = MakePath(100, 1);
  Dijkstra d(g);
  d.RunToTarget(0, 3);
  EXPECT_EQ(d.DistanceTo(3), 3u);
  // Vertices beyond the target were not settled.
  EXPECT_LT(d.SettledVertices().size(), 10u);
}

TEST(Dijkstra, FurthestVertexOnPath) {
  Graph g = MakePath(7);
  Dijkstra d(g);
  d.Run(0);
  EXPECT_EQ(d.FurthestVertex(), 6u);
}

TEST(Dijkstra, MatchesFloydWarshallOnRandomGeometricGraph) {
  Graph g = GenerateRandomGeometricGraph(40, 3, 11);
  auto truth = FloydWarshall(g);
  Dijkstra d(g);
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    d.Run(s);
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(d.DistanceTo(t), truth[s][t]) << "s=" << s << " t=" << t;
    }
  }
}

TEST(ShortestPathDistance, GridCorners) {
  Graph g = MakeGrid(5, 5);
  EXPECT_EQ(ShortestPathDistance(g, 0, 24), 8u);
}

TEST(AllDistancesFrom, MatchesDijkstra) {
  Graph g = MakeCycle(9, 2);
  auto dist = AllDistancesFrom(g, 0);
  EXPECT_EQ(dist[4], 8u);
  EXPECT_EQ(dist[5], 8u);
  EXPECT_EQ(dist[8], 2u);
}

class BidiDijkstraParam : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BidiDijkstraParam, MatchesUnidirectionalOnRoadNetworks) {
  RoadNetworkOptions opt;
  opt.rows = 14;
  opt.cols = 17;
  opt.seed = GetParam();
  Graph g = GenerateRoadNetwork(opt);
  Dijkstra uni(g);
  BidirectionalDijkstra bidi(g);
  Rng rng(GetParam() * 31 + 7);
  for (int i = 0; i < 50; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
    uni.RunToTarget(s, t);
    ASSERT_EQ(bidi.Query(s, t), uni.DistanceTo(t)) << "s=" << s << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BidiDijkstraParam,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BidirectionalDijkstra, SameSourceAndTarget) {
  Graph g = MakeGrid(3, 3);
  BidirectionalDijkstra bidi(g);
  EXPECT_EQ(bidi.Query(4, 4), 0u);
}

TEST(BidirectionalDijkstra, DisconnectedPair) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1);
  b.AddEdge(2, 3, 1);
  Graph g = std::move(b).Build();
  BidirectionalDijkstra bidi(g);
  EXPECT_EQ(bidi.Query(0, 3), kInfDist);
}

TEST(DistAndPrune, FlagsPathsThroughTrackedSet) {
  // Path 0-1-2-3: from root 0 with P={1}, vertices 2 and 3 are reached only
  // through 1, vertex 1 itself is not its own intermediate.
  Graph g = MakePath(4, 1);
  std::vector<uint8_t> in_p(4, 0);
  in_p[1] = 1;
  auto r = DistAndPrune(g, 0, in_p);
  EXPECT_EQ(r.dist[3], 3u);
  EXPECT_EQ(r.via[0], 0);
  EXPECT_EQ(r.via[1], 0);
  EXPECT_EQ(r.via[2], 1);
  EXPECT_EQ(r.via[3], 1);
}

TEST(DistAndPrune, ExistentialOverTiedShortestPaths) {
  // Diamond: 0-1-3 and 0-2-3, both length 2. P = {1}: one of the two
  // shortest paths to 3 passes through 1, so via[3] must be set.
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1);
  b.AddEdge(0, 2, 1);
  b.AddEdge(1, 3, 1);
  b.AddEdge(2, 3, 1);
  Graph g = std::move(b).Build();
  std::vector<uint8_t> in_p(4, 0);
  in_p[1] = 1;
  auto r = DistAndPrune(g, 0, in_p);
  EXPECT_EQ(r.dist[3], 2u);
  EXPECT_EQ(r.via[3], 1);
  EXPECT_EQ(r.via[2], 0);
}

TEST(DistAndPrune, RootMembershipIgnored) {
  Graph g = MakePath(3, 1);
  std::vector<uint8_t> in_p(3, 0);
  in_p[0] = 1;  // root itself tracked: must not mark anything
  auto r = DistAndPrune(g, 0, in_p);
  EXPECT_EQ(r.via[1], 0);
  EXPECT_EQ(r.via[2], 0);
}

TEST(DistAndPrune, NoTrackedVerticesNothingFlagged) {
  Graph g = MakeGrid(4, 4);
  std::vector<uint8_t> in_p(16, 0);
  auto r = DistAndPrune(g, 5, in_p);
  for (Vertex v = 0; v < 16; ++v) EXPECT_EQ(r.via[v], 0);
}

TEST(DistAndPrune, MatchesBruteForceSemantics) {
  // via[v] == 1 iff exists u in P, u != root, u != v with
  // d(root,u) + d(u,v) == d(root,v).
  Graph g = GenerateRandomGeometricGraph(35, 3, 99);
  auto truth = FloydWarshall(g);
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Vertex root = static_cast<Vertex>(rng.Below(g.NumVertices()));
    std::vector<uint8_t> in_p(g.NumVertices(), 0);
    for (int j = 0; j < 4; ++j) in_p[rng.Below(g.NumVertices())] = 1;
    auto r = DistAndPrune(g, root, in_p);
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(r.dist[v], truth[root][v]);
      bool expect_via = false;
      for (Vertex u = 0; u < g.NumVertices(); ++u) {
        if (!in_p[u] || u == root || u == v) continue;
        if (truth[root][u] != kInfDist && truth[u][v] != kInfDist &&
            truth[root][u] + truth[u][v] == truth[root][v]) {
          expect_via = true;
        }
      }
      ASSERT_EQ(r.via[v] != 0, expect_via)
          << "root=" << root << " v=" << v << " trial=" << trial;
    }
  }
}

// --- Algorithm 4 against path enumeration. Small random graphs with
// weights in {1, 2} have many tied shortest paths; every simple path from
// the root is enumerated, and the expected flag of v is "some path of
// minimum length to v has an intermediate tracked vertex".

struct Enumerated {
  std::vector<Dist> dist;
  std::vector<uint8_t> via;
};

/// Enumerates every simple path from `root` along `edges` (from, to,
/// weight), read backwards when `backward` (a path then runs against the
/// arcs, as a backward search does).
Enumerated EnumeratePaths(size_t n, const std::vector<Edge>& edges,
                          bool backward, Vertex root,
                          const std::function<bool(Vertex)>& tracked) {
  Enumerated out{std::vector<Dist>(n, kInfDist), std::vector<uint8_t>(n, 0)};
  std::vector<uint8_t> on_path(n, 0);
  std::function<void(Vertex, Dist, bool)> visit;
  visit = [&](Vertex v, Dist len, bool through) {
    if (len < out.dist[v]) {
      out.dist[v] = len;
      out.via[v] = through ? 1 : 0;
    } else if (len == out.dist[v] && through) {
      out.via[v] = 1;
    }
    on_path[v] = 1;
    const bool next_through = through || (v != root && tracked(v));
    for (const Edge& e : edges) {
      const Vertex from = backward ? e.v : e.u;
      const Vertex to = backward ? e.u : e.v;
      if (from == v && !on_path[to]) visit(to, len + e.weight, next_through);
    }
    on_path[v] = 0;
  };
  visit(root, 0, false);
  return out;
}

/// A random simple graph on n vertices as arcs (both orientations of each
/// edge when `symmetric`), weights in {1, 2}.
std::vector<Edge> RandomArcs(Rng& rng, size_t n, bool symmetric) {
  std::vector<Edge> arcs;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = symmetric ? u + 1 : 0; v < n; ++v) {
      if (u == v || !rng.Chance(symmetric ? 0.45 : 0.3)) continue;
      const Weight w = rng.Chance(0.5) ? 1 : 2;
      arcs.push_back({u, v, w});
      if (symmetric) arcs.push_back({v, u, w});
    }
  }
  return arcs;
}

/// Compares one search result with the enumeration; `what` names the case.
::testing::AssertionResult Matches(const std::vector<Dist>& dist,
                                   const std::vector<uint8_t>& via,
                                   const Enumerated& truth,
                                   const std::string& what) {
  for (Vertex v = 0; v < truth.dist.size(); ++v) {
    if (dist[v] != truth.dist[v] || via[v] != truth.via[v]) {
      return ::testing::AssertionFailure()
             << what << " v=" << v << ": dist " << dist[v] << " via "
             << int{via[v]} << ", enumeration dist " << truth.dist[v]
             << " via " << int{truth.via[v]};
    }
  }
  return ::testing::AssertionSuccess();
}

/// Runs the property on both graph shapes: an undirected graph (one
/// search) and a digraph in both directions. For each seed and root: a
/// random mask through DistAndPrune / DirectedDistAndPrune, then every
/// prefix of a random cut order both as a mask and as the pos[u] < limit
/// threshold over one shared ShortestPathTree (the labelling's form).
void CheckAlgorithm4(bool directed) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 7919 + (directed ? 1 : 0));
    const size_t n = 2 + rng.Below(7);
    const std::vector<Edge> arcs = RandomArcs(rng, n, !directed);
    GraphBuilder gb(n);
    DigraphBuilder db(n);
    for (const Edge& a : arcs) {
      if (directed) {
        db.AddArc(a.u, a.v, a.weight);
      } else if (a.u < a.v) {
        gb.AddEdge(a.u, a.v, a.weight);
      }
    }
    const Graph g = std::move(gb).Build();
    const Digraph dg = std::move(db).Build();
    for (const bool backward : {false, true}) {
      if (!directed && backward) continue;
      const SearchDirection dir =
          backward ? SearchDirection::kBackward : SearchDirection::kForward;
      const auto search = [&](Vertex root, const std::vector<uint8_t>& mask) {
        return directed ? DirectedDistAndPrune(dg, root, dir, mask)
                        : DistAndPrune(g, root, mask);
      };
      const auto arcs_of = [&](Vertex v) -> std::span<const Arc> {
        if (!directed) return g.Neighbors(v);
        return backward ? dg.InArcs(v) : dg.OutArcs(v);
      };
      for (Vertex root = 0; root < n; ++root) {
        const std::string where = "seed=" + std::to_string(seed) +
                                  (directed ? " directed" : " undirected") +
                                  (backward ? " backward" : " forward") +
                                  " root=" + std::to_string(root);
        std::vector<uint8_t> mask(n, 0);
        for (Vertex v = 0; v < n; ++v) mask[v] = rng.Chance(0.4) ? 1 : 0;
        const DistAndPruneResult r = search(root, mask);
        const Enumerated masked = EnumeratePaths(
            n, arcs, backward, root, [&](Vertex u) { return mask[u] != 0; });
        ASSERT_TRUE(Matches(r.dist, r.via, masked, where + " random mask"));

        std::vector<Vertex> cut(n);
        for (Vertex v = 0; v < n; ++v) cut[v] = v;
        for (size_t i = n; i > 1; --i) {
          std::swap(cut[i - 1], cut[rng.Below(i)]);
        }
        cut.resize(1 + rng.Below(n));
        std::vector<uint32_t> pos(n, UINT32_MAX);
        for (size_t i = 0; i < cut.size(); ++i) {
          pos[cut[i]] = static_cast<uint32_t>(i);
        }
        const ShortestPathTree tree = ShortestPathTreeOver(n, root, arcs_of);
        ASSERT_EQ(tree.order.front(), root) << where;
        for (uint32_t limit = 0; limit <= cut.size(); ++limit) {
          const auto tracked = [&](Vertex u) { return pos[u] < limit; };
          const Enumerated truth =
              EnumeratePaths(n, arcs, backward, root, tracked);
          const std::string what = where + " limit=" + std::to_string(limit);
          std::vector<uint8_t> via;
          FlagTrackedPaths(tree, arcs_of, tracked, &via);
          ASSERT_TRUE(Matches(tree.dist, via, truth, what + " tree pass"));
          std::vector<uint8_t> prefix(n, 0);
          for (size_t i = 0; i < limit; ++i) prefix[cut[i]] = 1;
          const DistAndPruneResult p = search(root, prefix);
          ASSERT_TRUE(Matches(p.dist, p.via, truth, what + " prefix mask"));
        }
      }
    }
  }
}

TEST(DistAndPrune, MatchesPathEnumerationOnRandomGraphs) {
  CheckAlgorithm4(/*directed=*/false);
}

TEST(DirectedDistAndPrune, MatchesPathEnumerationBothDirections) {
  CheckAlgorithm4(/*directed=*/true);
}

// --- The build's search kernel (SettleFrom) against a std::pop_heap
// reference, on seeded random graphs and digraphs of 2-200 vertices. A
// third of the graphs draw weights from [2^30, 2^32 - 1], so path sums pass
// 2^32 and the heap's wide (Dist, Vertex) path runs; others use weights
// in {1, 2}, whose many ties exercise the (distance, vertex) order.

/// Random adjacency lists on n vertices (each edge in both orientations
/// when `symmetric`), built through the graph builders so that parallel
/// arcs collapse as in the real graphs.
struct RandomNetwork {
  Graph graph;
  Digraph digraph;
};

RandomNetwork RandomKernelNetwork(Rng& rng, size_t n) {
  const int weights = static_cast<int>(rng.Below(3));
  const auto weight = [&]() -> Weight {
    switch (weights) {
      case 0:
        return static_cast<Weight>(rng.Range(1, 2));
      case 1:
        return static_cast<Weight>(rng.Range(1, 1000));
      default:
        return static_cast<Weight>(rng.Range(Weight{1} << 30, UINT32_MAX));
    }
  };
  const size_t arcs = rng.Below(3 * n + 1);
  GraphBuilder gb(n);
  DigraphBuilder db(n);
  for (size_t k = 0; k < arcs; ++k) {
    const Vertex u = static_cast<Vertex>(rng.Below(n));
    const Vertex v = static_cast<Vertex>(rng.Below(n));
    const Weight w = weight();
    gb.AddEdge(u, v, w);
    db.AddArc(u, v, w);
  }
  return {std::move(gb).Build(), std::move(db).Build()};
}

/// Lazy-deletion Dijkstra through std::pop_heap: the reference.
template <typename ArcsFn>
std::vector<Dist> PopHeapDistances(size_t n, Vertex root,
                                   const ArcsFn& arcs) {
  std::vector<Dist> dist(n, kInfDist);
  std::vector<std::pair<Dist, Vertex>> heap{{0, root}};
  dist[root] = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [d, v] = heap.back();
    heap.pop_back();
    if (d > dist[v]) continue;
    for (const Arc& a : arcs(v)) {
      if (d + a.weight < dist[a.to]) {
        dist[a.to] = d + a.weight;
        heap.push_back({dist[a.to], a.to});
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
    }
  }
  return dist;
}

/// Checks every root of one adjacency; returns whether some search ran
/// on the wide heap.
template <typename ArcsFn>
bool CheckKernel(size_t n, const ArcsFn& arcs, Rng& rng,
                 const std::string& where) {
  bool widened = false;
  SearchHeap heap;
  for (Vertex root = 0; root < n; ++root) {
    const std::string what = where + " root=" + std::to_string(root);
    const std::vector<Dist> expect = PopHeapDistances(n, root, arcs);

    // Unbounded: exact everywhere, settled once each in (distance,
    // vertex) order, exactly the reachable set.
    std::vector<Dist> dist(n, kInfDist);
    std::vector<Vertex> order;
    SettleFrom(heap, root, kInfDist, arcs, dist,
               [&](Vertex v) { order.push_back(v); });
    widened = widened || heap.wide();
    EXPECT_EQ(dist, expect) << what;
    std::vector<uint8_t> seen(n, 0);
    for (size_t k = 0; k < order.size(); ++k) {
      const Vertex v = order[k];
      EXPECT_EQ(seen[v], 0) << what << " settled twice: " << v;
      seen[v] = 1;
      if (k > 0) {
        const Vertex u = order[k - 1];
        EXPECT_TRUE(expect[u] < expect[v] ||
                    (expect[u] == expect[v] && u < v))
            << what << " out of order: " << u << " before " << v;
      }
    }
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_EQ(seen[v] != 0, expect[v] != kInfDist) << what << " v=" << v;
    }

    // Bounded by the distance of a random reachable vertex (ties at the
    // radius included) or by one below it: exact and settled within, and
    // nothing settled beyond.
    const Vertex pick = order[rng.Below(order.size())];
    const Dist radius = expect[pick] - (rng.Chance(0.5) && pick != root);
    std::vector<Dist> bounded(n, kInfDist);
    std::vector<uint8_t> settled(n, 0);
    SettleFrom(heap, root, radius, arcs, bounded,
               [&](Vertex v) { settled[v] = 1; });
    widened = widened || heap.wide();
    for (Vertex v = 0; v < n; ++v) {
      const bool within = expect[v] <= radius;
      EXPECT_EQ(settled[v] != 0, within)
          << what << " radius=" << radius << " v=" << v;
      if (within) {
        EXPECT_EQ(bounded[v], expect[v]) << what << " radius=" << radius;
      } else {
        EXPECT_TRUE(bounded[v] > radius) << what << " radius=" << radius;
      }
    }
  }
  return widened;
}

TEST(SettleFrom, MatchesPopHeapReferenceOnRandomNetworks) {
  int widened = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 7919);
    const size_t n = 2 + rng.Below(seed % 10 == 0 ? 199 : 60);
    const RandomNetwork net = RandomKernelNetwork(rng, n);
    const std::string where = "seed=" + std::to_string(seed);
    widened += CheckKernel(
        n, [&](Vertex v) { return net.graph.Neighbors(v); }, rng,
        where + " graph");
    widened += CheckKernel(
        n, [&](Vertex v) { return net.digraph.OutArcs(v); }, rng,
        where + " digraph out");
    widened += CheckKernel(
        n, [&](Vertex v) { return net.digraph.InArcs(v); }, rng,
        where + " digraph in");
    if (::testing::Test::HasFailure()) {
      FAIL() << "first failing " << where;
    }
  }
  // The wide fallback must have run, or the test misses half the heap.
  EXPECT_GT(widened, 50);
}

TEST(SettleFrom, WideningKeepsTheHeapOrder) {
  // Packed keys pushed, then one past 2^32: every entry must come out in
  // (distance, vertex) order across the switch.
  SearchHeap heap;
  std::vector<std::pair<Dist, Vertex>> pushed;
  Rng rng(17);
  for (int k = 0; k < 200; ++k) {
    const Dist d = rng.Below(1000);
    const Vertex v = static_cast<Vertex>(rng.Below(50));
    heap.Push(d, v);
    pushed.emplace_back(d, v);
  }
  EXPECT_FALSE(heap.wide());
  heap.Push(Dist{1} << 32, 3);
  pushed.emplace_back(Dist{1} << 32, 3);
  heap.Push(5, UINT32_MAX - 1);
  pushed.emplace_back(5, UINT32_MAX - 1);
  EXPECT_TRUE(heap.wide());
  std::sort(pushed.begin(), pushed.end());
  for (const auto& entry : pushed) {
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(heap.Pop(), entry);
  }
  EXPECT_TRUE(heap.empty());
  heap.Clear();
  EXPECT_FALSE(heap.wide());
}

TEST(BfsHops, GridHopCounts) {
  Graph g = MakeGrid(3, 3, 100);  // weights ignored by BFS
  auto hops = BfsHops(g, 0);
  EXPECT_EQ(hops[8], 4u);
  EXPECT_EQ(hops[4], 2u);
}

}  // namespace
}  // namespace hc2l
