#include "partition/balanced_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/digraph.h"
#include "graph/road_network_generator.h"
#include "partition/balanced_cut.h"
#include "partition/shortcuts.h"
#include "search/dijkstra.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::MakeBarbell;
using ::hc2l::testing::MakeComplete;
using ::hc2l::testing::MakeGrid;
using ::hc2l::testing::MakePath;

void ExpectDisjointCover(const BalancedPartitionResult& r, size_t n) {
  std::vector<int> seen(n, 0);
  for (Vertex v : r.part_a) ++seen[v];
  for (Vertex v : r.cut_region) ++seen[v];
  for (Vertex v : r.part_b) ++seen[v];
  for (size_t v = 0; v < n; ++v) {
    ASSERT_EQ(seen[v], 1) << "vertex " << v;
  }
}

TEST(BalancedPartition, EmptyAndSingleton) {
  Graph empty = GraphBuilder(0).Build();
  auto r0 = BalancedPartition(empty, 0.2);
  EXPECT_TRUE(r0.part_a.empty());
  Graph one = GraphBuilder(1).Build();
  auto r1 = BalancedPartition(one, 0.2);
  ExpectDisjointCover(r1, 1);
}

TEST(BalancedPartition, PathSplitsAroundMiddle) {
  Graph g = MakePath(100);
  auto r = BalancedPartition(g, 0.3);
  ExpectDisjointCover(r, 100);
  EXPECT_GE(r.part_a.size(), 30u);
  EXPECT_GE(r.part_b.size(), 30u);
  // On a path, partition weights are all distinct, so partitions are the two
  // prefix/suffix segments and the cut region sits between them.
  for (Vertex v : r.part_a) {
    for (Vertex w : r.part_b) EXPECT_GT((v > w ? v - w : w - v), 1u);
  }
}

TEST(BalancedPartition, GridPartitionsAreBalanced) {
  Graph g = MakeGrid(12, 12);
  auto r = BalancedPartition(g, 0.25);
  ExpectDisjointCover(r, 144);
  EXPECT_GE(r.part_a.size(), 144 * 0.25 - 1);
  EXPECT_GE(r.part_b.size(), 144 * 0.25 - 1);
}

TEST(BalancedPartition, BarbellBottleneckGoesToCutRegion) {
  // Two 10-cliques joined by one middle vertex: pw collapses on the bridge,
  // triggering the bottleneck path (lines 18-22).
  Graph g = MakeBarbell(10, 1, 1);
  auto r = BalancedPartition(g, 0.3);
  ExpectDisjointCover(r, 21);
  // Neither clique may be split across partitions together with the other.
  EXPECT_LE(r.part_a.size(), 14u);
  EXPECT_LE(r.part_b.size(), 14u);
}

TEST(BalancedPartition, CompleteGraphTerminates) {
  Graph g = MakeComplete(12);
  auto r = BalancedPartition(g, 0.2);
  ExpectDisjointCover(r, 12);
}

TEST(BalancedPartition, DisconnectedDominantComponent) {
  // 30-vertex grid plus 3 isolated vertices: dominant component is
  // partitioned, isolated ones join the cut region.
  GraphBuilder b(33);
  for (const Edge& e : MakeGrid(5, 6).UndirectedEdges()) {
    b.AddEdge(e.u, e.v, e.weight);
  }
  Graph g = std::move(b).Build();
  auto r = BalancedPartition(g, 0.2);
  ExpectDisjointCover(r, 33);
  std::vector<Vertex> isolated = {30, 31, 32};
  for (Vertex v : isolated) {
    EXPECT_TRUE(std::count(r.cut_region.begin(), r.cut_region.end(), v) == 1);
  }
}

TEST(BalancedPartition, DisconnectedBalancedComponents) {
  // Two similar components: they become the partitions with an empty-ish cut.
  GraphBuilder b(20);
  for (Vertex v = 0; v + 1 < 10; ++v) {
    b.AddEdge(v, v + 1, 1);
    b.AddEdge(static_cast<Vertex>(10 + v), static_cast<Vertex>(11 + v), 1);
  }
  Graph g = std::move(b).Build();
  auto r = BalancedPartition(g, 0.2);
  ExpectDisjointCover(r, 20);
  EXPECT_EQ(r.part_a.size(), 10u);
  EXPECT_EQ(r.part_b.size(), 10u);
  EXPECT_TRUE(r.cut_region.empty());
}

class BalancedCutParam
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(BalancedCutParam, SeparatesAndBalances) {
  const auto [seed, beta] = GetParam();
  RoadNetworkOptions opt;
  opt.rows = 15;
  opt.cols = 18;
  opt.seed = seed;
  Graph g = GenerateRoadNetwork(opt);
  auto r = BalancedCut(g, beta);
  EXPECT_TRUE(IsValidSeparator(g, r));
  const size_t n = g.NumVertices();
  EXPECT_EQ(r.part_a.size() + r.part_b.size() + r.cut.size(), n);
  // Road-network cuts should be small and both sides substantial.
  EXPECT_LT(r.cut.size(), n / 4);
  EXPECT_LE(r.part_a.size(), (1.0 - beta) * n + 1);
  EXPECT_LE(r.part_b.size(), (1.0 - beta) * n + 1);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBetas, BalancedCutParam,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0.15, 0.2, 0.3)));

TEST(BalancedCut, GridCutIsColumnSized) {
  Graph g = MakeGrid(10, 20);
  auto r = BalancedCut(g, 0.2);
  EXPECT_TRUE(IsValidSeparator(g, r));
  // A 10x20 grid has 10-vertex column separators; the minimum cut must not
  // exceed that by much.
  EXPECT_LE(r.cut.size(), 12u);
  EXPECT_GE(r.cut.size(), 1u);
}

TEST(BalancedCut, PathGraph) {
  Graph g = MakePath(50);
  auto r = BalancedCut(g, 0.2);
  EXPECT_TRUE(IsValidSeparator(g, r));
  EXPECT_EQ(r.cut.size(), 1u);
  EXPECT_GE(std::min(r.part_a.size(), r.part_b.size()), 9u);
}

TEST(BalancedCut, TinyGraphs) {
  for (size_t n = 1; n <= 4; ++n) {
    Graph g = MakePath(n);
    auto r = BalancedCut(g, 0.2);
    EXPECT_TRUE(IsValidSeparator(g, r));
    EXPECT_EQ(r.part_a.size() + r.part_b.size() + r.cut.size(), n);
  }
}

TEST(BalancedCut, DisconnectedGraphEmptyCut) {
  GraphBuilder b(16);
  for (Vertex v = 0; v + 1 < 8; ++v) {
    b.AddEdge(v, v + 1, 1);
    b.AddEdge(static_cast<Vertex>(8 + v), static_cast<Vertex>(9 + v), 1);
  }
  Graph g = std::move(b).Build();
  auto r = BalancedCut(g, 0.2);
  EXPECT_TRUE(IsValidSeparator(g, r));
  EXPECT_TRUE(r.cut.empty());
  EXPECT_EQ(r.part_a.size(), 8u);
  EXPECT_EQ(r.part_b.size(), 8u);
}

TEST(ComputeShortcuts, PreservesDistancesOnGrid) {
  Graph g = MakeGrid(8, 8, 3);
  auto r = BalancedCut(g, 0.2);
  ASSERT_TRUE(IsValidSeparator(g, r));
  // Distances from each cut vertex.
  std::vector<std::vector<Dist>> dist_from_cut;
  for (Vertex c : r.cut) dist_from_cut.push_back(AllDistancesFrom(g, c));
  ThreadPool pool(1);
  for (const std::vector<Vertex>* part : {&r.part_a, &r.part_b}) {
    if (part->empty()) continue;
    auto sc = ComputeShortcuts(g, r.cut, *part, dist_from_cut, pool);
    std::vector<Edge> extra = sc.shortcuts;
    Subgraph enhanced = InducedSubgraph(g, *part, extra);
    EXPECT_TRUE(
        IsDistancePreserving(g, enhanced.graph, enhanced.to_parent));
  }
}

TEST(ComputeShortcuts, ShortcutsAreNonRedundant) {
  // Every added shortcut must be strictly shorter than the within-partition
  // distance and not decomposable through another border vertex: removing
  // any one shortcut must break distance preservation.
  Graph g = MakeGrid(6, 6, 2);
  auto r = BalancedCut(g, 0.2);
  std::vector<std::vector<Dist>> dist_from_cut;
  for (Vertex c : r.cut) dist_from_cut.push_back(AllDistancesFrom(g, c));
  ThreadPool pool(1);
  for (const std::vector<Vertex>* part : {&r.part_a, &r.part_b}) {
    if (part->empty()) continue;
    auto sc = ComputeShortcuts(g, r.cut, *part, dist_from_cut, pool);
    for (size_t skip = 0; skip < sc.shortcuts.size(); ++skip) {
      std::vector<Edge> reduced;
      for (size_t i = 0; i < sc.shortcuts.size(); ++i) {
        if (i != skip) reduced.push_back(sc.shortcuts[i]);
      }
      Subgraph enhanced = InducedSubgraph(g, *part, reduced);
      EXPECT_FALSE(
          IsDistancePreserving(g, enhanced.graph, enhanced.to_parent))
          << "shortcut " << skip << " was redundant";
    }
  }
}

TEST(ComputeShortcuts, NoShortcutsWhenAlreadyPreserving) {
  // Path graph: cutting one vertex leaves prefix/suffix segments that are
  // already distance-preserving.
  Graph g = MakePath(30, 4);
  auto r = BalancedCut(g, 0.2);
  std::vector<std::vector<Dist>> dist_from_cut;
  for (Vertex c : r.cut) dist_from_cut.push_back(AllDistancesFrom(g, c));
  ThreadPool pool(1);
  for (const std::vector<Vertex>* part : {&r.part_a, &r.part_b}) {
    auto sc = ComputeShortcuts(g, r.cut, *part, dist_from_cut, pool);
    EXPECT_TRUE(sc.shortcuts.empty());
  }
}

class ShortcutPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShortcutPropertyTest, DistancePreservationOnRoadNetworks) {
  RoadNetworkOptions opt;
  opt.rows = 9;
  opt.cols = 11;
  opt.seed = GetParam();
  Graph g = GenerateRoadNetwork(opt);
  auto r = BalancedCut(g, 0.25);
  ASSERT_TRUE(IsValidSeparator(g, r));
  std::vector<std::vector<Dist>> dist_from_cut;
  for (Vertex c : r.cut) dist_from_cut.push_back(AllDistancesFrom(g, c));
  ThreadPool pool(1);
  for (const std::vector<Vertex>* part : {&r.part_a, &r.part_b}) {
    if (part->empty()) continue;
    auto sc = ComputeShortcuts(g, r.cut, *part, dist_from_cut, pool);
    Subgraph enhanced = InducedSubgraph(g, *part, sc.shortcuts);
    EXPECT_TRUE(IsDistancePreserving(g, enhanced.graph, enhanced.to_parent));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShortcutPropertyTest,
                         ::testing::Values(10, 20, 30, 40, 50));

// --- Algorithm 3 against a brute force: Floyd-Warshall over G and G[P],
// then lines 7-16 as the paper writes them, on seeded random graphs and
// digraphs with random cuts and parts (parts are unions of components of
// G minus the cut, so they may be disconnected). Small weights make ties
// between d_G[P] and the detour through the cut common, one-way arcs make
// detours infinite (the unbounded border searches).

/// All-pairs distances over the arcs `arcs(v)` between vertices with
/// allowed[v] (others are kInfDist).
template <typename ArcsFn>
std::vector<std::vector<Dist>> AllPairs(size_t n, const ArcsFn& arcs,
                                        const std::vector<uint8_t>& allowed) {
  std::vector<std::vector<Dist>> d(n, std::vector<Dist>(n, kInfDist));
  for (Vertex u = 0; u < n; ++u) {
    if (!allowed[u]) continue;
    d[u][u] = 0;
    for (const Arc& a : arcs(u)) {
      if (allowed[a.to]) d[u][a.to] = std::min<Dist>(d[u][a.to], a.weight);
    }
  }
  for (Vertex k = 0; k < n; ++k) {
    for (Vertex i = 0; i < n; ++i) {
      if (d[i][k] == kInfDist) continue;
      for (Vertex j = 0; j < n; ++j) {
        if (d[k][j] != kInfDist) d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

/// What the reference saw over all seeds, so the test can tell it covered
/// the cases the bounded searches distinguish.
struct Alg3Coverage {
  uint64_t shortcuts = 0;
  uint64_t unbounded_rows = 0;   // some detour of the row is infinite
  uint64_t beyond_radius = 0;    // d_G[P] > the row's finite radius
  uint64_t tie_at_radius = 0;    // d_G[P] == detour == the row's radius
};

/// Lines 2 and 7-16 of Algorithm 3 for one part. `d` is all-pairs in G,
/// `touches(v)` whether v has an arc to or from the cut.
template <typename TouchFn>
std::vector<DirectedArc> ReferenceShortcuts(
    bool symmetric, const std::vector<Vertex>& cut,
    const std::vector<Vertex>& part, const std::vector<std::vector<Dist>>& d,
    const std::vector<std::vector<Dist>>& d_gp, const TouchFn& touches,
    Alg3Coverage* coverage) {
  std::vector<Vertex> border;
  for (Vertex v : part) {
    if (touches(v)) border.push_back(v);
  }
  const size_t b = border.size();
  std::vector<std::vector<Dist>> through(b, std::vector<Dist>(b, kInfDist));
  std::vector<std::vector<Dist>> d_g(b, std::vector<Dist>(b, kInfDist));
  for (size_t i = 0; i < b; ++i) {
    for (size_t j = 0; j < b; ++j) {
      for (Vertex c : cut) {
        through[i][j] = std::min(
            through[i][j], AddDist(d[border[i]][c], d[c][border[j]]));
      }
      d_g[i][j] = std::min(d_gp[border[i]][border[j]], through[i][j]);
    }
  }
  std::vector<DirectedArc> out;
  for (size_t i = 0; i < b; ++i) {
    Dist radius = 0;
    for (size_t j = symmetric ? i + 1 : 0; j < b; ++j) {
      if (j != i) radius = std::max(radius, through[i][j]);
    }
    if (radius == kInfDist) ++coverage->unbounded_rows;
    for (size_t j = symmetric ? i + 1 : 0; j < b; ++j) {
      if (j == i) continue;
      const Dist gp = d_gp[border[i]][border[j]];
      if (radius != kInfDist && gp > radius) ++coverage->beyond_radius;
      if (gp == through[i][j] && gp == radius) ++coverage->tie_at_radius;
      if (d_g[i][j] >= gp) continue;
      bool redundant = false;
      for (size_t k = 0; k < b; ++k) {
        if (k != i && k != j &&
            AddDist(d_g[i][k], d_g[k][j]) == d_g[i][j]) {
          redundant = true;
        }
      }
      if (!redundant) {
        out.push_back({border[i], border[j], static_cast<Weight>(d_g[i][j])});
      }
    }
  }
  coverage->shortcuts += out.size();
  return out;
}

/// A random cut of `projection`, and the components of the rest dealt
/// to two sides at random, each side's vertices shuffled.
void RandomCutAndParts(Rng& rng, const Graph& projection,
                       std::vector<Vertex>* cut,
                       std::array<std::vector<Vertex>, 2>* parts) {
  const size_t n = projection.NumVertices();
  const double p = 0.1 + 0.3 * rng.NextDouble();
  std::vector<uint8_t> in_cut(n, 0);
  for (Vertex v = 0; v < n; ++v) {
    if (rng.Chance(p)) in_cut[v] = 1;
  }
  in_cut[rng.Below(n)] = 1;
  for (Vertex v = 0; v < n; ++v) {
    if (in_cut[v]) cut->push_back(v);
  }
  std::vector<int> side(n, -1);
  for (Vertex s = 0; s < n; ++s) {
    if (in_cut[s] || side[s] != -1) continue;
    const int to = static_cast<int>(rng.Below(2));
    std::vector<Vertex> stack{s};
    side[s] = to;
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      (*parts)[to].push_back(v);
      for (const Arc& a : projection.Neighbors(v)) {
        if (!in_cut[a.to] && side[a.to] == -1) {
          side[a.to] = to;
          stack.push_back(a.to);
        }
      }
    }
  }
  for (auto& part : *parts) {
    for (size_t i = part.size(); i > 1; --i) {
      std::swap(part[i - 1], part[rng.Below(i)]);
    }
  }
}

Weight RandomAlg3Weight(Rng& rng, bool small) {
  return static_cast<Weight>(small ? rng.Range(1, 3) : rng.Range(1, 100));
}

TEST(ComputeShortcuts, MatchesBruteForceAlgorithm3) {
  Alg3Coverage coverage;
  ThreadPool pool(1);
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 104729);
    const size_t n = 3 + rng.Below(38);
    const bool small = rng.Chance(0.7);
    GraphBuilder builder(n);
    const size_t edges = n / 2 + rng.Below(2 * n + 1);
    for (size_t k = 0; k < edges; ++k) {
      builder.AddEdge(static_cast<Vertex>(rng.Below(n)),
                      static_cast<Vertex>(rng.Below(n)),
                      RandomAlg3Weight(rng, small));
    }
    const Graph g = std::move(builder).Build();
    std::vector<Vertex> cut;
    std::array<std::vector<Vertex>, 2> parts;
    RandomCutAndParts(rng, g, &cut, &parts);
    const auto d =
        AllPairs(n, [&](Vertex v) { return g.Neighbors(v); },
                 std::vector<uint8_t>(n, 1));
    std::vector<std::vector<Dist>> from_cut;
    for (Vertex c : cut) from_cut.push_back(d[c]);
    std::vector<uint8_t> in_cut(n, 0);
    for (Vertex c : cut) in_cut[c] = 1;
    for (const std::vector<Vertex>& part : parts) {
      if (part.empty()) continue;
      std::vector<uint8_t> in_part(n, 0);
      for (Vertex v : part) in_part[v] = 1;
      const auto d_gp =
          AllPairs(n, [&](Vertex v) { return g.Neighbors(v); }, in_part);
      const std::vector<DirectedArc> expect = ReferenceShortcuts(
          /*symmetric=*/true, cut, part, d, d_gp,
          [&](Vertex v) {
            for (const Arc& a : g.Neighbors(v)) {
              if (in_cut[a.to]) return true;
            }
            return false;
          },
          &coverage);
      const ShortcutResult got =
          ComputeShortcuts(g, cut, part, from_cut, pool);
      ASSERT_EQ(got.shortcuts.size(), expect.size()) << "seed=" << seed;
      for (size_t k = 0; k < expect.size(); ++k) {
        EXPECT_EQ(got.shortcuts[k].u, expect[k].from) << "seed=" << seed;
        EXPECT_EQ(got.shortcuts[k].v, expect[k].to) << "seed=" << seed;
        EXPECT_EQ(got.shortcuts[k].weight, expect[k].weight)
            << "seed=" << seed;
      }
      const Subgraph enhanced = InducedSubgraph(g, part, got.shortcuts);
      ASSERT_TRUE(IsDistancePreserving(g, enhanced.graph, enhanced.to_parent))
          << "seed=" << seed;
    }
  }
  EXPECT_GT(coverage.shortcuts, 100u);
  EXPECT_GT(coverage.beyond_radius, 100u);
  EXPECT_GT(coverage.tie_at_radius, 10u);
}

TEST(ComputeDirectedShortcuts, MatchesBruteForceAlgorithm3) {
  Alg3Coverage coverage;
  ThreadPool pool(1);
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 130363);
    const size_t n = 3 + rng.Below(38);
    const bool small = rng.Chance(0.7);
    const double two_way = rng.NextDouble();
    DigraphBuilder builder(n);
    const size_t arcs = n / 2 + rng.Below(3 * n + 1);
    for (size_t k = 0; k < arcs; ++k) {
      const Vertex u = static_cast<Vertex>(rng.Below(n));
      const Vertex v = static_cast<Vertex>(rng.Below(n));
      const Weight w = RandomAlg3Weight(rng, small);
      builder.AddArc(u, v, w);
      if (rng.Chance(two_way)) builder.AddArc(v, u, w);
    }
    const Digraph g = std::move(builder).Build();
    std::vector<Vertex> cut;
    std::array<std::vector<Vertex>, 2> parts;
    RandomCutAndParts(rng, g.UndirectedProjection(), &cut, &parts);
    const auto d = AllPairs(n, [&](Vertex v) { return g.OutArcs(v); },
                            std::vector<uint8_t>(n, 1));
    std::vector<std::vector<Dist>> to_cut;
    std::vector<std::vector<Dist>> from_cut;
    for (Vertex c : cut) {
      from_cut.push_back(d[c]);
      to_cut.emplace_back(n);
      for (Vertex v = 0; v < n; ++v) to_cut.back()[v] = d[v][c];
    }
    std::vector<uint8_t> in_cut(n, 0);
    for (Vertex c : cut) in_cut[c] = 1;
    for (const std::vector<Vertex>& part : parts) {
      if (part.empty()) continue;
      std::vector<uint8_t> in_part(n, 0);
      for (Vertex v : part) in_part[v] = 1;
      const auto d_gp =
          AllPairs(n, [&](Vertex v) { return g.OutArcs(v); }, in_part);
      const std::vector<DirectedArc> expect = ReferenceShortcuts(
          /*symmetric=*/false, cut, part, d, d_gp,
          [&](Vertex v) {
            for (const Arc& a : g.OutArcs(v)) {
              if (in_cut[a.to]) return true;
            }
            for (const Arc& a : g.InArcs(v)) {
              if (in_cut[a.to]) return true;
            }
            return false;
          },
          &coverage);
      const std::vector<DirectedArc> got =
          ComputeDirectedShortcuts(g, cut, part, to_cut, from_cut, pool);
      ASSERT_EQ(got.size(), expect.size()) << "seed=" << seed;
      for (size_t k = 0; k < expect.size(); ++k) {
        EXPECT_EQ(got[k].from, expect[k].from) << "seed=" << seed;
        EXPECT_EQ(got[k].to, expect[k].to) << "seed=" << seed;
        EXPECT_EQ(got[k].weight, expect[k].weight) << "seed=" << seed;
      }
    }
  }
  EXPECT_GT(coverage.shortcuts, 100u);
  EXPECT_GT(coverage.unbounded_rows, 100u);
  EXPECT_GT(coverage.beyond_radius, 100u);
  EXPECT_GT(coverage.tie_at_radius, 10u);
}

TEST(ComputeShortcuts, PooledSearchesGiveTheSameShortcuts) {
  RoadNetworkOptions opt;
  opt.rows = 14;
  opt.cols = 14;
  opt.seed = 5;
  const Graph g = GenerateRoadNetwork(opt);
  const BalancedCutResult r = BalancedCut(g, 0.25);
  std::vector<std::vector<Dist>> dist_from_cut;
  for (Vertex c : r.cut) dist_from_cut.push_back(AllDistancesFrom(g, c));
  ThreadPool one_thread(1);
  ThreadPool four_threads(4);
  size_t shortcuts = 0;
  for (const std::vector<Vertex>* part : {&r.part_a, &r.part_b}) {
    const ShortcutResult serial =
        ComputeShortcuts(g, r.cut, *part, dist_from_cut, one_thread);
    const ShortcutResult pooled =
        ComputeShortcuts(g, r.cut, *part, dist_from_cut, four_threads);
    ASSERT_EQ(serial.shortcuts.size(), pooled.shortcuts.size());
    shortcuts += serial.shortcuts.size();
    for (size_t k = 0; k < serial.shortcuts.size(); ++k) {
      EXPECT_EQ(serial.shortcuts[k].u, pooled.shortcuts[k].u);
      EXPECT_EQ(serial.shortcuts[k].v, pooled.shortcuts[k].v);
      EXPECT_EQ(serial.shortcuts[k].weight, pooled.shortcuts[k].weight);
    }
  }
  EXPECT_GT(shortcuts, 0u);
}

}  // namespace
}  // namespace hc2l
