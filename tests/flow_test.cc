#include "flow/dinitz.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "flow/vertex_cut.h"
#include "graph/road_network_generator.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::MakeComplete;
using ::hc2l::testing::MakeGrid;
using ::hc2l::testing::MakePath;

TEST(DinitzMaxFlow, SingleEdge) {
  DinitzMaxFlow f(2);
  f.AddEdge(0, 1, 7);
  EXPECT_EQ(f.MaxFlow(0, 1), 7u);
}

TEST(DinitzMaxFlow, SeriesTakesMinimum) {
  DinitzMaxFlow f(3);
  f.AddEdge(0, 1, 9);
  f.AddEdge(1, 2, 4);
  EXPECT_EQ(f.MaxFlow(0, 2), 4u);
}

TEST(DinitzMaxFlow, ParallelPathsAdd) {
  DinitzMaxFlow f(4);
  f.AddEdge(0, 1, 3);
  f.AddEdge(1, 3, 3);
  f.AddEdge(0, 2, 5);
  f.AddEdge(2, 3, 5);
  EXPECT_EQ(f.MaxFlow(0, 3), 8u);
}

TEST(DinitzMaxFlow, ClassicTextbookNetwork) {
  // CLRS-style example with a known max flow of 23.
  DinitzMaxFlow f(6);
  f.AddEdge(0, 1, 16);
  f.AddEdge(0, 2, 13);
  f.AddEdge(1, 2, 10);
  f.AddEdge(2, 1, 4);
  f.AddEdge(1, 3, 12);
  f.AddEdge(3, 2, 9);
  f.AddEdge(2, 4, 14);
  f.AddEdge(4, 3, 7);
  f.AddEdge(3, 5, 20);
  f.AddEdge(4, 5, 4);
  EXPECT_EQ(f.MaxFlow(0, 5), 23u);
}

TEST(DinitzMaxFlow, DisconnectedIsZero) {
  DinitzMaxFlow f(4);
  f.AddEdge(0, 1, 5);
  f.AddEdge(2, 3, 5);
  EXPECT_EQ(f.MaxFlow(0, 3), 0u);
}

TEST(DinitzMaxFlow, FlowConservationAndEdgeFlows) {
  DinitzMaxFlow f(4);
  const size_t e01 = f.AddEdge(0, 1, 3);
  const size_t e13 = f.AddEdge(1, 3, 2);
  const size_t e03 = f.AddEdge(0, 3, 1);
  EXPECT_EQ(f.MaxFlow(0, 3), 3u);
  EXPECT_EQ(f.Flow(e13), 2u);
  EXPECT_EQ(f.Flow(e03), 1u);
  EXPECT_EQ(f.Flow(e01), 2u);
  EXPECT_EQ(f.ResidualCapacity(e01), 1u);
}

// --- Dinitz against an in-test Edmonds-Karp (shortest augmenting paths
// over a capacity matrix, so parallel edges merge) on seeded random
// networks.

uint64_t EdmondsKarp(std::vector<std::vector<uint64_t>> cap, size_t s,
                     size_t t) {
  const size_t n = cap.size();
  uint64_t total = 0;
  while (true) {
    std::vector<size_t> parent(n, SIZE_MAX);
    std::vector<size_t> queue{s};
    parent[s] = s;
    for (size_t head = 0; head < queue.size() && parent[t] == SIZE_MAX;
         ++head) {
      const size_t u = queue[head];
      for (size_t v = 0; v < n; ++v) {
        if (cap[u][v] > 0 && parent[v] == SIZE_MAX) {
          parent[v] = u;
          queue.push_back(v);
        }
      }
    }
    if (parent[t] == SIZE_MAX) return total;
    uint64_t bottleneck = UINT64_MAX;
    for (size_t v = t; v != s; v = parent[v]) {
      bottleneck = std::min(bottleneck, cap[parent[v]][v]);
    }
    for (size_t v = t; v != s; v = parent[v]) {
      cap[parent[v]][v] -= bottleneck;
      cap[v][parent[v]] += bottleneck;
    }
    total += bottleneck;
  }
}

TEST(DinitzMaxFlow, MatchesEdmondsKarpOnRandomNetworks) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 15485863);
    const size_t n = 2 + rng.Below(30);
    const size_t m = rng.Below(4 * n + 1);
    const auto s = static_cast<DinitzMaxFlow::NodeId>(rng.Below(n));
    auto t = static_cast<DinitzMaxFlow::NodeId>(rng.Below(n - 1));
    if (t >= s) ++t;
    DinitzMaxFlow flow(static_cast<DinitzMaxFlow::NodeId>(n));
    std::vector<std::vector<uint64_t>> cap(n, std::vector<uint64_t>(n, 0));
    struct Added {
      size_t id;
      size_t u, v;
      uint64_t capacity;
    };
    std::vector<Added> added;
    for (size_t k = 0; k < m; ++k) {
      const size_t u = rng.Below(n);
      const size_t v = rng.Below(n);
      const uint64_t c = rng.Below(21);
      const size_t id = flow.AddEdge(static_cast<DinitzMaxFlow::NodeId>(u),
                                     static_cast<DinitzMaxFlow::NodeId>(v), c);
      added.push_back({id, u, v, c});
      if (u != v) cap[u][v] += c;
    }
    const uint64_t value = flow.MaxFlow(s, t);
    ASSERT_EQ(value, EdmondsKarp(cap, s, t)) << "seed=" << seed;

    // Every edge within its capacity, conservation at every inner node,
    // and the residual cut around s saturated with the flow's value.
    std::vector<int64_t> net(n, 0);
    const std::vector<uint8_t> reach = flow.ResidualReachableFromSource();
    uint64_t cut_capacity = 0;
    for (const Added& e : added) {
      const uint64_t f = flow.Flow(e.id);
      ASSERT_LE(f, e.capacity) << "seed=" << seed;
      ASSERT_EQ(flow.ResidualCapacity(e.id), e.capacity - f)
          << "seed=" << seed;
      net[e.u] -= static_cast<int64_t>(f);
      net[e.v] += static_cast<int64_t>(f);
      if (reach[e.u] && !reach[e.v]) cut_capacity += e.capacity;
    }
    for (size_t v = 0; v < n; ++v) {
      if (v != s && v != t) {
        EXPECT_EQ(net[v], 0) << "seed=" << seed;
      }
    }
    EXPECT_EQ(net[t], static_cast<int64_t>(value)) << "seed=" << seed;
    EXPECT_FALSE(reach[t]) << "seed=" << seed;
    EXPECT_EQ(cut_capacity, value) << "seed=" << seed;
  }
}

TEST(MinStVertexCut, MatchesEdmondsKarpOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 32452843);
    const size_t n = 2 + rng.Below(29);
    GraphBuilder builder(n);
    const size_t m = rng.Below(3 * n + 1);
    for (size_t k = 0; k < m; ++k) {
      builder.AddEdge(static_cast<Vertex>(rng.Below(n)),
                      static_cast<Vertex>(rng.Below(n)), 1);
    }
    const Graph g = std::move(builder).Build();
    // Random non-empty terminal sets, which may overlap.
    std::vector<Vertex> sources;
    std::vector<Vertex> sinks;
    for (Vertex v = 0; v < n; ++v) {
      if (rng.Chance(0.15)) sources.push_back(v);
      if (rng.Chance(0.15)) sinks.push_back(v);
    }
    if (sources.empty()) sources.push_back(static_cast<Vertex>(rng.Below(n)));
    if (sinks.empty()) sinks.push_back(static_cast<Vertex>(rng.Below(n)));

    // The vertex-split network; n + 1 stands in for infinity, since
    // cutting every vertex costs only n.
    const size_t big = n + 1;
    std::vector<std::vector<uint64_t>> cap(2 * n + 2,
                                           std::vector<uint64_t>(2 * n + 2, 0));
    for (Vertex v = 0; v < n; ++v) {
      cap[2 * v][2 * v + 1] = 1;
      for (const Arc& a : g.Neighbors(v)) cap[2 * v + 1][2 * a.to] = big;
    }
    for (Vertex v : sources) cap[2 * n][2 * v] = big;
    for (Vertex v : sinks) cap[2 * v + 1][2 * n + 1] = big;
    const uint64_t expect = EdmondsKarp(cap, 2 * n, 2 * n + 1);

    const VertexCutResult cut = MinStVertexCut(g, sources, sinks);
    ASSERT_EQ(cut.cut_size, expect) << "seed=" << seed;
    EXPECT_EQ(cut.s_side_cut.size(), expect) << "seed=" << seed;
    EXPECT_EQ(cut.t_side_cut.size(), expect) << "seed=" << seed;
    EXPECT_TRUE(CutSeparates(g, cut.s_side_cut, sources, sinks))
        << "seed=" << seed;
    EXPECT_TRUE(CutSeparates(g, cut.t_side_cut, sources, sinks))
        << "seed=" << seed;
  }
}

TEST(MinStVertexCut, PathGraphCutsSingleVertex) {
  Graph g = MakePath(5);
  const std::vector<Vertex> sources = {0};
  const std::vector<Vertex> sinks = {4};
  auto cut = MinStVertexCut(g, sources, sinks);
  EXPECT_EQ(cut.cut_size, 1u);
  EXPECT_TRUE(CutSeparates(g, cut.s_side_cut, sources, sinks));
  EXPECT_TRUE(CutSeparates(g, cut.t_side_cut, sources, sinks));
  // S-side cut is a vertex near the source side (the source itself is an
  // eligible cut vertex in the paper's reduction), T-side near the sink.
  EXPECT_LE(cut.s_side_cut[0], 1u);
  EXPECT_GE(cut.t_side_cut[0], 3u);
}

TEST(MinStVertexCut, GridColumnCut) {
  // 3x5 grid, sources = left column, sinks = right column: min vertex cut
  // is one full column of 3 vertices.
  Graph g = MakeGrid(3, 5);
  std::vector<Vertex> sources = {0, 5, 10};
  std::vector<Vertex> sinks = {4, 9, 14};
  auto cut = MinStVertexCut(g, sources, sinks);
  EXPECT_EQ(cut.cut_size, 3u);
  EXPECT_TRUE(CutSeparates(g, cut.s_side_cut, sources, sinks));
  EXPECT_TRUE(CutSeparates(g, cut.t_side_cut, sources, sinks));
}

TEST(MinStVertexCut, AdjacentSourceSinkForcesEndpointIntoCut) {
  Graph g = MakePath(2);
  std::vector<Vertex> sources = {0};
  std::vector<Vertex> sinks = {1};
  auto cut = MinStVertexCut(g, sources, sinks);
  // The only way to separate adjacent vertices is to delete one of them.
  EXPECT_EQ(cut.cut_size, 1u);
  EXPECT_TRUE(cut.s_side_cut[0] == 0u || cut.s_side_cut[0] == 1u);
}

TEST(MinStVertexCut, OverlappingSourceAndSink) {
  Graph g = MakePath(3);
  std::vector<Vertex> sources = {0, 1};
  std::vector<Vertex> sinks = {1, 2};
  auto cut = MinStVertexCut(g, sources, sinks);
  // Vertex 1 is on both sides: it must be cut, and the path 0-1-2 needs it.
  EXPECT_GE(cut.cut_size, 1u);
  EXPECT_TRUE(CutSeparates(g, cut.s_side_cut, sources, sinks));
}

TEST(MinStVertexCut, AlreadySeparatedIsEmptyCut) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1);
  b.AddEdge(2, 3, 1);
  Graph g = std::move(b).Build();
  std::vector<Vertex> sources = {0};
  std::vector<Vertex> sinks = {3};
  auto cut = MinStVertexCut(g, sources, sinks);
  EXPECT_EQ(cut.cut_size, 0u);
  EXPECT_TRUE(cut.s_side_cut.empty());
}

TEST(MinStVertexCut, CompleteGraphNeedsAllInternalVertices) {
  Graph g = MakeComplete(5);
  std::vector<Vertex> sources = {0};
  std::vector<Vertex> sinks = {4};
  auto cut = MinStVertexCut(g, sources, sinks);
  // Menger: vertex connectivity between non-adjacent... here 0 and 4 are
  // adjacent, so separating them requires deleting an endpoint; the reduction
  // must still produce a valid cut (of size <= 4) covering the direct edge.
  EXPECT_TRUE(CutSeparates(g, cut.s_side_cut, sources, sinks));
  EXPECT_TRUE(CutSeparates(g, cut.t_side_cut, sources, sinks));
}

class VertexCutRandomParam : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VertexCutRandomParam, CutsAreMinimalAndSeparating) {
  Graph g = GenerateRandomGeometricGraph(30, 3, GetParam());
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 5; ++trial) {
    Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
    if (s == t) continue;
    const std::vector<Vertex> sources = {s};
    const std::vector<Vertex> sinks = {t};
    auto cut = MinStVertexCut(g, sources, sinks);
    EXPECT_TRUE(CutSeparates(g, cut.s_side_cut, sources, sinks));
    EXPECT_TRUE(CutSeparates(g, cut.t_side_cut, sources, sinks));
    EXPECT_EQ(cut.s_side_cut.size(), cut.cut_size);
    EXPECT_EQ(cut.t_side_cut.size(), cut.cut_size);
    // Minimality: removing any single vertex from the cut breaks separation
    // (a strictly smaller separating subset of this cut cannot exist for a
    // minimum cut).
    for (size_t skip = 0; skip < cut.s_side_cut.size(); ++skip) {
      std::vector<Vertex> smaller;
      for (size_t i = 0; i < cut.s_side_cut.size(); ++i) {
        if (i != skip) smaller.push_back(cut.s_side_cut[i]);
      }
      EXPECT_FALSE(CutSeparates(g, smaller, sources, sinks));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexCutRandomParam,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace hc2l
