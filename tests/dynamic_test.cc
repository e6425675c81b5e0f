#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/section_file.h"
#include "core/hc2l.h"
#include "graph/road_network_generator.h"
#include "search/dijkstra.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::FileBytes;
using ::hc2l::testing::MakeGrid;

/// Returns a copy of g with `changes` random edges re-weighted (same
/// topology) — simulating road closures easing / congestion (Section 5.4).
Graph PerturbWeights(const Graph& g, size_t changes, uint64_t seed) {
  std::vector<Edge> edges = g.UndirectedEdges();
  Rng rng(seed);
  for (size_t i = 0; i < changes; ++i) {
    Edge& e = edges[rng.Below(edges.size())];
    e.weight = static_cast<Weight>(1 + rng.Below(500));
  }
  GraphBuilder builder(g.NumVertices());
  builder.AddEdges(edges);
  return std::move(builder).Build();
}

TEST(RebuildLabels, ExactAfterWeightChange) {
  RoadNetworkOptions opt;
  opt.rows = 14;
  opt.cols = 16;
  opt.seed = 9;
  Graph original = GenerateRoadNetwork(opt);
  Hc2lIndex index = Hc2lIndex::Build(original);

  Graph updated = PerturbWeights(original, 60, 4);
  ASSERT_TRUE(index.RebuildLabels(updated).ok());

  Dijkstra dijkstra(updated);
  Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(updated.NumVertices()));
    dijkstra.Run(s);
    for (int j = 0; j < 5; ++j) {
      const Vertex t = static_cast<Vertex>(rng.Below(updated.NumVertices()));
      ASSERT_EQ(index.Query(s, t), dijkstra.DistanceTo(t))
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(RebuildLabels, NoOpRebuildPreservesAnswers) {
  Graph g = MakeGrid(10, 10, 7);
  Hc2lIndex index = Hc2lIndex::Build(g);
  const Dist before = index.Query(0, 99);
  ASSERT_TRUE(index.RebuildLabels(g).ok());
  EXPECT_EQ(index.Query(0, 99), before);
  EXPECT_EQ(index.Query(5, 87), ShortestPathDistance(g, 5, 87));
}

/// The payload of the section with `id` in a saved index file (empty when
/// the file has no such section).
std::string SectionPayload(const std::string& file, uint64_t id) {
  uint64_t count = 0;
  std::memcpy(&count, file.data() + 8, sizeof(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t entry[3];
    std::memcpy(entry, file.data() + 16 + i * sizeof(entry), sizeof(entry));
    if (entry[0] == id) return file.substr(entry[1], entry[2]);
  }
  return {};
}

TEST(RebuildLabels, FirstRelabelReproducesBuild) {
  // On unchanged weights the relabel walk over the stored hierarchy must
  // reproduce Build()'s index exactly: hint-less, the whole index (stats,
  // hierarchy, labels) is IdenticalTo the built one. With route hints the
  // hierarchy and the distance labels still match byte for byte; the hints
  // may name other equal-length first hops (the relabel walk induces
  // children in ascending vertex order), so they only have to stay valid.
  RoadNetworkOptions road;
  road.rows = 12;
  road.cols = 13;
  road.seed = 5;
  RoadNetworkOptions travel = road;
  travel.seed = 23;
  travel.weight_mode = WeightMode::kTravelTime;
  const Graph graphs[] = {GenerateRoadNetwork(road),
                          GenerateRoadNetwork(travel), MakeGrid(9, 11, 3)};
  const std::string path = ::testing::TempDir() + "/hc2l_first_relabel";
  int configurations = 0;
  for (const Graph& g : graphs) {
    for (const bool contract : {true, false}) {
      for (const bool tail_pruning : {true, false}) {
        for (const uint32_t threads : {1u, 4u}) {
          SCOPED_TRACE("graph " + std::to_string(configurations / 8) +
                       (contract ? " contracted" : " uncontracted") +
                       (tail_pruning ? " pruned" : " unpruned") +
                       " threads=" + std::to_string(threads));
          ++configurations;
          Hc2lOptions options;
          options.contract_degree_one = contract;
          options.tail_pruning = tail_pruning;
          options.num_threads = threads;

          options.route_hints = false;
          const Hc2lIndex built = Hc2lIndex::Build(g, options);
          Hc2lIndex relabelled = Hc2lIndex::Build(g, options);
          ASSERT_TRUE(relabelled.RebuildLabels(g, tail_pruning, threads).ok());
          EXPECT_TRUE(relabelled.IdenticalTo(built));

          options.route_hints = true;
          const Hc2lIndex hinted = Hc2lIndex::Build(g, options);
          Hc2lIndex rehinted = Hc2lIndex::Build(g, options);
          ASSERT_TRUE(rehinted.RebuildLabels(g, tail_pruning, threads).ok());
          ASSERT_TRUE(hinted.Save(path + ".built").ok());
          ASSERT_TRUE(rehinted.Save(path + ".relabelled").ok());
          const std::string a = FileBytes(path + ".built");
          const std::string b = FileBytes(path + ".relabelled");
          for (const uint64_t id :
               {io::kSectionLabelOffsets, io::kSectionLabelArena}) {
            EXPECT_FALSE(SectionPayload(a, id).empty()) << "section " << id;
            EXPECT_EQ(SectionPayload(a, id), SectionPayload(b, id))
                << "section " << id;
          }
          const BalancedTreeHierarchy& ha = hinted.Hierarchy();
          const BalancedTreeHierarchy& hb = rehinted.Hierarchy();
          ASSERT_EQ(ha.NumNodes(), hb.NumNodes());
          for (size_t i = 0; i < ha.NumNodes(); ++i) {
            EXPECT_EQ(ha.Node(i).code, hb.Node(i).code);
            EXPECT_EQ(ha.Node(i).cut, hb.Node(i).cut);
          }
          for (Vertex s = 0; s < g.NumVertices(); s += 17) {
            for (Vertex t = 0; t < g.NumVertices(); t += 13) {
              RoutePath route;
              ASSERT_TRUE(rehinted.Route(s, t, &route).ok());
              ASSERT_EQ(route.weight, hinted.Query(s, t));
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(configurations, 24);
  std::remove((path + ".built").c_str());
  std::remove((path + ".relabelled").c_str());
}

TEST(RebuildLabels, RepeatedUpdatesStayExact) {
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 20;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lIndex index = Hc2lIndex::Build(g);
  Rng rng(5);
  for (int round = 0; round < 4; ++round) {
    g = PerturbWeights(g, 25, 100 + round);
    ASSERT_TRUE(index.RebuildLabels(g).ok());
    Dijkstra dijkstra(g);
    for (int i = 0; i < 10; ++i) {
      const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
      dijkstra.Run(s);
      const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
      ASSERT_EQ(index.Query(s, t), dijkstra.DistanceTo(t))
          << "round=" << round;
    }
  }
}

TEST(RebuildLabels, WorksWithoutContraction) {
  RoadNetworkOptions opt;
  opt.rows = 9;
  opt.cols = 9;
  opt.seed = 13;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lOptions options;
  options.contract_degree_one = false;
  Hc2lIndex index = Hc2lIndex::Build(g, options);
  Graph updated = PerturbWeights(g, 30, 2);
  ASSERT_TRUE(index.RebuildLabels(updated).ok());
  Dijkstra dijkstra(updated);
  Rng rng(31);
  for (int i = 0; i < 20; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    dijkstra.Run(s);
    const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
    ASSERT_EQ(index.Query(s, t), dijkstra.DistanceTo(t));
  }
}

TEST(RebuildLabels, WithoutTailPruningAlsoExact) {
  Graph g = MakeGrid(8, 12, 5);
  Hc2lIndex index = Hc2lIndex::Build(g);
  Graph updated = PerturbWeights(g, 20, 8);
  ASSERT_TRUE(index.RebuildLabels(updated, /*tail_pruning=*/false).ok());
  Dijkstra dijkstra(updated);
  for (Vertex s = 0; s < g.NumVertices(); s += 7) {
    dijkstra.Run(s);
    for (Vertex t = 0; t < g.NumVertices(); t += 11) {
      ASSERT_EQ(index.Query(s, t), dijkstra.DistanceTo(t));
    }
  }
}

TEST(RebuildLabels, SeparatorRepairUnderHeavyCongestion) {
  // Regression test: multiplicative congestion can change which shortcuts
  // Algorithm 3 emits, and a new shortcut may cross a stored descendant cut;
  // RebuildLabels must repair the separator (move an endpoint into the cut)
  // or answers overestimate. Travel-time weights + 4x congestion triggered
  // this reliably before the repair existed.
  for (uint64_t seed = 7; seed < 12; ++seed) {
    RoadNetworkOptions opt;
    opt.rows = 12;
    opt.cols = 12;
    opt.seed = seed;
    opt.weight_mode = WeightMode::kTravelTime;
    Graph g = GenerateRoadNetwork(opt);
    Hc2lIndex index = Hc2lIndex::Build(g);

    std::vector<Edge> edges = g.UndirectedEdges();
    Rng rng(seed + 1);
    for (Edge& e : edges) {
      if (rng.Chance(0.1)) {
        e.weight =
            static_cast<Weight>(e.weight * (1.0 + 3.0 * rng.NextDouble()));
      }
    }
    GraphBuilder builder(g.NumVertices());
    builder.AddEdges(edges);
    Graph congested = std::move(builder).Build();
    ASSERT_TRUE(index.RebuildLabels(congested).ok());
    EXPECT_TRUE(index.Hierarchy().Validate(
        index.Stats().num_core_vertices));

    Dijkstra dijkstra(congested);
    Rng qr(seed * 5);
    for (int i = 0; i < 30; ++i) {
      const Vertex s = static_cast<Vertex>(qr.Below(g.NumVertices()));
      dijkstra.Run(s);
      for (int j = 0; j < 6; ++j) {
        const Vertex t = static_cast<Vertex>(qr.Below(g.NumVertices()));
        ASSERT_EQ(index.Query(s, t), dijkstra.DistanceTo(t))
            << "seed=" << seed << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(RebuildLabels, ParallelRebuildMatchesSerial) {
  // The level-wave parallelization must be bit-identical to the serial walk:
  // same label entry count and same answers for every thread count,
  // including the separator-repair-heavy congestion workload.
  RoadNetworkOptions opt;
  opt.rows = 13;
  opt.cols = 15;
  opt.seed = 41;
  opt.weight_mode = WeightMode::kTravelTime;
  Graph g = GenerateRoadNetwork(opt);
  Graph congested = PerturbWeights(g, 120, 6);

  Hc2lIndex serial = Hc2lIndex::Build(g);
  ASSERT_TRUE(serial
                  .RebuildLabels(congested, /*tail_pruning=*/true,
                                 /*num_threads=*/1)
                  .ok());

  for (const uint32_t threads : {2u, 4u}) {
    Hc2lIndex parallel = Hc2lIndex::Build(g);
    ASSERT_TRUE(
        parallel.RebuildLabels(congested, /*tail_pruning=*/true, threads)
            .ok());
    EXPECT_EQ(parallel.Stats().label_entries, serial.Stats().label_entries)
        << "threads=" << threads;
    EXPECT_EQ(parallel.Stats().num_shortcuts, serial.Stats().num_shortcuts)
        << "threads=" << threads;
    for (Vertex s = 0; s < g.NumVertices(); s += 13) {
      for (Vertex t = 0; t < g.NumVertices(); t += 7) {
        ASSERT_EQ(parallel.Query(s, t), serial.Query(s, t))
            << "threads=" << threads << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(RebuildLabels, ParallelRebuildStaysExact) {
  // And the parallel rebuild agrees with Dijkstra on the updated weights.
  RoadNetworkOptions opt;
  opt.rows = 12;
  opt.cols = 14;
  opt.seed = 19;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lIndex index = Hc2lIndex::Build(g);
  Graph updated = PerturbWeights(g, 80, 3);
  ASSERT_TRUE(index
                  .RebuildLabels(updated, /*tail_pruning=*/true,
                                 /*num_threads=*/4)
                  .ok());
  Dijkstra dijkstra(updated);
  Rng rng(23);
  for (int i = 0; i < 30; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    dijkstra.Run(s);
    for (int j = 0; j < 5; ++j) {
      const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
      ASSERT_EQ(index.Query(s, t), dijkstra.DistanceTo(t))
          << "s=" << s << " t=" << t;
    }
  }
}

/// Like PerturbWeights, but also reports exactly which edges changed — the
/// delta batch RepairLabels consumes. Each changed edge appears once, with
/// its final weight.
Graph PerturbWithDeltas(const Graph& g, size_t changes, uint64_t seed,
                        std::vector<EdgeDelta>* deltas) {
  std::vector<Edge> edges = g.UndirectedEdges();
  Rng rng(seed);
  std::map<size_t, Weight> changed;
  for (size_t i = 0; i < changes; ++i) {
    const size_t pick = rng.Below(edges.size());
    const Weight w = static_cast<Weight>(1 + rng.Below(500));
    edges[pick].weight = w;
    changed[pick] = w;  // last write wins, like the edge array itself
  }
  deltas->clear();
  for (const auto& [idx, w] : changed) {
    deltas->push_back({edges[idx].u, edges[idx].v, w});
  }
  GraphBuilder builder(g.NumVertices());
  builder.AddEdges(edges);
  return std::move(builder).Build();
}

TEST(RepairLabels, BitIdenticalToFullRebuildOverManyBatches) {
  // The differential test pinning the tentpole contract: over 50+ cumulative
  // delta batches, a scoped repair must produce an index bit-identical to a
  // full rebuild on the same graph — labels, hierarchy, contraction, stats.
  RoadNetworkOptions opt;
  opt.rows = 11;
  opt.cols = 12;
  opt.seed = 17;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lIndex repaired = Hc2lIndex::Build(g);
  Hc2lIndex rebuilt = Hc2lIndex::Build(g);
  // Warm the repair cache (the first walk after Build is always full).
  ASSERT_TRUE(repaired.RebuildLabels(g).ok());
  ASSERT_TRUE(rebuilt.RebuildLabels(g).ok());
  ASSERT_TRUE(repaired.IdenticalTo(rebuilt));

  Rng rng(71);
  size_t scoped_batches = 0;
  std::vector<EdgeDelta> deltas;
  for (int batch = 0; batch < 55; ++batch) {
    // Mostly tiny batches (the live-traffic shape), occasionally a burst.
    const size_t changes = batch % 9 == 8 ? 24 : 1 + rng.Below(3);
    g = PerturbWithDeltas(g, changes, 1000 + batch, &deltas);
    ASSERT_TRUE(repaired.RepairLabels(g, deltas).ok()) << "batch=" << batch;
    ASSERT_TRUE(rebuilt.RebuildLabels(g).ok()) << "batch=" << batch;
    ASSERT_TRUE(repaired.IdenticalTo(rebuilt)) << "batch=" << batch;
    if (!repaired.LastRepairStats().full_rebuild) ++scoped_batches;
    if (batch % 10 == 0) {
      Dijkstra dijkstra(g);
      const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
      dijkstra.Run(s);
      for (int j = 0; j < 5; ++j) {
        const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
        ASSERT_EQ(repaired.Query(s, t), dijkstra.DistanceTo(t))
            << "batch=" << batch << " s=" << s << " t=" << t;
      }
    }
  }
  // The warmed cache must make the steady state scoped, not full rebuilds.
  EXPECT_GT(scoped_batches, 40u);
}

TEST(RepairLabels, ScopedRepairReusesCleanSubtrees) {
  RoadNetworkOptions opt;
  opt.rows = 14;
  opt.cols = 14;
  opt.seed = 29;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lIndex index = Hc2lIndex::Build(g);
  ASSERT_TRUE(index.RebuildLabels(g).ok());

  std::vector<EdgeDelta> deltas;
  Graph updated = PerturbWithDeltas(g, 1, 5, &deltas);
  ASSERT_TRUE(index.RepairLabels(updated, deltas).ok());
  const RepairStats& stats = index.LastRepairStats();
  EXPECT_FALSE(stats.full_rebuild);
  // One changed edge dirties only the root-to-covering-separator spine;
  // the rest of the hierarchy splices its labels verbatim.
  EXPECT_GT(stats.reused_entries, 0u);
  EXPECT_GT(stats.clean_subtrees, 0u);
  EXPECT_LT(stats.recomputed_entries, index.Stats().label_entries);
}

TEST(RepairLabels, ColdCacheFallsBackToFullRebuild) {
  Graph g = MakeGrid(9, 9, 3);
  Hc2lIndex index = Hc2lIndex::Build(g);
  std::vector<EdgeDelta> deltas;
  Graph updated = PerturbWithDeltas(g, 2, 9, &deltas);
  // No relabel walk has run since Build: the cache is cold, the repair must
  // fall back to (and report) a full rebuild — and populate the cache.
  ASSERT_TRUE(index.RepairLabels(updated, deltas).ok());
  EXPECT_TRUE(index.LastRepairStats().full_rebuild);
  std::vector<EdgeDelta> deltas2;
  Graph updated2 = PerturbWithDeltas(updated, 2, 10, &deltas2);
  ASSERT_TRUE(index.RepairLabels(updated2, deltas2).ok());
  EXPECT_FALSE(index.LastRepairStats().full_rebuild);
  EXPECT_EQ(index.Query(0, 80), ShortestPathDistance(updated2, 0, 80));
}

TEST(RepairLabels, TailPruningFlagChangeForcesFullWalk) {
  Graph g = MakeGrid(8, 8, 2);
  Hc2lIndex index = Hc2lIndex::Build(g);
  ASSERT_TRUE(index.RebuildLabels(g).ok());
  std::vector<EdgeDelta> deltas;
  Graph updated = PerturbWithDeltas(g, 1, 4, &deltas);
  // The cache was built under tail_pruning=true; a pruning-flag flip makes
  // cached label arrays incomparable, so the repair must go full.
  ASSERT_TRUE(
      index.RepairLabels(updated, deltas, /*tail_pruning=*/false).ok());
  EXPECT_TRUE(index.LastRepairStats().full_rebuild);
  EXPECT_EQ(index.Query(3, 60), ShortestPathDistance(updated, 3, 60));
}

TEST(RepairLabels, PendantOnlyDeltasSkipTheCoreWalk) {
  // A grid with one pendant hanging off corner 0: a delta touching only the
  // pendant edge refreshes the contraction offsets but never walks the
  // hierarchy.
  Graph grid = MakeGrid(5, 5, 4);
  std::vector<Edge> edges = grid.UndirectedEdges();
  edges.push_back({25, 0, 7});
  GraphBuilder b(26);
  b.AddEdges(edges);
  Graph g = std::move(b).Build();
  Hc2lIndex index = Hc2lIndex::Build(g);
  ASSERT_GT(index.Stats().num_contracted, 0u);
  ASSERT_TRUE(index.RebuildLabels(g).ok());

  edges.back().weight = 90;
  GraphBuilder b2(26);
  b2.AddEdges(edges);
  Graph updated = std::move(b2).Build();
  const EdgeDelta delta[] = {{25, 0, 90}};
  ASSERT_TRUE(index.RepairLabels(updated, delta).ok());
  const RepairStats& stats = index.LastRepairStats();
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_EQ(stats.dirty_nodes, 0u);
  EXPECT_EQ(stats.recomputed_entries, 0u);
  EXPECT_EQ(index.Query(25, 24), ShortestPathDistance(updated, 25, 24));
  EXPECT_EQ(index.Query(25, 0), 90u);
}

TEST(RepairLabels, ParallelRepairMatchesSerial) {
  RoadNetworkOptions opt;
  opt.rows = 12;
  opt.cols = 13;
  opt.seed = 37;
  opt.weight_mode = WeightMode::kTravelTime;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lIndex serial = Hc2lIndex::Build(g);
  Hc2lIndex parallel = Hc2lIndex::Build(g);
  ASSERT_TRUE(serial.RebuildLabels(g).ok());
  ASSERT_TRUE(parallel.RebuildLabels(g).ok());

  Graph cur = g;
  std::vector<EdgeDelta> deltas;
  for (int batch = 0; batch < 6; ++batch) {
    cur = PerturbWithDeltas(cur, 3, 300 + batch, &deltas);
    ASSERT_TRUE(
        serial.RepairLabels(cur, deltas, /*tail_pruning=*/true, 1).ok());
    ASSERT_TRUE(
        parallel.RepairLabels(cur, deltas, /*tail_pruning=*/true, 4).ok());
    ASSERT_TRUE(parallel.IdenticalTo(serial)) << "batch=" << batch;
    EXPECT_FALSE(parallel.LastRepairStats().full_rebuild);
  }
}

TEST(RepairLabels, RejectsMalformedDeltas) {
  Graph g = MakeGrid(4, 4, 1);
  Hc2lIndex index = Hc2lIndex::Build(g);
  ASSERT_TRUE(index.RebuildLabels(g).ok());
  const EdgeDelta out_of_range[] = {{0, 999, 5}};
  EXPECT_EQ(index.RepairLabels(g, out_of_range).code(),
            StatusCode::kInvalidArgument);
  const EdgeDelta self_loop[] = {{3, 3, 5}};
  EXPECT_EQ(index.RepairLabels(g, self_loop).code(),
            StatusCode::kInvalidArgument);
  // The index stays queryable after a rejected batch.
  EXPECT_EQ(index.Query(0, 15), ShortestPathDistance(g, 0, 15));
}

TEST(RepairLabels, DistanceOverflowReturnsOutOfRangeInsteadOfAborting) {
  // A 6-cycle has no pendants, so every vertex is core and every repair
  // walks the hierarchy. Updating all weights to ~2^30 pushes the longest
  // shortest path past the 2^31 label encoding — the walk must surface
  // kOutOfRange as a Status (the serving path repairs disposable clones),
  // never CHECK-abort.
  GraphBuilder b(6);
  for (Vertex v = 0; v < 6; ++v) b.AddEdge(v, (v + 1) % 6, 1);
  Graph g = std::move(b).Build();
  Hc2lIndex index = Hc2lIndex::Build(g);
  ASSERT_TRUE(index.RebuildLabels(g).ok());

  constexpr Weight kHuge = Weight{1} << 30;
  GraphBuilder b2(6);
  std::vector<EdgeDelta> deltas;
  for (Vertex v = 0; v < 6; ++v) {
    const Vertex next = (v + 1) % 6;
    b2.AddEdge(v, next, kHuge);
    deltas.push_back({v, next, kHuge});
  }
  Graph heavy = std::move(b2).Build();
  EXPECT_EQ(index.RepairLabels(heavy, deltas).code(),
            StatusCode::kOutOfRange);
}

/// Asserts `route` is a real path in g from s to t whose edge weights sum
/// to route.weight — the invariant RepairLabels must preserve for hints.
void ExpectRealRoute(const Graph& g, Vertex s, Vertex t,
                     const RoutePath& route) {
  ASSERT_FALSE(route.vertices.empty());
  ASSERT_EQ(route.vertices.front(), s);
  ASSERT_EQ(route.vertices.back(), t);
  Dist sum = 0;
  for (size_t i = 0; i + 1 < route.vertices.size(); ++i) {
    const Vertex u = route.vertices[i];
    const Vertex v = route.vertices[i + 1];
    Weight w = 0;
    bool found = false;
    for (const auto& a : g.Neighbors(u)) {
      if (a.to == v) {
        w = a.weight;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "hop " << u << "->" << v << " is not an edge";
    sum += w;
  }
  ASSERT_EQ(sum, route.weight);
}

TEST(RepairLabels, RouteHintsStayConsistentAcrossRepairs) {
  // The route subsystem's dynamic contract: after every scoped repair the
  // parent hints must still unpack real paths on the UPDATED graph whose
  // weights equal the repaired distances — stale hints would either walk
  // phantom edges or sum to the pre-update weight.
  RoadNetworkOptions opt;
  opt.rows = 11;
  opt.cols = 11;
  opt.seed = 53;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lIndex index = Hc2lIndex::Build(g);
  ASSERT_TRUE(index.HasRouteHints());
  ASSERT_TRUE(index.RebuildLabels(g).ok());

  Rng rng(67);
  std::vector<EdgeDelta> deltas;
  RoutePath route;
  for (int batch = 0; batch < 8; ++batch) {
    g = PerturbWithDeltas(g, 1 + rng.Below(6), 700 + batch, &deltas);
    ASSERT_TRUE(index.RepairLabels(g, deltas).ok()) << "batch=" << batch;
    Dijkstra dijkstra(g);
    for (int i = 0; i < 6; ++i) {
      const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
      dijkstra.Run(s);
      for (int j = 0; j < 4; ++j) {
        const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
        ASSERT_TRUE(index.Route(s, t, &route).ok());
        ASSERT_EQ(route.weight, dijkstra.DistanceTo(t))
            << "batch=" << batch << " s=" << s << " t=" << t;
        if (s == t) {
          ASSERT_EQ(route.vertices, std::vector<Vertex>{s});
        } else {
          ASSERT_NO_FATAL_FAILURE(ExpectRealRoute(g, s, t, route))
              << "batch=" << batch << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(Query, UnreachableCoreDistanceDoesNotWrapThroughPendantDetour) {
  // Regression (the dynamic-update detour bug): the cross-tree detour
  // DistToRoot(s) + core + DistToRoot(t) used an unguarded uint64 add, so an
  // unreachable core distance (kInfDist) wrapped into a small finite answer.
  // Two disconnected triangles, each with a pendant: the pendants contract,
  // their roots sit in different components, and the core leg is infinite.
  GraphBuilder b(8);
  b.AddEdge(0, 1, 2);
  b.AddEdge(1, 2, 2);
  b.AddEdge(2, 0, 2);
  b.AddEdge(3, 0, 5);  // pendant on component A
  b.AddEdge(4, 5, 2);
  b.AddEdge(5, 6, 2);
  b.AddEdge(6, 4, 2);
  b.AddEdge(7, 4, 5);  // pendant on component B
  Graph g = std::move(b).Build();
  Hc2lIndex index = Hc2lIndex::Build(g);
  ASSERT_GT(index.Stats().num_contracted, 0u);
  EXPECT_EQ(index.Query(3, 7), kInfDist);
  EXPECT_EQ(index.Query(7, 3), kInfDist);
  EXPECT_EQ(index.Query(3, 1), 7u);  // same-component detour still exact
}

TEST(RebuildLabels, FasterThanFullBuild) {
  RoadNetworkOptions opt;
  opt.rows = 35;
  opt.cols = 35;
  opt.seed = 3;
  Graph g = GenerateRoadNetwork(opt);
  Graph updated = PerturbWeights(g, 100, 6);
  // The best of five timings of each side: one wall-clock timing can be
  // stretched by a loaded machine, the fastest of five rarely is.
  double full_build = std::numeric_limits<double>::infinity();
  double rebuild = full_build;
  for (int run = 0; run < 5; ++run) {
    Hc2lIndex index = Hc2lIndex::Build(g);
    full_build = std::min(full_build, index.Stats().build_seconds);
    ASSERT_TRUE(index.RebuildLabels(updated).ok());
    rebuild = std::min(rebuild, index.Stats().build_seconds);
  }
  // No partitioning / max-flow work and no cut ranking: the rebuild must
  // be cheaper.
  EXPECT_LT(rebuild, full_build)
      << "best rebuild " << rebuild << " s, best build " << full_build << " s";
}

}  // namespace
}  // namespace hc2l
