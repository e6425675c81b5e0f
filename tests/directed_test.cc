#include "core/directed_hc2l.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "core/index_format.h"
#include "graph/road_network_generator.h"
#include "hierarchy/contraction.h"
#include "search/directed_dijkstra.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::FileBytes;
using ::hc2l::testing::BatchQuery;
using ::hc2l::testing::DistanceMatrix;

/// All-pairs directed distances by repeated Dijkstra (ground truth).
std::vector<std::vector<Dist>> AllPairs(const Digraph& g) {
  std::vector<std::vector<Dist>> d;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    d.push_back(DirectedDistancesFrom(g, v, SearchDirection::kForward));
  }
  return d;
}

void ExpectAllPairsCorrect(const Digraph& g, const DirectedHc2lIndex& index) {
  const auto truth = AllPairs(g);
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(index.Query(s, t), truth[s][t]) << "s=" << s << " t=" << t;
    }
  }
}

TEST(Digraph, BuilderStoresBothCsrSides) {
  DigraphBuilder b(3);
  b.AddArc(0, 1, 5);
  b.AddArc(1, 2, 7);
  b.AddArc(2, 0, 9);
  Digraph g = std::move(b).Build();
  EXPECT_EQ(g.NumArcs(), 3u);
  ASSERT_EQ(g.OutArcs(0).size(), 1u);
  EXPECT_EQ(g.OutArcs(0)[0].to, 1u);
  ASSERT_EQ(g.InArcs(0).size(), 1u);
  EXPECT_EQ(g.InArcs(0)[0].to, 2u);  // source of the incoming arc
  EXPECT_EQ(g.InArcs(0)[0].weight, 9u);
}

TEST(Digraph, ParallelArcsCollapseToMinimum) {
  DigraphBuilder b(2);
  b.AddArc(0, 1, 9);
  b.AddArc(0, 1, 3);
  Digraph g = std::move(b).Build();
  EXPECT_EQ(g.NumArcs(), 1u);
  EXPECT_EQ(g.OutArcs(0)[0].weight, 3u);
}

TEST(Digraph, UndirectedProjectionMergesDirections) {
  DigraphBuilder b(3);
  b.AddArc(0, 1, 5);
  b.AddArc(1, 0, 2);
  b.AddArc(1, 2, 4);
  Digraph g = std::move(b).Build();
  Graph projection = g.UndirectedProjection();
  EXPECT_EQ(projection.NumEdges(), 2u);
  EXPECT_EQ(projection.Neighbors(0)[0].weight, 2u);  // min of 5 and 2
}

TEST(Digraph, InducedSubdigraphWithShortcutArcs) {
  DigraphBuilder b(4);
  b.AddArc(0, 1, 1);
  b.AddArc(1, 2, 1);
  b.AddArc(2, 3, 1);
  Digraph g = std::move(b).Build();
  const std::vector<Vertex> keep = {0, 2, 3};
  const std::vector<DirectedArc> extra = {{0, 2, 2}};
  Subdigraph sub = InducedSubdigraph(g, keep, extra);
  EXPECT_EQ(sub.graph.NumVertices(), 3u);
  EXPECT_EQ(sub.graph.NumArcs(), 2u);  // 2->3 survives, 0->2 shortcut
}

TEST(DirectedDijkstra, ForwardAndBackwardAgree) {
  DigraphBuilder b(4);
  b.AddArc(0, 1, 2);
  b.AddArc(1, 2, 3);
  b.AddArc(2, 3, 4);
  b.AddArc(3, 0, 5);
  Digraph g = std::move(b).Build();
  const auto fwd = DirectedDistancesFrom(g, 0, SearchDirection::kForward);
  EXPECT_EQ(fwd[3], 9u);
  const auto bwd = DirectedDistancesFrom(g, 3, SearchDirection::kBackward);
  EXPECT_EQ(bwd[0], 9u);  // d(0 -> 3) seen from the target side
  EXPECT_EQ(bwd[1], 7u);
}

TEST(DirectedDijkstra, OneWayUnreachability) {
  DigraphBuilder b(3);
  b.AddArc(0, 1, 1);
  b.AddArc(1, 2, 1);
  Digraph g = std::move(b).Build();
  EXPECT_EQ(DirectedShortestPathDistance(g, 0, 2), 2u);
  EXPECT_EQ(DirectedShortestPathDistance(g, 2, 0), kInfDist);
}

TEST(DirectedDistAndPrune, DirectionalFlags) {
  // 0 -> 1 -> 2, P = {1}: forward from 0 flags 2; backward from 2 flags 0.
  DigraphBuilder b(3);
  b.AddArc(0, 1, 1);
  b.AddArc(1, 2, 1);
  Digraph g = std::move(b).Build();
  std::vector<uint8_t> in_p = {0, 1, 0};
  const auto fwd = DirectedDistAndPrune(g, 0, SearchDirection::kForward, in_p);
  EXPECT_EQ(fwd.via[2], 1);
  EXPECT_EQ(fwd.via[1], 0);
  const auto bwd =
      DirectedDistAndPrune(g, 2, SearchDirection::kBackward, in_p);
  EXPECT_EQ(bwd.via[0], 1);
  EXPECT_EQ(bwd.dist[0], 2u);
}

TEST(DirectedHc2l, DirectedCycle) {
  DigraphBuilder b(6);
  for (Vertex v = 0; v < 6; ++v) b.AddArc(v, (v + 1) % 6, v + 1);
  Digraph g = std::move(b).Build();
  ExpectAllPairsCorrect(g, DirectedHc2lIndex::Build(g));
}

TEST(DirectedHc2l, OneWayPair) {
  DigraphBuilder b(2);
  b.AddArc(0, 1, 7);
  Digraph g = std::move(b).Build();
  DirectedHc2lIndex index = DirectedHc2lIndex::Build(g);
  EXPECT_EQ(index.Query(0, 1), 7u);
  EXPECT_EQ(index.Query(1, 0), kInfDist);
}

TEST(DirectedHc2l, AsymmetricGridWithShortcuts) {
  // Bidirectional grid plus a fast one-way diagonal chain.
  DigraphBuilder b(25);
  auto id = [](Vertex r, Vertex c) { return r * 5 + c; };
  for (Vertex r = 0; r < 5; ++r) {
    for (Vertex c = 0; c < 5; ++c) {
      if (c + 1 < 5) b.AddBidirectional(id(r, c), id(r, c + 1), 10);
      if (r + 1 < 5) b.AddBidirectional(id(r, c), id(r + 1, c), 10);
    }
  }
  for (Vertex i = 0; i + 1 < 5; ++i) b.AddArc(id(i, i), id(i + 1, i + 1), 3);
  Digraph g = std::move(b).Build();
  ExpectAllPairsCorrect(g, DirectedHc2lIndex::Build(g));
}

TEST(DirectedHc2l, WeaklyDisconnected) {
  DigraphBuilder b(5);
  b.AddArc(0, 1, 1);
  b.AddArc(1, 0, 2);
  b.AddArc(2, 3, 3);
  Digraph g = std::move(b).Build();
  DirectedHc2lIndex index = DirectedHc2lIndex::Build(g);
  EXPECT_EQ(index.Query(0, 1), 1u);
  EXPECT_EQ(index.Query(1, 0), 2u);
  EXPECT_EQ(index.Query(0, 3), kInfDist);
  EXPECT_EQ(index.Query(3, 2), kInfDist);
  EXPECT_EQ(index.Query(4, 4), 0u);
}

TEST(DirectedHc2l, UnreachableCoreDoesNotWrapThroughPendantDetour) {
  // Regression twin of the undirected detour bug: the cross-tree sum
  // up + core + down must propagate an unreachable core leg as kInfDist
  // instead of wrapping the uint64 past infinity into a finite answer.
  // Two disconnected directed triangles, each with a bidirectional pendant:
  // both chain legs are finite, the core leg is not.
  DigraphBuilder b(8);
  b.AddArc(0, 1, 2);
  b.AddArc(1, 2, 2);
  b.AddArc(2, 0, 2);
  b.AddBidirectional(3, 0, 5);  // pendant on component A
  b.AddArc(4, 5, 2);
  b.AddArc(5, 6, 2);
  b.AddArc(6, 4, 2);
  b.AddBidirectional(7, 4, 5);  // pendant on component B
  Digraph g = std::move(b).Build();
  DirectedHc2lIndex index = DirectedHc2lIndex::Build(g);
  ASSERT_GT(index.NumContracted(), 0u);
  EXPECT_EQ(index.Query(3, 7), kInfDist);
  EXPECT_EQ(index.Query(7, 3), kInfDist);
  EXPECT_EQ(index.Query(3, 1), 7u);  // same-component chain stays exact
}

TEST(DirectedHc2l, OneWayPendantBreaksTheDetourDirectionally) {
  // A pendant reachable only outward: queries INTO it must be unreachable
  // while queries OUT of it stay finite — pinned by the kInfDist early-out
  // on the chain legs.
  DigraphBuilder b(5);
  b.AddArc(0, 1, 2);
  b.AddArc(1, 2, 2);
  b.AddArc(2, 0, 2);
  b.AddArc(3, 0, 4);              // one-way pendant: 3 -> core only
  b.AddBidirectional(4, 1, 6);    // ordinary pendant elsewhere
  Digraph g = std::move(b).Build();
  DirectedHc2lIndex index = DirectedHc2lIndex::Build(g);
  EXPECT_EQ(index.Query(3, 4), 12u);      // 3->0 (4) + 0->1 (2) + 1->4 (6)
  EXPECT_EQ(index.Query(4, 3), kInfDist);  // nothing reaches 3
}

class DirectedHc2lPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(DirectedHc2lPropertyTest, MatchesDijkstraOnOneWayRoadNetworks) {
  const auto [seed, tail_pruning] = GetParam();
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 12;
  opt.seed = seed;
  opt.weight_mode =
      seed % 2 == 0 ? WeightMode::kDistance : WeightMode::kTravelTime;
  Digraph g = GenerateDirectedRoadNetwork(opt, /*one_way_frac=*/0.25);
  Hc2lOptions options;
  options.tail_pruning = tail_pruning;
  DirectedHc2lIndex index = DirectedHc2lIndex::Build(g, options);
  Rng rng(seed * 11 + 3);
  for (int i = 0; i < 25; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    const auto truth = DirectedDistancesFrom(g, s, SearchDirection::kForward);
    for (int j = 0; j < 6; ++j) {
      const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
      ASSERT_EQ(index.Query(s, t), truth[t])
          << "seed=" << seed << " s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPruning, DirectedHc2lPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Bool()));

TEST(DirectedHc2l, TailPruningShrinksLabels) {
  RoadNetworkOptions opt;
  opt.rows = 14;
  opt.cols = 14;
  opt.seed = 8;
  Digraph g = GenerateDirectedRoadNetwork(opt, 0.2);
  Hc2lOptions pruned;
  pruned.tail_pruning = true;
  Hc2lOptions naive;
  naive.tail_pruning = false;
  EXPECT_LT(DirectedHc2lIndex::Build(g, pruned).NumEntries(),
            DirectedHc2lIndex::Build(g, naive).NumEntries());
}

TEST(DirectedHc2l, SymmetricDigraphMatchesUndirectedSemantics) {
  // A fully bidirectional digraph must behave like the undirected graph.
  RoadNetworkOptions opt;
  opt.rows = 9;
  opt.cols = 9;
  opt.seed = 5;
  Digraph g = GenerateDirectedRoadNetwork(opt, /*one_way_frac=*/0.0);
  DirectedHc2lIndex index = DirectedHc2lIndex::Build(g);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
    ASSERT_EQ(index.Query(s, t), index.Query(t, s));
  }
}

// ------------------------------------------------------------------------
// Directed degree-one contraction (the Section 4.2.2 port).

/// Core triangle 0-1-2 (bidirectional) with pendant chains of every link
/// flavour hanging off it:
///   3 <-> 4 <-> 0        symmetric chain, asymmetric weights
///   1  -> 5              down-only pendant (enter-only dead end)
///   6  -> 2              up-only pendant (exit-only side street)
Digraph PendantFixture() {
  DigraphBuilder b(7);
  b.AddBidirectional(0, 1, 10);
  b.AddBidirectional(1, 2, 10);
  b.AddBidirectional(0, 2, 10);
  b.AddArc(4, 0, 1);
  b.AddArc(0, 4, 2);
  b.AddArc(3, 4, 3);
  b.AddArc(4, 3, 4);
  b.AddArc(1, 5, 5);
  b.AddArc(6, 2, 6);
  return std::move(b).Build();
}

TEST(DirectedDegreeOneContraction, StripsPendantsAndKeepsCore) {
  const Digraph g = PendantFixture();
  DirectedDegreeOneContraction c(g);
  EXPECT_EQ(c.CoreGraph().NumVertices(), 3u);
  EXPECT_EQ(c.NumContracted(), 4u);
  EXPECT_TRUE(c.InCore(0));
  EXPECT_FALSE(c.InCore(4));
  // Chain 3 -> 4 -> 0: both directions exist.
  EXPECT_EQ(c.DistToRoot(3), 4u);    // 3 + 1
  EXPECT_EQ(c.DistFromRoot(3), 6u);  // 2 + 4
  // One-way pendants: reachable in exactly one direction.
  EXPECT_EQ(c.DistFromRoot(5), 5u);
  EXPECT_EQ(c.DistToRoot(5), kInfDist);
  EXPECT_EQ(c.DistToRoot(6), 6u);
  EXPECT_EQ(c.DistFromRoot(6), kInfDist);
  // Same-tree climbs, including through the root.
  EXPECT_EQ(c.SameTreeDistance(3, 4), 3u);
  EXPECT_EQ(c.SameTreeDistance(4, 3), 4u);
  EXPECT_EQ(c.SameTreeDistance(3, 3), 0u);
}

TEST(DirectedHc2l, PendantFixtureMatchesDijkstraBothModes) {
  const Digraph g = PendantFixture();
  for (const bool contract : {true, false}) {
    Hc2lOptions options;
    options.contract_degree_one = contract;
    ExpectAllPairsCorrect(g, DirectedHc2lIndex::Build(g, options));
  }
}

TEST(DirectedHc2l, OneWayPendantQueriesThroughTheIndex) {
  const Digraph g = PendantFixture();
  const DirectedHc2lIndex index = DirectedHc2lIndex::Build(g);
  EXPECT_EQ(index.NumVertices(), 7u);
  EXPECT_EQ(index.NumCoreVertices(), 3u);
  EXPECT_EQ(index.NumContracted(), 4u);
  // Enter-only dead end 5: reachable from everywhere, exits nowhere.
  EXPECT_EQ(index.Query(0, 5), 15u);
  EXPECT_EQ(index.Query(5, 0), kInfDist);
  EXPECT_EQ(index.Query(5, 5), 0u);
  // Exit-only side street 6, including pendant-to-pendant across trees.
  EXPECT_EQ(index.Query(6, 0), 16u);
  EXPECT_EQ(index.Query(0, 6), kInfDist);
  EXPECT_EQ(index.Query(6, 5), 6u + 10u + 5u);
  EXPECT_EQ(index.Query(5, 6), kInfDist);
  // Batch over every flavour of target at once.
  const std::vector<Vertex> targets = {0, 3, 4, 5, 6};
  const std::vector<Dist> batch = BatchQuery(index, 6, targets);
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(batch[i], index.Query(6, targets[i])) << "target " << targets[i];
  }
}

TEST(DirectedHc2l, ContractionOnOffAgreeOnPendantHeavyNetworks) {
  RoadNetworkOptions opt;
  opt.rows = 9;
  opt.cols = 11;
  opt.pendant_frac = 0.6;
  for (const uint64_t seed : {21u, 22u, 23u}) {
    opt.seed = seed;
    const Digraph g = GenerateDirectedRoadNetwork(opt, /*one_way_frac=*/0.3);
    Hc2lOptions with;
    with.contract_degree_one = true;
    Hc2lOptions without;
    without.contract_degree_one = false;
    const DirectedHc2lIndex a = DirectedHc2lIndex::Build(g, with);
    const DirectedHc2lIndex b = DirectedHc2lIndex::Build(g, without);
    ASSERT_LT(a.NumCoreVertices(), b.NumCoreVertices()) << "seed " << seed;
    ASSERT_LT(a.NumEntries(), b.NumEntries()) << "seed " << seed;
    Rng rng(seed);
    std::vector<Vertex> targets;
    for (int i = 0; i < 48; ++i) {
      targets.push_back(static_cast<Vertex>(rng.Below(g.NumVertices())));
    }
    for (int i = 0; i < 32; ++i) {
      const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
      ASSERT_EQ(BatchQuery(a, s, targets), BatchQuery(b, s, targets))
          << "seed " << seed << " s " << s;
    }
    ASSERT_EQ(DistanceMatrix(a, targets, targets),
              DistanceMatrix(b, targets, targets))
        << "seed " << seed;
  }
}

uint64_t FileMagic(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ADD_FAILURE() << "cannot open " << path;
    return 0;
  }
  uint64_t magic = 0;
  EXPECT_EQ(std::fread(&magic, sizeof(magic), 1, f), 1u);
  std::fclose(f);
  return magic;
}

TEST(DirectedHc2l, SaveWritesFormatPerContractionAndBothLoad) {
  RoadNetworkOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 31;
  const Digraph g = GenerateDirectedRoadNetwork(opt, 0.25);
  for (const bool hints : {true, false}) {
    for (const bool contract : {true, false}) {
      SCOPED_TRACE(std::string(hints ? "hinted" : "hint-less") + " " +
                   (contract ? "contracted" : "uncontracted"));
      Hc2lOptions options;
      options.contract_degree_one = contract;
      options.route_hints = hints;
      const DirectedHc2lIndex index = DirectedHc2lIndex::Build(g, options);
      const std::string path = ::testing::TempDir() + "/hc2l_dir_fmt.idx";
      ASSERT_TRUE(index.Save(path).ok());
      // Every index writes the sectioned HC2D0004: contraction is a marker
      // in the meta section, and a hint-less index just omits its hint
      // arenas — so it maps in place like a hint-carrying one.
      EXPECT_EQ(FileMagic(path), kDirectedIndexMagic);
      for (const bool use_mmap : {false, true}) {
        SCOPED_TRACE(use_mmap ? "mmap" : "heap");
        const auto loaded = DirectedHc2lIndex::Load(path, use_mmap);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        EXPECT_EQ(loaded->NumVertices(), index.NumVertices());
        EXPECT_EQ(loaded->NumCoreVertices(), index.NumCoreVertices());
        EXPECT_EQ(loaded->HasRouteHints(), hints);
        EXPECT_EQ(loaded->MappedBytes() > 0, use_mmap);
        for (Vertex s = 0; s < g.NumVertices(); s += 7) {
          for (Vertex t = 0; t < g.NumVertices(); t += 5) {
            ASSERT_EQ(loaded->Query(s, t), index.Query(s, t))
                << "s=" << s << " t=" << t;
          }
        }
        // The on-disk format is fixed: re-saving a loaded index (heap or
        // mapped) reproduces the original file byte for byte.
        const std::string resaved = path + ".resaved";
        ASSERT_TRUE(loaded->Save(resaved).ok());
        EXPECT_EQ(FileBytes(resaved), FileBytes(path));
        std::remove(resaved.c_str());
      }
      std::remove(path.c_str());
    }
  }
}

TEST(DirectedHc2l, ParallelBuildSavesIdenticalFiles) {
  // HC2L_p labels each hierarchy level's nodes in parallel and numbers
  // nodes in level order, so the thread count cannot change a single byte
  // of the file — hierarchy node list included.
  RoadNetworkOptions opt;
  opt.rows = 16;
  opt.cols = 17;
  opt.seed = 12;
  opt.pendant_frac = 0.2;
  const Digraph g = GenerateDirectedRoadNetwork(opt, 0.3);
  const std::string path = ::testing::TempDir() + "/hc2l_dir_threads";
  for (const bool hints : {true, false}) {
    SCOPED_TRACE(hints ? "hinted" : "hint-less");
    Hc2lOptions serial;
    serial.route_hints = hints;
    serial.num_threads = 1;
    Hc2lOptions parallel = serial;
    parallel.num_threads = 4;
    ASSERT_TRUE(DirectedHc2lIndex::Build(g, serial).Save(path + ".1").ok());
    ASSERT_TRUE(
        DirectedHc2lIndex::Build(g, parallel).Save(path + ".4").ok());
    const std::string one = FileBytes(path + ".1");
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, FileBytes(path + ".4"));
  }
  std::remove((path + ".1").c_str());
  std::remove((path + ".4").c_str());
}

TEST(GenerateDirectedRoadNetwork, OneWayFractionRoughlyRespected) {
  RoadNetworkOptions opt;
  opt.rows = 20;
  opt.cols = 20;
  opt.seed = 3;
  Digraph g = GenerateDirectedRoadNetwork(opt, 0.3);
  const Graph base = GenerateRoadNetwork(opt);
  // arcs = 2 * (1 - frac) * E + frac * E approximately.
  const double expected =
      base.NumEdges() * (2.0 * 0.7 + 0.3);
  EXPECT_NEAR(static_cast<double>(g.NumArcs()), expected, expected * 0.1);
}

}  // namespace
}  // namespace hc2l
