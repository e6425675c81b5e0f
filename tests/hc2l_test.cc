#include "core/hc2l.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "core/index_format.h"
#include "graph/road_network_generator.h"
#include "search/dijkstra.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::FileBytes;
using ::hc2l::testing::FloydWarshall;
using ::hc2l::testing::MakeBarbell;
using ::hc2l::testing::MakeComplete;
using ::hc2l::testing::MakeCycle;
using ::hc2l::testing::MakeGrid;
using ::hc2l::testing::MakePath;
using ::hc2l::testing::MakeStar;

/// Checks index.Query against Floyd-Warshall for every pair.
void ExpectAllPairsCorrect(const Graph& g, const Hc2lIndex& index) {
  const auto truth = FloydWarshall(g);
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(index.Query(s, t), truth[s][t]) << "s=" << s << " t=" << t;
    }
  }
}

TEST(Hc2lIndex, SingleVertex) {
  Graph g = GraphBuilder(1).Build();
  Hc2lIndex index = Hc2lIndex::Build(g);
  EXPECT_EQ(index.Query(0, 0), 0u);
}

TEST(Hc2lIndex, TwoVertices) {
  Graph g = MakePath(2, 9);
  Hc2lIndex index = Hc2lIndex::Build(g);
  EXPECT_EQ(index.Query(0, 1), 9u);
  EXPECT_EQ(index.Query(1, 0), 9u);
}

TEST(Hc2lIndex, PathGraph) { ExpectAllPairsCorrect(MakePath(30, 4), Hc2lIndex::Build(MakePath(30, 4))); }

TEST(Hc2lIndex, CycleGraph) {
  Graph g = MakeCycle(25, 3);
  ExpectAllPairsCorrect(g, Hc2lIndex::Build(g));
}

TEST(Hc2lIndex, StarGraph) {
  Graph g = MakeStar(20, 2);
  ExpectAllPairsCorrect(g, Hc2lIndex::Build(g));
}

TEST(Hc2lIndex, CompleteGraph) {
  Graph g = MakeComplete(12, 5);
  ExpectAllPairsCorrect(g, Hc2lIndex::Build(g));
}

TEST(Hc2lIndex, BarbellBottleneck) {
  Graph g = MakeBarbell(8, 5, 2);
  ExpectAllPairsCorrect(g, Hc2lIndex::Build(g));
}

TEST(Hc2lIndex, GridGraph) {
  Graph g = MakeGrid(7, 9, 2);
  ExpectAllPairsCorrect(g, Hc2lIndex::Build(g));
}

TEST(Hc2lIndex, DisconnectedGraphReturnsInfinity) {
  GraphBuilder b(7);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 2);
  b.AddEdge(3, 4, 3);
  b.AddEdge(4, 5, 1);
  // 6 isolated.
  Graph g = std::move(b).Build();
  Hc2lIndex index = Hc2lIndex::Build(g);
  ExpectAllPairsCorrect(g, index);
  EXPECT_EQ(index.Query(0, 3), kInfDist);
  EXPECT_EQ(index.Query(2, 6), kInfDist);
  EXPECT_EQ(index.Query(0, 2), 3u);
}

struct BuildConfig {
  double beta;
  bool tail_pruning;
  bool contraction;
  uint32_t threads;
};

class Hc2lPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(Hc2lPropertyTest, MatchesDijkstraOnRoadNetworks) {
  const auto [seed, config_id] = GetParam();
  static constexpr BuildConfig kConfigs[] = {
      {0.2, true, true, 1},   {0.2, false, true, 1},  {0.3, true, false, 1},
      {0.15, true, true, 2},  {0.5, false, false, 1}, {0.25, true, true, 4},
  };
  const BuildConfig& cfg = kConfigs[config_id];

  RoadNetworkOptions opt;
  opt.rows = 13;
  opt.cols = 16;
  opt.seed = seed;
  opt.weight_mode = seed % 2 == 0 ? WeightMode::kDistance
                                  : WeightMode::kTravelTime;
  Graph g = GenerateRoadNetwork(opt);

  Hc2lOptions options;
  options.beta = cfg.beta;
  options.tail_pruning = cfg.tail_pruning;
  options.contract_degree_one = cfg.contraction;
  options.num_threads = cfg.threads;
  Hc2lIndex index = Hc2lIndex::Build(g, options);

  Dijkstra dijkstra(g);
  Rng rng(seed * 977 + config_id);
  for (int i = 0; i < 40; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    dijkstra.Run(s);
    for (int j = 0; j < 5; ++j) {
      const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
      ASSERT_EQ(index.Query(s, t), dijkstra.DistanceTo(t))
          << "seed=" << seed << " config=" << config_id << " s=" << s
          << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesConfigs, Hc2lPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

TEST(Hc2lIndex, RandomGeometricGraphAllPairs) {
  Graph g = GenerateRandomGeometricGraph(60, 3, 77);
  ExpectAllPairsCorrect(g, Hc2lIndex::Build(g));
}

TEST(Hc2lIndex, ParallelBuildProducesIdenticalIndex) {
  RoadNetworkOptions opt;
  opt.rows = 18;
  opt.cols = 18;
  opt.seed = 4;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lOptions serial;
  serial.num_threads = 1;
  Hc2lOptions parallel;
  parallel.num_threads = 4;
  Hc2lIndex a = Hc2lIndex::Build(g, serial);
  Hc2lIndex b = Hc2lIndex::Build(g, parallel);
  // The same index — hierarchy (node numbering included), labels, hints and
  // stats — and, for a query sample, identical results and hub counts.
  EXPECT_TRUE(a.IdenticalTo(b));
  EXPECT_EQ(a.Stats().label_entries, b.Stats().label_entries);
  EXPECT_EQ(a.Stats().tree_height, b.Stats().tree_height);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
    uint64_t hubs_a = 0;
    uint64_t hubs_b = 0;
    ASSERT_EQ(a.QueryCountingHubs(s, t, &hubs_a),
              b.QueryCountingHubs(s, t, &hubs_b));
    ASSERT_EQ(hubs_a, hubs_b);
  }
}

TEST(Hc2lIndex, TailPruningShrinksLabels) {
  RoadNetworkOptions opt;
  opt.rows = 20;
  opt.cols = 20;
  opt.seed = 10;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lOptions pruned;
  pruned.tail_pruning = true;
  Hc2lOptions naive;
  naive.tail_pruning = false;
  const auto pruned_entries = Hc2lIndex::Build(g, pruned).Stats().label_entries;
  const auto naive_entries = Hc2lIndex::Build(g, naive).Stats().label_entries;
  EXPECT_LT(pruned_entries, naive_entries);
}

TEST(Hc2lIndex, HierarchyIsValidAndBalanced) {
  RoadNetworkOptions opt;
  opt.rows = 16;
  opt.cols = 20;
  opt.seed = 6;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lOptions options;
  options.contract_degree_one = false;
  Hc2lIndex index = Hc2lIndex::Build(g, options);
  const BalancedTreeHierarchy& h = index.Hierarchy();
  EXPECT_TRUE(h.Validate(g.NumVertices()));
  EXPECT_GT(h.NumNodes(), 1u);
  EXPECT_GT(h.Height(), 2u);
  // Height stays well below the paper's worst-case bound log_{1/(1-b)}(n).
  EXPECT_LT(h.Height(), 40u);
}

TEST(Hc2lIndex, HubsAreAncestorsInQuasiOrder) {
  // Definition 4.14 condition (1): every level-k array of vertex v
  // corresponds to an ancestor of l(v); equivalently each vertex has exactly
  // depth(l(v)) + 1 arrays and array k is no longer than the level-k
  // ancestor's cut.
  RoadNetworkOptions opt;
  opt.rows = 12;
  opt.cols = 14;
  opt.seed = 19;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lOptions options;
  options.contract_degree_one = false;
  Hc2lIndex index = Hc2lIndex::Build(g, options);
  const BalancedTreeHierarchy& h = index.Hierarchy();
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    // Walk ancestors from l(v) to the root: depth+1 of them.
    uint32_t count = 0;
    int32_t node = static_cast<int32_t>(h.NodeOf(v));
    while (node >= 0) {
      ++count;
      node = h.Node(node).parent;
    }
    EXPECT_EQ(count, TreeCodeDepth(h.CodeOf(v)) + 1);
  }
}

TEST(Hc2lIndex, QueryCountingHubsReportsScanSize) {
  Graph g = MakeGrid(10, 10);
  Hc2lOptions options;
  options.contract_degree_one = false;
  Hc2lIndex index = Hc2lIndex::Build(g, options);
  uint64_t hubs = 0;
  const Dist d = index.QueryCountingHubs(0, 99, &hubs);
  EXPECT_EQ(d, 18u);
  EXPECT_GT(hubs, 0u);
  EXPECT_LE(hubs, index.Hierarchy().MaxCutSize() + 2);
}

TEST(Hc2lIndex, SerializationRoundTrip) {
  RoadNetworkOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.seed = 23;
  Graph g = GenerateRoadNetwork(opt);
  for (const bool hints : {true, false}) {
    for (const bool contract : {true, false}) {
      SCOPED_TRACE(std::string(hints ? "hinted" : "hint-less") + " " +
                   (contract ? "contracted" : "uncontracted"));
      Hc2lOptions options;
      options.route_hints = hints;
      options.contract_degree_one = contract;
      Hc2lIndex index = Hc2lIndex::Build(g, options);
      const std::string path = ::testing::TempDir() + "/hc2l_index.bin";
      const Status saved = index.Save(path);
      ASSERT_TRUE(saved.ok()) << saved.ToString();
      // Every index writes the sectioned HC2L0004; a hint-less one omits
      // its hint arena and still maps in place.
      uint64_t magic = 0;
      std::FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      EXPECT_EQ(std::fread(&magic, sizeof(magic), 1, f), 1u);
      std::fclose(f);
      EXPECT_EQ(magic, kHc2lIndexMagic);
      for (const bool use_mmap : {false, true}) {
        SCOPED_TRACE(use_mmap ? "mmap" : "heap");
        auto loaded = Hc2lIndex::Load(path, use_mmap);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        EXPECT_EQ(loaded->Stats().label_entries, index.Stats().label_entries);
        EXPECT_EQ(loaded->HasRouteHints(), hints);
        EXPECT_EQ(loaded->MappedBytes() > 0, use_mmap);
        Rng rng(3);
        for (int i = 0; i < 100; ++i) {
          const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
          const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
          ASSERT_EQ(loaded->Query(s, t), index.Query(s, t));
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

TEST(Hc2lIndex, LoadRejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/hc2l_garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not an index", f);
  std::fclose(f);
  const auto loaded = Hc2lIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(loaded.status().message().empty());
  std::remove(path.c_str());
}

TEST(Hc2lIndex, LoadRejectsTruncatedFile) {
  RoadNetworkOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 2;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lIndex index = Hc2lIndex::Build(g);
  const std::string path = ::testing::TempDir() + "/hc2l_trunc.bin";
  const Status saved = index.Save(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  const auto loaded = Hc2lIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(Hc2lIndex, StatsArePopulated) {
  RoadNetworkOptions opt;
  opt.rows = 14;
  opt.cols = 14;
  opt.seed = 31;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lIndex index = Hc2lIndex::Build(g);
  const Hc2lStats& s = index.Stats();
  EXPECT_EQ(s.num_vertices, g.NumVertices());
  EXPECT_GT(s.num_contracted, 0u);  // generated networks have pendants
  EXPECT_EQ(s.num_core_vertices + s.num_contracted, s.num_vertices);
  EXPECT_GT(s.label_entries, 0u);
  EXPECT_GT(s.label_bytes, 0u);
  EXPECT_EQ(s.lca_bytes, s.num_core_vertices * sizeof(TreeCode));
  EXPECT_GT(s.tree_height, 0u);
  EXPECT_GE(s.max_cut_size, 1u);
  EXPECT_GT(s.build_seconds, 0.0);
  EXPECT_GT(index.LabelSizeBytes(), 0u);
}

TEST(Hc2lIndex, ContractionReducesCoreSize) {
  // A caterpillar: path with pendant leaves; contraction should strip all
  // leaves (and then the path collapses further).
  GraphBuilder b(20);
  for (Vertex v = 0; v + 1 < 10; ++v) b.AddEdge(v, v + 1, 1);
  for (Vertex v = 0; v < 10; ++v) b.AddEdge(v, static_cast<Vertex>(10 + v), 2);
  Graph g = std::move(b).Build();
  Hc2lIndex index = Hc2lIndex::Build(g);
  EXPECT_GT(index.Stats().num_contracted, 10u);
  ExpectAllPairsCorrect(g, index);
}

TEST(Hc2lIndex, PureTreeContractsToSingleVertex) {
  // Full binary-ish tree: everything contracts.
  GraphBuilder b(15);
  for (Vertex v = 1; v < 15; ++v) b.AddEdge(v, (v - 1) / 2, v);
  Graph g = std::move(b).Build();
  Hc2lIndex index = Hc2lIndex::Build(g);
  EXPECT_EQ(index.Stats().num_core_vertices, 1u);
  ExpectAllPairsCorrect(g, index);
}

class Hc2lBetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(Hc2lBetaSweep, CorrectAcrossBalanceThresholds) {
  RoadNetworkOptions opt;
  opt.rows = 15;
  opt.cols = 15;
  opt.seed = 47;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lOptions options;
  options.beta = GetParam();
  Hc2lIndex index = Hc2lIndex::Build(g, options);
  Dijkstra dijkstra(g);
  Rng rng(12);
  for (int i = 0; i < 25; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    dijkstra.Run(s);
    for (int j = 0; j < 4; ++j) {
      const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
      ASSERT_EQ(index.Query(s, t), dijkstra.DistanceTo(t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, Hc2lBetaSweep,
                         ::testing::Values(0.15, 0.2, 0.25, 0.3, 0.35, 0.5));

}  // namespace
}  // namespace hc2l
