#include <gtest/gtest.h>

#include "core/hc2l.h"
#include "graph/road_network_generator.h"
#include "search/dijkstra.h"
#include "server/query_engine.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::MakeGrid;
using ::hc2l::testing::BatchQuery;
using ::hc2l::testing::DistanceMatrix;
using ::hc2l::testing::KNearest;

TEST(BatchQuery, MatchesSingleQueries) {
  Graph g = MakeGrid(9, 9, 3);
  Hc2lIndex index = Hc2lIndex::Build(g);
  const std::vector<Vertex> targets = {0, 5, 17, 44, 80, 80, 12};
  const auto batch = BatchQuery(index, 40, targets);
  ASSERT_EQ(batch.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(batch[i], index.Query(40, targets[i]));
  }
}

TEST(BatchQuery, EmptyTargets) {
  Graph g = MakeGrid(3, 3);
  Hc2lIndex index = Hc2lIndex::Build(g);
  EXPECT_TRUE(BatchQuery(index, 0, {}).empty());
}

TEST(DistanceMatrix, MatchesDijkstraMatrix) {
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 11;
  opt.seed = 77;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lIndex index = Hc2lIndex::Build(g);
  const std::vector<Vertex> sources = {0, 13, 57};
  const std::vector<Vertex> targets = {3, 99, 101, 42};
  const auto matrix = DistanceMatrix(index, sources, targets);
  ASSERT_EQ(matrix.size(), sources.size());
  Dijkstra dijkstra(g);
  for (size_t i = 0; i < sources.size(); ++i) {
    ASSERT_EQ(matrix[i].size(), targets.size());
    dijkstra.Run(sources[i]);
    for (size_t j = 0; j < targets.size(); ++j) {
      EXPECT_EQ(matrix[i][j], dijkstra.DistanceTo(targets[j]));
    }
  }
}

TEST(KNearest, ReturnsSortedNearest) {
  Graph g = MakeGrid(8, 8, 10);
  Hc2lIndex index = Hc2lIndex::Build(g);
  const std::vector<Vertex> candidates = {63, 0, 7, 56, 27, 36};
  const auto nearest = KNearest(index, 0, candidates, 3);
  ASSERT_EQ(nearest.size(), 3u);
  EXPECT_EQ(nearest[0].second, 0u);  // the source itself, distance 0
  EXPECT_EQ(nearest[0].first, 0u);
  EXPECT_LE(nearest[0].first, nearest[1].first);
  EXPECT_LE(nearest[1].first, nearest[2].first);
  // Every returned distance beats every excluded candidate.
  for (const Vertex c : candidates) {
    bool returned = false;
    for (const auto& [d, v] : nearest) returned |= v == c;
    if (!returned) {
      EXPECT_GE(index.Query(0, c), nearest.back().first);
    }
  }
}

TEST(KNearest, ExcludesUnreachableAndClampsK) {
  GraphBuilder b(5);
  b.AddEdge(0, 1, 2);
  b.AddEdge(1, 2, 2);
  // 3, 4 disconnected.
  Graph g = std::move(b).Build();
  Hc2lIndex index = Hc2lIndex::Build(g);
  const std::vector<Vertex> candidates = {1, 2, 3, 4};
  const auto nearest = KNearest(index, 0, candidates, 10);
  ASSERT_EQ(nearest.size(), 2u);
  EXPECT_EQ(nearest[0].second, 1u);
  EXPECT_EQ(nearest[1].second, 2u);
}

TEST(KNearest, TiesBreakByCandidateOrder) {
  // Star: every leaf is at distance 5 from the center, so all distances tie
  // and the returned order must be exactly the candidate order — including
  // the duplicated candidate.
  Graph g = testing::MakeStar(6, 5);
  Hc2lIndex index = Hc2lIndex::Build(g);
  const std::vector<Vertex> candidates = {4, 2, 5, 2, 1};
  const auto nearest = KNearest(index, 0, candidates, 4);
  ASSERT_EQ(nearest.size(), 4u);
  EXPECT_EQ(nearest[0].second, 4u);
  EXPECT_EQ(nearest[1].second, 2u);
  EXPECT_EQ(nearest[2].second, 5u);
  EXPECT_EQ(nearest[3].second, 2u);  // duplicate kept, in order
  for (const auto& [d, v] : nearest) EXPECT_EQ(d, 5u);
}

/// The edge-case fixture shared by the sequential-vs-parallel tests: two
/// components, so it has unreachable pairs; targets include duplicates, the
/// source itself and an unreachable vertex.
struct EdgeCaseFixture {
  Graph graph;
  Hc2lIndex index;
  std::vector<Vertex> targets;
  Vertex source = 0;

  static EdgeCaseFixture Make() {
    GraphBuilder b(8);
    b.AddEdge(0, 1, 3);
    b.AddEdge(1, 2, 1);
    b.AddEdge(2, 3, 4);
    b.AddEdge(0, 3, 9);
    // 4..7: a second component.
    b.AddEdge(4, 5, 2);
    b.AddEdge(5, 6, 2);
    b.AddEdge(6, 7, 2);
    Graph g = std::move(b).Build();
    Hc2lIndex index = Hc2lIndex::Build(g);
    return {std::move(g), std::move(index),
            /*targets=*/{3, 0, 5, 3, 3, 0, 7, 2}, /*source=*/0};
  }
};

TEST(BatchQuery, EdgeCasesMatchDijkstraAndParallelPath) {
  EdgeCaseFixture f = EdgeCaseFixture::Make();
  Dijkstra dijkstra(f.graph);
  dijkstra.Run(f.source);

  const auto sequential = BatchQuery(f.index, f.source, f.targets);
  ASSERT_EQ(sequential.size(), f.targets.size());
  for (size_t i = 0; i < f.targets.size(); ++i) {
    EXPECT_EQ(sequential[i], dijkstra.DistanceTo(f.targets[i])) << "i=" << i;
  }
  EXPECT_EQ(sequential[1], 0u);                  // source == target
  EXPECT_EQ(sequential[2], kInfDist);            // unreachable
  EXPECT_EQ(sequential[3], sequential[0]);       // duplicated target
  for (const uint32_t threads : {1u, 2u, 8u}) {
    QueryEngineOptions options;
    options.num_threads = threads;
    options.min_shard_queries = 2;
    const QueryEngine engine(f.index, options);
    EXPECT_EQ(BatchQuery(engine, f.source, f.targets), sequential)
        << threads << " threads";
  }
}

TEST(DistanceMatrix, EdgeCasesMatchSequentialAndParallelPaths) {
  EdgeCaseFixture f = EdgeCaseFixture::Make();
  const std::vector<Vertex> sources = {0, 5, 0, 3};  // duplicate source too
  const auto matrix = DistanceMatrix(f.index, sources, f.targets);
  Dijkstra dijkstra(f.graph);
  for (size_t i = 0; i < sources.size(); ++i) {
    dijkstra.Run(sources[i]);
    for (size_t j = 0; j < f.targets.size(); ++j) {
      EXPECT_EQ(matrix[i][j], dijkstra.DistanceTo(f.targets[j]))
          << "i=" << i << " j=" << j;
    }
  }
  EXPECT_EQ(matrix[0], matrix[2]);  // duplicated source rows agree
  for (const uint32_t threads : {1u, 2u, 8u}) {
    QueryEngineOptions options;
    options.num_threads = threads;
    // Two queries per shard: 2 and 8 threads cut the 8 targets into 2 and 8
    // slices, every block of which is narrow (answered pair by pair).
    options.min_shard_queries = 2;
    const QueryEngine engine(f.index, options);
    EXPECT_EQ(DistanceMatrix(engine, sources, f.targets), matrix)
        << threads << " threads";
  }
}

TEST(BatchQuery, EmptyTargetsAcrossAllPaths) {
  EdgeCaseFixture f = EdgeCaseFixture::Make();
  EXPECT_TRUE(BatchQuery(f.index, 0, {}).empty());
  const std::vector<Vertex> two_sources = {1, 2};
  const auto matrix = DistanceMatrix(f.index, two_sources, {});
  ASSERT_EQ(matrix.size(), 2u);
  EXPECT_TRUE(matrix[0].empty());
  EXPECT_TRUE(DistanceMatrix(f.index, {}, f.targets).empty());
  EXPECT_TRUE(KNearest(f.index, 0, {}, 3).empty());
  const QueryEngine engine(f.index, {});
  EXPECT_TRUE(BatchQuery(engine, 0, {}).empty());
  EXPECT_TRUE(DistanceMatrix(engine, {}, f.targets).empty());
  EXPECT_TRUE(KNearest(engine, 0, {}, 3).empty());
}

TEST(KNearest, UnreachableSourceComponentReturnsEmpty) {
  EdgeCaseFixture f = EdgeCaseFixture::Make();
  // All candidates in the other component: nothing reachable, k ignored.
  const std::vector<Vertex> candidates = {4, 5, 6, 7};
  EXPECT_TRUE(KNearest(f.index, 0, candidates, 10).empty());
  const QueryEngine engine(f.index, {});
  EXPECT_TRUE(KNearest(engine, 0, candidates, 10).empty());
}

}  // namespace
}  // namespace hc2l
