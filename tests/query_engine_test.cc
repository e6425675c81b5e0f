// The parallel query engine's contract: results bit-identical to the
// sequential index methods, in input order, for every thread count — plus
// safe concurrent use of one engine from many caller threads (the
// configuration the TSAN CI job instruments).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "benchsupport/workload.h"
#include "common/rng.h"
#include "core/directed_hc2l.h"
#include "core/hc2l.h"
#include "graph/digraph.h"
#include "graph/road_network_generator.h"
#include "server/query_engine.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::MakeGrid;
using ::hc2l::testing::BatchQuery;
using ::hc2l::testing::DistanceMatrix;
using ::hc2l::testing::KNearest;
using ::hc2l::testing::PointQueries;

const Graph& FixtureGraph() {
  static const Graph* g = [] {
    RoadNetworkOptions opt;
    opt.rows = 24;
    opt.cols = 24;
    opt.seed = 11;
    return new Graph(GenerateRoadNetwork(opt));
  }();
  return *g;
}

const Hc2lIndex& FixtureIndex() {
  static const auto* index =
      new Hc2lIndex(Hc2lIndex::Build(FixtureGraph(), Hc2lOptions{}));
  return *index;
}

const Digraph& DirectedFixtureGraph() {
  static const Digraph* g = [] {
    // Grid edges with asymmetric weights in the two directions.
    const Graph base = MakeGrid(12, 12);
    DigraphBuilder b(base.NumVertices());
    Rng rng(99);
    for (const Edge& e : base.UndirectedEdges()) {
      b.AddArc(e.u, e.v, static_cast<Weight>(1 + rng.Below(9)));
      b.AddArc(e.v, e.u, static_cast<Weight>(1 + rng.Below(9)));
    }
    return new Digraph(std::move(b).Build());
  }();
  return *g;
}

const DirectedHc2lIndex& DirectedFixtureIndex() {
  static const auto* index = new DirectedHc2lIndex(
      DirectedHc2lIndex::Build(DirectedFixtureGraph(), Hc2lOptions{}));
  return *index;
}

QueryEngineOptions EngineOptions(uint32_t threads) {
  QueryEngineOptions options;
  options.num_threads = threads;
  // Small shards so multi-thread runs actually split the modest test
  // workloads instead of collapsing to the inline path.
  options.min_shard_queries = 8;
  return options;
}

constexpr uint32_t kThreadCounts[] = {1, 2, 3, 8};

TEST(QueryEngine, PointQueriesMatchSequentialAcrossThreadCounts) {
  const auto& index = FixtureIndex();
  const auto pairs = UniformRandomPairs(index.NumVertices(), 777, 5);
  std::vector<Dist> expected;
  expected.reserve(pairs.size());
  for (const auto& [s, t] : pairs) expected.push_back(index.Query(s, t));
  for (const uint32_t threads : kThreadCounts) {
    const QueryEngine engine(index, EngineOptions(threads));
    EXPECT_EQ(PointQueries(engine, pairs), expected) << threads << " threads";
  }
}

TEST(QueryEngine, BatchQueryMatchesSequentialAcrossThreadCounts) {
  const auto& index = FixtureIndex();
  Rng rng(21);
  std::vector<Vertex> targets;
  for (size_t i = 0; i < 500; ++i) {
    targets.push_back(static_cast<Vertex>(rng.Below(index.NumVertices())));
  }
  const Vertex source = 17;
  targets.push_back(source);      // self
  targets.push_back(targets[3]);  // duplicate
  const auto expected = BatchQuery(index, source, targets);
  for (const uint32_t threads : kThreadCounts) {
    const QueryEngine engine(index, EngineOptions(threads));
    EXPECT_EQ(BatchQuery(engine, source, targets), expected)
        << threads << " threads";
  }
}

TEST(QueryEngine, DistanceMatrixMatchesSequentialAcrossThreadCounts) {
  const auto& index = FixtureIndex();
  Rng rng(22);
  const auto pick = [&](size_t count) {
    std::vector<Vertex> out;
    for (size_t i = 0; i < count; ++i) {
      out.push_back(static_cast<Vertex>(rng.Below(index.NumVertices())));
    }
    return out;
  };
  // Wide shapes slice the longer side (targets, then sources) across the
  // threads; 3-wide ones force the thin paths: one-source level sweeps
  // and pair-by-pair blocks for 3 sources, pair-by-pair blocks for 3
  // targets.
  const std::pair<size_t, size_t> shapes[] = {
      {23, 201}, {201, 23}, {3, 201}, {201, 3}};
  for (const auto& [rows, cols] : shapes) {
    const std::vector<Vertex> sources = pick(rows);
    const std::vector<Vertex> targets = pick(cols);
    std::vector<std::vector<Dist>> expected(rows, std::vector<Dist>(cols));
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        expected[i][j] = index.Query(sources[i], targets[j]);
      }
    }
    EXPECT_EQ(DistanceMatrix(index, sources, targets), expected);
    for (const uint32_t threads : kThreadCounts) {
      const QueryEngine engine(index, EngineOptions(threads));
      EXPECT_EQ(DistanceMatrix(engine, sources, targets), expected)
          << rows << "x" << cols << ", " << threads << " threads";
    }
  }
}

TEST(QueryEngine, KNearestMatchesSequentialAcrossThreadCounts) {
  const auto& index = FixtureIndex();
  Rng rng(23);
  std::vector<Vertex> candidates;
  for (size_t i = 0; i < 300; ++i) {
    candidates.push_back(static_cast<Vertex>(rng.Below(index.NumVertices())));
  }
  for (const size_t k : {size_t{0}, size_t{5}, size_t{1000}}) {
    const auto expected = KNearest(index, 40, candidates, k);
    for (const uint32_t threads : kThreadCounts) {
      const QueryEngine engine(index, EngineOptions(threads));
      EXPECT_EQ(KNearest(engine, 40, candidates, k), expected)
          << threads << " threads, k=" << k;
    }
  }
}

TEST(QueryEngine, DirectedEngineMatchesSequentialAcrossThreadCounts) {
  const auto& index = DirectedFixtureIndex();
  const auto pairs = UniformRandomPairs(index.NumVertices(), 300, 7);
  std::vector<Dist> expected_points;
  for (const auto& [s, t] : pairs) expected_points.push_back(index.Query(s, t));
  Rng rng(31);
  std::vector<Vertex> sources;
  std::vector<Vertex> targets;
  for (size_t i = 0; i < 9; ++i) {
    sources.push_back(static_cast<Vertex>(rng.Below(index.NumVertices())));
  }
  for (size_t i = 0; i < 150; ++i) {
    targets.push_back(static_cast<Vertex>(rng.Below(index.NumVertices())));
  }
  const auto expected_batch = BatchQuery(index, sources[0], targets);
  const auto expected_matrix = DistanceMatrix(index, sources, targets);
  const auto expected_nearest = KNearest(index, sources[0], targets, 7);
  for (const uint32_t threads : kThreadCounts) {
    const DirectedQueryEngine engine(index, EngineOptions(threads));
    EXPECT_EQ(PointQueries(engine, pairs), expected_points);
    EXPECT_EQ(BatchQuery(engine, sources[0], targets), expected_batch);
    EXPECT_EQ(DistanceMatrix(engine, sources, targets), expected_matrix);
    EXPECT_EQ(KNearest(engine, sources[0], targets, 7), expected_nearest);
  }
}

TEST(QueryEngine, EmptyWorkloads) {
  const auto& index = FixtureIndex();
  const QueryEngine engine(index, EngineOptions(4));
  EXPECT_TRUE(PointQueries(engine, {}).empty());
  EXPECT_TRUE(BatchQuery(engine, 0, {}).empty());
  EXPECT_TRUE(DistanceMatrix(engine, {}, {}).empty());
  const std::vector<Vertex> sources = {1, 2};
  const auto matrix = DistanceMatrix(engine, sources, {});
  ASSERT_EQ(matrix.size(), 2u);
  EXPECT_TRUE(matrix[0].empty());
  EXPECT_TRUE(matrix[1].empty());
  EXPECT_TRUE(KNearest(engine, 0, {}, 5).empty());
}

TEST(QueryEngine, RepeatedCallsAreDeterministic) {
  const auto& index = FixtureIndex();
  const QueryEngine engine(index, EngineOptions(8));
  const auto pairs = UniformRandomPairs(index.NumVertices(), 512, 3);
  const auto first = PointQueries(engine, pairs);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(PointQueries(engine, pairs), first) << "round " << round;
  }
}

// Many caller threads hammering one shared engine (and therefore one shared
// pool and one shared immutable index). The TSAN CI job runs this test to
// certify the read-side sharing story.
TEST(QueryEngine, ConcurrentCallersGetConsistentResults) {
  const auto& index = FixtureIndex();
  const QueryEngine engine(index, EngineOptions(4));
  const auto pairs = UniformRandomPairs(index.NumVertices(), 256, 13);
  Rng rng(41);
  std::vector<Vertex> targets;
  for (size_t i = 0; i < 128; ++i) {
    targets.push_back(static_cast<Vertex>(rng.Below(index.NumVertices())));
  }
  const std::vector<Vertex> sources(targets.begin(), targets.begin() + 40);
  const auto expected_points = PointQueries(engine, pairs);
  const auto expected_batch = BatchQuery(index, 9, targets);
  const auto expected_matrix = DistanceMatrix(index, sources, targets);

  // Matrix callers also exercise the per-thread sort and panel scratch on
  // the pool workers.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 6; ++c) {
    callers.emplace_back([&, c]() {
      for (int round = 0; round < 8; ++round) {
        if (c % 3 == 0) {
          if (PointQueries(engine, pairs) != expected_points) ++mismatches;
        } else if (c % 3 == 1) {
          if (BatchQuery(engine, 9, targets) != expected_batch) ++mismatches;
        } else if (DistanceMatrix(engine, sources, targets) !=
                   expected_matrix) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace hc2l
