// Facade tests: hc2l::Router over both index flavours. The error-path
// contract matters most — bad input (missing, truncated, wrong-magic files;
// out-of-range ids; invalid options) must come back as a descriptive Status,
// never abort the process — plus save/load round trips through the
// format-sniffing Open and parity between the facade and the parallel
// handle.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/index_format.h"
#include "hc2l/hc2l.h"
#include "shard/sharded_index.h"
#include "test_util.h"

namespace hc2l {
namespace {

using testing::BatchQuery;
using testing::DistanceMatrix;
using testing::KNearest;
using testing::PointQueries;

Graph TestGraph(uint32_t rows, uint32_t cols, uint64_t seed) {
  RoadNetworkOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.seed = seed;
  return GenerateRoadNetwork(opt);
}

Digraph TestDigraph(uint32_t rows, uint32_t cols, uint64_t seed) {
  RoadNetworkOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.seed = seed;
  return GenerateDirectedRoadNetwork(opt, /*oneway_frac=*/0.2);
}

TEST(RouterOpen, MissingFileIsNotFound) {
  const Result<Router> r = Router::Open("/nonexistent/hc2l_no_such.idx");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("/nonexistent/hc2l_no_such.idx"),
            std::string::npos);
}

TEST(RouterOpen, WrongMagicIsInvalidArgument) {
  // Garbage, plus the magics of the retired stream formats: each magic is
  // its 8-character name packed big-endian into a u64 and written
  // little-endian, i.e. the name reversed on disk.
  std::vector<std::string> headers = {"GARBAGE! definitely not an index"};
  for (const char* retired :
       {"HC2L0002", "HC2L0003", "HC2D0001", "HC2D0002", "HC2D0003",
        "HC2S0001"}) {
    const std::string name = retired;
    headers.push_back(std::string(name.rbegin(), name.rend()) +
                      std::string(120, '\0'));
  }
  const std::string path = ::testing::TempDir() + "/hc2l_router_garbage.idx";
  for (const std::string& header : headers) {
    SCOPED_TRACE(header.substr(0, 8));
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(header.data(), 1, header.size(), f), header.size());
    std::fclose(f);
    for (const OpenMode mode : {OpenMode::kHeap, OpenMode::kMmap}) {
      const Result<Router> r = Router::Open(path, mode);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      // The message names exactly the formats Open accepts.
      const std::string& message = r.status().message();
      for (const char* accepted : {"HC2L0004", "HC2D0004", "HC2S0002"}) {
        EXPECT_NE(message.find(accepted), std::string::npos) << message;
      }
      for (const char* retired : {"HC2L0002", "HC2L0003", "HC2D0001",
                                  "HC2D0002", "HC2D0003", "HC2S0001"}) {
        EXPECT_EQ(message.find(retired), std::string::npos) << message;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(RouterOpen, HeaderlessFileIsDataLoss) {
  const std::string path = ::testing::TempDir() + "/hc2l_router_tiny.idx";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("HC2", f);  // shorter than the 8-byte magic
  std::fclose(f);
  const Result<Router> r = Router::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

class RouterTruncation : public ::testing::TestWithParam<bool> {};

TEST_P(RouterTruncation, TruncatedFileIsDataLoss) {
  // Both formats: a valid header followed by a cut-off body must fail with
  // kDataLoss, not crash or return a half-loaded index.
  const bool directed = GetParam();
  const std::string path = ::testing::TempDir() + "/hc2l_router_trunc_" +
                           (directed ? "dir" : "und") + ".idx";
  Result<Router> built =
      directed ? Router::Build(TestDigraph(8, 8, 5))
               : Router::Build(TestGraph(8, 8, 5));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Status saved = built->Save(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);

  const Result<Router> r = Router::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(BothFlavours, RouterTruncation, ::testing::Bool());

TEST(RouterOpen, SniffsUndirectedFormat) {
  const Graph g = TestGraph(10, 12, 7);
  Result<Router> built = Router::Build(g);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_FALSE(built->directed());

  const std::string path = ::testing::TempDir() + "/hc2l_router_und.idx";
  ASSERT_TRUE(built->Save(path).ok());
  Result<Router> opened = Router::Open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened->directed());
  EXPECT_EQ(opened->NumVertices(), built->NumVertices());

  // Round trip preserves every query mode.
  Rng rng(3);
  std::vector<Vertex> targets;
  for (int i = 0; i < 40; ++i) {
    targets.push_back(static_cast<Vertex>(rng.Below(g.NumVertices())));
  }
  const Vertex source = targets[0];
  for (const Vertex t : targets) {
    ASSERT_EQ(*opened->Distance(source, t), *built->Distance(source, t));
  }
  ASSERT_EQ(*BatchQuery(*opened, source, targets),
            *BatchQuery(*built, source, targets));
  ASSERT_EQ(*KNearest(*opened, source, targets, 5),
            *KNearest(*built, source, targets, 5));
}

TEST(RouterOpen, SniffsDirectedFormat) {
  const Digraph g = TestDigraph(10, 12, 7);
  Result<Router> built = Router::Build(g);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_TRUE(built->directed());

  const std::string path = ::testing::TempDir() + "/hc2l_router_dir.idx";
  ASSERT_TRUE(built->Save(path).ok());
  Result<Router> opened = Router::Open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->directed());
  EXPECT_EQ(opened->NumVertices(), built->NumVertices());

  Rng rng(9);
  std::vector<Vertex> targets;
  for (int i = 0; i < 40; ++i) {
    targets.push_back(static_cast<Vertex>(rng.Below(g.NumVertices())));
  }
  const Vertex source = targets[1];
  for (const Vertex t : targets) {
    ASSERT_EQ(*opened->Distance(source, t), *built->Distance(source, t));
  }
  ASSERT_EQ(*BatchQuery(*opened, source, targets),
            *BatchQuery(*built, source, targets));
  ASSERT_EQ(*DistanceMatrix(*opened, targets, targets),
            *DistanceMatrix(*built, targets, targets));
}

TEST(RouterRoute, RouteIntoMatchesRouteAndRejectsShortSpans) {
  const Graph g = TestGraph(9, 11, 21);
  Result<Router> router = Router::Build(g);
  ASSERT_TRUE(router.ok());

  RoutePath expected;
  ASSERT_TRUE(router->Route(0, 80, &expected).ok());
  ASSERT_GE(expected.vertices.size(), 2u);
  EXPECT_EQ(expected.weight, *router->Distance(0, 80));

  std::vector<Vertex> buf(router->NumVertices(), kInvalidVertex);
  Dist weight = 12345;
  const Result<size_t> written = router->RouteInto(0, 80, buf, &weight);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_EQ(*written, expected.vertices.size());
  EXPECT_EQ(weight, expected.weight);
  for (size_t i = 0; i < *written; ++i) {
    EXPECT_EQ(buf[i], expected.vertices[i]) << "hop " << i;
  }

  // A span shorter than the path is an error naming the required size, not
  // a truncation; the error path must not touch the weight out-param.
  std::vector<Vertex> tiny(expected.vertices.size() - 1);
  weight = 777;
  const Result<size_t> overflow = router->RouteInto(0, 80, tiny, &weight);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(weight, 777u);

  // Out-of-range endpoints are the caller's bug on every route surface.
  EXPECT_EQ(router->Route(0, 9999, &expected).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router->RouteInto(9999, 0, buf, &weight).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router->Routes(0, 9999, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RouterRoute, RoutesReturnsDistinctAscendingAlternatives) {
  const Graph g = TestGraph(10, 10, 33);
  Result<Router> router = Router::Build(g);
  ASSERT_TRUE(router.ok());

  const Result<std::vector<RoutePath>> alts = router->Routes(0, 99, 4);
  ASSERT_TRUE(alts.ok()) << alts.status().ToString();
  ASSERT_FALSE(alts->empty());
  ASSERT_LE(alts->size(), 4u);
  EXPECT_EQ((*alts)[0].weight, *router->Distance(0, 99));
  for (size_t i = 1; i < alts->size(); ++i) {
    EXPECT_GE((*alts)[i].weight, (*alts)[i - 1].weight) << i;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE((*alts)[i].vertices, (*alts)[j].vertices)
          << "alternatives " << i << " and " << j << " are identical";
    }
  }

  // k == 0 is an empty result, not an error.
  const auto none = router->Routes(0, 99, 0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(RouterRoute, HintlessOpenNeedsAnAttachedGraph) {
  // A hint-less index file (no hint sections) opened from disk has
  // nothing to unpack against: Route is FailedPrecondition until a graph is
  // attached, then answers through the bidirectional-Dijkstra fallback.
  const Graph g = TestGraph(8, 9, 44);
  BuildOptions options;
  options.route_hints = false;
  Result<Router> hintless = Router::Build(g, options);
  ASSERT_TRUE(hintless.ok());
  const std::string path = ::testing::TempDir() + "/hc2l_router_hintless.idx";
  ASSERT_TRUE(hintless->Save(path).ok());
  Result<Router> opened = Router::Open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened->HasGraph());

  RoutePath route;
  EXPECT_EQ(opened->Route(0, 50, &route).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(opened->Routes(0, 50, 3).status().code(),
            StatusCode::kFailedPrecondition);

  opened->AttachGraph(g);
  EXPECT_TRUE(opened->HasGraph());
  ASSERT_TRUE(opened->Route(0, 50, &route).ok());
  EXPECT_EQ(route.weight, *opened->Distance(0, 50));
  EXPECT_EQ(route.vertices.front(), 0u);
  EXPECT_EQ(route.vertices.back(), 50u);
}

TEST(RouterRoute, AttachDigraphEnablesDirectedFallback) {
  const Digraph g = TestDigraph(8, 9, 45);
  BuildOptions options;
  options.route_hints = false;
  Result<Router> hintless = Router::Build(g, options);
  ASSERT_TRUE(hintless.ok());
  // Build(const Digraph&) does not attach automatically.
  EXPECT_FALSE(hintless->HasDigraph());
  RoutePath route;
  EXPECT_EQ(hintless->Route(0, 50, &route).code(),
            StatusCode::kFailedPrecondition);

  hintless->AttachDigraph(g);
  EXPECT_TRUE(hintless->HasDigraph());
  for (Vertex t = 1; t < 60; t += 13) {
    const Status st = hintless->Route(0, t, &route);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(route.weight, *hintless->Distance(0, t)) << "t=" << t;
  }
}

TEST(RouterRoute, OpenedHintCarryingFileRoutesLikeTheBuilder) {
  // Both flavours: the 0003 formats carry the hints, so an Open()ed router
  // routes without any attached graph, identically to the builder.
  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    Result<Router> built = directed ? Router::Build(TestDigraph(9, 9, 46))
                                    : Router::Build(TestGraph(9, 9, 46));
    ASSERT_TRUE(built.ok());
    const std::string path = ::testing::TempDir() + "/hc2l_router_hints_" +
                             (directed ? "dir" : "und") + ".idx";
    ASSERT_TRUE(built->Save(path).ok());
    Result<Router> opened = Router::Open(path);
    std::remove(path.c_str());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_FALSE(opened->HasGraph());
    EXPECT_FALSE(opened->HasDigraph());

    RoutePath from_built;
    RoutePath from_opened;
    for (Vertex t = 1; t < 81; t += 7) {
      ASSERT_TRUE(built->Route(2, t, &from_built).ok());
      ASSERT_TRUE(opened->Route(2, t, &from_opened).ok());
      EXPECT_EQ(from_opened.weight, from_built.weight) << "t=" << t;
      EXPECT_EQ(from_opened.vertices, from_built.vertices) << "t=" << t;
    }
  }
}

TEST(RouterBuild, RejectsBadOptions) {
  const Graph g = TestGraph(6, 6, 1);
  BuildOptions bad_beta;
  bad_beta.beta = 0.7;
  EXPECT_EQ(Router::Build(g, bad_beta).status().code(),
            StatusCode::kInvalidArgument);
  BuildOptions zero_beta;
  zero_beta.beta = 0.0;
  EXPECT_EQ(Router::Build(g, zero_beta).status().code(),
            StatusCode::kInvalidArgument);
  BuildOptions zero_leaf;
  zero_leaf.leaf_size = 0;
  EXPECT_EQ(Router::Build(g, zero_leaf).status().code(),
            StatusCode::kInvalidArgument);
  // The same validation guards the directed overload.
  EXPECT_EQ(Router::Build(TestDigraph(6, 6, 1), bad_beta).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RouterQueries, OutOfRangeIdsAreInvalidArgument) {
  Result<Router> router = Router::Build(TestGraph(6, 6, 2));
  ASSERT_TRUE(router.ok());
  const Vertex n = static_cast<Vertex>(router->NumVertices());

  EXPECT_EQ(router->Distance(0, n).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router->Distance(n, 0).status().code(),
            StatusCode::kInvalidArgument);

  const std::vector<Vertex> bad_targets = {0, 1, n};
  EXPECT_EQ(BatchQuery(*router, 0, bad_targets).status().code(),
            StatusCode::kInvalidArgument);
  // The message pinpoints the offending position.
  EXPECT_NE(BatchQuery(*router, 0, bad_targets).status().message().find(
                "targets[2]"),
            std::string::npos);

  const std::vector<Vertex> ok_targets = {0, 1, 2};
  EXPECT_EQ(DistanceMatrix(*router, bad_targets, ok_targets).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(KNearest(*router, 0, bad_targets, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RouterRebuild, DirectedIsFailedPrecondition) {
  Result<Router> router = Router::Build(TestDigraph(6, 6, 3));
  ASSERT_TRUE(router.ok());
  const Status s = router->RebuildLabels(TestGraph(6, 6, 3));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(RouterRebuild, TopologyMismatchIsInvalidArgument) {
  Result<Router> router = Router::Build(TestGraph(6, 6, 3));
  ASSERT_TRUE(router.ok());
  const Status s = router->RebuildLabels(TestGraph(8, 8, 3));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(RouterRebuild, PendantStructureMismatchIsInvalidArgument) {
  // Same vertex count, different topology: a path (every interior vertex
  // contracts) vs a cycle (nothing contracts). Must come back as a Status —
  // detected before any index state is mutated, so the router still answers
  // the original queries afterwards.
  constexpr Vertex kN = 16;
  GraphBuilder path(kN);
  for (Vertex v = 0; v + 1 < kN; ++v) path.AddEdge(v, v + 1, 10);
  Result<Router> router = Router::Build(std::move(path).Build());
  ASSERT_TRUE(router.ok());
  const Dist before = *router->Distance(0, kN - 1);

  GraphBuilder cycle(kN);
  for (Vertex v = 0; v < kN; ++v) cycle.AddEdge(v, (v + 1) % kN, 10);
  const Status s = router->RebuildLabels(std::move(cycle).Build());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(*router->Distance(0, kN - 1), before);  // index untouched
}

TEST(RouterRebuild, UpdatesAnswers) {
  const Graph g = TestGraph(10, 10, 11);
  Result<Router> router = Router::Build(g);
  ASSERT_TRUE(router.ok());

  // Same topology, all weights doubled: every distance doubles too.
  std::vector<Edge> edges = g.UndirectedEdges();
  for (Edge& e : edges) e.weight *= 2;
  GraphBuilder builder(g.NumVertices());
  builder.AddEdges(edges);
  const Graph doubled = std::move(builder).Build();

  const Dist before = *router->Distance(0, 99);
  ASSERT_TRUE(router->RebuildLabels(doubled, /*tail_pruning=*/true,
                                    /*num_threads=*/2)
                  .ok());
  EXPECT_EQ(*router->Distance(0, 99), 2 * before);
}

TEST(RouterThreaded, MatchesSequentialFacade) {
  const Graph g = TestGraph(12, 12, 13);
  Result<Router> router = Router::Build(g);
  ASSERT_TRUE(router.ok());

  Rng rng(7);
  std::vector<Vertex> targets;
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (int i = 0; i < 300; ++i) {
    targets.push_back(static_cast<Vertex>(rng.Below(g.NumVertices())));
    pairs.emplace_back(static_cast<Vertex>(rng.Below(g.NumVertices())),
                       static_cast<Vertex>(rng.Below(g.NumVertices())));
  }

  ParallelOptions options;
  options.num_threads = 3;
  options.min_shard_queries = 16;  // force real sharding on this small set
  Result<ThreadedRouter> engine = router->WithThreads(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_GE(engine->NumThreads(), 1u);

  const auto point = PointQueries(*engine, pairs);
  ASSERT_TRUE(point.ok());
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ((*point)[i], *router->Distance(pairs[i].first, pairs[i].second));
  }
  ASSERT_EQ(*BatchQuery(*engine, targets[0], targets),
            *BatchQuery(*router, targets[0], targets));
  ASSERT_EQ(*KNearest(*engine, targets[0], targets, 7),
            *KNearest(*router, targets[0], targets, 7));

  // Validation applies to the handle too.
  const Vertex n = static_cast<Vertex>(router->NumVertices());
  const std::vector<std::pair<Vertex, Vertex>> bad = {{0, 1}, {n, 0}};
  EXPECT_EQ(PointQueries(*engine, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router->WithThreads(100000).status().code(),
            StatusCode::kInvalidArgument);
}

/// Threads of this process: the entries of /proc/self/task.
size_t ProcessThreads() {
  const auto tasks = std::filesystem::directory_iterator("/proc/self/task");
  return static_cast<size_t>(std::distance(begin(tasks), end(tasks)));
}

TEST(RouterThreads, InlineEngineStartsNoThread) {
  // A Router is the query engine at one thread: a pool of one starts no
  // worker, so building a router and running every request kind on it
  // leaves the process's thread count where it was.
  const std::vector<Vertex> targets = {0, 5, 17, 42, 63, 99};
  const std::vector<std::pair<Vertex, Vertex>> pairs = {{0, 99}, {17, 42}};
  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    const size_t before = ProcessThreads();
    Result<Router> router = directed ? Router::Build(TestDigraph(10, 10, 3))
                                     : Router::Build(TestGraph(10, 10, 3));
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    EXPECT_TRUE(PointQueries(*router, pairs).ok());
    EXPECT_TRUE(BatchQuery(*router, 0, targets).ok());
    EXPECT_TRUE(DistanceMatrix(*router, targets, targets).ok());
    EXPECT_TRUE(KNearest(*router, 0, targets, 3).ok());
    std::vector<Vertex> path(router->NumVertices());
    Dist weight = kInfDist;
    EXPECT_TRUE(router->RouteInto(0, 99, path, &weight).ok());
    EXPECT_EQ(ProcessThreads(), before);
  }
}

TEST(RouterUpdateWeights, RepairsAsideAndLeavesTheOriginalServing) {
  const Graph g = TestGraph(10, 10, 23);
  Result<Router> router = Router::Build(g);
  ASSERT_TRUE(router.ok());
  ASSERT_TRUE(router->HasGraph());  // Build from a Graph retains it

  // Pick a real edge and make it 10x heavier.
  const std::vector<Edge> edges = g.UndirectedEdges();
  const Edge target = edges[edges.size() / 2];
  const std::vector<EdgeDelta> deltas = {
      {target.u, target.v, static_cast<Weight>(target.weight * 10)}};

  const Dist before = *router->Distance(target.u, target.v);
  Result<Router> updated = router->UpdateWeights(deltas);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();

  // The original keeps its answers (copy-on-repair); the repaired router
  // sees the new weight, capped by whatever detour the graph offers.
  EXPECT_EQ(*router->Distance(target.u, target.v), before);
  const Dist after = *updated->Distance(target.u, target.v);
  EXPECT_GE(after, before);
  EXPECT_LE(after, static_cast<Dist>(target.weight) * 10);

  // The repaired router carries the updated graph, so a second update
  // chains off it — and its repair is scoped, not a full rebuild.
  ASSERT_TRUE(updated->HasGraph());
  const EdgeDelta revert[] = {{target.u, target.v, target.weight}};
  Result<Router> again = updated->UpdateWeights(revert);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again->Distance(target.u, target.v), before);
}

TEST(RouterUpdateWeights, OpenedRouterNeedsAnAttachedGraph) {
  const Graph g = TestGraph(8, 8, 29);
  Result<Router> built = Router::Build(g);
  ASSERT_TRUE(built.ok());
  const std::string path = ::testing::TempDir() + "/hc2l_router_upd.idx";
  ASSERT_TRUE(built->Save(path).ok());
  Result<Router> opened = Router::Open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE(opened->HasGraph());  // serialized indexes carry no graph

  const std::vector<Edge> edges = g.UndirectedEdges();
  const std::vector<EdgeDelta> deltas = {{edges[0].u, edges[0].v, 123}};
  EXPECT_EQ(opened->UpdateWeights(deltas).status().code(),
            StatusCode::kFailedPrecondition);

  // AttachGraph unlocks updates on the opened router.
  opened->AttachGraph(g);
  Result<Router> updated = opened->UpdateWeights(deltas);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated->Distance(edges[0].u, edges[0].v),
            *updated->Distance(edges[0].v, edges[0].u));
}

TEST(RouterUpdateWeights, RejectsBadDeltas) {
  const Graph g = TestGraph(6, 6, 31);
  Result<Router> router = Router::Build(g);
  ASSERT_TRUE(router.ok());
  const Dist before = *router->Distance(0, 35);

  // Zero weight, unknown edge, self loop: all InvalidArgument, and the
  // router is untouched afterwards.
  const std::vector<Edge> edges = g.UndirectedEdges();
  const EdgeDelta zero_weight[] = {{edges[0].u, edges[0].v, 0}};
  EXPECT_EQ(router->UpdateWeights(zero_weight).status().code(),
            StatusCode::kInvalidArgument);
  const EdgeDelta unknown_edge[] = {{0, 9999, 5}};
  EXPECT_EQ(router->UpdateWeights(unknown_edge).status().code(),
            StatusCode::kInvalidArgument);
  const EdgeDelta self_loop[] = {{4, 4, 5}};
  EXPECT_EQ(router->UpdateWeights(self_loop).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(*router->Distance(0, 35), before);
}

TEST(RouterUpdateWeights, DirectedIsFailedPrecondition) {
  Result<Router> router = Router::Build(TestDigraph(6, 6, 3));
  ASSERT_TRUE(router.ok());
  const EdgeDelta deltas[] = {{0, 1, 5}};
  EXPECT_EQ(router->UpdateWeights(deltas).status().code(),
            StatusCode::kFailedPrecondition);
}

/// Saves a 3-member shard manifest of `g` under TempDir; returns its path.
template <typename GraphT>
std::string SaveShardManifest(const GraphT& g, const std::string& name) {
  ShardOptions options;
  options.num_shards = 3;
  Result<ShardedIndex> sharded = ShardedIndex::Build(g, options);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  const std::string manifest = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(sharded->Save(manifest).ok());
  return manifest;
}

void RemoveShardManifest(const std::string& manifest) {
  std::remove(manifest.c_str());
  for (int k = 0; k < 3; ++k) {
    std::remove((manifest + "." + std::to_string(k)).c_str());
  }
}

/// The magic a saved file starts with.
uint64_t FileMagic(const std::string& path) {
  uint64_t magic = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  if (std::fread(&magic, sizeof(magic), 1, f) != 1) magic = 0;
  std::fclose(f);
  return magic;
}

void ExpectSameDistances(const Router& a, const Router& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  const Vertex n = static_cast<Vertex>(a.NumVertices());
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      ASSERT_EQ(*a.Distance(s, t), *b.Distance(s, t)) << s << " -> " << t;
    }
  }
}

TEST(RouterShardManifest, UpdateWeightsMatchesMonolithic) {
  // A manifest opens as the ordinary index, so after AttachGraph the same
  // repair runs on it as on a monolithic router, in both open modes, and
  // the repaired router saves an ordinary file.
  const Graph g = TestGraph(10, 10, 41);
  const std::string manifest = SaveShardManifest(g, "hc2l_router_upd.hc2s");
  const std::vector<Edge> edges = g.UndirectedEdges();
  std::vector<EdgeDelta> deltas;
  for (size_t i = 0; i < edges.size(); i += edges.size() / 5) {
    const Edge& e = edges[i];
    const Weight w =
        i % 2 == 0 ? e.weight * 3 : std::max<Weight>(1, e.weight / 2);
    deltas.push_back({e.u, e.v, w});
  }
  Result<Router> mono = Router::Build(g);
  ASSERT_TRUE(mono.ok());
  Result<Router> mono_updated = mono->UpdateWeights(deltas);
  ASSERT_TRUE(mono_updated.ok()) << mono_updated.status().ToString();

  for (const OpenMode mode : {OpenMode::kHeap, OpenMode::kMmap}) {
    SCOPED_TRACE(mode == OpenMode::kMmap ? "mmap" : "heap");
    Result<Router> opened = Router::Open(manifest, mode);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->Info().num_shards, 3u);
    EXPECT_EQ(opened->Info().mapped_bytes > 0, mode == OpenMode::kMmap);
    ASSERT_NO_FATAL_FAILURE(ExpectSameDistances(*opened, *mono));
    opened->AttachGraph(g);
    Result<Router> updated = opened->UpdateWeights(deltas);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectSameDistances(*updated, *mono_updated));

    // The repaired router writes an ordinary HC2L0004 file that reopens
    // with the same answers.
    const std::string path = ::testing::TempDir() + "/hc2l_router_upd.idx";
    ASSERT_TRUE(updated->Save(path).ok());
    EXPECT_EQ(FileMagic(path), kHc2lIndexMagic);
    Result<Router> reopened = Router::Open(path, mode);
    std::remove(path.c_str());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->Info().num_shards, 0u);
    ASSERT_NO_FATAL_FAILURE(ExpectSameDistances(*reopened, *mono_updated));

    // A full relabel works on the manifest-opened router too.
    Graph updated_graph = g;
    for (const EdgeDelta& d : deltas) {
      ASSERT_TRUE(updated_graph.UpdateEdgeWeight(d.u, d.v, d.weight));
    }
    ASSERT_TRUE(opened->RebuildLabels(updated_graph).ok());
    ASSERT_NO_FATAL_FAILURE(ExpectSameDistances(*opened, *mono_updated));
  }
  RemoveShardManifest(manifest);
}

TEST(RouterShardManifest, SaveWritesAnOrdinaryIndex) {
  // Save of a manifest-opened router writes its flavour's ordinary file,
  // which reopens with identical answers; a directed manifest still
  // refuses UpdateWeights like any directed router.
  const Graph g = TestGraph(8, 8, 43);
  const Digraph dg = TestDigraph(8, 8, 43);
  const std::string und = SaveShardManifest(g, "hc2l_router_save_u.hc2s");
  const std::string dir = SaveShardManifest(dg, "hc2l_router_save_d.hc2s");
  const std::string path = ::testing::TempDir() + "/hc2l_router_save.idx";
  for (const OpenMode mode : {OpenMode::kHeap, OpenMode::kMmap}) {
    for (const auto& [manifest, magic] :
         {std::pair{und, kHc2lIndexMagic},
          std::pair{dir, kDirectedIndexMagic}}) {
      SCOPED_TRACE(manifest);
      Result<Router> opened = Router::Open(manifest, mode);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      ASSERT_TRUE(opened->Save(path).ok());
      EXPECT_EQ(FileMagic(path), magic);
      Result<Router> reopened = Router::Open(path, mode);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ(reopened->directed(), magic == kDirectedIndexMagic);
      ASSERT_NO_FATAL_FAILURE(ExpectSameDistances(*opened, *reopened));
      if (magic == kDirectedIndexMagic) {
        const EdgeDelta deltas[] = {{0, 1, 5}};
        EXPECT_EQ(opened->UpdateWeights(deltas).status().code(),
                  StatusCode::kFailedPrecondition);
      }
    }
  }
  std::remove(path.c_str());
  RemoveShardManifest(und);
  RemoveShardManifest(dir);
}

TEST(RouterInfo, PopulatedForBothFlavours) {
  Result<Router> und = Router::Build(TestGraph(10, 10, 17));
  ASSERT_TRUE(und.ok());
  const IndexInfo ui = und->Info();
  EXPECT_FALSE(ui.directed);
  EXPECT_EQ(ui.num_vertices, und->NumVertices());
  EXPECT_GT(ui.tree_height, 0u);
  EXPECT_GT(ui.label_entries, 0u);
  EXPECT_GT(ui.label_resident_bytes, 0u);
  EXPECT_GT(ui.build_seconds, 0.0);

  Result<Router> dir = Router::Build(TestDigraph(10, 10, 17));
  ASSERT_TRUE(dir.ok());
  const IndexInfo di = dir->Info();
  EXPECT_TRUE(di.directed);
  EXPECT_EQ(di.num_vertices, dir->NumVertices());
  // The generator attaches pendant chains (pendant_frac), so directed
  // degree-one contraction must strip a non-empty set and the stats must
  // add up.
  EXPECT_LT(di.num_core_vertices, di.num_vertices);
  EXPECT_GT(di.num_contracted, 0u);
  EXPECT_EQ(di.num_core_vertices + di.num_contracted, di.num_vertices);
  EXPECT_GT(di.tree_height, 0u);
  EXPECT_GT(di.label_entries, 0u);
  EXPECT_GT(di.label_resident_bytes, 0u);

  // With contraction disabled the core is the whole digraph.
  BuildOptions no_contraction;
  no_contraction.contract_degree_one = false;
  Result<Router> full = Router::Build(TestDigraph(10, 10, 17), no_contraction);
  ASSERT_TRUE(full.ok());
  const IndexInfo fi = full->Info();
  EXPECT_EQ(fi.num_core_vertices, fi.num_vertices);
  EXPECT_EQ(fi.num_contracted, 0u);

  // An opened (HC2D0004) index reports the same core-vertex stats.
  const std::string path = ::testing::TempDir() + "/hc2l_router_info_dir.idx";
  ASSERT_TRUE(dir->Save(path).ok());
  Result<Router> opened = Router::Open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const IndexInfo oi = opened->Info();
  EXPECT_EQ(oi.num_vertices, di.num_vertices);
  EXPECT_EQ(oi.num_core_vertices, di.num_core_vertices);
  EXPECT_EQ(oi.num_contracted, di.num_contracted);
}

}  // namespace
}  // namespace hc2l
