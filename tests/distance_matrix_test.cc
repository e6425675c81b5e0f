// The blocked many-to-many matrix (BlockedDistanceMatrix: both sides sorted
// by tree code, one min-plus panel per LCA block, same-root fix-up) against
// per-pair Query and Dijkstra: both flavours, contraction on and off,
// duplicate and self cells, pairs inside one pendant tree, a second
// component (kInfDist cells), thin and wide shapes, several engine thread
// counts, an mmap-opened index, and the stop/deadline contract.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/directed_hc2l.h"
#include "core/hc2l.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "graph/road_network_generator.h"
#include "hc2l/hc2l.h"
#include "search/dijkstra.h"
#include "search/directed_dijkstra.h"
#include "server/query_engine.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::DistanceMatrix;
using Matrix = std::vector<std::vector<Dist>>;

/// Two disjoint road networks (pendant trees included) in one graph, so
/// every cross-component cell is kInfDist.
Graph TwoComponentRoadGraph() {
  RoadNetworkOptions a;
  a.rows = 18;
  a.cols = 18;
  a.seed = 5;
  RoadNetworkOptions b = a;
  b.rows = 9;
  b.seed = 6;
  const Graph ga = GenerateRoadNetwork(a);
  const Graph gb = GenerateRoadNetwork(b);
  const Vertex offset = static_cast<Vertex>(ga.NumVertices());
  GraphBuilder builder(ga.NumVertices() + gb.NumVertices());
  for (const Edge& e : ga.UndirectedEdges()) {
    builder.AddEdge(e.u, e.v, e.weight);
  }
  for (const Edge& e : gb.UndirectedEdges()) {
    builder.AddEdge(e.u + offset, e.v + offset, e.weight);
  }
  return std::move(builder).Build();
}

/// A directed road network plus pendant chains whose links are
/// bidirectional, up-only or down-only, so one-way detours (kInfDist on one
/// side) and directed same-tree distances both occur.
Digraph PendantDigraph() {
  RoadNetworkOptions opt;
  opt.rows = 14;
  opt.cols = 14;
  opt.seed = 8;
  const Digraph base = GenerateDirectedRoadNetwork(opt, 0.2);
  const size_t n0 = base.NumVertices();
  constexpr size_t kChains = 24;
  constexpr uint32_t kChainLen = 3;
  DigraphBuilder b(n0 + kChains * kChainLen);
  for (Vertex u = 0; u < n0; ++u) {
    for (const Arc& a : base.OutArcs(u)) b.AddArc(u, a.to, a.weight);
  }
  Rng rng(31);
  Vertex next = static_cast<Vertex>(n0);
  for (size_t c = 0; c < kChains; ++c) {
    Vertex attach = static_cast<Vertex>(rng.Below(n0));
    for (uint32_t hop = 0; hop < kChainLen; ++hop) {
      const Vertex v = next++;
      const Weight w = static_cast<Weight>(1 + rng.Below(50));
      switch (rng.Below(3)) {
        case 0:
          b.AddArc(v, attach, w);
          b.AddArc(attach, v, w + 1);
          break;
        case 1:
          b.AddArc(v, attach, w);
          break;
        default:
          b.AddArc(attach, v, w);
          break;
      }
      attach = v;
    }
  }
  return std::move(b).Build();
}

/// Dead ends next to the vertex they hang off: consecutive entries share a
/// pendant tree (and its contraction root).
std::vector<Vertex> PendantMates(const Graph& g) {
  std::vector<Vertex> out;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) == 1) {
      out.push_back(v);
      out.push_back(g.Neighbors(v)[0].to);
    }
  }
  return out;
}

/// `count` vertices mixing uniform picks with the adversarial cases: runs
/// of `mates` (vertices of one pendant tree) and repeats.
std::vector<Vertex> Pick(size_t n, size_t count, uint64_t seed,
                         const std::vector<Vertex>& mates) {
  Rng rng(seed);
  std::vector<Vertex> out;
  while (out.size() < count) {
    const uint64_t kind = rng.Below(4);
    if (kind == 0 && mates.size() >= 4) {
      const size_t at = rng.Below(mates.size() - 3) & ~size_t{1};
      for (size_t k = 0; k < 4 && out.size() < count; ++k) {
        out.push_back(mates[at + k]);
      }
    } else if (kind == 1 && !out.empty()) {
      out.push_back(out[rng.Below(out.size())]);
    } else {
      out.push_back(static_cast<Vertex>(rng.Below(n)));
    }
  }
  return out;
}

/// The shapes every flavour runs, so every branch of the blocked matrix
/// meets per-pair Query: thin (one-source level sweeps and all-narrow
/// pair-by-pair blocks), shapes at and around the panel thresholds (4
/// sources x 8 targets) with odd source counts (a two-source kernel pass
/// plus a lone last source) and partial 32-lane strips, square and wide
/// (panels, including more than 2048 columns).
struct Shape {
  size_t sources;
  size_t targets;
};
constexpr Shape kShapes[] = {
    {1, 1},   {1, 300}, {300, 1},  {3, 7},     {3, 250},   {250, 3},
    {4, 8},   {5, 9},   {7, 9},    {7, 33},    {33, 7},    {60, 90},
    {180, 170}, {255, 257}, {5, 2300}};

template <typename Index>
Matrix PerPairQuery(const Index& index, const std::vector<Vertex>& sources,
                    const std::vector<Vertex>& targets) {
  Matrix m(sources.size(), std::vector<Dist>(targets.size()));
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      m[i][j] = index.Query(sources[i], targets[j]);
    }
  }
  return m;
}

/// Every matrix path of `index` against `expected`: the span primitive into
/// a packed buffer and into a sliced view with a non-zero column offset,
/// and the engine at 1, 2 and 4 threads with shards small enough to cut
/// several slices.
template <typename Index>
void ExpectAllPathsEqual(const Index& index,
                         const std::vector<Vertex>& sources,
                         const std::vector<Vertex>& targets,
                         const Matrix& expected, const std::string& what) {
  EXPECT_EQ(DistanceMatrix(index, sources, targets), expected) << what;

  // Span form into a wider flat buffer at column offset 2: the view's
  // shift must land every cell and leave the margins alone.
  const size_t stride = targets.size() + 3;
  std::vector<Dist> flat(sources.size() * stride, 12345);
  MatrixRows rows{.flat = flat.data(), .stride = stride};
  ASSERT_TRUE(index.DistanceMatrixInto(sources, targets, rows.Slice(0, 2)));
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(flat[i * stride], 12345u) << what;
    EXPECT_EQ(flat[i * stride + 1], 12345u) << what;
    EXPECT_EQ(flat[i * stride + stride - 1], 12345u) << what;
    for (size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(flat[i * stride + 2 + j], expected[i][j])
          << what << " span cell " << i << "," << j;
    }
  }

  for (const uint32_t threads : {1u, 2u, 4u}) {
    QueryEngineOptions options;
    options.num_threads = threads;
    options.min_shard_queries = 8;
    const BasicQueryEngine<Index> engine(index, options);
    EXPECT_EQ(DistanceMatrix(engine, sources, targets), expected)
        << what << " engine threads=" << threads;
  }
}

TEST(BlockedMatrix, UndirectedMatchesQueryAndDijkstra) {
  const Graph g = TwoComponentRoadGraph();
  const std::vector<Vertex> mates = PendantMates(g);
  ASSERT_FALSE(mates.empty());
  Dijkstra dijkstra(g);
  for (const bool contract : {true, false}) {
    Hc2lOptions options;
    options.contract_degree_one = contract;
    const Hc2lIndex index = Hc2lIndex::Build(g, options);
    uint64_t seed = contract ? 100 : 200;
    size_t inf_cells = 0;
    for (const Shape& shape : kShapes) {
      const std::vector<Vertex> sources =
          Pick(g.NumVertices(), shape.sources, ++seed, mates);
      std::vector<Vertex> targets =
          Pick(g.NumVertices(), shape.targets, ++seed, mates);
      targets[0] = sources[0];  // an s == t cell in every shape
      const Matrix expected = PerPairQuery(index, sources, targets);
      if (sources.size() * targets.size() <= 20000) {
        for (size_t i = 0; i < sources.size(); ++i) {
          dijkstra.Run(sources[i]);
          for (size_t j = 0; j < targets.size(); ++j) {
            ASSERT_EQ(expected[i][j], dijkstra.DistanceTo(targets[j]))
                << sources[i] << " -> " << targets[j];
            inf_cells += expected[i][j] == kInfDist;
          }
        }
      }
      ExpectAllPathsEqual(index, sources, targets, expected,
                          "contract=" + std::to_string(contract) + " " +
                              std::to_string(shape.sources) + "x" +
                              std::to_string(shape.targets));
    }
    EXPECT_GT(inf_cells, 0u);  // the second component was hit
  }
}

TEST(BlockedMatrix, DirectedMatchesQueryAndDijkstra) {
  const Digraph g = PendantDigraph();
  // The chains: ids past the base network, three per chain in order.
  std::vector<Vertex> mates;
  for (Vertex v = static_cast<Vertex>(g.NumVertices() - 72);
       v < g.NumVertices(); ++v) {
    mates.push_back(v);
  }
  for (const bool contract : {true, false}) {
    Hc2lOptions options;
    options.contract_degree_one = contract;
    const DirectedHc2lIndex index = DirectedHc2lIndex::Build(g, options);
    if (contract) {
      ASSERT_GT(index.NumContracted(), 0u);
    }
    uint64_t seed = contract ? 300 : 400;
    for (const Shape& shape : kShapes) {
      const std::vector<Vertex> sources =
          Pick(g.NumVertices(), shape.sources, ++seed, mates);
      std::vector<Vertex> targets =
          Pick(g.NumVertices(), shape.targets, ++seed, mates);
      targets[0] = sources[0];
      const Matrix expected = PerPairQuery(index, sources, targets);
      if (sources.size() * targets.size() <= 20000) {
        for (size_t i = 0; i < sources.size(); ++i) {
          const std::vector<Dist> d = DirectedDistancesFrom(
              g, sources[i], SearchDirection::kForward);
          for (size_t j = 0; j < targets.size(); ++j) {
            ASSERT_EQ(expected[i][j], d[targets[j]])
                << sources[i] << " -> " << targets[j];
          }
        }
      }
      ExpectAllPathsEqual(index, sources, targets, expected,
                          "directed contract=" + std::to_string(contract) +
                              " " + std::to_string(shape.sources) + "x" +
                              std::to_string(shape.targets));
    }
  }
}

TEST(BlockedMatrix, MmapOpenedIndexesMatchHeapOnes) {
  const Graph g = TwoComponentRoadGraph();
  const Hc2lIndex index = Hc2lIndex::Build(g);
  const std::string path = ::testing::TempDir() + "/blocked_matrix.idx";
  ASSERT_TRUE(index.Save(path).ok());
  Result<Hc2lIndex> mapped = Hc2lIndex::Load(path, /*use_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_GT(mapped.value().MappedBytes(), 0u);

  const Digraph dg = PendantDigraph();
  const DirectedHc2lIndex dindex = DirectedHc2lIndex::Build(dg);
  const std::string dpath = ::testing::TempDir() + "/blocked_matrix_d.idx";
  ASSERT_TRUE(dindex.Save(dpath).ok());
  Result<DirectedHc2lIndex> dmapped =
      DirectedHc2lIndex::Load(dpath, /*use_mmap=*/true);
  ASSERT_TRUE(dmapped.ok()) << dmapped.status().ToString();

  const std::vector<Vertex> mates = PendantMates(g);
  const std::vector<Vertex> sources = Pick(g.NumVertices(), 120, 7, mates);
  const std::vector<Vertex> targets = Pick(g.NumVertices(), 140, 8, mates);
  ExpectAllPathsEqual(mapped.value(), sources, targets,
                      PerPairQuery(index, sources, targets), "mmap");
  const std::vector<Vertex> dsources = Pick(dg.NumVertices(), 90, 9, {});
  const std::vector<Vertex> dtargets = Pick(dg.NumVertices(), 110, 10, {});
  ExpectAllPathsEqual(dmapped.value(), dsources, dtargets,
                      PerPairQuery(dindex, dsources, dtargets),
                      "directed mmap");
}

TEST(BlockedMatrix, StopPollBoundsWorkAfterItFires) {
  const Graph g = TwoComponentRoadGraph();
  const Hc2lIndex index = Hc2lIndex::Build(g);
  const std::vector<Vertex> sources = Pick(g.NumVertices(), 200, 11, {});
  const std::vector<Vertex> targets = Pick(g.NumVertices(), 210, 12, {});
  const Matrix expected = PerPairQuery(index, sources, targets);
  constexpr Dist kCanary = kInfDist - 1;
  for (const int fire_at : {1, 2, 5}) {
    std::vector<Dist> flat(sources.size() * targets.size(), kCanary);
    int polls = 0;
    const auto stop = [&] { return ++polls >= fire_at; };
    EXPECT_FALSE(index.DistanceMatrixInto(
        sources, targets,
        MatrixRows{.flat = flat.data(), .stride = targets.size()}, stop));
    EXPECT_EQ(polls, fire_at);  // nothing polls after the stop fired
    size_t written = 0;
    for (const Dist d : flat) written += d != kCanary;
    // At most kMatrixPollCells cells between two polls.
    EXPECT_LE(written, static_cast<size_t>(fire_at - 1) * kMatrixPollCells)
        << "fire_at=" << fire_at;
  }
  // A stop that never fires changes nothing.
  std::vector<Dist> flat(sources.size() * targets.size());
  int polls = 0;
  const auto never = [&] {
    ++polls;
    return false;
  };
  ASSERT_TRUE(index.DistanceMatrixInto(
      sources, targets,
      MatrixRows{.flat = flat.data(), .stride = targets.size()}, never));
  EXPECT_GE(polls, static_cast<int>(sources.size() * targets.size() /
                                    kMatrixPollCells));
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(flat[i * targets.size() + j], expected[i][j]);
    }
  }
}

TEST(BlockedMatrix, DeadlineExpiringMidMatrixFailsOnBothExecutors) {
  RoadNetworkOptions opt;
  opt.rows = 30;
  opt.cols = 30;
  opt.seed = 3;
  const Graph g = GenerateRoadNetwork(opt);
  Result<Router> router = Router::Build(g);
  ASSERT_TRUE(router.ok());
  Result<ThreadedRouter> threaded = router.value().WithThreads(4);
  ASSERT_TRUE(threaded.ok());
  // 1.44M cells: far more than any machine answers in 300 us, so the
  // deadline passes while the call is under way.
  const std::vector<Vertex> sources = Pick(g.NumVertices(), 1200, 13, {});
  const std::vector<Vertex> targets = Pick(g.NumVertices(), 1200, 14, {});
  QueryRequest request;
  request.kind = QueryKind::kMatrix;
  request.sources = sources;
  request.targets = targets;
  std::vector<Dist> none(sources.size() * targets.size());
  std::vector<Dist> far(none.size());
  for (const bool parallel : {false, true}) {
    const auto exec = [&](std::vector<Dist>* out) {
      return parallel ? threaded.value().Execute(request, QueryOutput{*out, {}})
                      : router.value().Execute(request, QueryOutput{*out, {}});
    };
    request.options.deadline = std::chrono::microseconds(300);
    EXPECT_EQ(exec(&none).status().code(), StatusCode::kDeadlineExceeded)
        << "parallel=" << parallel;
    request.options.deadline = std::chrono::nanoseconds::zero();
    ASSERT_TRUE(exec(&none).ok());
    request.options.deadline = std::chrono::hours(1);
    ASSERT_TRUE(exec(&far).ok());
    EXPECT_EQ(far, none) << "parallel=" << parallel;
  }
}

}  // namespace
}  // namespace hc2l
