// The staged pairwise kernel (LabelIndex<k>::PointPairsInto) against the
// per-pair Query it replaces: both flavours, contraction on and off, spans of
// every length 0-40 so that every remainder of a 16-pair group occurs, and
// the pairs the labels play no part in (s == t, both ends in one pendant
// tree, one-way pendants cut off from the core). The kernel reads offset
// tables ahead of use, so CI also runs this binary under ASan/UBSan.

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/directed_hc2l.h"
#include "core/hc2l.h"
#include "graph/digraph.h"
#include "graph/road_network_generator.h"
#include "hc2l/hc2l.h"

namespace hc2l {
namespace {

constexpr size_t kRandomPairs = 2000;
constexpr size_t kMaxSpan = 40;

RoadNetworkOptions SmallRoadNetwork() {
  RoadNetworkOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.seed = 25;
  opt.pendant_frac = 0.4;  // many pendant chains of length 1-3
  return opt;
}

/// Core triangle 0-1-2 with pendant chains of every link flavour: 3 <-> 4
/// <-> 0 (one tree of three vertices), 1 -> 5 (enter-only) and 6 -> 2
/// (exit-only), so pairs into 5's tree from outside and out of 6's are
/// unreachable.
Digraph OneWayPendants() {
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

/// Every vertex to itself and to each neighbour (which puts both ends of
/// every pendant edge, hence of every pendant tree's links, into one pair),
/// then random pairs, kRandomPairs in all (more when the structured pairs
/// alone exceed it).
template <typename NeighborsFn>
std::vector<std::pair<Vertex, Vertex>> TestPairs(size_t n,
                                                 const NeighborsFn& neighbors,
                                                 uint64_t seed) {
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex v = 0; v < n; ++v) {
    pairs.emplace_back(v, v);
    for (const Arc& a : neighbors(v)) pairs.emplace_back(v, a.to);
  }
  Rng rng(seed);
  while (pairs.size() < kRandomPairs) {
    pairs.emplace_back(static_cast<Vertex>(rng.Below(n)),
                       static_cast<Vertex>(rng.Below(n)));
  }
  return pairs;
}

/// PointPairsInto over `pairs`, cut into consecutive spans of length 0, 1,
/// ..., kMaxSpan, 0, 1, ...; every answer must equal Query bit for bit.
/// Returns the number of unreachable answers.
template <typename Index>
size_t ExpectKernelMatchesQuery(
    const Index& index, const std::vector<std::pair<Vertex, Vertex>>& pairs) {
  std::vector<Vertex> sources;
  std::vector<Vertex> targets;
  for (const auto& [s, t] : pairs) {
    sources.push_back(s);
    targets.push_back(t);
  }
  std::vector<Dist> out(pairs.size() + 1, 12345);
  size_t span = 0;
  for (size_t first = 0; first < pairs.size();
       first += span, span = (span + 1) % (kMaxSpan + 1)) {
    const size_t len = std::min(span, pairs.size() - first);
    index.PointPairsInto(std::span(sources).subspan(first, len),
                         std::span(targets).subspan(first, len),
                         out.data() + first);
  }
  EXPECT_EQ(out.back(), 12345u) << "wrote past the last pair";
  size_t unreachable = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Dist expected = index.Query(pairs[i].first, pairs[i].second);
    EXPECT_EQ(out[i], expected)
        << pairs[i].first << " -> " << pairs[i].second << " (pair " << i
        << ")";
    unreachable += expected == kInfDist ? 1 : 0;
  }
  return unreachable;
}

TEST(PairKernel, UndirectedMatchesQueryWithAndWithoutContraction) {
  const Graph g = GenerateRoadNetwork(SmallRoadNetwork());
  const auto pairs = TestPairs(
      g.NumVertices(), [&](Vertex v) { return g.Neighbors(v); }, 1);
  for (const bool contract : {true, false}) {
    Hc2lOptions options;
    options.contract_degree_one = contract;
    const Hc2lIndex index = Hc2lIndex::Build(g, options);
    if (contract) {
      EXPECT_GT(index.NumContracted(), 0u);
    }
    EXPECT_EQ(ExpectKernelMatchesQuery(index, pairs), 0u);
  }
}

TEST(PairKernel, OneWayDigraphMatchesQueryWithAndWithoutContraction) {
  const Digraph g = GenerateDirectedRoadNetwork(SmallRoadNetwork(), 0.3);
  const auto pairs = TestPairs(
      g.NumVertices(), [&](Vertex v) { return g.OutArcs(v); }, 2);
  for (const bool contract : {true, false}) {
    Hc2lOptions options;
    options.contract_degree_one = contract;
    const DirectedHc2lIndex index = DirectedHc2lIndex::Build(g, options);
    if (contract) {
      EXPECT_GT(index.NumContracted(), 0u);
    }
    EXPECT_GT(ExpectKernelMatchesQuery(index, pairs), 0u);
  }
}

TEST(PairKernel, OneWayPendantsAnswerLikeQuery) {
  const Digraph g = OneWayPendants();
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (Vertex t = 0; t < g.NumVertices(); ++t) pairs.emplace_back(s, t);
  }
  for (const bool contract : {true, false}) {
    Hc2lOptions options;
    options.contract_degree_one = contract;
    const DirectedHc2lIndex index = DirectedHc2lIndex::Build(g, options);
    // 3 and 4 share 0's tree; 5 is enter-only and 6 exit-only.
    EXPECT_EQ(index.NumContracted(), contract ? 4u : 0u);
    EXPECT_GT(ExpectKernelMatchesQuery(index, pairs), 0u);
    Dist d[4] = {};
    const Vertex s[] = {3, 4, 5, 0};
    const Vertex t[] = {4, 3, 0, 6};
    index.PointPairsInto(s, t, d);
    EXPECT_EQ(d[0], 3u);  // same tree, 3 -> 4
    EXPECT_EQ(d[1], 4u);  // same tree, 4 -> 3
    EXPECT_EQ(d[2], kInfDist);
    EXPECT_EQ(d[3], kInfDist);
  }
}

/// Pairwise point requests through the Router (sequential) and through
/// ThreadedRouters of 1 and 4 threads with a small sharding grain, so the
/// engine cuts the pairs into shards of every offset.
template <typename G>
void ExpectThreadedPointsMatchRouter(const G& g) {
  Result<Router> router = Router::Build(g);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  const Vertex n = static_cast<Vertex>(router->NumVertices());
  Rng rng(3);
  std::vector<Vertex> sources(kRandomPairs);
  std::vector<Vertex> targets(kRandomPairs);
  for (size_t i = 0; i < kRandomPairs; ++i) {
    sources[i] = static_cast<Vertex>(rng.Below(n));
    targets[i] = i % 7 == 0 ? sources[i] : static_cast<Vertex>(rng.Below(n));
  }
  QueryRequest request;
  request.kind = QueryKind::kPointBatch;
  request.sources = sources;
  request.targets = targets;
  std::vector<Dist> expected(kRandomPairs);
  ASSERT_TRUE(router->Execute(request, QueryOutput{expected, {}}).ok());
  for (size_t i = 0; i < kRandomPairs; ++i) {
    EXPECT_EQ(expected[i], router->DistanceUnchecked(sources[i], targets[i]));
  }
  for (const uint32_t threads : {1u, 4u}) {
    ParallelOptions parallel;
    parallel.num_threads = threads;
    parallel.min_shard_queries = 37;
    Result<ThreadedRouter> threaded = router->WithThreads(parallel);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    std::vector<Dist> got(kRandomPairs, 0);
    ASSERT_TRUE(threaded->Execute(request, QueryOutput{got, {}}).ok());
    EXPECT_EQ(got, expected) << threads << " threads";
  }
}

TEST(PairKernel, ThreadedPointsMatchRouterUndirected) {
  ExpectThreadedPointsMatchRouter(GenerateRoadNetwork(SmallRoadNetwork()));
}

TEST(PairKernel, ThreadedPointsMatchRouterOneWay) {
  ExpectThreadedPointsMatchRouter(
      GenerateDirectedRoadNetwork(SmallRoadNetwork(), 0.3));
}

}  // namespace
}  // namespace hc2l
