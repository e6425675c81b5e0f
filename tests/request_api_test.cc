// Request/response API tests: hc2l::Router::Execute / ThreadedRouter::Execute,
// the facade's one bulk-query entry point. The contract under test:
//
//  - every kind answers what per-pair Distance answers (k-nearest: its
//    ranking by (distance, candidate position)), on both executors,
//  - a lone pair (1 x 1) is pairwise and equals Distance under every
//    missing-vertex policy, on monolithic and sharded indexes alike,
//  - every shape violation (under/oversized spans, mismatched pairwise
//    spans) is a Status, never an abort,
//  - out-of-range ids obey the request's MissingVertexPolicy,
//  - an expired deadline is kDeadlineExceeded on every kind and executor,
//  - k == 0 and empty candidate sets are empty results, not errors,
//  - QueryOutput::on_written reports disjoint ranges that cover the output
//    exactly once, each already holding its final values.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hc2l/hc2l.h"
#include "shard/sharded_index.h"
#include "test_util.h"

namespace hc2l {
namespace {

Graph TestGraph() {
  RoadNetworkOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.seed = 71;
  return GenerateRoadNetwork(opt);
}

Digraph TestDigraph() {
  RoadNetworkOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.seed = 72;
  return GenerateDirectedRoadNetwork(opt, /*oneway_frac=*/0.25);
}

/// Both flavours behind one fixture; parameterized over directedness.
class RequestApiTest : public ::testing::TestWithParam<bool> {
 protected:
  RequestApiTest() {
    Result<Router> built = GetParam() ? Router::Build(TestDigraph())
                                      : Router::Build(TestGraph());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    router_ = std::make_unique<Router>(std::move(built).value());
    // min_shard_queries = 1 so even these small workloads actually shard.
    ParallelOptions popts;
    popts.num_threads = 3;
    popts.min_shard_queries = 1;
    Result<ThreadedRouter> threaded = router_->WithThreads(popts);
    EXPECT_TRUE(threaded.ok()) << threaded.status().ToString();
    threaded_ =
        std::make_unique<ThreadedRouter>(std::move(threaded).value());
    n_ = static_cast<Vertex>(router_->NumVertices());
    for (Vertex v = 0; v < n_; v += 3) targets_.push_back(v);
    for (Vertex v = 1; v < n_; v += 7) sources_.push_back(v);
  }

  std::unique_ptr<Router> router_;
  std::unique_ptr<ThreadedRouter> threaded_;
  Vertex n_ = 0;
  std::vector<Vertex> targets_;
  std::vector<Vertex> sources_;
};

INSTANTIATE_TEST_SUITE_P(BothFlavours, RequestApiTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "directed" : "undirected";
                         });

TEST_P(RequestApiTest, ExecuteBatchMatchesVectorMethods) {
  const Vertex source = 5;
  std::vector<Dist> expected;
  for (const Vertex t : targets_) {
    expected.push_back(*router_->Distance(source, t));
  }

  QueryRequest req;
  req.kind = QueryKind::kPointBatch;
  req.sources = std::span<const Vertex>(&source, 1);
  req.targets = targets_;
  std::vector<Dist> out(targets_.size(), 12345);

  const Result<QueryResponse> seq =
      router_->Execute(req, QueryOutput{out, {}});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(seq->written, targets_.size());
  EXPECT_EQ(seq->rows, 1u);
  EXPECT_EQ(out, expected);

  std::fill(out.begin(), out.end(), 12345);
  const Result<QueryResponse> par =
      threaded_->Execute(req, QueryOutput{out, {}});
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(out, expected);
}

TEST_P(RequestApiTest, ExecutePairwiseMatchesDistance) {
  // sources.size() == targets.size() > 1 selects the pairwise shape.
  std::vector<Vertex> s;
  std::vector<Vertex> t;
  for (Vertex v = 0; v + 1 < n_; v += 5) {
    s.push_back(v);
    t.push_back(v + 1);
  }
  QueryRequest req;
  req.kind = QueryKind::kPointBatch;
  req.sources = s;
  req.targets = t;
  std::vector<Dist> out(t.size());
  const Result<QueryResponse> seq =
      router_->Execute(req, QueryOutput{out, {}});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(out[i], *router_->Distance(s[i], t[i])) << "pair " << i;
  }
  std::vector<Dist> par_out(t.size());
  const Result<QueryResponse> par =
      threaded_->Execute(req, QueryOutput{par_out, {}});
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(par_out, out);
}

TEST_P(RequestApiTest, ExecuteMatrixMatchesVectorMethods) {
  std::vector<std::vector<Dist>> expected(sources_.size());
  for (size_t i = 0; i < sources_.size(); ++i) {
    for (const Vertex t : targets_) {
      expected[i].push_back(*router_->Distance(sources_[i], t));
    }
  }

  QueryRequest req;
  req.kind = QueryKind::kMatrix;
  req.sources = sources_;
  req.targets = targets_;
  std::vector<Dist> flat(sources_.size() * targets_.size(), 12345);
  const Result<QueryResponse> seq =
      router_->Execute(req, QueryOutput{flat, {}});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(seq->rows, sources_.size());
  EXPECT_EQ(seq->cols, targets_.size());
  for (size_t i = 0; i < sources_.size(); ++i) {
    for (size_t j = 0; j < targets_.size(); ++j) {
      ASSERT_EQ(flat[i * targets_.size() + j], expected[i][j])
          << "cell " << i << "," << j;
    }
  }

  std::fill(flat.begin(), flat.end(), 12345);
  const Result<QueryResponse> par =
      threaded_->Execute(req, QueryOutput{flat, {}});
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  for (size_t i = 0; i < sources_.size(); ++i) {
    for (size_t j = 0; j < targets_.size(); ++j) {
      ASSERT_EQ(flat[i * targets_.size() + j], expected[i][j]);
    }
  }
}

TEST_P(RequestApiTest, ExecuteKNearestMatchesVectorMethods) {
  const Vertex source = 2;
  const size_t k = 5;
  // The reachable candidates ranked by (distance, candidate position).
  std::vector<std::pair<Dist, size_t>> ranked;
  for (size_t i = 0; i < targets_.size(); ++i) {
    const Dist d = *router_->Distance(source, targets_[i]);
    if (d != kInfDist) ranked.emplace_back(d, i);
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(std::min(k, ranked.size()));

  QueryRequest req;
  req.kind = QueryKind::kKNearest;
  req.sources = std::span<const Vertex>(&source, 1);
  req.targets = targets_;
  req.k = k;
  std::vector<Dist> dists(k);
  std::vector<Vertex> verts(k);
  const Result<QueryResponse> seq =
      router_->Execute(req, QueryOutput{dists, verts});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_EQ(seq->written, ranked.size());
  for (size_t i = 0; i < seq->written; ++i) {
    EXPECT_EQ(dists[i], ranked[i].first) << i;
    EXPECT_EQ(verts[i], targets_[ranked[i].second]) << i;
  }

  const Result<QueryResponse> par =
      threaded_->Execute(req, QueryOutput{dists, verts});
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  ASSERT_EQ(par->written, ranked.size());
  for (size_t i = 0; i < par->written; ++i) {
    EXPECT_EQ(dists[i], ranked[i].first) << i;
    EXPECT_EQ(verts[i], targets_[ranked[i].second]) << i;
  }
}

TEST_P(RequestApiTest, ShapeMismatchesAreInvalidArgument) {
  const Vertex source = 0;
  std::vector<Dist> small(targets_.size() - 1);
  std::vector<Dist> big(targets_.size() + 1);

  QueryRequest batch;
  batch.kind = QueryKind::kPointBatch;
  batch.sources = std::span<const Vertex>(&source, 1);
  batch.targets = targets_;
  EXPECT_EQ(router_->Execute(batch, QueryOutput(small)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router_->Execute(batch, QueryOutput(big)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(threaded_->Execute(batch, QueryOutput(small)).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<Dist> matrix_small(sources_.size() * targets_.size() - 1);
  EXPECT_EQ(
      router_->DistanceMatrixInto(sources_, targets_, matrix_small).code(),
      StatusCode::kInvalidArgument);
  std::vector<Dist> matrix_big(sources_.size() * targets_.size() + 7);
  EXPECT_EQ(
      threaded_->DistanceMatrixInto(sources_, targets_, matrix_big).code(),
      StatusCode::kInvalidArgument);

  // K-nearest: unequal spans, and spans smaller than min(k, candidates).
  QueryRequest knearest;
  knearest.kind = QueryKind::kKNearest;
  knearest.sources = std::span<const Vertex>(&source, 1);
  knearest.targets = targets_;
  knearest.k = 4;
  std::vector<Dist> kd(4);
  std::vector<Vertex> kv(3);
  EXPECT_EQ(router_->Execute(knearest, QueryOutput(kd, kv)).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<Vertex> kv4(4);
  knearest.k = 8;
  EXPECT_EQ(
      threaded_->Execute(knearest, QueryOutput(kd, kv4)).status().code(),
      StatusCode::kInvalidArgument);

  // Pairwise with mismatched span lengths (neither broadcast nor pairwise).
  QueryRequest req;
  req.kind = QueryKind::kPointBatch;
  std::vector<Vertex> two = {0, 1};
  std::vector<Vertex> three = {0, 1, 2};
  req.sources = two;
  req.targets = three;
  std::vector<Dist> out(three.size());
  const Result<QueryResponse> r = router_->Execute(req, QueryOutput{out, {}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Unknown kind.
  QueryRequest bogus;
  bogus.kind = static_cast<QueryKind>(99);
  const Result<QueryResponse> b =
      router_->Execute(bogus, QueryOutput{{}, {}});
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(RequestApiTest, MissingVertexPolicyError) {
  const Vertex bad = n_ + 100;
  std::vector<Vertex> with_bad = targets_;
  with_bad.push_back(bad);
  std::vector<Dist> out(with_bad.size());

  QueryRequest req;
  req.kind = QueryKind::kPointBatch;
  const Vertex source = 1;
  req.sources = std::span<const Vertex>(&source, 1);
  req.targets = with_bad;
  const Result<QueryResponse> r = router_->Execute(req, QueryOutput{out, {}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Matrix with a bad source id.
  std::vector<Vertex> bad_sources = {0, bad};
  QueryRequest mreq;
  mreq.kind = QueryKind::kMatrix;
  mreq.sources = bad_sources;
  mreq.targets = targets_;
  std::vector<Dist> flat(bad_sources.size() * targets_.size());
  const Result<QueryResponse> m =
      threaded_->Execute(mreq, QueryOutput{flat, {}});
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(RequestApiTest, MissingVertexPolicyUnreachable) {
  const Vertex bad = n_ + 9;
  const Vertex source = 1;

  // Batch: the bad target comes back unreachable, the rest exact.
  std::vector<Vertex> with_bad = targets_;
  with_bad.insert(with_bad.begin() + 1, bad);
  std::vector<Dist> out(with_bad.size());
  QueryRequest req;
  req.kind = QueryKind::kPointBatch;
  req.sources = std::span<const Vertex>(&source, 1);
  req.targets = with_bad;
  req.options.missing_vertices = MissingVertexPolicy::kUnreachable;
  for (const bool parallel : {false, true}) {
    const Result<QueryResponse> r =
        parallel ? threaded_->Execute(req, QueryOutput{out, {}})
                 : router_->Execute(req, QueryOutput{out, {}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(out[1], kInfDist);
    for (size_t i = 0; i < with_bad.size(); ++i) {
      if (i == 1) continue;
      EXPECT_EQ(out[i], *router_->Distance(source, with_bad[i])) << i;
    }
  }

  // Broadcast from a bad source: everything unreachable.
  QueryRequest bad_src = req;
  bad_src.sources = std::span<const Vertex>(&bad, 1);
  const Result<QueryResponse> r2 =
      router_->Execute(bad_src, QueryOutput{out, {}});
  ASSERT_TRUE(r2.ok());
  for (const Dist d : out) EXPECT_EQ(d, kInfDist);

  // Matrix: the bad source row and bad target column are unreachable, the
  // valid submatrix is exact.
  std::vector<Vertex> msources = {0, bad, 4};
  std::vector<Vertex> mtargets = {2, bad, 6};
  QueryRequest mreq;
  mreq.kind = QueryKind::kMatrix;
  mreq.sources = msources;
  mreq.targets = mtargets;
  mreq.options.missing_vertices = MissingVertexPolicy::kUnreachable;
  std::vector<Dist> flat(9);
  for (const bool parallel : {false, true}) {
    const Result<QueryResponse> m =
        parallel ? threaded_->Execute(mreq, QueryOutput{flat, {}})
                 : router_->Execute(mreq, QueryOutput{flat, {}});
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    for (size_t i = 0; i < 3; ++i) {
      for (size_t j = 0; j < 3; ++j) {
        const Dist got = flat[i * 3 + j];
        if (i == 1 || j == 1) {
          EXPECT_EQ(got, kInfDist) << i << "," << j;
        } else {
          EXPECT_EQ(got, *router_->Distance(msources[i], mtargets[j]))
              << i << "," << j;
        }
      }
    }
  }

  // Pairwise: only the pair containing the bad id is unreachable.
  std::vector<Vertex> ps = {0, bad, 3};
  std::vector<Vertex> pt = {1, 2, bad};
  QueryRequest preq;
  preq.kind = QueryKind::kPointBatch;
  preq.sources = ps;
  preq.targets = pt;
  preq.options.missing_vertices = MissingVertexPolicy::kUnreachable;
  std::vector<Dist> pout(3);
  const Result<QueryResponse> p = router_->Execute(preq, QueryOutput{pout, {}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(pout[0], *router_->Distance(0, 1));
  EXPECT_EQ(pout[1], kInfDist);
  EXPECT_EQ(pout[2], kInfDist);

  // K-nearest: bad candidates are excluded like unreachable ones; a bad
  // source yields an empty result.
  std::vector<Vertex> cands = {2, bad, 5, bad, 8};
  QueryRequest kreq;
  kreq.kind = QueryKind::kKNearest;
  kreq.sources = std::span<const Vertex>(&source, 1);
  kreq.targets = cands;
  kreq.k = 5;
  kreq.options.missing_vertices = MissingVertexPolicy::kUnreachable;
  std::vector<Dist> kd(5);
  std::vector<Vertex> kv(5);
  const Result<QueryResponse> kn = router_->Execute(kreq, QueryOutput{kd, kv});
  ASSERT_TRUE(kn.ok());
  const std::vector<Vertex> good = {2, 5, 8};
  const auto expected = testing::KNearest(*router_, source, good, 5);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(kn->written, expected->size());
  for (size_t i = 0; i < kn->written; ++i) {
    EXPECT_EQ(kd[i], (*expected)[i].first);
    EXPECT_EQ(kv[i], (*expected)[i].second);
  }

  QueryRequest kbad = kreq;
  kbad.sources = std::span<const Vertex>(&bad, 1);
  const Result<QueryResponse> kb = router_->Execute(kbad, QueryOutput{kd, kv});
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(kb->written, 0u);
}

TEST_P(RequestApiTest, DeadlineExceededOnEveryKind) {
  // A 1 ns budget is spent before the first chunk boundary, so every kind
  // fails deterministically with kDeadlineExceeded on both executors.
  const Vertex source = 0;
  QueryRequest batch;
  batch.kind = QueryKind::kPointBatch;
  batch.sources = std::span<const Vertex>(&source, 1);
  batch.targets = targets_;
  batch.options.deadline = std::chrono::nanoseconds(1);
  std::vector<Dist> out(targets_.size());

  QueryRequest matrix;
  matrix.kind = QueryKind::kMatrix;
  matrix.sources = sources_;
  matrix.targets = targets_;
  matrix.options.deadline = std::chrono::nanoseconds(1);
  std::vector<Dist> flat(sources_.size() * targets_.size());

  QueryRequest pairs;
  pairs.kind = QueryKind::kPointBatch;
  pairs.sources = targets_;
  pairs.targets = targets_;
  pairs.options.deadline = std::chrono::nanoseconds(1);

  QueryRequest knearest;
  knearest.kind = QueryKind::kKNearest;
  knearest.sources = std::span<const Vertex>(&source, 1);
  knearest.targets = targets_;
  knearest.k = 3;
  knearest.options.deadline = std::chrono::nanoseconds(1);
  std::vector<Dist> kd(3);
  std::vector<Vertex> kv(3);

  for (const bool parallel : {false, true}) {
    const auto exec = [&](const QueryRequest& req, const QueryOutput& o) {
      return parallel ? threaded_->Execute(req, o) : router_->Execute(req, o);
    };
    EXPECT_EQ(exec(batch, QueryOutput{out, {}}).status().code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_EQ(exec(matrix, QueryOutput{flat, {}}).status().code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_EQ(exec(pairs, QueryOutput{out, {}}).status().code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_EQ(exec(knearest, QueryOutput{kd, kv}).status().code(),
              StatusCode::kDeadlineExceeded);
  }

  // A negative budget (a caller's remaining time that already ran out) is
  // an expired deadline, not an absent one.
  batch.options.deadline = std::chrono::milliseconds(-5);
  EXPECT_EQ(router_->Execute(batch, QueryOutput{out, {}}).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(threaded_->Execute(batch, QueryOutput{out, {}}).status().code(),
            StatusCode::kDeadlineExceeded);

  // A generous budget succeeds.
  batch.options.deadline = std::chrono::seconds(30);
  EXPECT_TRUE(router_->Execute(batch, QueryOutput{out, {}}).ok());

  // A route is one unpacking with no chunk boundary to poll at, so a spent
  // budget fails before it starts: from route hints, and on a hint-less
  // index before the attached graph's whole-graph bidirectional search.
  BuildOptions hintless;
  hintless.route_hints = false;
  Result<Router> bare = GetParam() ? Router::Build(TestDigraph(), hintless)
                                   : Router::Build(TestGraph(), hintless);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  if (GetParam()) bare->AttachDigraph(TestDigraph());
  Result<ThreadedRouter> bare_threaded = bare->WithThreads(2);
  ASSERT_TRUE(bare_threaded.ok()) << bare_threaded.status().ToString();
  const Vertex target = n_ - 1;
  QueryRequest route;
  route.kind = QueryKind::kRoute;
  route.sources = std::span<const Vertex>(&source, 1);
  route.targets = std::span<const Vertex>(&target, 1);
  std::vector<Dist> rd(1);
  std::vector<Vertex> rv(n_);
  const auto route_on_every_executor = [&](StatusCode want) {
    EXPECT_EQ(router_->Execute(route, QueryOutput(rd, rv)).status().code(),
              want);
    EXPECT_EQ(threaded_->Execute(route, QueryOutput(rd, rv)).status().code(),
              want);
    EXPECT_EQ(bare->Execute(route, QueryOutput(rd, rv)).status().code(),
              want);
    EXPECT_EQ(
        bare_threaded->Execute(route, QueryOutput(rd, rv)).status().code(),
        want);
  };
  route.options.deadline = std::chrono::milliseconds(-5);
  route_on_every_executor(StatusCode::kDeadlineExceeded);
  route.options.deadline = std::chrono::seconds(30);
  route_on_every_executor(StatusCode::kOk);
}

/// Router and ThreadedRouters of 1 and 4 threads over one index, for the
/// lone-pair checks below.
struct Executors {
  Router router;
  ThreadedRouter one;
  ThreadedRouter four;
};

Executors ExecutorsOver(Result<Router> built) {
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  Router router = std::move(built).value();
  Result<ThreadedRouter> one = router.WithThreads(1);
  Result<ThreadedRouter> four = router.WithThreads(4);
  EXPECT_TRUE(one.ok() && four.ok());
  // The handles borrow router's impl, which the move below keeps in place.
  return Executors{std::move(router), std::move(one).value(),
                   std::move(four).value()};
}

TEST(LonePairExecute, EqualsDistanceUnderEveryPolicy) {
  // A 1 x 1 point request is pairwise: it must answer exactly what Distance
  // answers, and degrade or fail on out-of-range ids as its policy says, on
  // every executor and index kind.
  const std::string manifest = ::testing::TempDir() + "/hc2l_lone_pair.hc2s";
  ShardOptions shard_options;
  shard_options.num_shards = 3;
  Result<ShardedIndex> sharded =
      ShardedIndex::Build(TestGraph(), shard_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(sharded->Save(manifest).ok());

  struct Named {
    const char* name;
    Executors executors;
  };
  std::vector<Named> indexes;
  indexes.push_back({"undirected", ExecutorsOver(Router::Build(TestGraph()))});
  indexes.push_back(
      {"one-way directed", ExecutorsOver(Router::Build(TestDigraph()))});
  indexes.push_back({"3 shards", ExecutorsOver(Router::Open(manifest))});
  for (uint32_t k = 0; k < 3; ++k) {
    std::remove((manifest + "." + std::to_string(k)).c_str());
  }
  std::remove(manifest.c_str());

  for (const Named& index : indexes) {
    const Router& router = index.executors.router;
    const Vertex n = static_cast<Vertex>(router.NumVertices());
    const Vertex bad = n + 3;
    Rng rng(5);
    std::vector<std::pair<Vertex, Vertex>> pairs = {{0, 0}, {0, n - 1}};
    for (int i = 0; i < 40; ++i) {
      pairs.emplace_back(static_cast<Vertex>(rng.Below(n)),
                         static_cast<Vertex>(rng.Below(n)));
    }
    const auto check = [&](const auto& executor, const char* executor_name) {
      SCOPED_TRACE(std::string(index.name) + ", " + executor_name);
      QueryRequest req;
      Dist out = 12345;
      const auto run = [&](Vertex s, Vertex t, MissingVertexPolicy policy) {
        req.sources = std::span<const Vertex>(&s, 1);
        req.targets = std::span<const Vertex>(&t, 1);
        req.options.missing_vertices = policy;
        out = 12345;
        return executor.Execute(req, QueryOutput({&out, 1}));
      };
      for (const auto& [s, t] : pairs) {
        const Dist want = *router.Distance(s, t);
        for (const MissingVertexPolicy policy :
             {MissingVertexPolicy::kError, MissingVertexPolicy::kUnreachable,
              MissingVertexPolicy::kUnchecked}) {
          const Result<QueryResponse> r = run(s, t, policy);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(r->written, 1u);
          EXPECT_EQ(out, want) << s << " -> " << t;
        }
      }
      for (const auto& [s, t] : {std::pair<Vertex, Vertex>{bad, 1},
                                 std::pair<Vertex, Vertex>{1, bad}}) {
        const Result<QueryResponse> lenient =
            run(s, t, MissingVertexPolicy::kUnreachable);
        ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
        EXPECT_EQ(out, kInfDist);
        const Result<QueryResponse> strict =
            run(s, t, MissingVertexPolicy::kError);
        EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
      }
    };
    check(router, "Router");
    check(index.executors.one, "ThreadedRouter(1)");
    check(index.executors.four, "ThreadedRouter(4)");
  }
}

TEST_P(RequestApiTest, KNearestEmptyEdgesAreNotErrors) {
  const Vertex source = 3;
  const std::vector<Vertex> empty;

  // k == 0 with candidates; k > 0 with no candidates — empty results
  // everywhere, never errors, on both executors.
  const auto vk0 = testing::KNearest(*router_, source, targets_, 0);
  ASSERT_TRUE(vk0.ok());
  EXPECT_TRUE(vk0->empty());
  const auto vempty = testing::KNearest(*router_, source, empty, 4);
  ASSERT_TRUE(vempty.ok());
  EXPECT_TRUE(vempty->empty());

  const auto tk0 = testing::KNearest(*threaded_, source, targets_, 0);
  ASSERT_TRUE(tk0.ok());
  EXPECT_TRUE(tk0->empty());
  const auto tempty = testing::KNearest(*threaded_, source, empty, 4);
  ASSERT_TRUE(tempty.ok());
  EXPECT_TRUE(tempty->empty());

  QueryRequest req;
  req.kind = QueryKind::kKNearest;
  req.sources = std::span<const Vertex>(&source, 1);
  req.targets = targets_;
  req.k = 0;
  const Result<QueryResponse> e0 = router_->Execute(req, QueryOutput{{}, {}});
  ASSERT_TRUE(e0.ok()) << e0.status().ToString();
  EXPECT_EQ(e0->written, 0u);

  req.targets = empty;
  req.k = 4;
  const Result<QueryResponse> ee =
      threaded_->Execute(req, QueryOutput{{}, {}});
  ASSERT_TRUE(ee.ok()) << ee.status().ToString();
  EXPECT_EQ(ee->written, 0u);

  // An out-of-range source is still the caller's bug under the default
  // policy, even with an empty result shape...
  const Vertex bad = n_ + 1;
  req.sources = std::span<const Vertex>(&bad, 1);
  const Result<QueryResponse> eb = router_->Execute(req, QueryOutput{{}, {}});
  ASSERT_FALSE(eb.ok());
  EXPECT_EQ(eb.status().code(), StatusCode::kInvalidArgument);
  // ...and an empty success under the lenient policy.
  req.options.missing_vertices = MissingVertexPolicy::kUnreachable;
  const Result<QueryResponse> el = router_->Execute(req, QueryOutput{{}, {}});
  ASSERT_TRUE(el.ok());
  EXPECT_EQ(el->written, 0u);
}

TEST_P(RequestApiTest, ExecuteRouteMatchesRouteAndDistance) {
  // Pick a reachable pair (one-way arcs may disconnect arbitrary pairs in
  // the directed flavour) whose path has at least one hop.
  Vertex source = 3;
  Vertex target = source;
  for (Vertex t = n_; t-- > 0;) {
    if (t != source && *router_->Distance(source, t) != kInfDist) {
      target = t;
      break;
    }
  }
  ASSERT_NE(target, source) << "no reachable pair from " << source;
  RoutePath expected;
  ASSERT_TRUE(router_->Route(source, target, &expected).ok());
  ASSERT_GE(expected.vertices.size(), 2u);

  QueryRequest req;
  req.kind = QueryKind::kRoute;
  req.sources = std::span<const Vertex>(&source, 1);
  req.targets = std::span<const Vertex>(&target, 1);
  std::vector<Dist> dist(1, 12345);
  std::vector<Vertex> verts(n_, kInvalidVertex);

  for (const bool parallel : {false, true}) {
    std::fill(dist.begin(), dist.end(), 12345);
    std::fill(verts.begin(), verts.end(), kInvalidVertex);
    const Result<QueryResponse> r =
        parallel ? threaded_->Execute(req, QueryOutput{dist, verts})
                 : router_->Execute(req, QueryOutput{dist, verts});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->written, expected.vertices.size());
    EXPECT_EQ(r->rows, 1u);
    EXPECT_EQ(r->cols, expected.vertices.size());
    EXPECT_EQ(dist[0], expected.weight);
    EXPECT_EQ(dist[0], *router_->Distance(source, target));
    for (size_t i = 0; i < r->written; ++i) {
      EXPECT_EQ(verts[i], expected.vertices[i]) << "hop " << i;
    }
  }

  // A route to itself is the single-vertex path of weight zero.
  req.targets = std::span<const Vertex>(&source, 1);
  const Result<QueryResponse> self =
      router_->Execute(req, QueryOutput{dist, verts});
  ASSERT_TRUE(self.ok()) << self.status().ToString();
  EXPECT_EQ(self->written, 1u);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(verts[0], source);

  // An out-of-range endpoint under the lenient policy is an empty,
  // unreachable route — not an error.
  const Vertex bad = n_ + 42;
  req.targets = std::span<const Vertex>(&bad, 1);
  req.options.missing_vertices = MissingVertexPolicy::kUnreachable;
  const Result<QueryResponse> miss =
      router_->Execute(req, QueryOutput{dist, verts});
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_EQ(miss->written, 0u);
  EXPECT_EQ(dist[0], kInfDist);
}

TEST_P(RequestApiTest, ExecuteRouteShapeErrors) {
  const Vertex source = 0;
  const Vertex target = 5;
  std::vector<Vertex> two = {0, 1};
  std::vector<Dist> dist(1);
  std::vector<Vertex> verts(n_);

  // Exactly one source and one target.
  QueryRequest req;
  req.kind = QueryKind::kRoute;
  req.sources = two;
  req.targets = std::span<const Vertex>(&target, 1);
  EXPECT_EQ(router_->Execute(req, QueryOutput{dist, verts}).status().code(),
            StatusCode::kInvalidArgument);
  req.sources = std::span<const Vertex>(&source, 1);
  req.targets = two;
  EXPECT_EQ(router_->Execute(req, QueryOutput{dist, verts}).status().code(),
            StatusCode::kInvalidArgument);
  req.targets = std::span<const Vertex>(&target, 1);

  // Alternatives do not fit the single-path request shape.
  req.k = 2;
  EXPECT_EQ(router_->Execute(req, QueryOutput{dist, verts}).status().code(),
            StatusCode::kInvalidArgument);
  req.k = 0;

  // The path weight needs a distance slot.
  EXPECT_EQ(router_->Execute(req, QueryOutput{{}, verts}).status().code(),
            StatusCode::kInvalidArgument);

  // A vertex span shorter than the unpacked path is an overflow error,
  // never a truncation.
  RoutePath full;
  ASSERT_TRUE(router_->Route(source, target, &full).ok());
  ASSERT_GT(full.vertices.size(), 1u);
  std::vector<Vertex> tiny(full.vertices.size() - 1);
  const Result<QueryResponse> r =
      router_->Execute(req, QueryOutput{dist, tiny});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // An out-of-range id under the default policy is the caller's bug.
  const Vertex bad = n_ + 1;
  req.targets = std::span<const Vertex>(&bad, 1);
  EXPECT_EQ(router_->Execute(req, QueryOutput{dist, verts}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(RequestApiTest, MissingVertexPolicyUncheckedMatchesChecked) {
  // kUnchecked skips id validation for callers that already guarantee
  // in-range ids; on valid input it is bit-identical to the default policy
  // on every kind and both executors.
  const Vertex source = 6;
  QueryRequest batch;
  batch.kind = QueryKind::kPointBatch;
  batch.sources = std::span<const Vertex>(&source, 1);
  batch.targets = targets_;
  std::vector<Dist> expected(targets_.size());
  ASSERT_TRUE(router_->Execute(batch, QueryOutput{expected, {}}).ok());

  batch.options.missing_vertices = MissingVertexPolicy::kUnchecked;
  std::vector<Dist> out(targets_.size(), 1);
  for (const bool parallel : {false, true}) {
    std::fill(out.begin(), out.end(), 1);
    const Result<QueryResponse> r =
        parallel ? threaded_->Execute(batch, QueryOutput{out, {}})
                 : router_->Execute(batch, QueryOutput{out, {}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(out, expected);
  }

  QueryRequest matrix;
  matrix.kind = QueryKind::kMatrix;
  matrix.sources = sources_;
  matrix.targets = targets_;
  std::vector<Dist> mexpected(sources_.size() * targets_.size());
  ASSERT_TRUE(router_->Execute(matrix, QueryOutput{mexpected, {}}).ok());
  matrix.options.missing_vertices = MissingVertexPolicy::kUnchecked;
  std::vector<Dist> mflat(mexpected.size(), 1);
  ASSERT_TRUE(threaded_->Execute(matrix, QueryOutput{mflat, {}}).ok());
  EXPECT_EQ(mflat, mexpected);

  QueryRequest knearest;
  knearest.kind = QueryKind::kKNearest;
  knearest.sources = std::span<const Vertex>(&source, 1);
  knearest.targets = targets_;
  knearest.k = 4;
  std::vector<Dist> kd(4);
  std::vector<Vertex> kv(4);
  const Result<QueryResponse> checked =
      router_->Execute(knearest, QueryOutput{kd, kv});
  ASSERT_TRUE(checked.ok());
  knearest.options.missing_vertices = MissingVertexPolicy::kUnchecked;
  std::vector<Dist> ukd(4);
  std::vector<Vertex> ukv(4);
  const Result<QueryResponse> unchecked =
      router_->Execute(knearest, QueryOutput{ukd, ukv});
  ASSERT_TRUE(unchecked.ok());
  ASSERT_EQ(unchecked->written, checked->written);
  EXPECT_EQ(ukd, kd);
  EXPECT_EQ(ukv, kv);

  QueryRequest route;
  route.kind = QueryKind::kRoute;
  const Vertex target = n_ - 1;
  route.sources = std::span<const Vertex>(&source, 1);
  route.targets = std::span<const Vertex>(&target, 1);
  std::vector<Dist> rdist(1);
  std::vector<Vertex> rverts(n_);
  const Result<QueryResponse> rchecked =
      router_->Execute(route, QueryOutput{rdist, rverts});
  ASSERT_TRUE(rchecked.ok()) << rchecked.status().ToString();
  route.options.missing_vertices = MissingVertexPolicy::kUnchecked;
  std::vector<Dist> urdist(1);
  std::vector<Vertex> urverts(n_);
  const Result<QueryResponse> runchecked =
      router_->Execute(route, QueryOutput{urdist, urverts});
  ASSERT_TRUE(runchecked.ok()) << runchecked.status().ToString();
  ASSERT_EQ(runchecked->written, rchecked->written);
  EXPECT_EQ(urdist[0], rdist[0]);
  for (size_t i = 0; i < rchecked->written; ++i) {
    EXPECT_EQ(urverts[i], rverts[i]) << "hop " << i;
  }
}

TEST_P(RequestApiTest, PerRequestThreadCapMatchesSequential) {
  const Vertex source = 4;
  QueryRequest req;
  req.kind = QueryKind::kPointBatch;
  req.sources = std::span<const Vertex>(&source, 1);
  req.targets = targets_;
  std::vector<Dist> expected(targets_.size());
  ASSERT_TRUE(router_->Execute(req, QueryOutput{expected, {}}).ok());
  for (const uint32_t cap : {1u, 2u, 0u}) {
    req.options.num_threads = cap;
    std::vector<Dist> out(targets_.size(), 1);
    ASSERT_TRUE(threaded_->Execute(req, QueryOutput{out, {}}).ok());
    EXPECT_EQ(out, expected) << "cap " << cap;
  }
}

/// What Execute reported through QueryOutput::on_written: the ranges,
/// sorted by begin, and each slot's value as it stood when its range was
/// reported (what a consumer formatting the range would have seen).
struct RangeReport {
  Result<QueryResponse> response = Status::Internal("not run");
  std::vector<std::pair<size_t, size_t>> ranges;
  std::vector<Dist> seen;
};

template <typename Executor>
RangeReport ExecuteReportingRanges(const Executor& executor,
                                   const QueryRequest& request,
                                   std::span<Dist> distances,
                                   std::span<Vertex> vertices = {}) {
  RangeReport report;
  report.seen.assign(distances.size(), 0);
  std::mutex mu;
  const auto record = [&](size_t begin, size_t end) {
    const std::lock_guard<std::mutex> lock(mu);
    report.ranges.emplace_back(begin, end);
    std::copy(distances.begin() + begin, distances.begin() + end,
              report.seen.begin() + begin);
  };
  report.response =
      executor.Execute(request, QueryOutput(distances, vertices, record));
  std::sort(report.ranges.begin(), report.ranges.end());
  return report;
}

/// The ranges are non-empty, disjoint and tile [0, written) exactly, and
/// every slot already held its final value when it was reported.
void ExpectExactCover(const RangeReport& report,
                      std::span<const Dist> distances) {
  ASSERT_TRUE(report.response.ok()) << report.response.status().ToString();
  const size_t written = report.response->written;
  size_t next = 0;
  for (const auto& [begin, end] : report.ranges) {
    EXPECT_LT(begin, end) << "empty range reported";
    EXPECT_EQ(begin, next) << "gap or overlap before " << begin;
    next = end;
  }
  EXPECT_EQ(next, written);
  for (size_t i = 0; i < written; ++i) {
    EXPECT_EQ(report.seen[i], distances[i]) << "slot " << i;
  }
}

TEST_P(RequestApiTest, WrittenRangesCoverTheOutputExactlyOnce) {
  const Vertex bad = n_ + 5;
  const Vertex source = 4;
  std::vector<Vertex> with_bad = targets_;
  with_bad.insert(with_bad.begin() + 2, bad);
  std::vector<Vertex> rotated = targets_;
  std::rotate(rotated.begin(), rotated.begin() + 3, rotated.end());
  std::vector<Vertex> rotated_bad = rotated;
  rotated_bad[1] = bad;
  std::vector<Vertex> sources_bad = sources_;
  sources_bad.push_back(bad);
  const std::vector<Vertex> all_bad = {bad, bad + 1};

  struct Case {
    const char* name;
    QueryKind kind;
    std::span<const Vertex> sources;
    std::span<const Vertex> targets;
    MissingVertexPolicy policy;
  };
  const auto one = std::span<const Vertex>(&source, 1);
  const auto bad_one = std::span<const Vertex>(&bad, 1);
  const auto target_one = std::span<const Vertex>(&targets_[3], 1);
  const std::vector<Case> cases = {
      {"batch", QueryKind::kPointBatch, one, targets_,
       MissingVertexPolicy::kError},
      {"batch unchecked", QueryKind::kPointBatch, one, targets_,
       MissingVertexPolicy::kUnchecked},
      {"batch scatter", QueryKind::kPointBatch, one, with_bad,
       MissingVertexPolicy::kUnreachable},
      {"batch bad source", QueryKind::kPointBatch, bad_one, targets_,
       MissingVertexPolicy::kUnreachable},
      {"pairs", QueryKind::kPointBatch, targets_, rotated,
       MissingVertexPolicy::kError},
      {"pairs scatter", QueryKind::kPointBatch, targets_, rotated_bad,
       MissingVertexPolicy::kUnreachable},
      {"lone pair", QueryKind::kPointBatch, one, target_one,
       MissingVertexPolicy::kError},
      {"lone pair missing", QueryKind::kPointBatch, bad_one, target_one,
       MissingVertexPolicy::kUnreachable},
      {"matrix wide", QueryKind::kMatrix, sources_, targets_,
       MissingVertexPolicy::kError},
      {"matrix tall", QueryKind::kMatrix, targets_, sources_,
       MissingVertexPolicy::kError},
      {"matrix scatter", QueryKind::kMatrix, sources_bad, with_bad,
       MissingVertexPolicy::kUnreachable},
      {"matrix all bad", QueryKind::kMatrix, all_bad, targets_,
       MissingVertexPolicy::kUnreachable},
      {"matrix no targets", QueryKind::kMatrix, sources_, {},
       MissingVertexPolicy::kError},
  };
  for (const Case& c : cases) {
    QueryRequest req;
    req.kind = c.kind;
    req.sources = c.sources;
    req.targets = c.targets;
    req.options.missing_vertices = c.policy;
    size_t slots = c.targets.size();
    if (c.kind == QueryKind::kMatrix) slots *= c.sources.size();
    std::vector<Dist> want(slots);
    ASSERT_TRUE(router_->Execute(req, QueryOutput{want}).ok()) << c.name;
    for (const uint32_t cap : {0u, 1u, 2u}) {
      req.options.num_threads = cap;
      std::vector<Dist> seq(slots, 1);
      std::vector<Dist> par(slots, 1);
      SCOPED_TRACE(std::string(c.name) + ", cap " + std::to_string(cap));
      const RangeReport r = ExecuteReportingRanges(*router_, req, seq);
      ExpectExactCover(r, seq);
      // The Router reports the whole output once, on the caller.
      EXPECT_LE(r.ranges.size(), 1u);
      const RangeReport t = ExecuteReportingRanges(*threaded_, req, par);
      ExpectExactCover(t, par);
      EXPECT_EQ(seq, want);
      EXPECT_EQ(par, want);
    }
  }

  // Nothing is reported for a request that fails validation, nor by the
  // kinds whose outputs are not distance lists.
  QueryRequest bad_shape;
  bad_shape.kind = QueryKind::kMatrix;
  bad_shape.sources = sources_;
  bad_shape.targets = targets_;
  std::vector<Dist> short_out(sources_.size() * targets_.size() - 1);
  QueryRequest bad_id = bad_shape;
  bad_id.targets = with_bad;
  std::vector<Dist> bad_id_out(sources_.size() * with_bad.size());
  QueryRequest bad_pairs;
  bad_pairs.kind = QueryKind::kPointBatch;
  bad_pairs.sources = sources_;
  bad_pairs.targets = targets_;
  std::vector<Dist> pairs_out(targets_.size());
  QueryRequest bad_lone_pair;
  bad_lone_pair.kind = QueryKind::kPointBatch;
  bad_lone_pair.sources = one;
  bad_lone_pair.targets = bad_one;
  std::vector<Dist> lone_out(1);
  QueryRequest knearest;
  knearest.kind = QueryKind::kKNearest;
  knearest.sources = one;
  knearest.targets = targets_;
  knearest.k = 4;
  std::vector<Dist> kd(4);
  std::vector<Vertex> kv(4);
  QueryRequest route;
  route.kind = QueryKind::kRoute;
  route.sources = one;
  route.targets = std::span<const Vertex>(&targets_[3], 1);
  std::vector<Dist> rd(1);
  std::vector<Vertex> rv(n_);
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "ThreadedRouter" : "Router");
    const auto run = [&](const QueryRequest& req, std::span<Dist> d,
                         std::span<Vertex> v) {
      return parallel ? ExecuteReportingRanges(*threaded_, req, d, v)
                      : ExecuteReportingRanges(*router_, req, d, v);
    };
    const RangeReport shape = run(bad_shape, short_out, {});
    const RangeReport id = run(bad_id, bad_id_out, {});
    const RangeReport pairs = run(bad_pairs, pairs_out, {});
    const RangeReport lone = run(bad_lone_pair, lone_out, {});
    for (const RangeReport* r : {&shape, &id, &pairs, &lone}) {
      EXPECT_EQ(r->response.status().code(), StatusCode::kInvalidArgument);
      EXPECT_TRUE(r->ranges.empty());
    }
    const RangeReport k = run(knearest, kd, kv);
    ASSERT_TRUE(k.response.ok()) << k.response.status().ToString();
    EXPECT_TRUE(k.ranges.empty());
    const RangeReport rt = run(route, rd, rv);
    ASSERT_TRUE(rt.response.ok()) << rt.response.status().ToString();
    EXPECT_TRUE(rt.ranges.empty());
  }
}

}  // namespace
}  // namespace hc2l
