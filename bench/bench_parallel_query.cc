// Parallel query scaling bench: matrix / one-to-many / pairwise Execute
// throughput at 1/2/4/8 engine threads over the shared 48x48 fixture graph
// (the bench_micro_query dataset), plus a 1000x1000 matrix at 1/2/4
// threads — large enough that every engine slice runs full-width blocked
// panels. Runs through the public facade
// (hc2l::Router::WithThreads), the same surface a serving front end uses.
//
// The scaling curve is merged into BENCH_query.json (override the path with
// HC2L_BENCH_JSON) as a "parallel" section so the perf trajectory carries
// both the single-query latency and the bulk-throughput story. The JSON is
// our own fixed format: any existing "parallel" section is replaced. The
// section carries an "api" tag ("router") so tools/check_bench.py can tell
// facade-produced numbers from pre-facade ("core") snapshots.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "benchsupport/bench_json.h"
#include "benchsupport/workload.h"
#include "common/simd.h"
#include "hc2l/hc2l.h"

namespace hc2l {
namespace {

constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};

struct MatrixResult {
  double ns_per_pair = 0.0;
  uint64_t checksum = 0;  // all runs must agree (determinism)
};

/// Records a round's matrix checksum: every round must match the first.
void CheckDeterministic(size_t round, uint64_t sum, MatrixResult* result) {
  if (round == 0) {
    result->checksum = sum;
  } else if (result->checksum != sum) {
    std::fprintf(stderr, "FATAL: non-deterministic matrix checksum\n");
    std::exit(1);
  }
}

/// A default-options request of `kind` over the given id spans.
QueryRequest RequestOf(QueryKind kind, std::span<const Vertex> sources,
                       std::span<const Vertex> targets) {
  QueryRequest request;
  request.kind = kind;
  request.sources = sources;
  request.targets = targets;
  return request;
}

void CheckOk(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

/// Repeats a kMatrix Execute until ~min_seconds elapsed; ns per (s, t)
/// pair. Each round also allocates and fills a vector of row vectors as its
/// result, the work the snapshot's `matrix_speedup_best` has always
/// included, so the figure stays comparable with the committed one.
MatrixResult TimeMatrix(const ThreadedRouter& engine,
                        const std::vector<Vertex>& sources,
                        const std::vector<Vertex>& targets,
                        double min_seconds) {
  MatrixResult result;
  const size_t pairs_per_round = sources.size() * targets.size();
  const QueryRequest request =
      RequestOf(QueryKind::kMatrix, sources, targets);
  std::vector<Dist> flat(pairs_per_round);
  size_t rounds = 0;
  Timer timer;
  do {
    std::vector<std::vector<Dist>> matrix(
        sources.size(), std::vector<Dist>(targets.size(), kInfDist));
    CheckOk(engine.Execute(request, QueryOutput(flat)).status());
    uint64_t sum = 0;
    for (size_t i = 0; i < matrix.size(); ++i) {
      std::copy_n(flat.begin() + i * targets.size(), targets.size(),
                  matrix[i].begin());
      for (const Dist d : matrix[i]) sum += d == kInfDist ? 1 : d;
    }
    CheckDeterministic(rounds, sum, &result);
    ++rounds;
  } while (timer.Seconds() < min_seconds);
  result.ns_per_pair =
      timer.Seconds() * 1e9 / static_cast<double>(rounds * pairs_per_round);
  return result;
}

/// TimeMatrix for the large matrix, timing only engine.DistanceMatrixInto
/// into one reused flat buffer: the checksum and a 1M-cell allocation per
/// round would otherwise hide the engine's scaling.
MatrixResult TimeMatrixInto(const ThreadedRouter& engine,
                            const std::vector<Vertex>& sources,
                            const std::vector<Vertex>& targets,
                            double min_seconds) {
  MatrixResult result;
  const size_t pairs_per_round = sources.size() * targets.size();
  std::vector<Dist> matrix(pairs_per_round);
  size_t rounds = 0;
  double seconds = 0.0;
  do {
    Timer timer;
    const Status st = engine.DistanceMatrixInto(sources, targets, matrix);
    seconds += timer.Seconds();
    CheckOk(st);
    uint64_t sum = 0;
    for (const Dist d : matrix) sum += d == kInfDist ? 1 : d;
    CheckDeterministic(rounds, sum, &result);
    ++rounds;
  } while (seconds < min_seconds);
  result.ns_per_pair =
      seconds * 1e9 / static_cast<double>(rounds * pairs_per_round);
  return result;
}

/// One-to-many Executes, each into a freshly allocated result vector (as
/// the curve has always measured).
double TimeBatch(const ThreadedRouter& engine,
                 const std::vector<Vertex>& sources,
                 const std::vector<Vertex>& targets, double min_seconds) {
  size_t rounds = 0;
  size_t i = 0;
  Timer timer;
  do {
    const Vertex source = sources[i % sources.size()];
    std::vector<Dist> out(targets.size(), kInfDist);
    CheckOk(engine
                .Execute(RequestOf(QueryKind::kPointBatch, {&source, 1},
                                   targets),
                         QueryOutput(out))
                .status());
    ++i;
    ++rounds;
  } while (timer.Seconds() < min_seconds);
  return timer.Seconds() * 1e9 / static_cast<double>(rounds * targets.size());
}

/// Pairwise Executes, each into a freshly allocated result vector.
double TimePoints(const ThreadedRouter& engine,
                  const std::vector<QueryPair>& pairs, double min_seconds) {
  std::vector<Vertex> sources;
  std::vector<Vertex> targets;
  for (const auto& [s, t] : pairs) {
    sources.push_back(s);
    targets.push_back(t);
  }
  const QueryRequest request =
      RequestOf(QueryKind::kPointBatch, sources, targets);
  size_t rounds = 0;
  Timer timer;
  do {
    std::vector<Dist> out(pairs.size(), kInfDist);
    CheckOk(engine.Execute(request, QueryOutput(out)).status());
    ++rounds;
  } while (timer.Seconds() < min_seconds);
  return timer.Seconds() * 1e9 / static_cast<double>(rounds * pairs.size());
}

int Run() {
  RoadNetworkOptions opt;
  opt.rows = 48;
  opt.cols = 48;
  opt.seed = 2026;
  const Graph g = GenerateRoadNetwork(opt);
  const Result<Router> router = Router::Build(g, BuildOptions{});
  if (!router.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", router.status().ToString().c_str());
    return 1;
  }

  // Workloads: a 48x48 distance matrix (the acceptance fixture), a 4096-way
  // batch and 4096 random point pairs.
  const auto pairs = UniformRandomPairs(g.NumVertices(), 4096, 9);
  std::vector<Vertex> matrix_sources;
  std::vector<Vertex> matrix_targets;
  for (size_t i = 0; i < 48; ++i) {
    matrix_sources.push_back(pairs[i].first);
    matrix_targets.push_back(pairs[i].second);
  }
  std::vector<Vertex> batch_targets;
  batch_targets.reserve(pairs.size());
  for (const auto& [s, t] : pairs) batch_targets.push_back(t);
  std::vector<Vertex> batch_sources;
  for (size_t i = 0; i < 64; ++i) batch_sources.push_back(pairs[i].first);

  const double min_seconds =
      std::getenv("HC2L_BENCH_FAST") != nullptr ? 0.05 : 0.4;

  std::printf("parallel queries (hc2l::Router facade) on %zu vertices, "
              "kernel %s, %u hardware threads\n\n",
              g.NumVertices(), simd::kKernelName,
              std::thread::hardware_concurrency());
  std::printf("%8s %18s %18s %18s\n", "threads", "matrix 48x48", "batch 4096",
              "points 4096");
  std::printf("%8s %18s %18s %18s\n", "", "[ns/pair]", "[ns/target]",
              "[ns/query]");

  std::string curve;
  double matrix_1t = 0.0;
  double matrix_best = 0.0;
  uint64_t checksum = 0;
  for (const uint32_t threads : kThreadCounts) {
    ParallelOptions options;
    options.num_threads = threads;
    // The fixture workloads are small; let every thread take a share.
    options.min_shard_queries = 64;
    const Result<ThreadedRouter> engine = router->WithThreads(options);
    if (!engine.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", engine.status().ToString().c_str());
      return 1;
    }

    const MatrixResult m =
        TimeMatrix(*engine, matrix_sources, matrix_targets, min_seconds);
    const double b = TimeBatch(*engine, batch_sources, batch_targets,
                               min_seconds);
    const double p = TimePoints(*engine, pairs, min_seconds);
    if (threads == 1) {
      matrix_1t = m.ns_per_pair;
      checksum = m.checksum;
    } else if (checksum != m.checksum) {
      std::fprintf(stderr, "FATAL: thread-count-dependent matrix result\n");
      return 1;
    }
    matrix_best = matrix_best == 0.0 ? m.ns_per_pair
                                     : std::min(matrix_best, m.ns_per_pair);
    std::printf("%8u %18.2f %18.2f %18.2f\n", threads, m.ns_per_pair, b, p);

    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\n    {\"threads\": %u, \"matrix_ns_per_pair\": %.2f, "
                  "\"batch_ns_per_target\": %.2f, \"point_ns_per_query\": "
                  "%.2f}",
                  curve.empty() ? "" : ",", threads, m.ns_per_pair, b, p);
    curve += entry;
  }

  const double speedup = matrix_best > 0.0 ? matrix_1t / matrix_best : 0.0;
  std::printf("\nbest matrix speedup vs 1 thread: %.2fx "
              "(on %u hardware threads)\n",
              speedup, std::thread::hardware_concurrency());

  // The large matrix: sliced per thread, so the curve shows the engine's
  // scaling once the per-slice resolve, split and panel set-up are
  // amortized.
  std::vector<Vertex> big_sources;
  std::vector<Vertex> big_targets;
  for (const auto& [s, t] : UniformRandomPairs(g.NumVertices(), 1000, 10)) {
    big_sources.push_back(s);
    big_targets.push_back(t);
  }
  std::printf("\n%8s %18s %10s\n", "threads", "matrix 1000x1000",
              "speedup");
  std::string big_curve;
  double big_1t = 0.0;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    const Result<ThreadedRouter> engine = router->WithThreads(threads);
    if (!engine.ok()) return 1;
    const MatrixResult m =
        TimeMatrixInto(*engine, big_sources, big_targets, min_seconds);
    if (threads == 1) big_1t = m.ns_per_pair;
    std::printf("%8u %18.2f %9.2fx\n", threads, m.ns_per_pair,
                big_1t / m.ns_per_pair);
    char entry[96];
    std::snprintf(entry, sizeof(entry),
                  "%s\n    {\"threads\": %u, \"ns_per_pair\": %.2f}",
                  big_curve.empty() ? "" : ",", threads, m.ns_per_pair);
    big_curve += entry;
  }

  char head[192];
  std::snprintf(head, sizeof(head),
                "{\n"
                "    \"api\": \"router\",\n"
                "    \"hardware_threads\": %u,\n"
                "    \"matrix_speedup_best\": %.2f,\n"
                "    \"curve\": [",
                std::thread::hardware_concurrency(), speedup);
  const std::string section = std::string(head) + curve +
                              "],\n    \"matrix_1000\": [" + big_curve +
                              "]\n  }";

  const char* json = std::getenv("HC2L_BENCH_JSON");
  const std::string path = json != nullptr ? json : "BENCH_query.json";
  if (!MergeBenchSection(path, "parallel", section)) return 1;
  std::printf("merged parallel section into %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace hc2l

int main() { return hc2l::Run(); }
