// The facade's bulk-query paths, plus the hard promise: the span-output hot
// path (Execute for batch, matrix and lone-pair point requests on Router
// and ThreadedRouter, and DistanceMatrixInto) and hc2ld's coalesced point
// run (Prepare, one ThreadedRouter::Execute, AppendStagedResponse) perform
// ZERO heap allocations in steady state. This binary both measures the
// paths — the coalesced run split per pair into prepare, execute and
// format — and enforces the allocation claim with a global operator-new
// hook: it exits non-zero if a warm gated call allocates, so CI can run it
// as a gate.
//
// Plain main() driver (no google-benchmark dependency), same fixture family
// as bench_micro_query: a synthetic road-network grid.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "hc2l/hc2l.h"
#include "server/metrics.h"
#include "server/wire.h"

// ------------------------------------------------------ allocation hook ---
// Replacing these in any TU hooks every new/delete in the binary, including
// the statically linked library. Counting is toggled around the measured
// regions only.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<bool> g_alloc_counting{false};

inline void CountAlloc() {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  CountAlloc();
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) std::abort();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hc2l {
namespace {

constexpr size_t kBatchTargets = 4096;
// hc2ld's point-burst shape: bursts of 16 single-pair point lines.
constexpr size_t kRunLines = 16;
constexpr size_t kPointLines = 4096;
constexpr size_t kMatrixSources = 64;
constexpr size_t kMatrixTargets = 512;

/// Runs fn() `reps` times; returns (ns per op, allocations per call) where
/// the op count is reps * ops_per_call.
struct Measured {
  double ns_per_op;
  double allocs_per_call;
};
template <typename Fn>
Measured Measure(size_t reps, size_t ops_per_call, const Fn& fn) {
  fn();  // warm every scratch buffer / vector capacity before counting
  fn();
  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  Timer timer;
  for (size_t r = 0; r < reps; ++r) fn();
  const double seconds = timer.Seconds();
  g_alloc_counting.store(false);
  const double total_ops =
      static_cast<double>(reps) * static_cast<double>(ops_per_call);
  return {seconds * 1e9 / total_ops,
          static_cast<double>(g_alloc_count.load()) /
              static_cast<double>(reps)};
}

int Run() {
  RoadNetworkOptions opt;
  opt.rows = 48;
  opt.cols = 48;
  opt.seed = 2026;
  const Graph g = GenerateRoadNetwork(opt);
  Result<Router> router = Router::Build(g);
  if (!router.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 router.status().ToString().c_str());
    return 1;
  }
  const Vertex n = static_cast<Vertex>(router->NumVertices());
  Rng rng(7);
  std::vector<Vertex> targets(kBatchTargets);
  for (Vertex& t : targets) t = static_cast<Vertex>(rng.Below(n));
  std::vector<Vertex> msources(kMatrixSources);
  for (Vertex& s : msources) s = static_cast<Vertex>(rng.Below(n));
  std::vector<Vertex> mtargets(kMatrixTargets);
  for (Vertex& t : mtargets) t = static_cast<Vertex>(rng.Below(n));
  const Vertex source = targets[0];

  std::printf("bench_request_api: %zu-vertex grid, batch %zu targets, "
              "matrix %zux%zu\n",
              static_cast<size_t>(n), kBatchTargets, kMatrixSources,
              kMatrixTargets);

  volatile Dist sink = 0;

  // --- one-to-many batch request ---
  constexpr size_t kBatchReps = 400;
  std::vector<Dist> batch_out(kBatchTargets);
  QueryRequest batch_req;
  batch_req.kind = QueryKind::kPointBatch;
  batch_req.sources = std::span<const Vertex>(&source, 1);
  batch_req.targets = targets;
  const Measured batch_exec = Measure(kBatchReps, kBatchTargets, [&] {
    const Result<QueryResponse> r =
        router->Execute(batch_req, QueryOutput{batch_out, {}});
    if (!r.ok()) std::abort();
    sink = sink + batch_out[0];
  });

  // --- many-to-many matrix: span wrapper vs request ---
  constexpr size_t kMatrixReps = 60;
  constexpr size_t kMatrixOps = kMatrixSources * kMatrixTargets;
  std::vector<Dist> matrix_out(kMatrixOps);
  const Measured matrix_span = Measure(kMatrixReps, kMatrixOps, [&] {
    if (!router->DistanceMatrixInto(msources, mtargets, matrix_out).ok()) {
      std::abort();
    }
    sink = sink + matrix_out[0];
  });
  QueryRequest matrix_req;
  matrix_req.kind = QueryKind::kMatrix;
  matrix_req.sources = msources;
  matrix_req.targets = mtargets;
  const Measured matrix_exec = Measure(kMatrixReps, kMatrixOps, [&] {
    const Result<QueryResponse> r =
        router->Execute(matrix_req, QueryOutput{matrix_out, {}});
    if (!r.ok()) std::abort();
    sink = sink + matrix_out[0];
  });

  // --- k-nearest request (reported, not gated) ---
  constexpr size_t kKnnReps = 400;
  std::vector<Dist> knn_d(16);
  std::vector<Vertex> knn_v(16);
  QueryRequest knn_req;
  knn_req.kind = QueryKind::kKNearest;
  knn_req.sources = std::span<const Vertex>(&source, 1);
  knn_req.targets = targets;
  knn_req.k = 16;
  const Measured knn_exec = Measure(kKnnReps, kBatchTargets, [&] {
    const Result<QueryResponse> r =
        router->Execute(knn_req, QueryOutput{knn_d, knn_v});
    if (!r.ok()) std::abort();
    sink = sink + knn_d[0];
  });

  // --- lone-pair point requests (1 x 1), what an uncoalesced point line
  // becomes, on both executors ---
  Result<ThreadedRouter> threaded = router->WithThreads(2);
  if (!threaded.ok()) std::abort();
  constexpr size_t kPointReps = 20000;
  std::vector<Vertex> point_sources(kPointLines);
  std::vector<Vertex> point_targets(kPointLines);
  for (size_t i = 0; i < kPointLines; ++i) {
    point_sources[i] = static_cast<Vertex>(rng.Below(n));
    point_targets[i] = static_cast<Vertex>(rng.Below(n));
  }
  size_t next_pair = 0;
  Dist point_out = 0;
  const auto lone_pair = [&](const auto& executor) {
    QueryRequest request;
    request.kind = QueryKind::kPointBatch;
    request.sources = std::span<const Vertex>(&point_sources[next_pair], 1);
    request.targets = std::span<const Vertex>(&point_targets[next_pair], 1);
    next_pair = (next_pair + 1) % kPointLines;
    if (!executor.Execute(request, QueryOutput{{&point_out, 1}}).ok()) {
      std::abort();
    }
    sink = sink + point_out;
  };
  const Measured point_seq =
      Measure(kPointReps, 1, [&] { lone_pair(*router); });
  const Measured point_par =
      Measure(kPointReps, 1, [&] { lone_pair(*threaded); });

  std::printf(
      "batch   request:%7.2f ns/target  %6.1f allocs/call\n"
      "matrix  span:   %7.2f ns/pair    %6.1f allocs/call\n"
      "matrix  request:%7.2f ns/pair    %6.1f allocs/call\n"
      "knn     request:%7.2f ns/cand    %6.1f allocs/call\n"
      "point   1x1 Router:         %7.2f ns/pair  %6.1f allocs/call\n"
      "point   1x1 ThreadedRouter: %7.2f ns/pair  %6.1f allocs/call\n",
      batch_exec.ns_per_op, batch_exec.allocs_per_call, matrix_span.ns_per_op,
      matrix_span.allocs_per_call, matrix_exec.ns_per_op,
      matrix_exec.allocs_per_call, knn_exec.ns_per_op,
      knn_exec.allocs_per_call, point_seq.ns_per_op,
      point_seq.allocs_per_call, point_par.ns_per_op,
      point_par.allocs_per_call);

  // --- a coalesced point run, as hc2ld's event loop serves one: 16 lines
  // staged by Prepare, one engine call for their pairs, 16 staged
  // responses; hc2ld's admission and latency hooks are wired in. ---
  std::vector<std::string> point_lines(kPointLines);
  for (std::string& line : point_lines) {
    line = "{\"op\":\"point\",\"sources\":[" +
           std::to_string(rng.Below(n)) + "],\"targets\":[" +
           std::to_string(rng.Below(n)) + "]}";
  }
  ServerMetrics metrics(1);
  ServerMetrics::Shard* shard = &metrics.shard(0);
  std::atomic<uint32_t> in_flight{0};
  ServerHooks hooks;
  hooks.admit = [&in_flight](uint64_t*) {
    in_flight.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  hooks.release = [&in_flight](uint64_t count) {
    in_flight.fetch_sub(static_cast<uint32_t>(count),
                        std::memory_order_relaxed);
  };
  hooks.record = [shard](WireOp op, uint64_t ns) {
    shard->RecordLatency(op, ns);
  };
  RequestHandler handler(std::move(hooks));
  std::vector<Vertex> run_sources;
  std::vector<Vertex> run_targets;
  std::vector<Dist> run_dists;
  std::vector<RequestHandler::StagePlan> plans(kRunLines);
  std::string scratch;
  std::string outbuf;
  using Clock = std::chrono::steady_clock;
  Clock::duration prepare_time{};
  Clock::duration execute_time{};
  Clock::duration format_time{};
  size_t next_line = 0;
  constexpr size_t kRuns = 20000;
  const Measured coalesced = Measure(kRuns, kRunLines, [&] {
    run_sources.clear();
    run_targets.clear();
    outbuf.clear();
    const Clock::time_point received = Clock::now();
    for (RequestHandler::StagePlan& plan : plans) {
      scratch.clear();
      if (handler.Prepare(point_lines[next_line], *router, *threaded,
                          &run_sources, &run_targets, &plan, received,
                          &scratch) != RequestHandler::LineAction::kStaged) {
        std::abort();
      }
      next_line = (next_line + 1) % kPointLines;
    }
    const Clock::time_point prepared = Clock::now();
    QueryRequest request;
    request.kind = QueryKind::kPointBatch;
    request.sources = run_sources;
    request.targets = run_targets;
    run_dists.resize(run_targets.size());
    if (!threaded->Execute(request, QueryOutput{run_dists, {}}).ok()) {
      std::abort();
    }
    const Clock::time_point done = Clock::now();
    for (const RequestHandler::StagePlan& plan : plans) {
      handler.AppendStagedResponse(plan, run_dists, done, &outbuf);
    }
    in_flight.fetch_sub(kRunLines, std::memory_order_relaxed);
    const Clock::time_point formatted = Clock::now();
    prepare_time += prepared - received;
    execute_time += done - prepared;
    format_time += formatted - done;
    sink = sink + outbuf.size();
  });
  // Measure() runs two warm-up calls before the timed ones.
  const double run_pairs = static_cast<double>((kRuns + 2) * kRunLines);
  const auto per_pair = [run_pairs](Clock::duration d) {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                   .count()) /
           run_pairs;
  };
  std::printf(
      "point   run:    %7.2f ns/pair    %6.1f allocs/call  (prepare %.1f, "
      "execute %.1f, format %.1f ns/pair; %zu lines of 1 pair per run)\n",
      coalesced.ns_per_op, coalesced.allocs_per_call,
      per_pair(prepare_time), per_pair(execute_time), per_pair(format_time),
      kRunLines);

  // --- the gate: warm batch, matrix and lone-pair point requests and the
  // coalesced point run allocate ZERO ---
  const double gated = batch_exec.allocs_per_call +
                       matrix_span.allocs_per_call +
                       matrix_exec.allocs_per_call +
                       point_seq.allocs_per_call +
                       point_par.allocs_per_call + coalesced.allocs_per_call;
  if (gated > 0.0) {
    std::printf("zero-allocation gate: FAIL (%.1f allocations per span-path "
                "call; expected 0)\n",
                gated);
    return 1;
  }
  std::printf("zero-allocation gate: PASS (0 allocations across %zu warm "
              "span-path calls and %zu coalesced point runs)\n",
              kBatchReps + 2 * kMatrixReps + 2 * kPointReps, kRuns);
  return 0;
}

}  // namespace
}  // namespace hc2l

int main() { return hc2l::Run(); }
