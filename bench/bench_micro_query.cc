// Google-benchmark micro measurements: per-query latency of every method on
// one mid-size dataset, the O(1) LCA-level primitive, the SIMD vs scalar
// min-plus kernel, the matrix panel kernel (one vs two sources per pass)
// and the wire's distance-list writer. Complements the table benches with
// statistically robust per-op numbers.
//
// After the google-benchmark run, a machine-readable snapshot is written to
// BENCH_query.json (override with HC2L_BENCH_JSON=<path>) so the perf
// trajectory — ns/query, hubs scanned, label bytes — is tracked PR over PR.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "baselines/contraction_hierarchies.h"
#include "baselines/h2h.h"
#include "baselines/hub_labelling.h"
#include "baselines/pruned_highway_labelling.h"
#include "benchsupport/workload.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "core/directed_hc2l.h"
#include "core/hc2l.h"
#include "graph/road_network_generator.h"
#include "hierarchy/tree_code.h"
#include "search/dijkstra.h"
#include "server/wire.h"

namespace hc2l {
namespace {

// The snapshot tracks a multi-dataset trajectory: the mid-size grid every
// google-benchmark below runs on, plus a larger grid whose taller hierarchy
// and longer cut arrays show where the wide-kernel win appears end-to-end.
// Keep entries append-only — tools/check_bench.py gates each dataset section
// it finds in both snapshots and tolerates ones missing from either side.
struct DatasetSpec {
  const char* name;
  uint32_t rows;
  uint32_t cols;
  uint64_t seed;
};
constexpr DatasetSpec kDatasets[] = {
    {"grid48", 48, 48, 2026},
    {"grid96", 96, 96, 2096},
};

Graph MakeDatasetGraph(const DatasetSpec& spec) {
  RoadNetworkOptions opt;
  opt.rows = spec.rows;
  opt.cols = spec.cols;
  opt.seed = spec.seed;
  return GenerateRoadNetwork(opt);
}

// One shared fixture graph (built lazily, reused by every benchmark):
// kDatasets[0], the historical 48x48 fixture.
const Graph& BenchGraph() {
  static const Graph* graph = new Graph(MakeDatasetGraph(kDatasets[0]));
  return *graph;
}

const std::vector<QueryPair>& BenchPairs() {
  static const auto* pairs = new std::vector<QueryPair>(
      UniformRandomPairs(BenchGraph().NumVertices(), 4096, 9));
  return *pairs;
}

template <typename Index>
void RunQueries(benchmark::State& state, const Index& index) {
  const auto& pairs = BenchPairs();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i];
    benchmark::DoNotOptimize(index.Query(s, t));
    i = (i + 1) & (pairs.size() - 1);
  }
}

const Hc2lIndex& BenchIndex() {
  static const auto* index =
      new Hc2lIndex(Hc2lIndex::Build(BenchGraph(), Hc2lOptions{}));
  return *index;
}

void BM_Hc2lQuery(benchmark::State& state) {
  RunQueries(state, BenchIndex());
}
BENCHMARK(BM_Hc2lQuery);

/// One-to-many into a fresh result vector per call: the batch figures of
/// the committed snapshot (`ns_per_batch_target`) have always included that
/// allocation, so both batch measurements keep it.
std::vector<Dist> BatchWithResult(const Hc2lIndex& index, Vertex source,
                                  std::span<const Vertex> targets) {
  std::vector<Dist> out(targets.size(), kInfDist);
  index.BatchQueryInto(source, targets, out.data());
  return out;
}

void BM_Hc2lBatchQuery(benchmark::State& state) {
  // One-to-many fast path: per-target cost with the source side hoisted and
  // targets grouped by LCA level.
  const auto& pairs = BenchPairs();
  std::vector<Vertex> targets;
  targets.reserve(pairs.size());
  for (const auto& [s, t] : pairs) targets.push_back(t);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BatchWithResult(BenchIndex(), pairs[i].first, targets));
    // Plain modulo: one per 4096-target batch, and unlike a pow2 mask it
    // stays a full cycle if the pair count ever changes.
    i = (i + 1) % pairs.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(targets.size()));
}
BENCHMARK(BM_Hc2lBatchQuery);

/// Random label arrays for the kernel-only benches: finite values with
/// sentinels sprinkled in, padded per the arena invariant.
std::vector<uint32_t> KernelArray(size_t len, uint64_t seed) {
  std::vector<uint32_t> v(simd::PaddedLength(len), UINT32_MAX);
  Rng rng(seed);
  for (size_t i = 0; i < len; ++i) {
    v[i] = rng.Below(16) == 0 ? UINT32_MAX
                              : static_cast<uint32_t>(rng.Below(1 << 24));
  }
  return v;
}

void BM_MinPlusKernel(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const auto a = KernelArray(len, 1);
  const auto b = KernelArray(len, 2);
  for (auto _ : state) {
    // Launder the loop-invariant operands so the pure, inlined kernel call
    // cannot be hoisted out of the timing loop.
    const uint32_t* pa = a.data();
    const uint32_t* pb = b.data();
    benchmark::DoNotOptimize(pa);
    benchmark::DoNotOptimize(pb);
    benchmark::DoNotOptimize(simd::MinPlusPadded(pa, pb, len));
  }
}
BENCHMARK(BM_MinPlusKernel)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_MinPlusScalarRef(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const auto a = KernelArray(len, 1);
  const auto b = KernelArray(len, 2);
  for (auto _ : state) {
    const uint32_t* pa = a.data();
    const uint32_t* pb = b.data();
    benchmark::DoNotOptimize(pa);
    benchmark::DoNotOptimize(pb);
    benchmark::DoNotOptimize(simd::MinPlusScalar(pa, pb, len));
  }
}
BENCHMARK(BM_MinPlusScalarRef)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

/// The matrix block kernel alone: `sources` (1 or 2) source arrays of
/// `height` entries against a panel of kPanelWidth columns of that height,
/// per kernel pass. Reported per source row, so the one- and two-source
/// rows compare directly.
void BM_MinPlusPanel(benchmark::State& state) {
  constexpr size_t kPanelWidth = 2048;
  const size_t sources = static_cast<size_t>(state.range(0));
  const size_t height = static_cast<size_t>(state.range(1));
  const auto panel = KernelArray(kPanelWidth * height, 3);
  const auto a0 = KernelArray(height, 4);
  const auto a1 = KernelArray(height, 5);
  std::vector<uint32_t> out0(kPanelWidth), out1(kPanelWidth);
  for (auto _ : state) {
    const uint32_t* p = panel.data();
    benchmark::DoNotOptimize(p);
    benchmark::DoNotOptimize(out0.data());
    benchmark::DoNotOptimize(out1.data());
    if (sources == 1) {
      simd::MinPlusPanel(a0.data(), height, p, height, kPanelWidth,
                         out0.data());
    } else {
      simd::MinPlusPanel<2>({{a0.data(), height, out0.data()},
                             {a1.data(), height, out1.data()}},
                            p, height, kPanelWidth);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sources));
}
BENCHMARK(BM_MinPlusPanel)
    ->ArgNames({"sources", "height"})
    ->ArgsProduct({{1, 2}, {16, 40, 128}});

/// The wire's distance-list writer alone: one 256x256 matrix's worth of
/// distances of 4-7 digits, the size of a served road-network answer.
void BM_AppendNumberList(benchmark::State& state) {
  std::vector<Dist> values(65536);
  Rng rng(6);
  for (Dist& d : values) d = 1000 + rng.Below(9'999'000);
  std::string text;
  for (auto _ : state) {
    text.clear();
    AppendNumberList(&text, std::span<const Dist>(values));
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_AppendNumberList);

void BM_H2hQuery(benchmark::State& state) {
  static const auto* index = new H2hIndex(BenchGraph());
  RunQueries(state, *index);
}
BENCHMARK(BM_H2hQuery);

void BM_PhlQuery(benchmark::State& state) {
  static const auto* index = new PrunedHighwayLabelling(BenchGraph());
  RunQueries(state, *index);
}
BENCHMARK(BM_PhlQuery);

void BM_HlQuery(benchmark::State& state) {
  static const auto* index = [] {
    ContractionHierarchies ch(BenchGraph());
    return new HubLabelling(BenchGraph(), ch.ImportanceOrder());
  }();
  RunQueries(state, *index);
}
BENCHMARK(BM_HlQuery);

void BM_ChQuery(benchmark::State& state) {
  static const auto* index = new ContractionHierarchies(BenchGraph());
  RunQueries(state, *index);
}
BENCHMARK(BM_ChQuery);

void BM_BidirectionalDijkstraQuery(benchmark::State& state) {
  static auto* bidi = new BidirectionalDijkstra(BenchGraph());
  const auto& pairs = BenchPairs();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i];
    benchmark::DoNotOptimize(bidi->Query(s, t));
    i = (i + 1) & (pairs.size() - 1);
  }
}
BENCHMARK(BM_BidirectionalDijkstraQuery);

void BM_LcaLevelPrimitive(benchmark::State& state) {
  // The XOR + clz tree-code LCA (Lemma 4.21) in isolation.
  static const auto* index =
      new Hc2lIndex(Hc2lIndex::Build(BenchGraph(), Hc2lOptions{}));
  const auto& h = index->Hierarchy();
  const size_t n = index->Stats().num_core_vertices;
  size_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        h.LcaLevel(static_cast<Vertex>(i % n),
                   static_cast<Vertex>((i * 7919) % n)));
    ++i;
  }
}
BENCHMARK(BM_LcaLevelPrimitive);

/// Host name fingerprint; paired with the CPU model in the snapshot because
/// virtualized CPUs often report a generic model string ("Intel(R) Xeon(R)
/// Processor @ 2.10GHz") on very different physical hosts.
std::string HostName() {
  char name[256] = {0};
  if (gethostname(name, sizeof(name) - 1) != 0) return "unknown";
  return name[0] != '\0' ? name : "unknown";
}

/// CPU model fingerprint (from /proc/cpuinfo; "unknown" elsewhere). Stored
/// in the snapshot so tools/check_bench.py only compares absolute timings
/// measured on the same CPU model.
std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[256];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        const char* value = colon + 1;
        while (*value == ' ' || *value == '\t') ++value;
        model = value;
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
        if (model.empty()) model = "unknown";
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

/// Times fn() (which must consume `ops` operations) and returns ns/op.
template <typename Fn>
double NsPerOp(size_t ops, const Fn& fn) {
  Timer timer;
  fn();
  return timer.Seconds() * 1e9 / static_cast<double>(ops);
}

/// Self-measured per-dataset numbers (uniform random pairs, the exact
/// workload definition the snapshot's consumers rely on).
struct DatasetNumbers {
  size_t vertices = 0;
  size_t edges = 0;
  size_t queries = 0;
  double ns_query = 0;
  double ns_batch_target = 0;
  double avg_hubs = 0;
  uint64_t label_bytes = 0;
  size_t label_resident = 0;
  uint64_t label_entries = 0;
};

DatasetNumbers MeasureDataset(const Graph& g, const Hc2lIndex& index) {
  DatasetNumbers out;
  out.vertices = g.NumVertices();
  out.edges = g.NumEdges();
  const std::vector<QueryPair> pairs =
      UniformRandomPairs(g.NumVertices(), 4096, 9);

  constexpr size_t kRounds = 200;  // 200 * 4096 pairs ≈ 0.8M queries
  out.queries = kRounds * pairs.size();
  out.ns_query = NsPerOp(out.queries, [&]() {
    Dist sink = 0;
    for (size_t r = 0; r < kRounds; ++r) {
      for (const auto& [s, t] : pairs) sink ^= index.Query(s, t);
    }
    benchmark::DoNotOptimize(sink);
  });

  std::vector<Vertex> targets;
  targets.reserve(pairs.size());
  for (const auto& [s, t] : pairs) targets.push_back(t);
  out.ns_batch_target = NsPerOp(out.queries, [&]() {
    for (size_t r = 0; r < kRounds; ++r) {
      benchmark::DoNotOptimize(
          BatchWithResult(index, pairs[r % pairs.size()].first, targets));
    }
  });

  uint64_t hubs = 0;
  Dist sink = 0;
  for (const auto& [s, t] : pairs) sink ^= index.QueryCountingHubs(s, t, &hubs);
  benchmark::DoNotOptimize(sink);
  out.avg_hubs =
      static_cast<double>(hubs) / static_cast<double>(pairs.size());
  out.label_bytes = index.Stats().label_bytes;
  out.label_resident = index.LabelSizeBytes();
  out.label_entries = index.Stats().label_entries;
  return out;
}

/// One directed-index configuration of the snapshot's "directed" section.
struct DirectedNumbers {
  double build_s = 0;
  double ns_query = 0;
  uint64_t label_entries = 0;
  size_t core_vertices = 0;
};

DirectedNumbers MeasureDirected(const Digraph& g, bool contract) {
  DirectedNumbers out;
  Hc2lOptions options;
  options.contract_degree_one = contract;
  Timer build_timer;
  const DirectedHc2lIndex index = DirectedHc2lIndex::Build(g, options);
  out.build_s = build_timer.Seconds();
  out.label_entries = index.NumEntries();
  out.core_vertices = index.NumCoreVertices();
  const std::vector<QueryPair> pairs =
      UniformRandomPairs(g.NumVertices(), 4096, 11);
  constexpr size_t kRounds = 100;
  out.ns_query = NsPerOp(kRounds * pairs.size(), [&]() {
    Dist sink = 0;
    for (size_t r = 0; r < kRounds; ++r) {
      for (const auto& [s, t] : pairs) sink ^= index.Query(s, t);
    }
    benchmark::DoNotOptimize(sink);
  });
  return out;
}

/// Writes the machine-readable perf snapshot. Self-measured (not derived
/// from the google-benchmark run) so the numbers carry the exact workload
/// definition with them: uniform random pairs per fixture graph. The
/// historical top-level fields stay the primary (48x48) dataset; the
/// "datasets" object carries the whole trajectory.
void WriteBenchQueryJson(const char* path) {
  const DatasetNumbers primary = MeasureDataset(BenchGraph(), BenchIndex());
  const size_t num_queries = primary.queries;
  const double ns_query = primary.ns_query;
  const double ns_batch_target = primary.ns_batch_target;
  const double avg_hubs = primary.avg_hubs;

  std::string datasets_json;
  for (size_t d = 0; d < std::size(kDatasets); ++d) {
    const DatasetSpec& spec = kDatasets[d];
    DatasetNumbers numbers;
    if (d == 0) {
      numbers = primary;  // same graph/index — don't rebuild or re-measure
    } else {
      const Graph g = MakeDatasetGraph(spec);
      const Hc2lIndex index = Hc2lIndex::Build(g, Hc2lOptions{});
      numbers = MeasureDataset(g, index);
    }
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s    \"%s\": {\"vertices\": %zu, \"edges\": %zu, "
        "\"ns_per_query\": %.2f, \"ns_per_batch_target\": %.2f, "
        "\"avg_hubs_scanned\": %.2f, \"label_bytes_logical\": %llu, "
        "\"label_entries\": %llu}",
        d == 0 ? "" : ",\n", spec.name, numbers.vertices, numbers.edges,
        numbers.ns_query, numbers.ns_batch_target, numbers.avg_hubs,
        static_cast<unsigned long long>(numbers.label_bytes),
        static_cast<unsigned long long>(numbers.label_entries));
    datasets_json += buf;
  }

  // Directed trajectory: the grid48 topology with 20% one-way streets,
  // built with degree-one contraction on and off. The label-entry ratio is
  // CPU-independent (deterministic builds), so check_bench.py gates it on
  // every runner; the ns numbers gate machine-matched like the datasets.
  RoadNetworkOptions directed_opt;
  directed_opt.rows = kDatasets[0].rows;
  directed_opt.cols = kDatasets[0].cols;
  directed_opt.seed = kDatasets[0].seed;
  const Digraph directed_graph =
      GenerateDirectedRoadNetwork(directed_opt, /*one_way_frac=*/0.2);
  const DirectedNumbers dir_on = MeasureDirected(directed_graph, true);
  const DirectedNumbers dir_off = MeasureDirected(directed_graph, false);
  char directed_json[512];
  std::snprintf(
      directed_json, sizeof(directed_json),
      "{\n"
      "    \"vertices\": %zu, \"arcs\": %zu, \"core_vertices\": %zu,\n"
      "    \"contracted\": {\"ns_per_query\": %.2f, \"label_entries\": %llu, "
      "\"build_s\": %.3f},\n"
      "    \"uncontracted\": {\"ns_per_query\": %.2f, \"label_entries\": "
      "%llu, \"build_s\": %.3f}\n"
      "  }",
      directed_graph.NumVertices(), directed_graph.NumArcs(),
      dir_on.core_vertices, dir_on.ns_query,
      static_cast<unsigned long long>(dir_on.label_entries), dir_on.build_s,
      dir_off.ns_query,
      static_cast<unsigned long long>(dir_off.label_entries), dir_off.build_s);

  constexpr size_t kKernelLen = 128;
  constexpr size_t kKernelReps = 2'000'000;
  const auto ka = KernelArray(kKernelLen, 1);
  const auto kb = KernelArray(kKernelLen, 2);
  // The operand pointers are laundered through DoNotOptimize and memory is
  // clobbered each rep, so the loop-invariant kernel call cannot be hoisted.
  const auto time_kernel = [&](auto kernel) {
    return NsPerOp(kKernelReps, [&]() {
      uint32_t acc = 0;
      for (size_t r = 0; r < kKernelReps; ++r) {
        const uint32_t* pa = ka.data();
        const uint32_t* pb = kb.data();
        benchmark::DoNotOptimize(pa);
        benchmark::DoNotOptimize(pb);
        acc ^= kernel(pa, pb, kKernelLen);
        benchmark::ClobberMemory();
      }
      benchmark::DoNotOptimize(acc);
    });
  };
  const double ns_kernel = time_kernel(
      [](const uint32_t* a, const uint32_t* b, size_t len) {
        return simd::MinPlusPadded(a, b, len);
      });
  const double ns_kernel_scalar = time_kernel(
      [](const uint32_t* a, const uint32_t* b, size_t len) {
        return simd::MinPlusScalar(a, b, len);
      });

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"micro_query\",\n"
               "  \"kernel\": \"%s\",\n"
               "  \"cpu\": \"%s\",\n"
               "  \"host\": \"%s\",\n"
               "  \"graph\": {\"vertices\": %zu, \"edges\": %zu},\n"
               "  \"queries\": %zu,\n"
               "  \"ns_per_query\": %.2f,\n"
               "  \"ns_per_batch_target\": %.2f,\n"
               "  \"avg_hubs_scanned\": %.2f,\n"
               "  \"kernel_len%zu_ns\": {\"simd\": %.2f, \"scalar\": %.2f},\n"
               "  \"label_bytes_logical\": %llu,\n"
               "  \"label_bytes_resident\": %zu,\n"
               "  \"label_entries\": %llu,\n"
               "  \"datasets\": {\n%s\n  },\n"
               "  \"directed\": %s\n"
               "}\n",
               simd::kKernelName, CpuModel().c_str(), HostName().c_str(),
               primary.vertices, primary.edges, num_queries, ns_query,
               ns_batch_target, avg_hubs, kKernelLen, ns_kernel,
               ns_kernel_scalar,
               static_cast<unsigned long long>(primary.label_bytes),
               primary.label_resident,
               static_cast<unsigned long long>(primary.label_entries),
               datasets_json.c_str(), directed_json);
  std::fclose(f);
  std::printf("wrote %s (%.2f ns/query primary, %zu datasets, kernel %s)\n",
              path, ns_query, std::size(kDatasets), simd::kKernelName);
}

}  // namespace
}  // namespace hc2l

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  const char* json = std::getenv("HC2L_BENCH_JSON");
  hc2l::WriteBenchQueryJson(json != nullptr ? json : "BENCH_query.json");
  return 0;
}
