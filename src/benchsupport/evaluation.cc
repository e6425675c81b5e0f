#include "benchsupport/evaluation.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/timer.h"

namespace hc2l {

std::vector<DatasetSpec> SelectedDatasets(WeightMode mode) {
  const BenchScale scale =
      ParseBenchScale(std::getenv("HC2L_BENCH_SCALE"), BenchScale::kSmall);
  std::vector<DatasetSpec> all = PaperDatasets(scale, mode);
  const char* filter = std::getenv("HC2L_BENCH_DATASETS");
  if (filter == nullptr || filter[0] == '\0') return all;
  std::vector<DatasetSpec> selected;
  std::string list(filter);
  for (auto& spec : all) {
    size_t pos = 0;
    bool match = false;
    while (pos < list.size()) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      if (list.compare(pos, comma - pos, spec.name) == 0) match = true;
      pos = comma + 1;
    }
    if (match) selected.push_back(spec);
  }
  return selected;
}

size_t BenchQueryCount() {
  const char* env = std::getenv("HC2L_BENCH_QUERIES");
  if (env != nullptr) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 100000;
}

double MeasureAvgQueryMicros(
    const std::function<Dist(Vertex, Vertex)>& query,
    const std::vector<QueryPair>& pairs) {
  if (pairs.empty()) return 0.0;
  volatile uint64_t checksum = 0;
  Timer timer;
  uint64_t local = 0;
  for (const auto& [s, t] : pairs) {
    const Dist d = query(s, t);
    local += d == kInfDist ? 1 : d;
  }
  const double micros = timer.Micros();
  checksum = local;
  (void)checksum;
  return micros / static_cast<double>(pairs.size());
}

double MeasureAvgBatchTargetMicros(const Hc2lIndex& index,
                                   const std::vector<QueryPair>& pairs) {
  if (pairs.empty()) return 0.0;
  std::vector<Vertex> targets;
  targets.reserve(pairs.size());
  for (const auto& [s, t] : pairs) targets.push_back(t);
  // Aim for ~100k total batched queries (the same order as the default
  // point-query measurement), spread over at most 64 batch calls — and never
  // more sources than there are pairs to draw them from.
  const size_t num_sources = std::clamp<size_t>(
      100000 / targets.size(), 1, std::min<size_t>(pairs.size(), 64));
  volatile uint64_t checksum = 0;
  uint64_t local = 0;
  Timer timer;
  for (size_t i = 0; i < num_sources; ++i) {
    // One result vector per call, allocated and filled as a caller keeping
    // each batch's answers would (the figure has always included it).
    std::vector<Dist> dists(targets.size(), kInfDist);
    index.BatchQueryInto(pairs[i].first, targets, dists.data());
    local += dists.back() == kInfDist ? 1 : dists.back();
  }
  const double micros = timer.Micros();
  checksum = local;
  (void)checksum;
  return micros / static_cast<double>(num_sources * targets.size());
}

EvaluationDriver::EvaluationDriver(const Graph& g,
                                   const Hc2lOptions& hc2l_options,
                                   bool build_baselines) {
  // HC2L serial.
  {
    Hc2lOptions serial = hc2l_options;
    serial.num_threads = 1;
    hc2l_ = std::make_unique<Hc2lIndex>(Hc2lIndex::Build(g, serial));
    MethodEvaluation m;
    m.name = "HC2L";
    m.build_seconds = hc2l_->Stats().build_seconds;
    m.index_bytes = hc2l_->LabelSizeBytes();
    m.lca_bytes = hc2l_->LcaStorageBytes();
    const Hc2lIndex* index = hc2l_.get();
    m.query = [index](Vertex s, Vertex t) { return index->Query(s, t); };
    m.query_counting = [index](Vertex s, Vertex t, uint64_t* h) {
      return index->QueryCountingHubs(s, t, h);
    };
    result_.methods.push_back(std::move(m));
    result_.hc2l = index;
  }
  // HC2L_p: parallel construction of the identical index (timing only).
  {
    Hc2lOptions parallel = hc2l_options;
    parallel.num_threads = std::max(2u, std::thread::hardware_concurrency());
    Timer timer;
    Hc2lIndex parallel_index = Hc2lIndex::Build(g, parallel);
    result_.hc2lp_build_seconds = timer.Seconds();
  }

  if (!build_baselines) return;

  {
    Timer timer;
    h2h_ = std::make_unique<H2hIndex>(g);
    MethodEvaluation m;
    m.name = "H2H";
    m.build_seconds = timer.Seconds();
    m.index_bytes = h2h_->LabelSizeBytes();
    m.lca_bytes = h2h_->LcaStorageBytes();
    const H2hIndex* index = h2h_.get();
    m.query = [index](Vertex s, Vertex t) { return index->Query(s, t); };
    m.query_counting = [index](Vertex s, Vertex t, uint64_t* h) {
      return index->QueryCountingHubs(s, t, h);
    };
    result_.methods.push_back(std::move(m));
    result_.h2h = index;
  }
  {
    Timer timer;
    phl_ = std::make_unique<PrunedHighwayLabelling>(g);
    MethodEvaluation m;
    m.name = "PHL";
    m.build_seconds = timer.Seconds();
    m.index_bytes = phl_->MemoryBytes();
    const PrunedHighwayLabelling* index = phl_.get();
    m.query = [index](Vertex s, Vertex t) { return index->Query(s, t); };
    m.query_counting = [index](Vertex s, Vertex t, uint64_t* h) {
      return index->QueryCountingHubs(s, t, h);
    };
    result_.methods.push_back(std::move(m));
  }
  {
    Timer timer;
    ContractionHierarchies ch(g);
    hl_ = std::make_unique<HubLabelling>(g, ch.ImportanceOrder());
    MethodEvaluation m;
    m.name = "HL";
    m.build_seconds = timer.Seconds();
    m.index_bytes = hl_->MemoryBytes();
    const HubLabelling* index = hl_.get();
    m.query = [index](Vertex s, Vertex t) { return index->Query(s, t); };
    m.query_counting = [index](Vertex s, Vertex t, uint64_t* h) {
      return index->QueryCountingHubs(s, t, h);
    };
    result_.methods.push_back(std::move(m));
  }
}

void EvaluationDriver::MeasureQueries(const std::vector<QueryPair>& pairs) {
  for (MethodEvaluation& m : result_.methods) {
    m.avg_query_micros = MeasureAvgQueryMicros(m.query, pairs);
    if (m.name == "HC2L" && result_.hc2l != nullptr) {
      m.avg_batch_target_micros =
          MeasureAvgBatchTargetMicros(*result_.hc2l, pairs);
    }
    uint64_t hubs = 0;
    for (const auto& [s, t] : pairs) {
      m.query_counting(s, t, &hubs);
    }
    m.avg_hub_size =
        pairs.empty() ? 0.0 : static_cast<double>(hubs) / pairs.size();
  }
}

}  // namespace hc2l
