#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "benchsupport/bench_json.h"
#include "benchsupport/evaluation.h"
#include "benchsupport/table_printer.h"
#include "benchsupport/workload.h"
#include "graph/road_network_generator.h"
#include "search/dijkstra.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::FileBytes;
using ::hc2l::testing::MakeGrid;
using ::hc2l::testing::MakePath;

TEST(Workload, UniformPairsDeterministicAndInRange) {
  const auto a = UniformRandomPairs(100, 500, 42);
  const auto b = UniformRandomPairs(100, 500, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 500u);
  for (const auto& [s, t] : a) {
    EXPECT_LT(s, 100u);
    EXPECT_LT(t, 100u);
  }
  const auto c = UniformRandomPairs(100, 500, 43);
  EXPECT_NE(a, c);
}

TEST(Workload, EstimateDiameterOnKnownShapes) {
  EXPECT_EQ(EstimateDiameter(MakePath(10, 5)), 45u);
  EXPECT_EQ(EstimateDiameter(MakeGrid(4, 6, 2)), 16u);
  Graph empty = GraphBuilder(0).Build();
  EXPECT_EQ(EstimateDiameter(empty), 0u);
  Graph single = GraphBuilder(1).Build();
  EXPECT_EQ(EstimateDiameter(single), 0u);
}

TEST(Workload, DistanceBandsRespectRanges) {
  RoadNetworkOptions opt;
  opt.rows = 25;
  opt.cols = 25;
  opt.seed = 4;
  Graph g = GenerateRoadNetwork(opt);
  const Dist l_min = 300;
  DistanceBandedQuerySets sets =
      GenerateDistanceBandedSets(g, /*per_set=*/50, /*seed=*/9, l_min);
  ASSERT_EQ(sets.sets.size(), 10u);
  EXPECT_GE(sets.l_max, l_min);
  const double x =
      std::pow(static_cast<double>(sets.l_max) / l_min, 0.1);
  Dijkstra dijkstra(g);
  // Bands 1..9 must contain only pairs within their geometric range; band 0
  // additionally absorbs shorter-than-l_min pairs.
  for (int band = 0; band < 10; ++band) {
    const double hi = l_min * std::pow(x, band + 1);
    const double lo = l_min * std::pow(x, band);
    for (const auto& [s, t] : sets.sets[band]) {
      dijkstra.RunToTarget(s, t);
      const Dist d = dijkstra.DistanceTo(t);
      ASSERT_NE(d, kInfDist);
      ASSERT_NE(d, 0u);
      EXPECT_LE(static_cast<double>(d), hi * 1.0001) << "band " << band;
      if (band > 0) {
        EXPECT_GT(static_cast<double>(d), lo * 0.9999) << "band " << band;
      }
    }
  }
  // Middle bands should be populated on a graph this size.
  EXPECT_FALSE(sets.sets[3].empty());
  EXPECT_FALSE(sets.sets[6].empty());
}

TEST(Workload, MeasureAvgQueryMicrosIsPositive) {
  const auto pairs = UniformRandomPairs(10, 100, 1);
  const double micros = MeasureAvgQueryMicros(
      [](Vertex s, Vertex t) { return static_cast<Dist>(s + t); }, pairs);
  EXPECT_GT(micros, 0.0);
  EXPECT_EQ(MeasureAvgQueryMicros([](Vertex, Vertex) { return Dist{0}; }, {}),
            0.0);
}

TEST(TablePrinterTest, FormatsBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KB");
  EXPECT_EQ(FormatBytes(3500000), "3.5 MB");
  EXPECT_EQ(FormatBytes(1240000000ull), "1.24 GB");
}

TEST(TablePrinterTest, FormatsNumbers) {
  EXPECT_EQ(FormatMicros(0.2254), "0.225");
  EXPECT_EQ(FormatSeconds(12.345), "12.35");
  EXPECT_EQ(FormatSeconds(1234.6), "1235");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

/// A temporary file for one merge test, removed by the test.
std::string MergeTempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/hc2l_merge_" + name +
         ".json";
}

size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(MergeBenchSectionTest, ReplacingAMiddleSectionKeepsEveryOther) {
  // The committed snapshot's order: "large_graph" sits between "route" and
  // "server_load", with "update_latency" and "parallel" after them.
  const std::string path = MergeTempPath("middle");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\n  \"bench\": \"micro_query\",\n"
           "  \"datasets\": {\"grid48\": {\"ns\": 1.5}},\n"
           "  \"route\": {\"api\": \"router\", \"hops\": [1, 2]},\n"
           "  \"large_graph\": {\n    \"shards\": 3\n  },\n"
           "  \"server_load\": {\"qps\": 9.5, \"note\": \"a } in text\"},\n"
           "  \"update_latency\": {\"datasets\": {}},\n"
           "  \"parallel\": {\"curve\": [{\"threads\": 1}]}\n}\n";
  }
  ASSERT_TRUE(MergeBenchSection(path, "large_graph", "{\"shards\": 4}"));
  ASSERT_TRUE(MergeBenchSection(path, "large_graph", "{\"shards\": 5}"));
  const std::string merged = FileBytes(path);
  std::remove(path.c_str());
  for (const char* key : {"bench", "datasets", "route", "large_graph",
                          "server_load", "update_latency", "parallel"}) {
    std::string top_level = "\n  \"";  // a member of the outer object
    top_level += key;
    top_level += "\":";
    EXPECT_EQ(Occurrences(merged, top_level), 1u) << key << " in\n" << merged;
  }
  const std::string in_place =
      "\"large_graph\": {\"shards\": 5},\n  \"server_load\": {\"qps\": 9.5";
  EXPECT_NE(merged.find(in_place), std::string::npos) << merged;
  EXPECT_EQ(merged.find("\"shards\": 3"), std::string::npos) << merged;
  EXPECT_EQ(merged.find("\"shards\": 4"), std::string::npos) << merged;
}

TEST(MergeBenchSectionTest, NewKeyIsAppended) {
  const std::string path = MergeTempPath("append");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\n  \"bench\": \"micro_query\",\n  \"queries\": 8\n}\n";
  }
  ASSERT_TRUE(MergeBenchSection(path, "parallel", "{\"threads\": [1, 2]}"));
  const std::string merged = FileBytes(path);
  std::remove(path.c_str());
  EXPECT_EQ(merged,
            "{\n  \"bench\": \"micro_query\",\n  \"queries\": 8,\n"
            "  \"parallel\": {\"threads\": [1, 2]}\n}\n");
}

TEST(MergeBenchSectionTest, MissingFileStartsFresh) {
  const std::string path = MergeTempPath("fresh");
  std::remove(path.c_str());
  ASSERT_TRUE(MergeBenchSection(path, "route", "{\"queries\": 4}"));
  const std::string merged = FileBytes(path);
  std::remove(path.c_str());
  EXPECT_EQ(merged, "{\n  \"route\": {\"queries\": 4}\n}\n");
}

TEST(MergeBenchSectionTest, NonObjectFileIsLeftAlone) {
  const std::string path = MergeTempPath("garbage");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"cut\": {\"short\": ";
  }
  EXPECT_FALSE(MergeBenchSection(path, "route", "{}"));
  const std::string kept = FileBytes(path);
  std::remove(path.c_str());
  EXPECT_EQ(kept, "{\"cut\": {\"short\": ");
}

TEST(SelectedDatasetsTest, HonoursEnvironmentFilter) {
  setenv("HC2L_BENCH_SCALE", "tiny", 1);
  setenv("HC2L_BENCH_DATASETS", "NY,EUR", 1);
  const auto specs = SelectedDatasets(WeightMode::kDistance);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "NY");
  EXPECT_EQ(specs[1].name, "EUR");
  unsetenv("HC2L_BENCH_DATASETS");
  const auto all = SelectedDatasets(WeightMode::kDistance);
  EXPECT_EQ(all.size(), 10u);
  unsetenv("HC2L_BENCH_SCALE");
}

TEST(SelectedDatasetsTest, QueryCountOverride) {
  setenv("HC2L_BENCH_QUERIES", "1234", 1);
  EXPECT_EQ(BenchQueryCount(), 1234u);
  setenv("HC2L_BENCH_QUERIES", "garbage", 1);
  EXPECT_EQ(BenchQueryCount(), 100000u);
  unsetenv("HC2L_BENCH_QUERIES");
  EXPECT_EQ(BenchQueryCount(), 100000u);
}

TEST(EvaluationDriverTest, BuildsAllMethodsAndMeasures) {
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 2;
  Graph g = GenerateRoadNetwork(opt);
  EvaluationDriver driver(g, Hc2lOptions{}, /*build_baselines=*/true);
  const auto pairs = UniformRandomPairs(g.NumVertices(), 500, 5);
  driver.MeasureQueries(pairs);
  const DatasetEvaluation& e = driver.Result();
  ASSERT_EQ(e.methods.size(), 4u);
  EXPECT_EQ(e.methods[0].name, "HC2L");
  EXPECT_EQ(e.methods[1].name, "H2H");
  EXPECT_EQ(e.methods[2].name, "PHL");
  EXPECT_EQ(e.methods[3].name, "HL");
  for (const auto& m : e.methods) {
    EXPECT_GT(m.index_bytes, 0u) << m.name;
    EXPECT_GT(m.avg_query_micros, 0.0) << m.name;
    EXPECT_GT(m.avg_hub_size, 0.0) << m.name;
  }
  // The one-to-many fast path is measured for HC2L only.
  EXPECT_GT(e.methods[0].avg_batch_target_micros, 0.0);
  EXPECT_EQ(e.methods[1].avg_batch_target_micros, 0.0);
  EXPECT_GT(e.hc2lp_build_seconds, 0.0);
  // All four methods agree on a spot check.
  for (int i = 0; i < 50; ++i) {
    const auto& [s, t] = pairs[i];
    const Dist expected = e.methods[0].query(s, t);
    for (const auto& m : e.methods) {
      ASSERT_EQ(m.query(s, t), expected) << m.name;
    }
  }
}

TEST(EvaluationDriverTest, CanSkipBaselines) {
  Graph g = MakeGrid(8, 8);
  EvaluationDriver driver(g, Hc2lOptions{}, /*build_baselines=*/false);
  EXPECT_EQ(driver.Result().methods.size(), 1u);
  EXPECT_EQ(driver.Result().methods[0].name, "HC2L");
}

}  // namespace
}  // namespace hc2l
