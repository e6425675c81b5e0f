// hc2ld serving-metrics tests. The metrics are sharded per event loop
// (src/server/metrics.h): each shard has one writer and readers merge the
// shards. These tests pin that the merge loses nothing — concurrent
// per-shard recording sums exactly, a merged histogram reports what one
// histogram fed the same samples reports — and that a live server's "info"
// counts every point line exactly once across loops.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "hc2l/hc2l.h"
#include "hc2l/server.h"
#include "server/metrics.h"
#include "server_test_util.h"

namespace hc2l {
namespace {

TEST(ServerMetricsTest, ConcurrentShardsSumExactly) {
  constexpr size_t kThreads = 4;
  constexpr uint64_t kRecordsEach = 50'000;
  ServerMetrics metrics(kThreads);
  std::atomic<bool> writing{true};
  // A reader merging while the writers record: the merge must be race-free
  // (the TSAN build runs this) even though it may see partial totals.
  std::thread reader([&] {
    std::string json;
    while (writing.load(std::memory_order_relaxed)) {
      json.clear();
      metrics.AppendInfoJson(&json);
      EXPECT_LE(metrics.requests_executed(), kThreads * kRecordsEach);
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&metrics, t] {
      ServerMetrics::Shard& shard = metrics.shard(t);
      for (uint64_t i = 0; i < kRecordsEach; ++i) {
        shard.RecordAdmitted();
        shard.RecordLatency(WireOp::kPoint, 1000 + i);
        shard.RecordCoalescedBatch(2);
        shard.RecordLoopLag(i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  writing.store(false, std::memory_order_relaxed);
  reader.join();

  const uint64_t total = kThreads * kRecordsEach;
  EXPECT_EQ(metrics.requests_admitted(), total);
  EXPECT_EQ(metrics.requests_executed(), total);
  EXPECT_EQ(metrics.coalesced_batches(), total);
  EXPECT_EQ(metrics.coalesced_requests(), 2 * total);
  std::string json;
  metrics.AppendInfoJson(&json);
  const std::string count = "{\"count\":" + std::to_string(total);
  EXPECT_NE(json.find("\"coalesce_batch_size\":" + count), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"loop_lag_ns\":" + count), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_ns\":{\"point\":" + count), std::string::npos)
      << json;
}

TEST(ServerMetricsTest, MergedHistogramMatchesOneHistogram) {
  // Samples spread over many octaves, fed to one histogram and, split
  // round-robin, to four: the merge must report the same distribution.
  std::mt19937_64 rng(7);
  LogHistogram whole;
  LogHistogram parts[4];
  for (size_t i = 0; i < 20'000; ++i) {
    const uint64_t v = rng() >> (rng() % 64);
    whole.Record(v);
    parts[i % 4].Record(v);
  }
  HistogramSnapshot one;
  whole.MergeInto(&one);
  HistogramSnapshot merged;
  for (const LogHistogram& part : parts) part.MergeInto(&merged);

  EXPECT_EQ(merged.count, 20'000u);
  EXPECT_EQ(merged.count, one.count);
  EXPECT_EQ(merged.Percentile(50), one.Percentile(50));
  EXPECT_EQ(merged.Percentile(99), one.Percentile(99));
  EXPECT_EQ(merged.max, one.max);
  std::string a;
  std::string b;
  one.AppendJson(&a);
  merged.AppendJson(&b);
  EXPECT_EQ(a, b);
}

/// The unsigned integer right after `key` in `json`; -1 when absent.
int64_t FieldAfter(const std::string& json, const std::string& key) {
  const size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return static_cast<int64_t>(
      std::strtoull(json.c_str() + at + key.size(), nullptr, 10));
}

TEST(ServerMetricsTest, LiveServerInfoCountsEveryPointLineAcrossLoops) {
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 99;
  Result<Router> router = Router::Build(GenerateRoadNetwork(opt));
  ASSERT_TRUE(router.ok());
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.reactor_threads = 2;
  Result<QueryServer> server = QueryServer::Start(*router, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Two long-lived clients land on the two loops.
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<TestClient>(server->port()));
    ASSERT_TRUE(clients.back()->connected());
    ASSERT_TRUE(clients.back()->Send("{\"op\":\"ping\"}\n"));
    ASSERT_EQ(clients.back()->ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  }
  ASSERT_TRUE(clients[0]->Send("{\"op\":\"info\"}\n"));
  ASSERT_NE(clients[0]->ReadLine().find("\"loop_connections\":[1,1]"),
            std::string::npos);

  // Both clients pipeline bursts of 16 single-pair point lines at once.
  constexpr int kBursts = 20;
  constexpr int kBurstLines = 16;
  const uint32_t n = router->NumVertices();
  std::vector<std::thread> senders;
  std::atomic<int> answered{0};
  for (int c = 0; c < 2; ++c) {
    senders.emplace_back([&, c] {
      TestClient& client = *clients[c];
      for (int b = 0; b < kBursts; ++b) {
        std::string burst;
        for (int i = 0; i < kBurstLines; ++i) {
          const uint32_t s = static_cast<uint32_t>((c * 31 + b * 7 + i) % n);
          const uint32_t t = static_cast<uint32_t>((b * 13 + i * 5) % n);
          burst += "{\"op\":\"point\",\"sources\":[" + std::to_string(s) +
                   "],\"targets\":[" + std::to_string(t) + "]}\n";
        }
        if (!client.Send(burst)) return;
        for (int i = 0; i < kBurstLines; ++i) {
          if (client.ReadLine().rfind("{\"ok\":true,\"op\":\"point\"", 0) ==
              0) {
            answered.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& s : senders) s.join();
  const int64_t sent = 2 * kBursts * kBurstLines;
  ASSERT_EQ(answered.load(), sent);

  ASSERT_TRUE(clients[1]->Send("{\"op\":\"info\"}\n"));
  const std::string info = clients[1]->ReadLine();
  EXPECT_EQ(FieldAfter(info, "\"requests_executed\":"), sent) << info;
  EXPECT_EQ(FieldAfter(info, "\"requests_admitted\":"), sent) << info;
  EXPECT_EQ(FieldAfter(info, "\"coalesced_requests\":"), sent) << info;
  EXPECT_EQ(FieldAfter(info, "\"latency_ns\":{\"point\":{\"count\":"), sent)
      << info;
  EXPECT_EQ(FieldAfter(info, "\"in_flight\":"), 0) << info;
  const QueryServer::Stats stats = server->stats();
  EXPECT_EQ(stats.requests_admitted, static_cast<uint64_t>(sent));
  EXPECT_EQ(stats.requests_coalesced, static_cast<uint64_t>(sent));
  server->Stop();
}

}  // namespace
}  // namespace hc2l
