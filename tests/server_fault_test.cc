// Chaos suite for the serving path. Two layers:
//
//  - Always-on robustness cases: overload storms shed cleanly (every request
//    is answered or shed, never dropped or queued unboundedly), graceful
//    drain answers pipelined requests, hot reload swaps the index under a
//    live connection and keeps the old index serving when the new file is
//    bad, and a server lifecycle leaks neither fds nor threads.
//
//  - Fault-injection cases, live only when the build defines
//    HC2L_FAULT_INJECTION (CMake -DHC2L_FAULT_INJECTION=ON; the dedicated CI
//    matrix entry): short reads, EINTR storms, peer EOF mid-request, send
//    failures, wire-parser faults and index-load read faults — each must
//    degrade to an error response or a clean disconnect, never a crash, and
//    the server must serve normally afterwards. They GTEST_SKIP on regular
//    builds.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "hc2l/hc2l.h"
#include "hc2l/server.h"
#include "server_test_util.h"

namespace hc2l {
namespace {

namespace fi = ::hc2l::testing;

Graph ChaosGraph(uint64_t seed = 99) {
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = seed;
  return GenerateRoadNetwork(opt);
}

/// Open descriptors of this process — the fd-hygiene oracle.
size_t OpenFdCount() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count > 3 ? count - 3 : 0;  // ".", "..", the opendir fd itself
}

/// Threads of this process, from /proc/self/status; 0 if unreadable.
size_t ThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  size_t threads = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %zu", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest() {
    fi::FaultInjector::Instance().Reset();
    Result<Router> built = Router::Build(ChaosGraph());
    EXPECT_TRUE(built.ok());
    router_ = std::make_unique<Router>(std::move(built).value());
  }
  ~ChaosTest() override { fi::FaultInjector::Instance().Reset(); }

  std::unique_ptr<Router> router_;
};

// ------------------------------------------------------ always-on chaos ---

TEST_F(ChaosTest, OverloadStormAnswersOrShedsEveryRequest) {
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.limits.max_in_flight = 1;
  options.limits.retry_after_ms = 7;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr int kClients = 6;
  constexpr int kRequestsEach = 30;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::atomic<int> bad_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(server->port());
      if (!client.connected()) {
        bad_count += kRequestsEach;
        return;
      }
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::string line = "{\"op\":\"matrix\",\"sources\":[0,1,2,3],"
                                 "\"targets\":[4,5,6,7]}\n";
        if (!client.Send(line)) {
          ++bad_count;
          continue;
        }
        const std::string response = client.ReadLine();
        if (response.find("{\"ok\":true,\"op\":\"matrix\"") == 0) {
          ++ok_count;
        } else if (response.find("{\"ok\":false,\"code\":\"Overloaded\","
                                 "\"retry_after_ms\":7") == 0) {
          ++shed_count;
        } else {
          ADD_FAILURE() << "client " << c << ": " << response;
          ++bad_count;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(bad_count.load(), 0);
  EXPECT_EQ(ok_count.load() + shed_count.load(), kClients * kRequestsEach)
      << "every request is answered or shed, none dropped";
  const QueryServer::Stats stats = server->stats();
  EXPECT_EQ(stats.requests_admitted + stats.requests_shed,
            static_cast<uint64_t>(kClients * kRequestsEach));
  EXPECT_EQ(stats.requests_admitted, static_cast<uint64_t>(ok_count.load()));
  EXPECT_EQ(stats.requests_shed, static_cast<uint64_t>(shed_count.load()));
  EXPECT_EQ(stats.in_flight, 0u);
  server->Stop();
}

TEST_F(ChaosTest, ConnectionLimitShedsWithOverloadedLine) {
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.limits.max_connections = 1;
  options.limits.retry_after_ms = 11;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());

  TestClient first(server->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.Send("{\"op\":\"ping\"}\n"));
  ASSERT_EQ(first.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");

  // The slot is taken: the second connection gets one Overloaded line and
  // an immediate close instead of silently waiting in a backlog.
  TestClient second(server->port());
  ASSERT_TRUE(second.connected());
  const std::string shed = second.ReadLine();
  EXPECT_EQ(shed.find("{\"ok\":false,\"code\":\"Overloaded\","
                      "\"retry_after_ms\":11"),
            0u)
      << shed;
  EXPECT_EQ(second.ReadLine(), "<connection closed>");
  EXPECT_GE(server->stats().connections_shed, 1u);
  server->Stop();
}

TEST_F(ChaosTest, DrainAnswersPipelinedRequestsThenExits) {
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  // Handshake before the burst: connect() succeeds once the kernel queues
  // the connection, but one still sitting in the listen backlog at drain
  // time is closed unserved. An answered ping pins it as accepted.
  ASSERT_TRUE(client.Send("{\"op\":\"ping\"}\n"));
  ASSERT_EQ(client.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  // One burst of pipelined requests, then an immediate drain: everything
  // already received (mostly still in the socket buffer) must be answered
  // before the connection closes.
  constexpr int kPipelined = 50;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    burst += "{\"op\":\"batch\",\"source\":0,\"targets\":[" +
             std::to_string(1 + i % 9) + "]}\n";
  }
  ASSERT_TRUE(client.Send(burst));

  EXPECT_TRUE(server->Drain(std::chrono::seconds(10)));
  for (int i = 0; i < kPipelined; ++i) {
    EXPECT_EQ(client.ReadLine().find("{\"ok\":true,\"op\":\"batch\""), 0u)
        << "pipelined request " << i << " lost in the drain";
  }
  EXPECT_EQ(client.ReadLine(), "<connection closed>");
  server->Stop();  // idempotent after a drain
}

TEST_F(ChaosTest, DrainWithZeroBudgetStillStopsCleanly) {
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient idle(server->port());
  ASSERT_TRUE(idle.connected());
  // Whatever the budget verdict, Drain must return (no hang), close every
  // connection, and leave the server stopped.
  server->Drain(std::chrono::milliseconds(0));
  EXPECT_EQ(idle.ReadLine(), "<connection closed>");
  server->Wait();  // must not block: the server is stopped
}

TEST_F(ChaosTest, ReloadSwapsIndexAndSurvivesCorruptFile) {
  // A second index whose distances differ from the first observably.
  Result<Router> other_built = Router::Build(ChaosGraph(/*seed=*/7));
  ASSERT_TRUE(other_built.ok());
  Router other = std::move(other_built).value();
  Vertex probe_t = kInvalidVertex;
  for (Vertex t = 1; t < 100; ++t) {
    if (*router_->Distance(0, t) != *other.Distance(0, t)) {
      probe_t = t;
      break;
    }
  }
  ASSERT_NE(probe_t, kInvalidVertex) << "seeds produced identical distances";
  const std::string other_path =
      ::testing::TempDir() + "/hc2l_chaos_reload.idx";
  ASSERT_TRUE(other.Save(other_path).ok());

  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  const std::string query = "{\"op\":\"batch\",\"source\":0,\"targets\":[" +
                            std::to_string(probe_t) + "]}\n";
  const std::string before = "{\"ok\":true,\"op\":\"batch\",\"distances\":[" +
                             std::to_string(*router_->Distance(0, probe_t)) +
                             "]}";
  const std::string after = "{\"ok\":true,\"op\":\"batch\",\"distances\":[" +
                            std::to_string(*other.Distance(0, probe_t)) +
                            "]}";
  ASSERT_TRUE(client.Send(query));
  EXPECT_EQ(client.ReadLine(), before);

  // Hot swap over the SAME connection: the next request answers from the
  // new index.
  ASSERT_TRUE(client.Send("{\"op\":\"reload\",\"path\":\"" + other_path +
                          "\"}\n"));
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"reload\",\"epoch\":1}");
  EXPECT_EQ(server->epoch(), 1u);
  ASSERT_TRUE(client.Send(query));
  EXPECT_EQ(client.ReadLine(), after);

  // Corrupt the file on disk: the reload fails, the epoch does not move,
  // and the server keeps answering from the index it already has.
  {
    std::FILE* f = std::fopen(other_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("HC2L0002 but truncated garbage", f);
    std::fclose(f);
  }
  ASSERT_TRUE(client.Send("{\"op\":\"reload\",\"path\":\"" + other_path +
                          "\"}\n"));
  EXPECT_EQ(client.ReadLine().find("{\"ok\":false"), 0u);
  EXPECT_EQ(server->epoch(), 1u);
  ASSERT_TRUE(client.Send(query));
  EXPECT_EQ(client.ReadLine(), after);

  // A reload with no path and no configured index_path is a clean error.
  ASSERT_TRUE(client.Send("{\"op\":\"reload\"}\n"));
  EXPECT_EQ(client.ReadLine().find(
                "{\"ok\":false,\"code\":\"InvalidArgument\""),
            0u);
  EXPECT_EQ(server->stats().reloads, 1u);
  std::remove(other_path.c_str());
  server->Stop();
}

TEST_F(ChaosTest, ReloadLeavesNoStaleSnapshotOnAnIdleLoop) {
  // Each loop holds a serving snapshot only while it handles a batch. After
  // a reload, the old snapshot — and its engine's worker pool — must die
  // even though one loop stays idle: the process thread count returns to
  // what it was before the reload (the new pool replaces the old one).
  Result<Router> other_built = Router::Build(ChaosGraph(/*seed=*/7));
  ASSERT_TRUE(other_built.ok());
  const std::string other_path =
      ::testing::TempDir() + "/hc2l_chaos_snapshot_lifetime.idx";
  ASSERT_TRUE(other_built->Save(other_path).ok());

  ServerOptions options;
  options.port = 0;
  options.num_threads = 3;  // two pool workers per engine
  options.reactor_threads = 2;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient busy(server->port());
  TestClient idle(server->port());
  // Both loops serve a query, so both have held the first snapshot.
  for (TestClient* client : {&busy, &idle}) {
    ASSERT_TRUE(client->connected());
    ASSERT_TRUE(
        client->Send("{\"op\":\"batch\",\"source\":0,\"targets\":[1]}\n"));
    ASSERT_EQ(client->ReadLine().find("{\"ok\":true"), 0u);
  }
  ASSERT_TRUE(busy.Send("{\"op\":\"info\"}\n"));
  ASSERT_NE(busy.ReadLine().find("\"loop_connections\":[1,1]"),
            std::string::npos);

  const size_t threads_before = ThreadCount();
  ASSERT_GT(threads_before, 0u);
  ASSERT_TRUE(busy.Send("{\"op\":\"reload\",\"path\":\"" + other_path +
                        "\"}\n"));
  EXPECT_EQ(busy.ReadLine(), "{\"ok\":true,\"op\":\"reload\",\"epoch\":1}");
  EXPECT_TRUE(WaitFor([&] { return ThreadCount() == threads_before; },
                      std::chrono::seconds(2)))
      << "threads before the reload: " << threads_before
      << ", now: " << ThreadCount() << " (an old engine pool is still alive)";
  std::remove(other_path.c_str());
  server->Stop();
}

TEST_F(ChaosTest, UpdateWeightsSwapsEpochAndFailureKeepsServing) {
  // The always-on contract of the update_weights verb: a successful live
  // repair swaps the snapshot with an epoch bump; any failed update — bad
  // edge, bad weight — leaves the snapshot, the epoch and the connection
  // exactly as they were.
  const Graph g = ChaosGraph();
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  const Edge edge = g.UndirectedEdges()[3];
  const std::vector<EdgeDelta> deltas = {{edge.u, edge.v, 5555}};
  Result<Router> expected = router_->UpdateWeights(deltas);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::string query = "{\"op\":\"batch\",\"source\":" +
                            std::to_string(edge.u) + ",\"targets\":[" +
                            std::to_string(edge.v) + "]}\n";
  const std::string after = "{\"ok\":true,\"op\":\"batch\",\"distances\":[" +
                            std::to_string(*expected->Distance(edge.u,
                                                               edge.v)) +
                            "]}";

  ASSERT_TRUE(client.Send("{\"op\":\"update_weights\",\"edges\":[[" +
                          std::to_string(edge.u) + "," +
                          std::to_string(edge.v) + ",5555]]}\n"));
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"update_weights\",\"epoch\":1}");
  EXPECT_EQ(server->epoch(), 1u);
  ASSERT_TRUE(client.Send(query));
  EXPECT_EQ(client.ReadLine(), after);

  // Zero weight and a non-edge both fail without moving the epoch; the
  // same connection keeps answering from the updated snapshot.
  ASSERT_TRUE(client.Send("{\"op\":\"update_weights\",\"edges\":[[" +
                          std::to_string(edge.u) + "," +
                          std::to_string(edge.v) + ",0]]}\n"));
  EXPECT_EQ(client.ReadLine().find(
                "{\"ok\":false,\"code\":\"InvalidArgument\""),
            0u);
  ASSERT_TRUE(
      client.Send("{\"op\":\"update_weights\",\"edges\":[[0,99,12]]}\n"));
  EXPECT_EQ(client.ReadLine().find(
                "{\"ok\":false,\"code\":\"InvalidArgument\""),
            0u);
  EXPECT_EQ(server->epoch(), 1u);
  EXPECT_EQ(server->stats().weight_updates, 1u);
  ASSERT_TRUE(client.Send(query));
  EXPECT_EQ(client.ReadLine(), after);

  // The programmatic surface serializes with the wire path and bumps the
  // same epoch.
  const std::vector<EdgeDelta> revert = {{edge.u, edge.v, edge.weight}};
  ASSERT_TRUE(server->UpdateWeights(revert).ok());
  EXPECT_EQ(server->epoch(), 2u);
  EXPECT_EQ(server->stats().weight_updates, 2u);
  server->Stop();
}

/// The exact wire response line the given router would answer a k<=1
/// route query with — the oracle for route-after-update checks.
std::string ExpectedRouteLine(const Router& r, Vertex s, Vertex t) {
  RoutePath p;
  EXPECT_TRUE(r.Route(s, t, &p).ok());
  std::string out = "{\"ok\":true,\"op\":\"route\",\"distance\":" +
                    std::to_string(p.weight) + ",\"vertices\":[";
  for (size_t i = 0; i < p.vertices.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(p.vertices[i]);
  }
  return out + "]}";
}

TEST_F(ChaosTest, RoutesRerouteAfterUpdateAndSurviveFailedUpdate) {
  // The route verb under live weight updates: a successful update_weights
  // swap must answer subsequent routes from the repaired snapshot (weight
  // equal to the new distance, path avoiding the now-expensive edge), and a
  // failed update must leave route serving exactly as it was.
  const Graph g = ChaosGraph();
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  const Edge edge = g.UndirectedEdges()[3];
  const std::string route_query = "{\"op\":\"route\",\"source\":" +
                                  std::to_string(edge.u) + ",\"target\":" +
                                  std::to_string(edge.v) + "}\n";
  ASSERT_TRUE(client.Send(route_query));
  EXPECT_EQ(client.ReadLine(), ExpectedRouteLine(*router_, edge.u, edge.v));

  // Make the edge prohibitively heavy; the repaired facade copy is the
  // oracle for both the new distance and the new path.
  const std::vector<EdgeDelta> deltas = {{edge.u, edge.v, 5555}};
  Result<Router> expected = router_->UpdateWeights(deltas);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(client.Send("{\"op\":\"update_weights\",\"edges\":[[" +
                          std::to_string(edge.u) + "," +
                          std::to_string(edge.v) + ",5555]]}\n"));
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"update_weights\",\"epoch\":1}");

  const std::string rerouted = ExpectedRouteLine(*expected, edge.u, edge.v);
  ASSERT_TRUE(client.Send(route_query));
  EXPECT_EQ(client.ReadLine(), rerouted);
  // The reported weight really is the post-update distance.
  RoutePath repaired_route;
  ASSERT_TRUE(expected->Route(edge.u, edge.v, &repaired_route).ok());
  EXPECT_EQ(repaired_route.weight, *expected->Distance(edge.u, edge.v));

  // A failed update (non-edge) moves nothing: same epoch, same routes.
  ASSERT_TRUE(
      client.Send("{\"op\":\"update_weights\",\"edges\":[[0,99,12]]}\n"));
  EXPECT_EQ(client.ReadLine().find(
                "{\"ok\":false,\"code\":\"InvalidArgument\""),
            0u);
  EXPECT_EQ(server->epoch(), 1u);
  ASSERT_TRUE(client.Send(route_query));
  EXPECT_EQ(client.ReadLine(), rerouted);
  server->Stop();
}

TEST_F(ChaosTest, ServerLifecycleLeaksNoFdsOrThreads) {
  const size_t fds_before = OpenFdCount();
  for (int round = 0; round < 3; ++round) {
    ServerOptions options;
    options.port = 0;
    options.num_threads = 1;
    Result<QueryServer> server = QueryServer::Start(*router_, options);
    ASSERT_TRUE(server.ok());
    for (int i = 0; i < 10; ++i) {
      TestClient client(server->port());
      ASSERT_TRUE(client.connected());
      ASSERT_TRUE(client.Send("{\"op\":\"ping\"}\n"));
      ASSERT_EQ(client.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
    }
    server->Stop();
  }
  EXPECT_EQ(OpenFdCount(), fds_before)
      << "server lifecycle leaked file descriptors";
}

// -------------------------------------------------- injected-fault chaos ---

#define SKIP_WITHOUT_FAULT_INJECTION()                                  \
  if (!fi::FaultInjector::kEnabled) {                                   \
    GTEST_SKIP() << "build without -DHC2L_FAULT_INJECTION=ON: fault "   \
                    "points are compiled out";                          \
  }

TEST_F(ChaosTest, ShortReadsAndEintrStillServeCorrectly) {
  SKIP_WITHOUT_FAULT_INJECTION();
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  // A burst of EINTRs first, then every read clamped to 3 bytes: the
  // request must still assemble and answer byte-identically.
  fi::FaultSpec eintr;
  eintr.inject_errno = EINTR;
  eintr.fire_count = 4;
  fi::FaultInjector::Instance().Arm("server.recv", eintr);
  ASSERT_TRUE(client.Send("{\"op\":\"batch\",\"source\":0,\"targets\":[1]}\n"));
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"batch\",\"distances\":[" +
                std::to_string(*router_->Distance(0, 1)) + "]}");
  EXPECT_GE(fi::FaultInjector::Instance().Hits("server.recv"), 5u);

  fi::FaultSpec clamp;
  clamp.clamp_bytes = 3;
  fi::FaultInjector::Instance().Arm("server.recv", clamp);
  ASSERT_TRUE(client.Send("{\"op\":\"batch\",\"source\":0,\"targets\":[2]}\n"));
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"batch\",\"distances\":[" +
                std::to_string(*router_->Distance(0, 2)) + "]}");
  fi::FaultInjector::Instance().Reset();
  server->Stop();
}

TEST_F(ChaosTest, InjectedPeerEofDisconnectsCleanly) {
  SKIP_WITHOUT_FAULT_INJECTION();
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());

  fi::FaultSpec eof;
  eof.inject_eof = true;
  eof.fire_count = 1;
  fi::FaultInjector::Instance().Arm("server.recv", eof);
  {
    TestClient client(server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send("{\"op\":\"ping\"}\n"));
    // The server saw EOF instead of the request: clean close, no answer.
    EXPECT_EQ(client.ReadLine(), "<connection closed>");
  }
  fi::FaultInjector::Instance().Reset();
  // The server is unharmed: the next connection serves normally.
  TestClient next(server->port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.Send("{\"op\":\"ping\"}\n"));
  EXPECT_EQ(next.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  server->Stop();
}

TEST_F(ChaosTest, InjectedSendFailureDropsOnlyThatConnection) {
  SKIP_WITHOUT_FAULT_INJECTION();
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());

  fi::FaultSpec broken;
  broken.inject_errno = EPIPE;
  broken.fire_count = 1;
  fi::FaultInjector::Instance().Arm("server.send", broken);
  {
    TestClient client(server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send("{\"op\":\"ping\"}\n"));
    EXPECT_EQ(client.ReadLine(), "<connection closed>");
  }
  fi::FaultInjector::Instance().Reset();
  TestClient next(server->port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.Send("{\"op\":\"ping\"}\n"));
  EXPECT_EQ(next.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  server->Stop();
}

TEST_F(ChaosTest, InjectedParserFaultBecomesErrorResponse) {
  SKIP_WITHOUT_FAULT_INJECTION();
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  fi::FaultSpec parse;
  parse.fire_count = 1;
  fi::FaultInjector::Instance().Arm("wire.parse", parse);
  ASSERT_TRUE(client.Send("{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n"));
  const std::string faulted = client.ReadLine();
  EXPECT_EQ(faulted.find("{\"ok\":false"), 0u) << faulted;
  EXPECT_NE(faulted.find("injected wire-parse fault"), std::string::npos);
  // The connection survives; the next pipelined request answers normally.
  EXPECT_EQ(client.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  fi::FaultInjector::Instance().Reset();
  server->Stop();
}

TEST_F(ChaosTest, InjectedLoadFaultFailsReloadButKeepsServing) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const std::string path = ::testing::TempDir() + "/hc2l_chaos_loadfault.idx";
  ASSERT_TRUE(router_->Save(path).ok());

  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.index_path = path;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  // Every file read fails: the reload of a perfectly good file errors out
  // and the resident index keeps serving.
  fi::FaultInjector::Instance().Arm("index.load.read", fi::FaultSpec{});
  ASSERT_TRUE(client.Send("{\"op\":\"reload\"}\n"));
  EXPECT_EQ(client.ReadLine().find("{\"ok\":false"), 0u);
  EXPECT_EQ(server->epoch(), 0u);
  ASSERT_TRUE(client.Send("{\"op\":\"batch\",\"source\":0,\"targets\":[1]}\n"));
  EXPECT_EQ(client.ReadLine().find("{\"ok\":true"), 0u);

  // Faults cleared, the same reload succeeds.
  fi::FaultInjector::Instance().Reset();
  ASSERT_TRUE(client.Send("{\"op\":\"reload\"}\n"));
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"reload\",\"epoch\":1}");
  std::remove(path.c_str());
  server->Stop();
}

TEST_F(ChaosTest, InjectedRepairFaultFailsUpdateButKeepsServing) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const Graph g = ChaosGraph();
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  const Edge edge = g.UndirectedEdges()[0];
  const std::string update = "{\"op\":\"update_weights\",\"edges\":[[" +
                             std::to_string(edge.u) + "," +
                             std::to_string(edge.v) + ",4444]]}\n";

  // The repair itself dies mid-update: the standby clone is discarded, the
  // serving snapshot and epoch stay put, the connection stays usable.
  fi::FaultSpec repair;
  repair.fire_count = 1;
  fi::FaultInjector::Instance().Arm("index.repair", repair);
  ASSERT_TRUE(client.Send(update));
  const std::string faulted = client.ReadLine();
  EXPECT_EQ(faulted.find("{\"ok\":false"), 0u) << faulted;
  EXPECT_NE(faulted.find("injected index-repair fault"), std::string::npos);
  EXPECT_EQ(server->epoch(), 0u);
  EXPECT_EQ(server->stats().weight_updates, 0u);
  ASSERT_TRUE(client.Send("{\"op\":\"batch\",\"source\":0,\"targets\":[1]}\n"));
  EXPECT_EQ(client.ReadLine().find("{\"ok\":true"), 0u);

  // Fault cleared, the very same update succeeds.
  fi::FaultInjector::Instance().Reset();
  ASSERT_TRUE(client.Send(update));
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"update_weights\",\"epoch\":1}");
  EXPECT_EQ(server->epoch(), 1u);
  server->Stop();
}

}  // namespace
}  // namespace hc2l
