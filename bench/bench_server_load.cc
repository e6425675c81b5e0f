// Server load bench: closed-loop multi-connection clients over real TCP
// against an in-process QueryServer, measuring end-to-end serving
// throughput and latency through the epoll reactor.
//
// Three phases:
//  - point: N connections, each pipelining bursts of single-pair point
//    requests, which the reactor coalesces (the staged lines of a burst —
//    and of concurrently ready connections — run as one engine batch); the
//    bench fails if coalescing did not engage.
//  - batch: the same closed loop with 8-target batch requests, depth 1.
//  - matrix: one connection requesting a 100x100 matrix monolithically and
//    then as a chunked stream ("stream":true), timing both round trips.
//
// The numbers are merged into BENCH_query.json as the "server_load"
// section (machine-matched absolutes).

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "benchsupport/bench_json.h"
#include "benchsupport/table_printer.h"
#include "common/timer.h"
#include "graph/road_network_generator.h"
#include "hc2l/hc2l.h"
#include "hc2l/server.h"
#include "server/wire.h"

namespace {

using namespace hc2l;

/// Deterministic per-thread pair stream (splitmix64); the same seeds are
/// replayed in the coalesced and uncoalesced runs so both serve the exact
/// same request sequence.
struct PairStream {
  uint64_t state;
  size_t n;
  explicit PairStream(uint64_t seed, size_t num_vertices)
      : state(seed), n(num_vertices) {}
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint32_t Vertex() { return static_cast<uint32_t>(Next() % n); }
};

int ConnectTo(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until `lines` newline characters have arrived. Returns false on a
/// closed connection.
bool ReadLines(int fd, size_t lines, std::string* buf) {
  size_t seen = 0;
  size_t scanned = 0;
  for (;;) {
    for (; scanned < buf->size(); ++scanned) {
      if ((*buf)[scanned] == '\n' && ++seen == lines) return true;
    }
    char chunk[1 << 16];
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
}

struct PhaseResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t requests = 0;
};

double PercentileUs(std::vector<double>* latencies_ns, double q) {
  if (latencies_ns->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(latencies_ns->size() - 1));
  std::nth_element(latencies_ns->begin(), latencies_ns->begin() + idx,
                   latencies_ns->end());
  return (*latencies_ns)[idx] / 1e3;
}

/// Closed-loop phase: `connections` client threads, each sending `bursts`
/// pipelined groups of `depth` request lines (from `make_line`) and reading
/// the matching `depth` response lines before the next group. Latency is
/// per burst; qps counts individual requests.
PhaseResult RunClosedLoop(uint16_t port, size_t connections, size_t bursts,
                          size_t depth, size_t num_vertices,
                          std::string (*make_line)(PairStream*)) {
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> failed{false};
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const int fd = ConnectTo(port);
      if (fd < 0) {
        failed.store(true);
        ready.fetch_add(1);
        return;
      }
      latencies[c].reserve(bursts);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      PairStream pairs(0x5eed0000 + c, num_vertices);
      std::string request;
      std::string response;
      for (size_t b = 0; b < bursts && !failed.load(); ++b) {
        request.clear();
        for (size_t d = 0; d < depth; ++d) request += make_line(&pairs);
        response.clear();
        Timer timer;
        if (!SendAll(fd, request) || !ReadLines(fd, depth, &response)) {
          failed.store(true);
          break;
        }
        latencies[c].push_back(timer.Seconds() * 1e9);
        if (response.compare(0, 10, "{\"ok\":true") != 0) failed.store(true);
      }
      close(fd);
    });
  }
  while (ready.load() < connections) {
  }
  Timer wall;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double seconds = wall.Seconds();
  if (failed.load()) {
    std::fprintf(stderr, "FATAL: a load connection failed\n");
    std::exit(1);
  }
  PhaseResult result;
  std::vector<double> all;
  for (auto& per_conn : latencies) {
    result.requests += per_conn.size() * depth;
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  result.qps = seconds > 0 ? static_cast<double>(result.requests) / seconds
                           : 0.0;
  result.p50_us = PercentileUs(&all, 0.50);
  result.p99_us = PercentileUs(&all, 0.99);
  return result;
}

std::string PointLine(PairStream* pairs) {
  char line[96];
  std::snprintf(line, sizeof(line),
                "{\"op\":\"point\",\"sources\":[%u],\"targets\":[%u]}\n",
                pairs->Vertex(), pairs->Vertex());
  return line;
}

std::string BatchLine(PairStream* pairs) {
  std::string line = "{\"op\":\"batch\",\"source\":" +
                     std::to_string(pairs->Vertex()) + ",\"targets\":[";
  for (int t = 0; t < 8; ++t) {
    if (t > 0) line += ',';
    line += std::to_string(pairs->Vertex());
  }
  line += "]}\n";
  return line;
}

/// One matrix request round trip in milliseconds (best of `reps`). With
/// `stream` the response arrives as header + chunk frames + trailer and is
/// reassembled client-side; the reassembled entry count is verified.
double MeasureMatrixMs(uint16_t port, size_t side, size_t num_vertices,
                       bool stream, int reps) {
  const int fd = ConnectTo(port);
  if (fd < 0) {
    std::fprintf(stderr, "FATAL: matrix connect failed\n");
    std::exit(1);
  }
  PairStream pairs(0x3a7, num_vertices);
  std::string request = "{\"op\":\"matrix\",\"sources\":[";
  for (size_t i = 0; i < side; ++i) {
    if (i > 0) request += ',';
    request += std::to_string(pairs.Vertex());
  }
  request += "],\"targets\":[";
  for (size_t i = 0; i < side; ++i) {
    if (i > 0) request += ',';
    request += std::to_string(pairs.Vertex());
  }
  request += stream ? "],\"stream\":true}\n" : "]}\n";

  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::string response;
    Timer timer;
    if (!SendAll(fd, request)) {
      std::fprintf(stderr, "FATAL: matrix send failed\n");
      std::exit(1);
    }
    if (stream) {
      StreamReassembler reassembler;
      size_t start = 0;
      while (!reassembler.done()) {
        size_t nl;
        while ((nl = response.find('\n', start)) == std::string::npos) {
          char chunk[1 << 16];
          const ssize_t r = recv(fd, chunk, sizeof(chunk), 0);
          if (r < 0 && errno == EINTR) continue;
          if (r <= 0) {
            std::fprintf(stderr, "FATAL: stream closed early\n");
            std::exit(1);
          }
          response.append(chunk, static_cast<size_t>(r));
        }
        const Status fed = reassembler.Feed(
            std::string_view(response).substr(start, nl - start));
        if (!fed.ok()) {
          std::fprintf(stderr, "FATAL: stream frame rejected: %s\n",
                       fed.ToString().c_str());
          std::exit(1);
        }
        start = nl + 1;
      }
      if (reassembler.distances().size() != side * side) {
        std::fprintf(stderr, "FATAL: stream reassembled %zu of %zu entries\n",
                     reassembler.distances().size(), side * side);
        std::exit(1);
      }
    } else if (!ReadLines(fd, 1, &response) ||
               response.compare(0, 10, "{\"ok\":true") != 0) {
      std::fprintf(stderr, "FATAL: matrix response: %.80s\n",
                   response.c_str());
      std::exit(1);
    }
    const double ms = timer.Seconds() * 1e3;
    if (rep == 0 || ms < best) best = ms;
  }
  close(fd);
  return best;
}

}  // namespace

int main() {
  const bool fast = std::getenv("HC2L_BENCH_FAST") != nullptr;
  const size_t kConnections = fast ? 8 : 16;
  const size_t kBursts = fast ? 60 : 200;
  const size_t kDepth = 16;
  const size_t kMatrixSide = 100;

  RoadNetworkOptions opt;
  opt.rows = 48;
  opt.cols = 48;
  opt.seed = 2026;
  const Graph g = GenerateRoadNetwork(opt);
  const size_t n = g.NumVertices();

  std::printf("=== Server load: reactor throughput over real TCP ===\n");
  std::printf("graph: %zu vertices; %zu connections x %zu bursts x depth "
              "%zu\n\n",
              n, kConnections, kBursts, kDepth);

  BuildOptions build;
  build.num_threads = 0;
  Result<Router> router = Router::Build(g, build);
  if (!router.ok()) {
    std::fprintf(stderr, "FATAL: build failed\n");
    return 1;
  }

  // A deliberately small serving configuration: 2 event loops and a
  // 2-thread engine make per-request dispatch the bottleneck, which is
  // exactly the overhead coalescing amortizes.
  ServerOptions options;
  options.port = 0;
  options.num_threads = 2;
  options.reactor_threads = 2;
  Result<QueryServer> server = QueryServer::Start(*router, options);
  if (!server.ok()) {
    std::fprintf(stderr, "FATAL: server start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  PhaseResult coalesced;
  for (int rep = 0; rep < 3; ++rep) {
    const PhaseResult r = RunClosedLoop(server->port(), kConnections, kBursts,
                                        kDepth, n, PointLine);
    if (rep == 0 || r.qps > coalesced.qps) coalesced = r;
  }
  const QueryServer::Stats stats = server->stats();
  if (stats.requests_coalesced == 0 || stats.coalesced_batches == 0 ||
      stats.coalesced_batches >= stats.requests_coalesced) {
    std::fprintf(stderr,
                 "FATAL: coalescing did not engage (coalesced=%llu "
                 "batches=%llu)\n",
                 static_cast<unsigned long long>(stats.requests_coalesced),
                 static_cast<unsigned long long>(stats.coalesced_batches));
    return 1;
  }

  // Batch and matrix phases on the same server.
  const PhaseResult batch = RunClosedLoop(server->port(), kConnections,
                                          kBursts, 1, n, BatchLine);
  const double matrix_ms =
      MeasureMatrixMs(server->port(), kMatrixSide, n, false, 3);
  const double stream_ms =
      MeasureMatrixMs(server->port(), kMatrixSide, n, true, 3);
  server->Stop();

  TablePrinter table({"Metric", "Value"});
  table.AddRow({"point qps, coalesced", FormatDouble(coalesced.qps, 0)});
  table.AddRow({"burst p50 [us]", FormatDouble(coalesced.p50_us, 1)});
  table.AddRow({"burst p99 [us]", FormatDouble(coalesced.p99_us, 1)});
  table.AddRow({"batch qps (8 targets)", FormatDouble(batch.qps, 0)});
  table.AddRow({"matrix 100x100 [ms]", FormatDouble(matrix_ms, 3)});
  table.AddRow({"matrix 100x100 streamed [ms]", FormatDouble(stream_ms, 3)});
  table.Print();

  char section[768];
  std::snprintf(
      section, sizeof(section),
      "{\n"
      "    \"api\": \"router\",\n"
      "    \"connections\": %zu,\n"
      "    \"pipeline_depth\": %zu,\n"
      "    \"point_requests\": %llu,\n"
      "    \"qps_coalesced\": %.1f,\n"
      "    \"burst_p50_us\": %.1f,\n"
      "    \"burst_p99_us\": %.1f,\n"
      "    \"batch_qps\": %.1f,\n"
      "    \"matrix_ms\": %.3f,\n"
      "    \"stream_matrix_ms\": %.3f\n  }",
      kConnections, kDepth,
      static_cast<unsigned long long>(coalesced.requests), coalesced.qps,
      coalesced.p50_us, coalesced.p99_us, batch.qps, matrix_ms, stream_ms);
  const char* json = std::getenv("HC2L_BENCH_JSON");
  const std::string path = json != nullptr ? json : "BENCH_query.json";
  if (!MergeBenchSection(path, "server_load", section)) return 1;
  std::printf("merged server_load section into %s\n", path.c_str());
  return 0;
}
