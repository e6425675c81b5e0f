// hc2ld — the HC2L serving daemon: opens a serialized index (either format,
// sniffed by Router::Open) and serves line-delimited-JSON distance queries
// over TCP.
//
//   hc2ld --index city.idx --port 8040 [--host 127.0.0.1] [--threads 0]
//         [--workers 0] [--graph city.gr]
//         [--max-connections N] [--max-in-flight N]
//         [--drain-ms MS] [--idle-timeout-ms MS] [--read-timeout-ms MS]
//         [--max-requests-per-connection N]
//
// Prints one "hc2ld listening on HOST:PORT ..." line once ready (stdout,
// flushed — scripts can wait for it), then blocks. --port 0 binds an
// ephemeral port and prints the actual one. Wire protocol: docs/server.md;
// smoke-test counterpart: `hc2l client`.
//
// Signals (the systemd/Kubernetes lifecycle):
//   SIGTERM  graceful drain: stop accepting, answer every request already
//            received, exit 0 — within --drain-ms (default 5000), after
//            which stragglers are cut and the exit code is still 0.
//   SIGINT   immediate stop (Ctrl-C): disconnect everyone, exit 0.
//   SIGHUP   hot reload: reopen --index into a fresh serving snapshot and
//            swap it in; on any error the old index keeps serving and the
//            failure is logged to stderr. Same swap as the wire's
//            {"op":"reload"}.
//
// --graph names the DIMACS graph the index was built from; it enables the
// {"op":"update_weights"} wire verb (live scoped label repair) and is
// re-read on every reload so weight updates keep working across index
// swaps. Without it, update_weights requests fail with FailedPrecondition
// while everything else serves normally.

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "graph/dimacs_io.h"
#include "hc2l/hc2l.h"
#include "hc2l/server.h"

namespace {

// Self-pipe: the signal handler only writes one byte naming the signal; the
// main thread blocks on the read end and performs the actual (not
// async-signal-safe) drain/stop/reload.
int g_signal_pipe[2] = {-1, -1};

constexpr char kByteTerm = 't';
constexpr char kByteInt = 'i';
constexpr char kByteHup = 'h';

void WriteSignalByte(char byte) {
  // Best effort; a full pipe means enough shutdown bytes are pending.
  [[maybe_unused]] const ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

void OnTerm(int) { WriteSignalByte(kByteTerm); }
void OnInt(int) { WriteSignalByte(kByteInt); }
void OnHup(int) { WriteSignalByte(kByteHup); }

const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Parses a non-negative integer flag into *out; false (with a message) on
/// a malformed or out-of-range value.
bool UintFlag(int argc, char** argv, const char* name, long max, long* out) {
  const char* value = FlagValue(argc, argv, name);
  if (value == nullptr) return true;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0 || parsed > max) {
    std::fprintf(stderr, "error: %s must be an integer in [0, %ld]\n", name,
                 max);
    return false;
  }
  *out = parsed;
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: hc2ld --index FILE [--port P] [--host H] [--threads T]\n"
      "             [--workers W] [--mmap] [--graph FILE]\n"
      "             [--max-connections N] [--max-in-flight N]\n"
      "             [--idle-timeout-ms MS] [--read-timeout-ms MS]\n"
      "             [--max-requests-per-connection N] [--drain-ms MS]\n"
      "  --graph enables the update_weights op (live weight repair) by\n"
      "  attaching the DIMACS graph the index was built from.\n"
      "  --mmap maps the index's label arenas in place (OpenMode::kMmap),\n"
      "  for open and for every reload.\n"
      "  --port 0 (default) binds an ephemeral port; the chosen port is "
      "printed.\n"
      "  --threads 0 (default) uses all hardware threads for the shared "
      "query engine.\n"
      "  --workers W runs W event loops; each reads, executes and answers\n"
      "  the connections placed on it (0, the default, picks\n"
      "  clamp(cores/2, 2, 8));\n"
      "  Limit flags default to the library's ServerLimits; 0 disables the "
      "limit.\n"
      "  SIGTERM drains gracefully within --drain-ms (default 5000); "
      "SIGHUP hot-reloads --index.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* index_path = FlagValue(argc, argv, "--index");
  if (index_path == nullptr) return Usage();

  hc2l::ServerOptions options;
  options.index_path = index_path;  // the "reload" op / SIGHUP target
  if (const char* host = FlagValue(argc, argv, "--host"); host != nullptr) {
    options.host = host;
  }
  long port = options.port;
  long threads = options.num_threads;
  long workers = options.reactor_threads;
  long max_connections = options.limits.max_connections;
  long max_in_flight = options.limits.max_in_flight;
  long idle_timeout_ms = options.limits.idle_timeout_ms;
  long read_timeout_ms = options.limits.read_timeout_ms;
  long max_requests = 0;
  long drain_ms = 5000;
  if (!UintFlag(argc, argv, "--port", 65535, &port) ||
      !UintFlag(argc, argv, "--threads", 4096, &threads) ||
      !UintFlag(argc, argv, "--workers", 4096, &workers) ||
      !UintFlag(argc, argv, "--max-connections", 1 << 30, &max_connections) ||
      !UintFlag(argc, argv, "--max-in-flight", 1 << 30, &max_in_flight) ||
      !UintFlag(argc, argv, "--idle-timeout-ms", 1 << 30,
                &idle_timeout_ms) ||
      !UintFlag(argc, argv, "--read-timeout-ms", 1 << 30,
                &read_timeout_ms) ||
      !UintFlag(argc, argv, "--max-requests-per-connection", 1 << 30,
                &max_requests) ||
      !UintFlag(argc, argv, "--drain-ms", 1 << 30, &drain_ms)) {
    return 2;
  }
  options.port = static_cast<uint16_t>(port);
  options.num_threads = static_cast<uint32_t>(threads);
  options.reactor_threads = static_cast<uint32_t>(workers);
  options.limits.max_connections = static_cast<uint32_t>(max_connections);
  options.limits.max_in_flight = static_cast<uint32_t>(max_in_flight);
  options.limits.idle_timeout_ms = static_cast<uint32_t>(idle_timeout_ms);
  options.limits.read_timeout_ms = static_cast<uint32_t>(read_timeout_ms);
  options.limits.max_requests_per_connection =
      static_cast<uint64_t>(max_requests);

  options.open_mmap = HasFlag(argc, argv, "--mmap");
  hc2l::Result<hc2l::Router> router = hc2l::Router::Open(
      index_path,
      options.open_mmap ? hc2l::OpenMode::kMmap : hc2l::OpenMode::kHeap);
  if (!router.ok()) {
    std::fprintf(stderr, "error: %s\n", router.status().ToString().c_str());
    return 1;
  }
  if (const char* graph_path = FlagValue(argc, argv, "--graph");
      graph_path != nullptr) {
    hc2l::Result<hc2l::Graph> graph = hc2l::ReadDimacsGraph(graph_path);
    if (!graph.ok()) {
      std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
      return 1;
    }
    router->AttachGraph(std::move(graph).value());
    options.graph_path = graph_path;  // re-attached on every reload
  }

  hc2l::Result<hc2l::QueryServer> server =
      hc2l::QueryServer::Start(*router, options);
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }

  if (pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "error: cannot create signal pipe\n");
    return 1;
  }
  std::signal(SIGINT, OnInt);
  std::signal(SIGTERM, OnTerm);
  std::signal(SIGHUP, OnHup);
  std::signal(SIGPIPE, SIG_IGN);

  const hc2l::IndexInfo info = router->Info();
  const std::string engine = options.num_threads == 0
                                 ? std::string("all-cores")
                                 : std::to_string(options.num_threads);
  std::printf("hc2ld listening on %s:%u (%s, %llu vertices, engine %s)\n",
              options.host.c_str(), server->port(),
              info.directed ? "directed" : "undirected",
              static_cast<unsigned long long>(info.num_vertices),
              engine.c_str());
  std::fflush(stdout);

  for (;;) {
    char byte = 0;
    const ssize_t n = read(g_signal_pipe[0], &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) byte = kByteInt;  // pipe died: treat as a hard stop
    if (byte == kByteHup) {
      if (const hc2l::Status st = server->Reload(); st.ok()) {
        std::printf("hc2ld reloaded %s (epoch %llu)\n", index_path,
                    static_cast<unsigned long long>(server->epoch()));
        std::fflush(stdout);
      } else {
        // The old index keeps serving; a bad file on disk must not take
        // the daemon down.
        std::fprintf(stderr, "hc2ld reload failed, still serving epoch "
                             "%llu: %s\n",
                     static_cast<unsigned long long>(server->epoch()),
                     st.ToString().c_str());
        std::fflush(stderr);
      }
      continue;
    }
    if (byte == kByteTerm) {
      const bool drained =
          server->Drain(std::chrono::milliseconds(drain_ms));
      std::printf("hc2ld drained %s (%llu connections served)\n",
                  drained ? "cleanly" : "with stragglers cut",
                  static_cast<unsigned long long>(
                      server->connections_accepted()));
      return 0;
    }
    break;  // kByteInt: immediate stop
  }
  std::printf("hc2ld shutting down (%llu connections served)\n",
              static_cast<unsigned long long>(server->connections_accepted()));
  server->Stop();
  return 0;
}
