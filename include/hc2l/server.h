#ifndef HC2L_PUBLIC_SERVER_H_
#define HC2L_PUBLIC_SERVER_H_

/// hc2ld — the HC2L serving front end: line-delimited JSON over TCP.
///
/// QueryServer wraps a Router in a few run-to-completion epoll event loops
/// (ServerOptions::reactor_threads). Each new connection is placed on the
/// loop with the fewest live connections, and that loop's one thread owns
/// it outright: nonblocking reads, request execution, nonblocking writes
/// and deadline eviction, with no hand-off between threads. Each connection
/// carries one reusable buffer set (requests parse into and execute out of
/// the same memory line after line — the zero-copy request/response facade
/// API end to end). All queries run through one
/// shared ThreadedRouter, so concurrent connections share the engine's
/// worker pool instead of spawning their own. Small concurrently-arriving
/// point/batch requests are coalesced into one engine batch (bit-identical
/// answers, demultiplexed per connection).
///
///   hc2l::Result<hc2l::Router> router = hc2l::Router::Open("city.idx");
///   hc2l::Result<hc2l::QueryServer> server =
///       hc2l::QueryServer::Start(*router, {.port = 8040});
///   std::printf("serving on %u\n", server->port());
///   server->Wait();   // until Stop()/Drain() from another thread
///
/// The serving path is fail-safe by construction:
///
///  - ServerLimits bound everything a client can consume: concurrent
///    connections (excess is shed at accept with one Overloaded response
///    line), in-flight requests (excess sheds per-request with a
///    retry_after_ms hint instead of queueing), idle/read/write deadlines
///    (slow clients — slowloris — are evicted), request-line bytes and
///    requests per connection.
///  - Drain() is the graceful counterpart to Stop(): stop accepting,
///    answer every request already received, close each connection as it
///    finishes, hard-stop whatever is left when the budget expires.
///  - Reload() hot-swaps the served index RCU-style: the new file loads
///    into a fresh epoch while queries keep answering from the old
///    snapshot, then an atomic swap publishes it; in-flight requests keep
///    their snapshot alive until they finish. Exposed on the wire as the
///    "reload" op and on hc2ld as SIGHUP.
///
/// Wire protocol (requests, responses, the nc-friendly examples):
/// docs/server.md; operational knobs: the "Operations" section there. The
/// daemon binary is tools/hc2ld.cc; `hc2l serve` and `hc2l client` wrap the
/// same pieces for smoke tests.
///
/// Ownership: the Router passed to Start is borrowed and must stay alive
/// and unmoved until the server is stopped AND destroyed (after a Reload
/// the server stops using it but holds index snapshots of its own).
/// QueryServer is movable, not copyable; Stop() is idempotent and joins
/// every event-loop thread before returning.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "hc2l/router.h"
#include "hc2l/status.h"

namespace hc2l {

/// Bounds on what clients can consume. Zero means "unlimited" for every
/// field except retry_after_ms. The defaults serve hundreds of well-behaved
/// clients while keeping one hostile or broken one from taking the daemon
/// down.
struct ServerLimits {
  /// Concurrent connections. The acceptor sheds the excess immediately:
  /// one Overloaded response line (best effort), then close — never an
  /// unbounded backlog of accepted-but-unserved sockets.
  uint32_t max_connections = 1024;
  /// Requests executing concurrently across all connections. The excess is
  /// shed per-request with an Overloaded + retry_after_ms response; the
  /// connection stays usable. ping/info/reload bypass this (they must work
  /// on an overloaded server).
  uint32_t max_in_flight = 256;
  /// Backoff hint carried by every Overloaded response.
  uint32_t retry_after_ms = 100;
  /// A connection delivering no bytes for this long is evicted (one
  /// DeadlineExceeded response line, then close).
  uint32_t idle_timeout_ms = 300'000;
  /// A started request line must complete (reach its '\n') within this
  /// budget — the slowloris guard: a client trickling one byte at a time
  /// cannot hold a connection slot forever.
  uint32_t read_timeout_ms = 30'000;
  /// A client that stops draining its receive window keeps the server's
  /// pending response bytes blocked; after this long continuously blocked
  /// the connection is closed hard.
  uint32_t write_timeout_ms = 30'000;
  /// Requests answered on one connection before the server closes it
  /// (cycles long-lived connections; 0 = unlimited).
  uint64_t max_requests_per_connection = 0;
};

struct ServerOptions {
  /// Listen address. The default only accepts local connections; bind
  /// 0.0.0.0 deliberately to expose the daemon.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Query-engine threads shared by all connections; 0 = all hardware
  /// threads.
  uint32_t num_threads = 0;
  /// Engine sharding grain (ParallelOptions::min_shard_queries).
  uint32_t min_shard_queries = 1024;
  /// Per-connection input cap: a request line longer than this is rejected
  /// with one error response and discarded up to its newline — the
  /// connection stays usable and the per-connection buffer stays bounded
  /// regardless of what the client streams.
  size_t max_line_bytes = 1 << 20;
  /// Overload, deadline and per-connection budgets.
  ServerLimits limits;
  /// Index file the "reload" op (and hc2ld's SIGHUP) reopens when the
  /// request names no explicit path. Empty: pathless reloads fail with
  /// InvalidArgument.
  std::string index_path;
  /// DIMACS graph file re-read and attached to every reloaded snapshot so
  /// the "update_weights" op keeps working across reloads (an Open()ed
  /// router has no graph of its own). Empty: reloaded snapshots accept no
  /// weight updates until the next restart with a graph-attached router.
  std::string graph_path;
  /// Reload ("reload" op / SIGHUP) reopens the index with OpenMode::kMmap —
  /// set this when the initial router was opened that way, so a hot reload
  /// keeps the label arenas file-backed instead of silently deserializing
  /// them onto the heap.
  bool open_mmap = false;
  /// Event loops. Each owns the connections placed on it and reads,
  /// executes and answers their requests on its own thread; a new
  /// connection goes to the loop with the fewest live connections.
  /// 0 = clamp(hardware_concurrency / 2, 2, 8).
  uint32_t reactor_threads = 0;
};

/// The TCP front end. Construction binds, listens and spawns the accept
/// loop; queries are served until Stop() or Drain().
class QueryServer {
 public:
  /// Serving counters, all monotonic except the two gauges (live,
  /// in_flight). Also exposed on the wire through the "info" op.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_shed = 0;   // over max_connections
    uint64_t connections_live = 0;   // gauge
    uint64_t requests_admitted = 0;
    uint64_t requests_shed = 0;      // over max_in_flight
    uint64_t in_flight = 0;          // gauge
    uint64_t epoch = 0;              // bumps on every successful Reload or
                                     // UpdateWeights
    uint64_t reloads = 0;            // successful Reload count
    uint64_t weight_updates = 0;     // successful UpdateWeights count
    uint64_t requests_coalesced = 0;  // requests answered via a merged batch
    uint64_t coalesced_batches = 0;   // merged engine batches executed
  };

  /// Binds host:port and starts serving `router`. Errors: kUnavailable
  /// (socket/bind/listen failure, port already in use), kInvalidArgument
  /// (unparseable host).
  static Result<QueryServer> Start(const Router& router,
                                   const ServerOptions& options = {});

  QueryServer(QueryServer&&) noexcept;
  QueryServer& operator=(QueryServer&&) noexcept;
  ~QueryServer();  // implies Stop()

  /// The bound port (the actual one when options.port was 0).
  uint16_t port() const;

  /// Connections served so far (accepted, including already-closed ones).
  uint64_t connections_accepted() const;

  /// Full serving-counter snapshot.
  Stats stats() const;

  /// Hot-swaps the served index: opens `path` (empty = the configured
  /// ServerOptions::index_path) into a fresh snapshot + engine while
  /// queries keep answering from the current one, then publishes it
  /// atomically. On any error — missing file, corrupt index, wrong format —
  /// the old snapshot keeps serving untouched. Safe from any thread;
  /// concurrent reloads serialize. Errors: kInvalidArgument (no path),
  /// plus everything Router::Open can return.
  Status Reload(const std::string& path = "");

  /// Current serving epoch (0 until the first Reload/UpdateWeights).
  uint64_t epoch() const;

  /// Live weight update: repairs a standby copy of the serving index for
  /// the changed edge weights (Router::UpdateWeights — scoped label repair,
  /// never a full rebuild in steady state) and publishes it exactly like
  /// Reload: RCU snapshot swap, epoch bump, in-flight queries keep the old
  /// snapshot. On any error — unknown edge, zero weight, no graph attached,
  /// repair overflow — the old snapshot keeps serving untouched and the
  /// epoch is unchanged. Safe from any thread; serializes with Reload().
  /// Exposed on the wire as the "update_weights" op.
  Status UpdateWeights(std::span<const EdgeDelta> edges);

  /// Graceful drain: stops accepting, lets every connection answer the
  /// requests it has already received (including pipelined ones still in
  /// the socket buffer), and closes each connection as it finishes. Returns
  /// true when every connection completed within `budget`; on expiry the
  /// stragglers are disconnected hard and false is returned. Afterwards the
  /// server is stopped (Wait() returns; Stop() is a no-op). Safe to call
  /// from any thread except a connection handler.
  bool Drain(std::chrono::milliseconds budget);

  /// Stops accepting, disconnects every client, joins all threads.
  /// Idempotent; safe to call from any thread except a connection handler.
  void Stop();

  /// Blocks until Stop() or Drain() completes (from another thread or a
  /// signal-driven self-pipe — see tools/hc2ld.cc).
  void Wait();

 private:
  struct Impl;
  explicit QueryServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace hc2l

#endif  // HC2L_PUBLIC_SERVER_H_
