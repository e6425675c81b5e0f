#ifndef HC2L_SERVER_REACTOR_H_
#define HC2L_SERVER_REACTOR_H_

/// The hc2ld connection engine: N run-to-completion epoll event loops,
/// nonblocking sockets, per-connection buffers.
///
/// Division of labour (the invariant everything below leans on):
///
///  - Each LOOP owns its epoll set and the connections placed on it
///    outright. Its one thread reads a connection's request bytes, runs
///    each complete line through the wire protocol core (server/wire.h:
///    Prepare, then the coalesced batch or ExecuteParsed), and writes the
///    responses with nonblocking sends, re-arming EPOLLOUT when the socket
///    is full. No connection state crosses threads, so connections carry no
///    locks, and responses stay in request order because one thread answers
///    a connection's lines in arrival order. The same thread enforces the
///    idle / read (slowloris) / write deadlines, sweeping its connections
///    only once its nearest deadline has passed.
///  - PLACEMENT: every loop watches the listener. The loop that accepts a
///    connection places it on the loop with the fewest live connections
///    (lowest index on ties) and hands it over through that loop's eventfd,
///    which carries only stop, drain and these hand-offs.
///  - A streamed matrix writes to its socket between chunks. Above the
///    output high-water mark the loop waits in poll() for the socket or its
///    eventfd, bounded by write_timeout_ms; only the connections on that
///    loop wait with it.
///
/// Shared-nothing request path: per line, a loop writes only its own
/// memory plus the server-wide in-flight counter that the max_in_flight
/// cap needs. It takes the serving snapshot at most once per epoll batch
/// and keeps it until the batch ends; before each line it compares one
/// epoch counter (bumped by every publish) with its snapshot's epoch and
/// re-takes the snapshot, between lines, only when a publish moved it. An
/// idle loop holds no snapshot. Its metrics go to its own ServerMetrics
/// shard; a coalesced run releases its admissions with one update.
///
/// Coalescing: the small default-options point/batch lines that
/// RequestHandler::Prepare stages (kStaged) — from every connection whose
/// bytes arrived in one epoll_wait batch of a loop — are merged into ONE
/// pairwise engine Execute, then the combined distance slice is
/// demultiplexed into per-connection responses. Eligibility (wire.h)
/// guarantees the answers are bit-identical to unbatched execution. A run
/// executes on the snapshot its lines were prepared against: a publish
/// seen between lines first flushes the run, then switches snapshots.
///
/// The robustness contract: admission and connection limits, Overloaded
/// shed lines, idle/read/write deadline eviction, the per-line byte cap
/// with discard-to-newline, max_requests_per_connection cycling, half-close
/// (EOF with pipelined requests still answers them), graceful drain, and
/// the "server.recv" / "server.send" fault points on every socket read and
/// write.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hc2l/server.h"
#include "hc2l/status.h"
#include "server/metrics.h"
#include "server/wire.h"

namespace hc2l {

/// One RCU serving snapshot as the reactor sees it: the routers plus an
/// opaque keepalive that pins them (the server's ServingState shared_ptr).
struct ServingSnapshot {
  std::shared_ptr<const void> keepalive;
  const Router* router = nullptr;
  const ThreadedRouter* threaded = nullptr;
  uint64_t epoch = 0;  // the publish that produced this snapshot
};

/// Everything the reactor borrows from the QueryServer that owns it. All
/// pointers must outlive the reactor.
struct ReactorEnv {
  /// reactor_threads must be resolved (non-zero): one loop each.
  ServerOptions options;
  /// Takes the current serving snapshot. A loop calls it at most once per
  /// epoll batch, plus once more after each publish it observes.
  std::function<ServingSnapshot()> snapshot;
  /// The current snapshot's epoch. Every publish stores the new epoch with
  /// release ordering while it holds the lock `snapshot` takes, so a loop
  /// reads this before each line and calls `snapshot` only when it moved.
  const std::atomic<uint64_t>* epoch = nullptr;
  /// Base hooks for one loop (admission, reload, update_weights, info, and
  /// record), given that loop's metrics shard (null without `metrics`).
  /// The reactor adds each connection's streaming flush hook itself.
  std::function<ServerHooks(ServerMetrics::Shard* shard)> hooks;
  /// One shard per loop (options.reactor_threads of them), or null.
  ServerMetrics* metrics = nullptr;
  std::atomic<uint64_t>* accepted = nullptr;
  std::atomic<uint64_t>* connections_shed = nullptr;
  std::atomic<uint64_t>* live_connections = nullptr;
};

class Reactor {
 public:
  /// `listen_fd` is borrowed (bound + listening); the reactor puts it into
  /// nonblocking mode and accepts on it until Stop()/Drain(), but the
  /// caller closes it.
  Reactor(int listen_fd, ReactorEnv env);
  ~Reactor();  // implies Stop()

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Creates each loop's epoll instance and eventfd and spawns the loop
  /// threads (options.reactor_threads of them). Errors: kUnavailable.
  Status Start();

  /// Graceful shutdown: stop accepting, sweep each connection's socket for
  /// already-sent requests, answer everything, close connections as they
  /// drain. Returns true when all connections finished within `budget`;
  /// stragglers are then closed hard either way. The reactor is fully
  /// stopped (threads joined) on return.
  bool Drain(std::chrono::milliseconds budget);

  /// Hard stop: disconnect every client, join all threads. Idempotent.
  void Stop();

  /// Live connections per event loop, in loop order (the "info" op's
  /// loop_connections). Safe from any thread once Start() returned.
  std::vector<uint64_t> LoopConnections() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hc2l

#endif  // HC2L_SERVER_REACTOR_H_
