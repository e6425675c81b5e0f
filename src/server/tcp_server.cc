#include "hc2l/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "graph/dimacs_io.h"
#include "graph/graph.h"
#include "server/metrics.h"
#include "server/reactor.h"
#include "server/wire.h"

namespace hc2l {

namespace {

/// close() wrapper that survives EINTR.
void CloseFd(int fd) {
  if (fd >= 0) {
    while (::close(fd) != 0 && errno == EINTR) {
    }
  }
}

/// Event loops for `options`: reactor_threads, or when that is 0,
/// clamp(hardware_concurrency / 2, 2, 8).
uint32_t ReactorLoops(const ServerOptions& options) {
  if (options.reactor_threads != 0) return options.reactor_threads;
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp(hw / 2, 2u, 8u);
}

}  // namespace

struct QueryServer::Impl {
  ServerOptions options;

  /// One immutable serving snapshot: the index facade plus the shared query
  /// engine built on it. Each reactor loop holds a shared_ptr for at most
  /// one epoll batch; Reload publishes a fresh snapshot and the old one
  /// dies with its last in-flight reference (RCU). `owned` is null for the
  /// initial snapshot, whose Router is borrowed from Start()'s caller.
  /// Declared before `threaded` so the engine is destroyed before the
  /// router it wraps.
  struct ServingState {
    std::unique_ptr<Router> owned;
    const Router* router = nullptr;
    std::unique_ptr<ThreadedRouter> threaded;
    uint64_t epoch = 0;
  };

  mutable std::mutex state_mu;
  std::shared_ptr<const ServingState> state;  // guarded by state_mu
  // state->epoch, readable without state_mu. Stored (release) under
  // state_mu by every publish; the reactor loops poll it before each line.
  std::atomic<uint64_t> epoch{0};
  // Serializes Reload()s: opening an index is slow and two concurrent
  // swaps would race their epoch bumps. Never held together with state_mu
  // except by the publisher (state_mu inside reload_mu).
  std::mutex reload_mu;

  int listen_fd = -1;
  uint16_t bound_port = 0;

  mutable std::mutex mu;
  std::condition_variable stopped_cv;
  bool stopping = false;  // guarded by mu
  // Serializes StopAndJoin/DrainAndJoin callers (Stop() from any thread,
  // the destructor): the reactor teardown below must run exactly once at a
  // time; the null/flag guards then make later callers no-ops.
  std::mutex stop_mu;

  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> connections_shed{0};
  std::atomic<uint64_t> live_connections{0};
  std::atomic<uint64_t> requests_shed{0};
  std::atomic<uint64_t> reloads{0};
  std::atomic<uint64_t> weight_updates{0};
  std::atomic<uint32_t> in_flight{0};

  // One shard per reactor loop (requests_admitted lives there too).
  std::unique_ptr<ServerMetrics> metrics;

  // Declared after everything it borrows (metrics, counters, state) so the
  // member destruction order alone cannot leave a reactor thread touching
  // a dead field; StopAndJoin in ~Impl stops it first anyway.
  std::unique_ptr<Reactor> reactor;

  ~Impl() { StopAndJoin(); }

  std::shared_ptr<const ServingState> Snapshot() const {
    std::lock_guard<std::mutex> lock(state_mu);
    return state;
  }

  Status ReloadIndex(std::string_view path, uint64_t* epoch_out) {
    std::lock_guard<std::mutex> reload_lock(reload_mu);
    std::string target(path);
    if (target.empty()) target = options.index_path;
    if (target.empty()) {
      return Status::InvalidArgument(
          "reload has no index path: pass \"path\" or configure "
          "ServerOptions::index_path");
    }
    // Build the whole replacement off to the side: any failure leaves the
    // current snapshot serving untouched.
    Result<Router> reopened = Router::Open(
        target, options.open_mmap ? OpenMode::kMmap : OpenMode::kHeap);
    if (!reopened.ok()) return reopened.status();
    auto next = std::make_shared<ServingState>();
    next->owned = std::make_unique<Router>(std::move(reopened).value());
    next->router = next->owned.get();
    // An Open()ed router carries no graph; re-attach the configured one so
    // "update_weights" keeps working across reloads. A bad graph file fails
    // the reload as a whole — the old snapshot keeps serving.
    if (!options.graph_path.empty()) {
      Result<Graph> graph = ReadDimacsGraph(options.graph_path);
      if (!graph.ok()) return graph.status();
      next->owned->AttachGraph(std::move(graph).value());
    }
    ParallelOptions parallel;
    parallel.num_threads = options.num_threads;
    parallel.min_shard_queries = options.min_shard_queries;
    Result<ThreadedRouter> threaded = next->router->WithThreads(parallel);
    if (!threaded.ok()) return threaded.status();
    next->threaded =
        std::make_unique<ThreadedRouter>(std::move(threaded).value());
    std::shared_ptr<const ServingState> old;
    {
      std::lock_guard<std::mutex> lock(state_mu);
      next->epoch = state->epoch + 1;
      if (epoch_out != nullptr) *epoch_out = next->epoch;
      old.swap(state);
      state = std::move(next);
      epoch.store(state->epoch, std::memory_order_release);
    }
    // `old` (and possibly its engine's worker pool) is torn down here,
    // outside state_mu — unless a connection still holds it, in which case
    // the last request to finish pays for the teardown.
    reloads.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }

  Status UpdateWeightsIndex(std::span<const EdgeDelta> edges,
                            uint64_t* epoch_out) {
    // Serialized with reloads: both build a replacement snapshot aside and
    // race-free epoch bumps require one publisher at a time. Queries are
    // never blocked — they read the current snapshot under state_mu only.
    std::lock_guard<std::mutex> reload_lock(reload_mu);
    const std::shared_ptr<const ServingState> cur = Snapshot();
    // Copy-on-repair: the serving index is never mutated. Any failure —
    // unknown edge, no attached graph, label-encoding overflow, an injected
    // "index.repair" fault — discards the standby and keeps the old
    // snapshot (and its epoch) untouched.
    Result<Router> repaired =
        cur->router->UpdateWeights(edges, /*tail_pruning=*/true,
                                   options.num_threads);
    if (!repaired.ok()) return repaired.status();
    auto next = std::make_shared<ServingState>();
    next->owned = std::make_unique<Router>(std::move(repaired).value());
    next->router = next->owned.get();
    ParallelOptions parallel;
    parallel.num_threads = options.num_threads;
    parallel.min_shard_queries = options.min_shard_queries;
    Result<ThreadedRouter> threaded = next->router->WithThreads(parallel);
    if (!threaded.ok()) return threaded.status();
    next->threaded =
        std::make_unique<ThreadedRouter>(std::move(threaded).value());
    std::shared_ptr<const ServingState> old;
    {
      std::lock_guard<std::mutex> lock(state_mu);
      next->epoch = state->epoch + 1;
      if (epoch_out != nullptr) *epoch_out = next->epoch;
      old.swap(state);
      state = std::move(next);
      epoch.store(state->epoch, std::memory_order_release);
    }
    weight_updates.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }

  Stats StatsSnapshot() const {
    Stats s;
    s.connections_accepted = accepted.load(std::memory_order_relaxed);
    s.connections_shed = connections_shed.load(std::memory_order_relaxed);
    s.connections_live = live_connections.load(std::memory_order_relaxed);
    s.requests_admitted = metrics->requests_admitted();
    s.requests_shed = requests_shed.load(std::memory_order_relaxed);
    s.in_flight = in_flight.load(std::memory_order_relaxed);
    s.reloads = reloads.load(std::memory_order_relaxed);
    s.weight_updates = weight_updates.load(std::memory_order_relaxed);
    s.requests_coalesced = metrics->coalesced_requests();
    s.coalesced_batches = metrics->coalesced_batches();
    s.epoch = epoch.load(std::memory_order_acquire);
    return s;
  }

  void AppendServingInfo(std::string* json) const {
    const Stats s = StatsSnapshot();
    const auto field = [json](const char* key, uint64_t value) {
      json->append(",\"");
      json->append(key);
      json->append("\":");
      json->append(std::to_string(value));
    };
    field("epoch", s.epoch);
    field("reloads", s.reloads);
    field("weight_updates", s.weight_updates);
    field("connections_live", s.connections_live);
    field("connections_accepted", s.connections_accepted);
    field("connections_shed", s.connections_shed);
    field("requests_admitted", s.requests_admitted);
    field("requests_shed", s.requests_shed);
    field("in_flight", s.in_flight);
    field("max_connections", options.limits.max_connections);
    field("max_in_flight", options.limits.max_in_flight);
    json->append(",\"loop_connections\":[");
    const std::vector<uint64_t> per_loop = reactor->LoopConnections();
    for (size_t i = 0; i < per_loop.size(); ++i) {
      if (i != 0) json->push_back(',');
      json->append(std::to_string(per_loop[i]));
    }
    json->push_back(']');
    metrics->AppendInfoJson(json);
  }

  /// Hooks for one reactor loop: its admissions and latencies go to its
  /// own metrics `shard`.
  ServerHooks MakeHooks(ServerMetrics::Shard* shard) {
    ServerHooks hooks;
    hooks.admit = [this, shard](uint64_t* retry_after_ms) {
      const uint32_t cap = options.limits.max_in_flight;
      if (cap == 0) {
        in_flight.fetch_add(1, std::memory_order_relaxed);
      } else {
        uint32_t cur = in_flight.load(std::memory_order_relaxed);
        for (;;) {
          if (cur >= cap) {
            *retry_after_ms = options.limits.retry_after_ms;
            requests_shed.fetch_add(1, std::memory_order_relaxed);
            return false;
          }
          if (in_flight.compare_exchange_weak(cur, cur + 1,
                                              std::memory_order_relaxed)) {
            break;
          }
        }
      }
      shard->RecordAdmitted();
      return true;
    };
    hooks.release = [this](uint64_t count) {
      in_flight.fetch_sub(static_cast<uint32_t>(count),
                          std::memory_order_relaxed);
    };
    hooks.reload = [this](std::string_view path, uint64_t* epoch) {
      return ReloadIndex(path, epoch);
    };
    hooks.update_weights = [this](std::span<const EdgeDelta> edges,
                                  uint64_t* epoch) {
      return UpdateWeightsIndex(edges, epoch);
    };
    hooks.info = [this](std::string* json) { AppendServingInfo(json); };
    hooks.record = [shard](WireOp op, uint64_t ns) {
      shard->RecordLatency(op, ns);
    };
    // hooks.flush is the reactor's: it wires each connection's socket write
    // path in itself.
    return hooks;
  }

  ReactorEnv MakeEnv() {
    ReactorEnv env;
    env.options = options;
    env.snapshot = [this] {
      std::shared_ptr<const ServingState> snap = Snapshot();
      ServingSnapshot out;
      out.router = snap->router;
      out.threaded = snap->threaded.get();
      out.epoch = snap->epoch;
      out.keepalive = std::move(snap);
      return out;
    };
    env.epoch = &epoch;
    env.hooks = [this](ServerMetrics::Shard* shard) {
      return MakeHooks(shard);
    };
    env.metrics = metrics.get();
    env.accepted = &accepted;
    env.connections_shed = &connections_shed;
    env.live_connections = &live_connections;
    return env;
  }

  void FinishShutdown() {
    CloseFd(listen_fd);
    listen_fd = -1;
    std::lock_guard<std::mutex> lock(mu);
    stopping = true;
    stopped_cv.notify_all();
  }

  void StopAndJoin() {
    std::lock_guard<std::mutex> stop_lock(stop_mu);
    if (reactor != nullptr) reactor->Stop();
    FinishShutdown();
  }

  bool DrainAndJoin(std::chrono::milliseconds budget) {
    std::lock_guard<std::mutex> stop_lock(stop_mu);
    bool drained = true;
    if (reactor != nullptr) drained = reactor->Drain(budget);
    FinishShutdown();
    return drained;
  }
};

QueryServer::QueryServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
QueryServer::QueryServer(QueryServer&&) noexcept = default;
QueryServer& QueryServer::operator=(QueryServer&&) noexcept = default;
QueryServer::~QueryServer() {
  if (impl_ != nullptr) impl_->StopAndJoin();
}

Result<QueryServer> QueryServer::Start(const Router& router,
                                       const ServerOptions& options) {
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  if (impl->options.max_line_bytes == 0) impl->options.max_line_bytes = 1;
  impl->options.reactor_threads = ReactorLoops(options);
  impl->metrics =
      std::make_unique<ServerMetrics>(impl->options.reactor_threads);

  auto initial = std::make_shared<Impl::ServingState>();
  initial->router = &router;
  ParallelOptions parallel;
  parallel.num_threads = options.num_threads;
  parallel.min_shard_queries = options.min_shard_queries;
  Result<ThreadedRouter> threaded = router.WithThreads(parallel);
  if (!threaded.ok()) return threaded.status();
  initial->threaded =
      std::make_unique<ThreadedRouter>(std::move(threaded).value());
  impl->state = std::move(initial);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse listen address \"" +
                                   options.host + "\" (expected IPv4)");
  }

  impl->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl->listen_fd < 0) {
    return Status::Unavailable(std::string("socket(): ") +
                               std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(impl->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(impl->listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = Status::Unavailable(
        "bind(" + options.host + ":" + std::to_string(options.port) +
        "): " + std::strerror(errno));
    CloseFd(impl->listen_fd);
    impl->listen_fd = -1;
    return status;
  }
  if (::listen(impl->listen_fd, 64) != 0) {
    const Status status =
        Status::Unavailable(std::string("listen(): ") + std::strerror(errno));
    CloseFd(impl->listen_fd);
    impl->listen_fd = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(impl->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    impl->bound_port = ntohs(bound.sin_port);
  }
  impl->reactor = std::make_unique<Reactor>(impl->listen_fd, impl->MakeEnv());
  const Status started = impl->reactor->Start();
  if (!started.ok()) {
    impl->reactor.reset();
    CloseFd(impl->listen_fd);
    impl->listen_fd = -1;
    return started;
  }
  return QueryServer(std::move(impl));
}

uint16_t QueryServer::port() const { return impl_->bound_port; }

uint64_t QueryServer::connections_accepted() const {
  return impl_->accepted.load(std::memory_order_relaxed);
}

QueryServer::Stats QueryServer::stats() const {
  return impl_->StatsSnapshot();
}

Status QueryServer::Reload(const std::string& path) {
  return impl_->ReloadIndex(path, nullptr);
}

Status QueryServer::UpdateWeights(std::span<const EdgeDelta> edges) {
  return impl_->UpdateWeightsIndex(edges, nullptr);
}

uint64_t QueryServer::epoch() const {
  return impl_->epoch.load(std::memory_order_acquire);
}

bool QueryServer::Drain(std::chrono::milliseconds budget) {
  return impl_->DrainAndJoin(budget);
}

void QueryServer::Stop() { impl_->StopAndJoin(); }

void QueryServer::Wait() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->stopped_cv.wait(lock, [this] { return impl_->stopping; });
}

}  // namespace hc2l
