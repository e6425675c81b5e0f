#include "server/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"

namespace hc2l {

namespace {

using Clock = std::chrono::steady_clock;

/// Socket read size per readable event. Level-triggered epoll refires while
/// more bytes wait, so one chunk per event keeps the loop fair across
/// connections.
constexpr size_t kReadChunk = 16384;

/// A connection holding more unsent output than this stops reading new
/// requests until the socket drains, and a streamed response waits for the
/// socket before computing its next chunk. Bounds per-connection memory for
/// arbitrarily large streams and for clients that pipeline without reading.
constexpr size_t kStreamHighWater = size_t{4} << 20;

void CloseFd(int fd) {
  if (fd >= 0) {
    while (::close(fd) != 0 && errno == EINTR) {
    }
  }
}

void Signal(int event_fd) {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(event_fd, &one, sizeof(one));
}

/// Milliseconds until `t`, rounded up so a wakeup never lands just short of
/// it; -1 (wait forever) for the "no deadline" sentinel.
int MillisUntil(Clock::time_point t) {
  if (t == Clock::time_point::max()) return -1;
  const auto left = t - Clock::now();
  if (left <= Clock::duration::zero()) return 0;
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(left).count();
  return static_cast<int>(std::min<long long>(ms, 1 << 30));
}

/// recv() with the "server.recv" fault point in front: the chaos suite can
/// turn any read into an EINTR/ECONNRESET failure, a short read, or a
/// premature EOF without a cooperating client.
ssize_t RecvSome(int fd, char* buf, size_t cap) {
  const auto act = HC2L_FAULT_ON_IO("server.recv", cap);
  if (act.fail) {
    errno = act.err != 0 ? act.err : ECONNRESET;
    return -1;
  }
  if (act.eof) return 0;
  return ::recv(fd, buf, std::min(act.bytes, cap), 0);
}

/// send() with the "server.send" fault point in front. An injected failure
/// (or EOF) reads as a dead peer, exactly like the thread-per-connection
/// server treated it.
ssize_t SendSome(int fd, const char* data, size_t size) {
  const auto act = HC2L_FAULT_ON_IO("server.send", size);
  if (act.fail) {
    errno = act.err != 0 ? act.err : EPIPE;
    return -1;
  }
  if (act.eof) {
    errno = EPIPE;
    return -1;
  }
  return ::send(fd, data, std::min(act.bytes, size), MSG_NOSIGNAL);
}

void AppendDeadlineResponse(const char* what, std::string* out) {
  out->append("{\"ok\":false,\"code\":\"DeadlineExceeded\",\"message\":\"");
  out->append(what);
  out->append("\"}\n");
}

}  // namespace

struct Reactor::Impl {
  /// One client connection, owned outright by the loop it was placed on.
  struct Conn {
    int fd = -1;
    size_t index = 0;  // position in the owning loop's `conns`
    RequestHandler handler;
    std::string inbuf;    // unconsumed input: at most one partial line
    std::string outbuf;   // responses the socket has not accepted yet
    uint64_t served = 0;  // responses produced on this connection
    uint32_t events = 0;  // current epoll interest set
    bool discarding = false;   // dropping an oversized line to its newline
    bool read_closed = false;  // EOF seen or reads retired by the drain
    bool evict = false;        // close once output is flushed
    bool closed = false;       // fd closed; freed at the end of the batch
    bool in_run = false;       // has requests staged in the loop's run
    bool touched = false;      // queued for the end-of-batch flush
    Clock::time_point last_byte{};
    Clock::time_point line_start{};
    bool line_open = false;
    Clock::time_point write_blocked_since{};
    bool write_blocked = false;
  };

  /// The coalescing run of one epoll_wait batch: combined pairwise ids plus
  /// one slot per staged request, in staging order.
  struct Run {
    struct Slot {
      Conn* c;
      RequestHandler::StagePlan plan;
    };
    std::vector<Vertex> sources;
    std::vector<Vertex> targets;
    std::vector<Slot> slots;
    std::vector<Dist> dists;
  };

  /// One run-to-completion event loop: its own epoll set, the connections
  /// placed on it, and the thread that reads, executes and writes them.
  struct Loop {
    int epoll_fd = -1;
    int event_fd = -1;  // stop, drain and accept hand-off wakeups
    std::atomic<uint64_t> live{0};  // placed here and not yet closed

    std::mutex inbox_mu;
    std::vector<int> inbox;  // guarded by inbox_mu: accepted, not adopted

    // Loop-thread-owned.
    ServerHooks hooks;  // base hooks; each connection copies them
    ServerMetrics::Shard* metrics = nullptr;  // this loop's shard, or null
    ServingSnapshot snap;  // taken by this batch's first line, dropped at
                           // the batch's end (router == nullptr: none held)
    std::vector<std::unique_ptr<Conn>> conns;
    std::vector<Conn*> touched;  // output or close check due this batch
    std::vector<std::unique_ptr<Conn>> graveyard;  // freed after the batch
    Run run;
    std::string scratch;
    Clock::time_point next_sweep = Clock::time_point::max();
    bool drain_started = false;

    std::thread thread;
  };

  int listen_fd = -1;
  ReactorEnv env;
  std::vector<std::unique_ptr<Loop>> loops;  // fixed once Start() returns

  // Serializes the connection-limit check with placement, so concurrent
  // accepts on different loops see each other's charges.
  std::mutex place_mu;

  std::atomic<bool> stop{false};
  std::atomic<bool> draining{false};

  // Drain()/Stop() coordination.
  std::mutex shutdown_mu;  // serializes Drain/Stop callers
  bool stopped = false;    // guarded by shutdown_mu
  std::mutex drain_mu;
  std::condition_variable drain_cv;  // notified as connections close

  // ----- connection bookkeeping -----

  void NoteDeadline(Loop* L, Clock::time_point t) {
    L->next_sweep = std::min(L->next_sweep, t);
  }

  void Touch(Loop* L, Conn* c) {
    if (!c->touched) {
      c->touched = true;
      L->touched.push_back(c);
    }
  }

  /// Reads while the connection may take more requests; writes while output
  /// is pending.
  void SetInterest(Loop* L, Conn* c) {
    uint32_t want = 0;
    if (!c->read_closed && c->outbuf.size() <= kStreamHighWater) {
      want |= EPOLLIN;
    }
    if (!c->outbuf.empty()) want |= EPOLLOUT;
    if (want == c->events) return;
    c->events = want;
    epoll_event ev{};
    ev.data.ptr = c;
    ev.events = want;
    ::epoll_ctl(L->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  /// Accounts for one connection leaving loop L: closed, or dropped before
  /// its loop adopted it.
  void Release(Loop* L) {
    L->live.fetch_sub(1, std::memory_order_relaxed);
    env.live_connections->fetch_sub(1, std::memory_order_relaxed);
    {
      // Taken so a Drain() caller between its check and its wait cannot
      // miss this notification.
      std::lock_guard<std::mutex> lock(drain_mu);
    }
    drain_cv.notify_all();
  }

  /// Closes the socket now; the Conn itself lives until the batch ends, so
  /// pointers held by this batch's events and run stay valid.
  void CloseConn(Loop* L, Conn* c) {
    if (c->closed) return;
    c->closed = true;
    ::epoll_ctl(L->epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    ::shutdown(c->fd, SHUT_RDWR);
    CloseFd(c->fd);
    const size_t i = c->index;
    L->graveyard.push_back(std::move(L->conns[i]));
    if (i + 1 != L->conns.size()) {
      L->conns[i] = std::move(L->conns.back());
      L->conns[i]->index = i;
    }
    L->conns.pop_back();
    Release(L);
  }

  /// Nonblocking write: moves outbuf into the socket until it would block,
  /// then arms EPOLLOUT and starts the write-stall clock.
  void PumpOut(Loop* L, Conn* c) {
    size_t sent = 0;
    while (sent < c->outbuf.size()) {
      const ssize_t n = SendSome(c->fd, c->outbuf.data() + sent,
                                 c->outbuf.size() - sent);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        c->outbuf.erase(0, sent);
        if (!c->write_blocked) {
          c->write_blocked = true;
          c->write_blocked_since = Clock::now();
          const std::chrono::milliseconds timeout(
              env.options.limits.write_timeout_ms);
          if (timeout.count() != 0) {
            NoteDeadline(L, c->write_blocked_since + timeout);
          }
        }
        SetInterest(L, c);
        return;
      }
      CloseConn(L, c);  // dead peer (EPIPE/ECONNRESET or injected fault)
      return;
    }
    c->outbuf.clear();
    c->write_blocked = false;
    SetInterest(L, c);
  }

  /// Closes a connection that has nothing left to do: output flushed and
  /// either evicted or past EOF/drain. Every complete request line was
  /// answered when it arrived; a trailing partial line can never complete.
  void MaybeClose(Loop* L, Conn* c) {
    if (!c->closed && c->outbuf.empty() && (c->evict || c->read_closed)) {
      CloseConn(L, c);
    }
  }

  // ----- request processing -----

  /// The serving snapshot for the loop's next line. Taken once per batch;
  /// re-taken only when a publish moved the epoch, after the run staged
  /// against the old snapshot has executed on it.
  const ServingSnapshot& Snapshot(Loop* L) {
    if (L->snap.router != nullptr &&
        env.epoch->load(std::memory_order_acquire) == L->snap.epoch) {
      return L->snap;
    }
    FlushRun(L);
    L->snap = env.snapshot();
    return L->snap;
  }

  /// Executes the run's combined pairwise batch on the snapshot its lines
  /// were prepared against and demultiplexes the distance slices into each
  /// staged request's response, in order. One clock read after the engine
  /// call ends every staged line's recorded latency.
  void FlushRun(Loop* L) {
    Run& run = L->run;
    if (run.slots.empty()) return;
    QueryRequest request;
    request.kind = QueryKind::kPointBatch;
    request.sources = run.sources;
    request.targets = run.targets;
    run.dists.resize(run.targets.size());
    QueryOutput output;
    output.distances = run.dists;
    const Result<QueryResponse> response =
        L->snap.threaded->Execute(request, output);
    const Clock::time_point done = Clock::now();
    if (L->metrics != nullptr) {
      L->metrics->RecordCoalescedBatch(run.slots.size());
    }
    for (const Run::Slot& slot : run.slots) {
      Conn* c = slot.c;
      c->in_run = false;
      if (response.ok()) {
        c->handler.AppendStagedResponse(slot.plan, run.dists, done,
                                        &c->outbuf);
      } else {
        // Cannot happen for staged requests (ids validated, no deadline),
        // but an engine error must still answer every request.
        AppendWireError(response.status(), &c->outbuf);
      }
    }
    // Every staged line was admitted once; release them all in one update.
    if (L->hooks.admit && L->hooks.release) L->hooks.release(run.slots.size());
    run.sources.clear();
    run.targets.clear();
    run.slots.clear();
  }

  /// The streaming flush hook: hands the frames produced so far to the
  /// socket and, while more than kStreamHighWater is unsent, waits in poll()
  /// for the socket or the loop's eventfd. Returns false (abort the stream)
  /// when the connection died, stalled past write_timeout_ms (it is then
  /// closed), or the reactor is stopping.
  bool FlushStream(Loop* L, Conn* c, std::string* out) {
    // ExecuteParsed normally writes straight into the connection's output.
    if (out != &c->outbuf) {
      c->outbuf.append(*out);
      out->clear();
    }
    const uint32_t write_timeout = env.options.limits.write_timeout_ms;
    bool woken = false;  // consumed an eventfd wakeup meant for the loop
    for (;;) {
      PumpOut(L, c);
      if (c->closed || c->outbuf.size() <= kStreamHighWater ||
          stop.load(std::memory_order_relaxed)) {
        break;
      }
      Clock::time_point deadline = Clock::time_point::max();
      if (write_timeout != 0) {
        deadline = c->write_blocked_since +
                   std::chrono::milliseconds(write_timeout);
        if (deadline <= Clock::now()) {
          CloseConn(L, c);
          break;
        }
      }
      pollfd fds[2] = {{c->fd, POLLOUT, 0}, {L->event_fd, POLLIN, 0}};
      if (::poll(fds, 2, MillisUntil(deadline)) > 0 &&
          (fds[1].revents & POLLIN) != 0) {
        uint64_t counter = 0;
        [[maybe_unused]] const ssize_t n =
            ::read(L->event_fd, &counter, sizeof(counter));
        woken = true;
      }
    }
    // Hand-offs and drain wait for the main loop; re-raise the wakeup.
    if (woken) Signal(L->event_fd);
    return !c->closed && !stop.load(std::memory_order_relaxed);
  }

  /// Answers every complete request line buffered on `c`, in order.
  /// Coalescible lines are staged into the loop's run; the rest execute
  /// here, after any staged answers of this connection.
  void ProcessLines(Loop* L, Conn* c) {
    const ServerLimits& limits = env.options.limits;
    Run& run = L->run;
    const std::string_view view(c->inbuf);
    size_t consumed = 0;
    for (;;) {
      const size_t nl = view.find('\n', consumed);
      if (nl == std::string_view::npos) break;
      const std::string_view line = view.substr(consumed, nl - consumed);
      consumed = nl + 1;
      // A publish seen here lands between requests of one connection.
      const ServingSnapshot& snap = Snapshot(L);
      const Router& router = *snap.router;
      const ThreadedRouter& threaded = *snap.threaded;
      L->scratch.clear();
      RequestHandler::StagePlan plan;
      // A line's latency starts at the read that completed it.
      const RequestHandler::LineAction action =
          c->handler.Prepare(line, router, threaded, &run.sources,
                             &run.targets, &plan, c->last_byte, &L->scratch);
      if (action == RequestHandler::LineAction::kStaged) {
        run.slots.push_back({c, plan});
        c->in_run = true;
      } else {
        if (action == RequestHandler::LineAction::kDone &&
            L->scratch.empty()) {
          continue;  // blank keepalive line: no response, no budget charge
        }
        // Responses leave in request order: staged answers go first.
        if (c->in_run) FlushRun(L);
        if (action == RequestHandler::LineAction::kExecute) {
          c->handler.ExecuteParsed(router, threaded, &c->outbuf);
          if (c->closed) return;  // a stalled stream was cut
        } else {
          c->outbuf.append(L->scratch);
        }
      }
      ++c->served;
      if (limits.max_requests_per_connection != 0 &&
          c->served >= limits.max_requests_per_connection) {
        c->evict = true;
        c->read_closed = true;
        c->inbuf.clear();
        return;
      }
    }
    c->inbuf.erase(0, consumed);
    // The per-line byte cap: a partial line longer than the cap gets one
    // error response, then its bytes are dropped to the newline.
    if (c->inbuf.size() > env.options.max_line_bytes) {
      if (c->in_run) FlushRun(L);
      c->outbuf.append(
          "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":"
          "\"request line exceeds the per-line byte cap\"}\n");
      c->inbuf.clear();
      c->discarding = true;
    }
  }

  /// Appends freshly read bytes, keeps the slowloris line clock, and
  /// answers whatever lines they complete.
  void HandleInput(Loop* L, Conn* c, const char* data, size_t n) {
    c->last_byte = Clock::now();
    const std::string_view chunk(data, n);
    const size_t last_nl = chunk.rfind('\n');
    // Slowloris clock over the raw byte stream: (re)starts whenever a new
    // partial line begins.
    if (last_nl == std::string_view::npos) {
      if (!c->line_open) {
        c->line_open = true;
        c->line_start = c->last_byte;
      }
    } else {
      c->line_open = last_nl + 1 < chunk.size();
      c->line_start = c->last_byte;
    }
    const std::chrono::milliseconds read_timeout(
        env.options.limits.read_timeout_ms);
    if (c->line_open && c->line_start == c->last_byte &&
        read_timeout.count() != 0) {
      NoteDeadline(L, c->line_start + read_timeout);
    }
    Touch(L, c);
    if (c->evict) return;
    std::string_view rest = chunk;
    if (c->discarding) {
      // Keep dropping the oversized line while its bytes stream in.
      const size_t nl = rest.find('\n');
      if (nl == std::string_view::npos) return;
      rest.remove_prefix(nl + 1);
      c->discarding = false;
    }
    c->inbuf.append(rest);
    if (rest.find('\n') != std::string_view::npos ||
        c->inbuf.size() > env.options.max_line_bytes) {
      ProcessLines(L, c);
    }
  }

  void HandleReadable(Loop* L, Conn* c) {
    char buf[kReadChunk];
    const ssize_t n = RecvSome(c->fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConn(L, c);
      return;
    }
    if (n == 0) {
      // Half-close: requests pipelined before the client's shutdown(SHUT_WR)
      // are already answered or staged; close once the answers flush.
      c->read_closed = true;
      SetInterest(L, c);
      Touch(L, c);
      return;
    }
    HandleInput(L, c, buf, static_cast<size_t>(n));
  }

  // ----- connection placement -----

  /// Charges a new connection to the loop with the fewest live connections
  /// (lowest index on ties). nullptr: the server is at max_connections.
  Loop* Place() {
    std::lock_guard<std::mutex> lock(place_mu);
    const uint32_t cap = env.options.limits.max_connections;
    if (cap != 0 &&
        env.live_connections->load(std::memory_order_relaxed) >= cap) {
      return nullptr;
    }
    Loop* best = loops[0].get();
    for (const std::unique_ptr<Loop>& l : loops) {
      if (l->live.load(std::memory_order_relaxed) <
          best->live.load(std::memory_order_relaxed)) {
        best = l.get();
      }
    }
    best->live.fetch_add(1, std::memory_order_relaxed);
    env.live_connections->fetch_add(1, std::memory_order_relaxed);
    return best;
  }

  void HandleAccept(Loop* self) {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN (another loop won the race), or listener shut down
      }
      env.accepted->fetch_add(1, std::memory_order_relaxed);
      if (stop.load(std::memory_order_relaxed) ||
          draining.load(std::memory_order_relaxed)) {
        CloseFd(fd);
        continue;
      }
      Loop* target = Place();
      if (target == nullptr) {
        // Connection-level load shedding: one best-effort Overloaded line
        // (the socket's send buffer is empty, so this will not block), then
        // close — never a backlog of accepted-but-unserved sockets.
        env.connections_shed->fetch_add(1, std::memory_order_relaxed);
        std::string line;
        AppendOverloadedResponse(env.options.limits.retry_after_ms,
                                 "server is at its connection limit", &line);
        ::send(fd, line.data(), line.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
        CloseFd(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (target == self) {
        Adopt(self, fd);
      } else {
        {
          std::lock_guard<std::mutex> lock(target->inbox_mu);
          target->inbox.push_back(fd);
        }
        Signal(target->event_fd);
      }
    }
  }

  /// Registers an accepted socket with loop L, which owns it from now on.
  void Adopt(Loop* L, int fd) {
    auto owned = std::make_unique<Conn>();
    Conn* c = owned.get();
    ServerHooks hooks = L->hooks;
    hooks.flush = [this, L, c](std::string* out) {
      return FlushStream(L, c, out);
    };
    c->handler = RequestHandler(std::move(hooks));
    c->fd = fd;
    c->last_byte = Clock::now();
    c->index = L->conns.size();
    c->events = EPOLLIN;
    L->conns.push_back(std::move(owned));
    epoll_event ev{};
    ev.data.ptr = c;
    ev.events = EPOLLIN;
    if (::epoll_ctl(L->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseConn(L, c);
      return;
    }
    const std::chrono::milliseconds idle(env.options.limits.idle_timeout_ms);
    if (idle.count() != 0) NoteDeadline(L, c->last_byte + idle);
    if (L->drain_started) DrainConn(L, c);
  }

  void AdoptPending(Loop* L) {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lock(L->inbox_mu);
      fds.swap(L->inbox);
    }
    for (const int fd : fds) Adopt(L, fd);
  }

  // ----- deadlines, drain, the loop itself -----

  /// Deadline sweep, run only once the loop's nearest deadline has passed:
  /// evicts idle and slowloris connections (one polite DeadlineExceeded
  /// line, flush, close), hard-closes write-stalled ones, and records the
  /// next nearest deadline.
  void SweepDeadlines(Loop* L, Clock::time_point now) {
    const ServerLimits& limits = env.options.limits;
    Clock::time_point nearest = Clock::time_point::max();
    std::vector<Conn*> evict_polite;
    std::vector<Conn*> evict_hard;
    for (const std::unique_ptr<Conn>& owned : L->conns) {
      Conn* c = owned.get();
      if (c->write_blocked && limits.write_timeout_ms != 0) {
        const auto deadline =
            c->write_blocked_since +
            std::chrono::milliseconds(limits.write_timeout_ms);
        if (deadline <= now) {
          evict_hard.push_back(c);
          continue;
        }
        nearest = std::min(nearest, deadline);
      }
      if (c->evict || c->read_closed) continue;
      const char* reason = nullptr;
      Clock::time_point deadline = Clock::time_point::max();
      if (limits.idle_timeout_ms != 0) {
        deadline =
            c->last_byte + std::chrono::milliseconds(limits.idle_timeout_ms);
        reason = "connection evicted: idle timeout";
      }
      if (c->line_open && limits.read_timeout_ms != 0) {
        const auto read_deadline =
            c->line_start + std::chrono::milliseconds(limits.read_timeout_ms);
        if (read_deadline < deadline) {
          deadline = read_deadline;
          reason = "connection evicted: request line not completed in time";
        }
      }
      if (deadline == Clock::time_point::max()) continue;
      if (deadline <= now) {
        AppendDeadlineResponse(reason, &c->outbuf);
        c->evict = true;
        c->read_closed = true;
        evict_polite.push_back(c);
      } else {
        nearest = std::min(nearest, deadline);
      }
    }
    L->next_sweep = nearest;  // the evictions below may only move it closer
    for (Conn* c : evict_hard) CloseConn(L, c);
    for (Conn* c : evict_polite) {
      PumpOut(L, c);
      MaybeClose(L, c);
    }
  }

  /// Reads every request `c`'s client already sent, then retires reads so
  /// the connection closes once those are answered.
  void DrainConn(Loop* L, Conn* c) {
    char buf[kReadChunk];
    while (!c->closed) {
      const ssize_t n = RecvSome(c->fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      HandleInput(L, c, buf, static_cast<size_t>(n));
    }
    if (c->closed) return;
    c->read_closed = true;
    SetInterest(L, c);
    Touch(L, c);
  }

  /// Graceful-drain entry (per loop): stop accepting, sweep every owned
  /// socket for requests already sent, then let each close as its answers
  /// flush.
  void BeginDrain(Loop* L) {
    L->drain_started = true;
    ::epoll_ctl(L->epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
    ::shutdown(listen_fd, SHUT_RDWR);
    std::vector<Conn*> owned;
    for (const std::unique_ptr<Conn>& c : L->conns) owned.push_back(c.get());
    for (Conn* c : owned) DrainConn(L, c);
    AdoptPending(L);  // adopted connections are drained as they arrive
  }

  /// End of an epoll_wait batch: run the coalesced batch, then write every
  /// connection that produced output and close the finished ones.
  void FinishBatch(Loop* L) {
    FlushRun(L);
    for (Conn* c : L->touched) {
      c->touched = false;
      if (c->closed) continue;
      PumpOut(L, c);
      MaybeClose(L, c);
    }
    L->touched.clear();
  }

  /// Acts on the shutdown flags: false once the reactor is stopping;
  /// begins this loop's drain the first time it sees the drain flag.
  bool Running(Loop* L) {
    if (stop.load(std::memory_order_acquire)) return false;
    if (draining.load(std::memory_order_acquire) && !L->drain_started) {
      BeginDrain(L);
    }
    return true;
  }

  void RunLoop(Loop* L) {
    epoll_event events[64];
    // The flags are read before every wait as well as after it: a batch
    // that reads the eventfd also consumes the wakeup of a Stop() or
    // Drain() that set its flag after this batch's check, and a loop that
    // only looked after waking would then sleep through it (a zero-budget
    // Drain() could block forever joining it).
    while (Running(L)) {
      const int rc = ::epoll_wait(L->epoll_fd, events,
                                  static_cast<int>(std::size(events)),
                                  MillisUntil(L->next_sweep));
      if (rc < 0 && errno != EINTR) break;
      const Clock::time_point wake = Clock::now();
      if (!Running(L)) break;
      for (int i = 0; i < std::max(rc, 0); ++i) {
        void* ptr = events[i].data.ptr;
        if (ptr == nullptr) {
          HandleAccept(L);  // the listener (events carry nullptr for it)
          continue;
        }
        if (ptr == &L->event_fd) {
          uint64_t counter = 0;
          [[maybe_unused]] const ssize_t n =
              ::read(L->event_fd, &counter, sizeof(counter));
          AdoptPending(L);
          continue;
        }
        auto* c = static_cast<Conn*>(ptr);
        if (c->closed) continue;  // closed earlier in this batch
        const uint32_t ev = events[i].events;
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
          CloseConn(L, c);
          continue;
        }
        if ((ev & EPOLLOUT) != 0) {
          PumpOut(L, c);
          Touch(L, c);
          if (c->closed) continue;
        }
        if ((ev & EPOLLIN) != 0) HandleReadable(L, c);
      }
      FinishBatch(L);
      L->snap = ServingSnapshot{};  // an idle loop pins no old index
      const Clock::time_point now = Clock::now();
      if (now >= L->next_sweep) SweepDeadlines(L, now);
      L->graveyard.clear();
      if (L->metrics != nullptr) {
        L->metrics->RecordLoopLag(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - wake)
                .count()));
      }
    }
    // Stopping: disconnect every client this loop owns.
    while (!L->conns.empty()) CloseConn(L, L->conns.back().get());
    L->graveyard.clear();
  }

  Status Start() {
    const int flags = ::fcntl(listen_fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return Status::Unavailable(std::string("fcntl(listen): ") +
                                 std::strerror(errno));
    }
    for (uint32_t i = 0; i < env.options.reactor_threads; ++i) {
      loops.push_back(std::make_unique<Loop>());
      Loop* L = loops.back().get();
      if (env.metrics != nullptr) L->metrics = &env.metrics->shard(i);
      if (env.hooks) L->hooks = env.hooks(L->metrics);
      L->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (L->epoll_fd < 0) {
        return Status::Unavailable(std::string("epoll_create1(): ") +
                                   std::strerror(errno));
      }
      L->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (L->event_fd < 0) {
        return Status::Unavailable(std::string("eventfd(): ") +
                                   std::strerror(errno));
      }
      epoll_event wev{};
      wev.data.ptr = &L->event_fd;  // the eventfd's marker
      wev.events = EPOLLIN;
      if (::epoll_ctl(L->epoll_fd, EPOLL_CTL_ADD, L->event_fd, &wev) != 0) {
        return Status::Unavailable(std::string("epoll_ctl(eventfd): ") +
                                   std::strerror(errno));
      }
      // Every loop watches the listener; EPOLLEXCLUSIVE wakes one waiting
      // loop per connection instead of all of them.
      epoll_event lev{};
      lev.data.ptr = nullptr;  // the listener's marker
      lev.events = EPOLLIN | EPOLLEXCLUSIVE;
      if (::epoll_ctl(L->epoll_fd, EPOLL_CTL_ADD, listen_fd, &lev) != 0) {
        return Status::Unavailable(std::string("epoll_ctl(listen): ") +
                                   std::strerror(errno));
      }
    }
    for (const std::unique_ptr<Loop>& l : loops) {
      Loop* L = l.get();
      L->thread = std::thread([this, L] { RunLoop(L); });
    }
    return Status::Ok();
  }

  void StopLocked() {
    stop.store(true, std::memory_order_release);
    for (const std::unique_ptr<Loop>& l : loops) {
      if (l->event_fd >= 0) Signal(l->event_fd);
    }
    for (const std::unique_ptr<Loop>& l : loops) {
      if (l->thread.joinable()) l->thread.join();
    }
    for (const std::unique_ptr<Loop>& l : loops) {
      // Hand-offs that raced the stop were never adopted.
      for (const int fd : l->inbox) {
        CloseFd(fd);
        Release(l.get());
      }
      l->inbox.clear();
      CloseFd(l->epoll_fd);
      l->epoll_fd = -1;
      CloseFd(l->event_fd);
      l->event_fd = -1;
    }
  }
};

Reactor::Reactor(int listen_fd, ReactorEnv env)
    : impl_(std::make_unique<Impl>()) {
  impl_->listen_fd = listen_fd;
  impl_->env = std::move(env);
}

Reactor::~Reactor() { Stop(); }

Status Reactor::Start() { return impl_->Start(); }

bool Reactor::Drain(std::chrono::milliseconds budget) {
  {
    std::lock_guard<std::mutex> lock(impl_->shutdown_mu);
    if (impl_->stopped) return true;
  }
  impl_->draining.store(true, std::memory_order_release);
  for (const std::unique_ptr<Impl::Loop>& l : impl_->loops) {
    Signal(l->event_fd);
  }
  bool drained;
  {
    std::unique_lock<std::mutex> lock(impl_->drain_mu);
    drained = impl_->drain_cv.wait_for(lock, budget, [this] {
      return impl_->env.live_connections->load(std::memory_order_relaxed) ==
             0;
    });
  }
  Stop();
  return drained;
}

void Reactor::Stop() {
  std::lock_guard<std::mutex> lock(impl_->shutdown_mu);
  if (impl_->stopped) return;
  impl_->stopped = true;
  impl_->StopLocked();
}

std::vector<uint64_t> Reactor::LoopConnections() const {
  std::vector<uint64_t> counts;
  for (const std::unique_ptr<Impl::Loop>& l : impl_->loops) {
    counts.push_back(l->live.load(std::memory_order_relaxed));
  }
  return counts;
}

}  // namespace hc2l
