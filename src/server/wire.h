#ifndef HC2L_SERVER_WIRE_H_
#define HC2L_SERVER_WIRE_H_

/// The hc2ld wire protocol: line-delimited JSON over a byte stream.
///
/// One request per line, one response line per request, in order. Vertex
/// ids are 0-based (the facade's id space; the CLI's DIMACS-facing `query`
/// subcommand is the only 1-based surface). Full protocol reference with
/// examples: docs/server.md.
///
/// Requests (unknown keys are ignored; `//` shows the defaults):
///
///   {"op":"batch",   "source":S, "targets":[...]}        one-to-many
///   {"op":"point",   "sources":[...], "targets":[...]}   pairwise
///   {"op":"matrix",  "sources":[...], "targets":[...]}   many-to-many
///   {"op":"knearest","source":S, "candidates":[...], "k":K}
///   {"op":"route",   "source":S, "target":T [, "k":K]}   unpacked path(s)
///   {"op":"info"}    {"op":"ping"}
///   {"op":"reload" [, "path":"/new/index"]}              admin: hot swap
///   {"op":"update_weights","edges":[[u,v,w],...]}        admin: live repair
///
///   optional per-request options, mapped onto hc2l::QueryOptions:
///     "deadline_ms": B   // 0 = unlimited
///     "threads": T       // 0 = server default, 1 = inline
///     "missing": "error" | "unreachable"
///     "stream": true     // matrix only: chunked response frames (below)
///
/// Responses:
///
///   {"ok":true,"op":"batch","distances":[7,null,3]}      null = unreachable
///   {"ok":true,"op":"matrix","rows":R,"cols":C,"distances":[...]}  row-major
///   {"ok":true,"op":"knearest","count":N,"neighbors":[[dist,vertex],...]}
///   {"ok":true,"op":"route","distance":D,"vertices":[s,...,t]}     k <= 1
///   {"ok":true,"op":"route","count":N,"routes":[                   k >= 2
///       {"distance":D,"vertices":[...]},...]}            ascending by weight
///   {"ok":true,"op":"info","directed":false,"vertices":N,...}
///   {"ok":true,"op":"reload","epoch":E}
///   {"ok":true,"op":"update_weights","epoch":E}
///   {"ok":false,"code":"InvalidArgument","message":"..."}
///   {"ok":false,"code":"Overloaded","retry_after_ms":M,"message":"..."}
///
/// An unreachable route answers distance null with an empty vertex array
/// (count 0 with empty routes for k >= 2). A route against an index that
/// carries no route hints and has no graph attached answers ok:false with
/// code FailedPrecondition.
///
/// Streamed matrix responses ("stream":true): ONE request, SEVERAL response
/// lines — a header, zero or more chunk frames carrying contiguous row-major
/// slices of the distance matrix, and a trailer. This lifts the
/// kMaxResultEntries per-request cap (a streamed request is bounded by
/// kMaxStreamResultEntries instead) while the server's memory stays bounded:
/// each chunk is computed, serialized and flushed before the next.
///
///   {"ok":true,"op":"matrix","stream":true,"rows":R,"cols":C,
///    "chunk_entries":K}                                  header
///   {"ok":true,"op":"matrix","chunk":0,"count":N0,"distances":[...]}
///   ...chunk frames, "chunk" strictly increasing from 0...
///   {"ok":true,"op":"matrix","done":true,"chunks":M,"entries":R*C}
///
/// Chunks are entry-aligned (never split mid-number) and hold ~chunk_entries
/// entries each — whole rows per chunk when a row fits, a single oversized
/// row otherwise. A mid-stream failure (deadline expiry, engine error)
/// replaces the remaining chunks with one {"ok":false,...} line and NO
/// trailer — a client must treat a missing "done" frame as an aborted
/// stream. StreamReassembler below implements the client side.
///
/// This header is the testable, socket-free core: parsing into reusable
/// buffers and executing into reusable buffers — the per-connection
/// zero-allocation steady state the request/response facade API exists for.
/// The TCP layer (hc2l/server.h) is a thin loop around RequestHandler; it
/// passes the current serving snapshot's routers in with every line so a
/// hot reload (the "reload" op, or SIGHUP on hc2ld) swaps the index under
/// live connections without touching this layer.

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "hc2l/query.h"
#include "hc2l/router.h"
#include "hc2l/status.h"

namespace hc2l {

/// Edge deltas one "update_weights" request may carry. Bounds the parse
/// buffer (and the repair work one wire line can demand) the same way
/// kMaxResultEntries bounds query output; real update batches are tiny.
inline constexpr uint64_t kMaxUpdateEdges = uint64_t{1} << 16;

/// Alternative routes one "route" request may ask for (its "k" key).
/// Alternatives cost one hub-restricted unpack each and allocate per route;
/// this keeps one wire line from demanding thousands. A larger k is
/// rejected, not clamped — a client asking for 10000 alternatives
/// misunderstands the protocol and should hear so.
inline constexpr uint64_t kMaxRouteAlternatives = 16;

/// Nominal entries per streamed-matrix chunk frame. Chunks are whole rows
/// when a row fits (rounding the real chunk size down toward this), one row
/// per chunk otherwise (then a chunk exceeds this by cols - 1 at most).
/// Bounds the per-connection compute-and-serialize granularity — and the
/// latency of one flush — without a per-request knob.
inline constexpr uint64_t kStreamChunkEntries = uint64_t{1} << 16;

/// Result entries a streamed matrix request may produce in total. Streaming
/// exists to lift RequestHandler::kMaxResultEntries, but an unbounded
/// request would still pin an event loop for hours; 2^30 entries (~7 GB of JSON
/// across the stream, seconds of engine time) is the sanity ceiling.
inline constexpr uint64_t kMaxStreamResultEntries = uint64_t{1} << 30;

/// A request's "op", resolved once by the parser. The named ops run from
/// kPing to kRoute, and the query ops among them from kPoint to kRoute
/// (the parser and ServerMetrics iterate and index by these ranges).
enum class WireOp : uint8_t {
  kNone,     // no "op" key, or an empty one
  kUnknown,  // a name this protocol does not define (see WireRequest)
  kPing,
  kInfo,
  kReload,
  kUpdateWeights,
  kPoint,
  kBatch,
  kMatrix,
  kKNearest,
  kRoute,
};

/// The op's wire name; "" for kNone and kUnknown.
std::string_view WireOpName(WireOp op);

/// One parsed request, held in reusable buffers (Clear() keeps capacity).
struct WireRequest {
  WireOp op = WireOp::kNone;
  std::string unknown_op;  // kUnknown only: the "op" string as sent
  std::vector<Vertex> sources;
  std::vector<Vertex> targets;  // also the knearest candidates / route target
  uint64_t k = 0;               // knearest neighbors / route alternatives
  std::string path;  // "reload" only: index file to swap to ("" = original)
  std::vector<EdgeDelta> edges;  // "update_weights" only
  bool stream = false;           // "matrix" only: chunked response frames
  QueryOptions options;

  void Clear() {
    op = WireOp::kNone;
    sources.clear();
    targets.clear();
    k = 0;
    path.clear();
    edges.clear();
    stream = false;
    options = QueryOptions{};
  }
};

/// Parses one request line into `req` (which is Clear()ed first). Keys and
/// the op name are matched as views into `line`; only a string holding an
/// escape is decoded into a buffer. A repeated key overwrites (the last
/// "op" wins). JSON ids larger than the 32-bit vertex space parse as
/// kInvalidVertex, i.e. an out-of-range id handled by the request's
/// missing-vertex policy. Errors: kInvalidArgument with a
/// position-carrying message; `req` contents are then unspecified.
/// Carries the "wire.parse" fault point.
Status ParseRequestLine(std::string_view line, WireRequest* req);

/// Appends `values` to *out comma-separated, without brackets: the number
/// writer behind every list in a response. Entries are plain decimal
/// digits (byte for byte what std::to_chars writes); a kInfDist distance
/// is null.
void AppendNumberList(std::string* out, std::span<const Dist> values);
void AppendNumberList(std::string* out, std::span<const Vertex> values);

/// Appends the wire's load-shedding response line: ok:false, code
/// "Overloaded", a retry_after_ms backoff hint, and `what` as the message.
/// Shared by the per-request admission path (RequestHandler) and the
/// connection-level admission path (the TCP accept loop).
void AppendOverloadedResponse(uint64_t retry_after_ms, std::string_view what,
                              std::string* out);

/// Appends the wire's generic error response line for `status`:
/// {"ok":false,"code":...,"message":...}. Shared by the handler and by the
/// TCP layer's coalesced-batch demux path.
void AppendWireError(const Status& status, std::string* out);

/// Server-side operations the protocol core surfaces on the wire but cannot
/// perform itself. All hooks are optional: a hook-less handler (the
/// socket-free unit tests) executes queries unconditionally, answers
/// "reload" with Unimplemented and emits no serving section in "info".
struct ServerHooks {
  /// Admission control, consulted once per query op (ping/info/reload are
  /// exempt — they must work on an overloaded server). Return true to
  /// execute; false sheds the request: the handler answers Overloaded
  /// carrying *retry_after_ms and does not execute. Every admitted request
  /// is released exactly once after it finishes; release(n) releases n at
  /// once (the reactor releases a whole coalesced run with one call).
  std::function<bool(uint64_t* retry_after_ms)> admit;
  std::function<void(uint64_t count)> release;
  /// The "reload" op: open `path` (empty = the server's original index
  /// path) into a fresh serving snapshot and swap it in; on success return
  /// Ok and set *epoch to the new snapshot's epoch. Queries already
  /// executing keep the old snapshot (RCU via shared_ptr).
  std::function<Status(std::string_view path, uint64_t* epoch)> reload;
  /// The "update_weights" op: repair a standby copy of the serving index
  /// for the changed edge weights and swap it in exactly like reload (epoch
  /// bump on success; a failed repair leaves the serving snapshot — and its
  /// epoch — untouched).
  std::function<Status(std::span<const EdgeDelta> edges, uint64_t* epoch)>
      update_weights;
  /// Appends extra "info" fields (serving stats: epoch, in-flight, shed
  /// counts, limits) as raw `,"key":value` JSON text.
  std::function<void(std::string* json)> info;
  /// Streaming backpressure: called between chunk frames of a streamed
  /// response with the response text accumulated so far. The TCP layer moves
  /// *out into the connection's socket write path (out is cleared or left
  /// as-is per its choosing) and may block until the socket drains. Return
  /// false to abort the stream (connection evicted / shutting down): the
  /// handler stops computing and appends nothing further. Absent hook =
  /// chunks accumulate in *out (the socket-free tests read them all at once).
  std::function<bool(std::string* out)> flush;
  /// Observability: called once per executed query op with the op and its
  /// handling latency in nanoseconds: parse + execute + serialize, measured
  /// from the time the caller handed to Prepare() (HandleLine: its own
  /// entry; the reactor: the read that delivered the line). A coalesced
  /// request's latency ends at the time its run handed to
  /// AppendStagedResponse, so it includes the wait for the shared batch.
  std::function<void(WireOp op, uint64_t ns)> record;
};

/// Parses one request line, executes it against the routers passed by the
/// caller, and appends exactly one '\n'-terminated JSON response line to
/// *out — unless the line is empty or all-whitespace, which appends nothing
/// (keepalive-friendly). Bad input of any shape becomes an {"ok":false,...}
/// response line, never an abort. One handler per connection; its buffers
/// are reused across lines.
class RequestHandler {
 public:
  /// Result entries a single request may produce (batch targets, matrix
  /// cells). Protects the per-connection output buffers from one request
  /// asking for gigabytes; generous for real workloads (4M distances).
  static constexpr uint64_t kMaxResultEntries = uint64_t{1} << 22;

  /// Pairs a request may carry and still be staged into a coalesced run.
  static constexpr size_t kMaxStagedPairs = 16;

  using Clock = std::chrono::steady_clock;

  RequestHandler() = default;
  explicit RequestHandler(ServerHooks hooks) : hooks_(std::move(hooks)) {}

  /// `router` and `threaded` are the serving snapshot for THIS line; the
  /// TCP layer checks for a newer snapshot before every line, so a hot
  /// reload takes effect between requests of one connection. `threaded`
  /// routes through the server's shared query engine (per-request
  /// "threads" caps it).
  void HandleLine(std::string_view line, const Router& router,
                  const ThreadedRouter& threaded, std::string* out);

  /// --- Two-phase API for the reactor's request coalescing ---
  ///
  /// The reactor wants to merge small concurrently-arriving point/batch
  /// requests from several connections into ONE engine call. HandleLine
  /// can't express that (it executes immediately), so Prepare() splits the
  /// parse from the execute: it parses exactly once (the "wire.parse" fault
  /// point fires at most once per line, same as HandleLine), then either
  ///
  ///  - kDone:    the line was fully handled (admin op, error, non-query,
  ///              not coalescible) and *out got its response line(s);
  ///  - kStaged:  a coalescible point/batch query. Its (source,target)
  ///              pairs were APPENDED pairwise to *sources/*targets and
  ///              *plan records the slice + response shape. Nothing was
  ///              executed and nothing written to *out; the caller runs one
  ///              combined pairwise query over all staged pairs and calls
  ///              AppendStagedResponse(plan, dists, done) per staged line to
  ///              demux — byte-identical to what HandleLine would have
  ///              produced.
  ///              The admission hook was already consulted (admitted); the
  ///              caller owes hooks.release one count per kStaged line
  ///              after demuxing (or on abandoning the batch).
  ///  - kExecute: a non-coalescible query (matrix/knearest/route/stream,
  ///              custom options, too many pairs). Parsed state is held in
  ///              the handler; the caller finishes it with ExecuteParsed()
  ///              against the snapshot of its choosing.
  ///
  /// Coalescing only stages requests whose answers cannot depend on
  /// batching: default options (no deadline, no thread override, missing
  /// policy checked), all ids in range, <= kMaxStagedPairs pairs. Without
  /// run arrays (`sources`, `targets` or `plan` null) nothing is staged
  /// (kStaged never returned), as in HandleLine.
  ///
  /// `received` is when the line arrived; the line's recorded latency
  /// (hooks.record) starts there. Prepare reads no clock itself.
  enum class LineAction { kDone, kStaged, kExecute };
  struct StagePlan {
    WireOp op = WireOp::kPoint;  // kPoint or kBatch: the response's "op"
    size_t first = 0;            // slice of the caller's staged pair arrays
    size_t count = 0;
    /// Prepare()'s `received`: the staged request's latency starts here.
    Clock::time_point start{};
  };
  LineAction Prepare(std::string_view line, const Router& router,
                     const ThreadedRouter& threaded,
                     std::vector<Vertex>* sources,
                     std::vector<Vertex>* targets, StagePlan* plan,
                     Clock::time_point received, std::string* out);
  /// Executes the request parsed by the last kExecute Prepare(). Exactly the
  /// tail of HandleLine: admission, engine call, response serialization;
  /// reads the clock once at its end when hooks.record is set.
  void ExecuteParsed(const Router& router, const ThreadedRouter& threaded,
                     std::string* out);
  /// Serializes the response line for one staged request from its slice of
  /// the combined pairwise result, then reports its latency through
  /// hooks.record: from plan.start to `done`, the caller's one clock read
  /// for the whole run, so parse, the wait for the shared batch and execute
  /// all count, as in ExecuteParsed().
  void AppendStagedResponse(const StagePlan& plan, std::span<const Dist> dists,
                            Clock::time_point done, std::string* out) const;

 private:
  void AppendErrorResponse(const Status& status, std::string* out) const;
  /// hooks_.record(op, end - start); the caller checked the hook is set.
  void Record(WireOp op, Clock::time_point start, Clock::time_point end) const;
  /// Streamed-matrix execution: header + chunk frames + trailer into *out,
  /// honoring hooks_.flush between frames. `req_` holds the parsed request.
  void StreamMatrix(const ThreadedRouter& threaded, std::string* out);

  ServerHooks hooks_;
  WireRequest req_;
  std::vector<Dist> dists_;
  std::vector<Vertex> verts_;
  // Classification carried from Prepare() to ExecuteParsed().
  QueryKind kind_ = QueryKind::kPointBatch;
  uint64_t result_entries_ = 0;
  Clock::time_point received_{};  // the last Prepare()'s `received`
};

/// Client-side reassembly of a streamed matrix response ("stream":true).
/// Feed() it every response line belonging to the stream (header first);
/// distances accumulate row-major. Used by the CLI client, the smoke test
/// and the framing unit tests.
class StreamReassembler {
 public:
  /// Consumes one response line (without the trailing '\n'). Returns an
  /// error for malformed frames: a header whose rows * cols exceeds
  /// kMaxStreamResultEntries (or overflows), out-of-order "chunk" index,
  /// count/entries mismatch, a trailer before all entries arrived, frames
  /// after done, or a server-side {"ok":false,...} abort (surfaced with its
  /// code). After an error the reassembler is poisoned; further Feed()s
  /// fail.
  Status Feed(std::string_view line);

  bool done() const { return done_; }
  uint64_t rows() const { return rows_; }
  uint64_t cols() const { return cols_; }
  uint64_t chunks() const { return chunks_; }
  const std::vector<Dist>& distances() const { return dists_; }

 private:
  Status Poison(Status st) {
    poisoned_ = true;
    return st;
  }

  bool header_seen_ = false;
  bool done_ = false;
  bool poisoned_ = false;
  uint64_t rows_ = 0;
  uint64_t cols_ = 0;
  uint64_t chunks_ = 0;  // chunk frames consumed so far
  std::vector<Dist> dists_;
};

}  // namespace hc2l

#endif  // HC2L_SERVER_WIRE_H_
