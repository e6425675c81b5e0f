#ifndef HC2L_PUBLIC_QUERY_H_
#define HC2L_PUBLIC_QUERY_H_

/// The request/response bulk-query model of the public HC2L API.
///
/// This is the facade's one bulk-query surface. A caller — an RPC front end
/// (hc2ld, or any long-lived server) above all — parses a request into
/// borrowed id spans, executes it into buffers it owns (a server: its
/// connection's), and serializes from there: zero copies, zero per-request
/// heap traffic once the per-thread scratch is warm. This header is that
/// contract:
///
///   - QueryRequest   — what to compute: a kind (point batch | matrix |
///                      k-nearest | route), source/target id spans, per-request
///                      QueryOptions (deadline, thread cap, missing-vertex
///                      policy).
///   - QueryOutput    — where to write it: caller-owned spans.
///   - QueryResponse  — what happened: slots written, result shape.
///
/// Both executors run a request on the query engine: Router::Execute on a
/// one-thread engine, inline on the caller; ThreadedRouter::Execute shards
/// it over a pooled one. Both produce bit-identical results.
///
/// Shape contract (violations are kInvalidArgument, never an abort):
///
///   kPointBatch  sources.size() == targets.size(): pairwise, distances[i]
///                = d(sources[i], targets[i]) — a lone pair (1 x 1) included.
///                Otherwise sources.size() must be 1: one-to-many,
///                distances[i] = d(sources[0], targets[i]). Either way
///                output.distances.size() must equal targets.size() exactly.
///   kMatrix      row-major many-to-many: distances[i * targets.size() + j]
///                = d(sources[i], targets[j]); output.distances.size() must
///                equal sources.size() * targets.size() exactly.
///   kKNearest    sources.size() == 1; targets are the candidates. Requires
///                output.distances.size() == output.vertices.size() >=
///                min(k, targets.size()); QueryResponse::written reports how
///                many (distance, vertex) slots actually hold results —
///                unreachable candidates are excluded, so it may be fewer.
///   kRoute       sources.size() == 1 and targets.size() == 1: one unpacked
///                shortest path. output.vertices receives the full vertex
///                sequence (source first, target last; nothing when the
///                target is unreachable) and output.distances[0] the path
///                weight (kInfDist when unreachable), so
///                output.distances.size() must be >= 1. A path longer than
///                output.vertices fails with kInvalidArgument naming the
///                required size. `k` must be 0 or 1 (alternatives go through
///                Router::Routes, which allocates per route).
///                QueryResponse::written reports the vertex count; shape is
///                (1, written). Requires route hints or an attached graph —
///                otherwise kFailedPrecondition.
///
/// Deadline semantics: QueryOptions::deadline is a wall-clock budget
/// measured from Execute entry; zero means unlimited. Expiry is detected at
/// chunk boundaries (roughly every thousand queries; once, before the
/// unpacking, for kRoute) and fails the request with kDeadlineExceeded;
/// output spans may then hold partial results and their contents are
/// unspecified. A request whose budget is already spent fails before
/// computing anything.
///
/// Buffer ownership: the request and output spans are BORROWED for the
/// duration of the Execute call only — the library never stores them. The
/// caller may (and a server should) reuse the same buffers across requests.
/// Output spans must not alias each other or the input spans.
///
/// Written ranges: QueryOutput::on_written, when set, is called with
/// [begin, end) index ranges of output.distances as soon as they hold their
/// final values, from the thread that wrote them — so a server can
/// serialize each range on the thread that computed it. kPointBatch and
/// kMatrix report ranges that are non-empty, pairwise disjoint and together
/// cover [0, written) exactly once; kKNearest and kRoute report none. The
/// order of the calls, and the thread making each, are unspecified: a
/// ThreadedRouter reports one range per engine shard (a matrix sliced by
/// sources: one per row slice) from whichever pool thread ran it, while a
/// Router, a matrix sliced by targets and the missing-vertex
/// filter-and-scatter paths report [0, written) once, on the calling
/// thread, after the last write. Calls may run concurrently with each
/// other. Nothing is reported when shape or id validation fails; when
/// Execute returns an error (a deadline expiry, say) some ranges may
/// already have been reported, and whatever the callback made of them must
/// be discarded.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/types.h"

namespace hc2l {

/// What a QueryRequest computes. See the shape contract above.
enum class QueryKind : uint8_t {
  kPointBatch = 0,
  kMatrix = 1,
  kKNearest = 2,
  kRoute = 3,
};

/// What to do with an out-of-range vertex id in a request. A serving front
/// end sees ids chosen by remote callers; whether a stale id should fail the
/// whole request or degrade to "unreachable" is the caller's call, not the
/// library's.
enum class MissingVertexPolicy : uint8_t {
  /// Any out-of-range id fails the request with kInvalidArgument (the
  /// default, matching Router::Distance).
  kError = 0,
  /// Out-of-range ids behave like unreachable vertices: kInfDist distances,
  /// excluded from k-nearest results. The request succeeds.
  kUnreachable = 1,
  /// Trusted-caller fast path: ids are NOT validated at all. A front end
  /// that already range-checked every id (at parse time, say) skips the
  /// facade's second scan over the id spans — a few nanoseconds per target
  /// that a hot batch path cares about. An out-of-range id under this
  /// policy aborts the process (internal invariant), exactly like
  /// Router::DistanceUnchecked.
  kUnchecked = 2,
};

/// Per-request execution options.
struct QueryOptions {
  /// Wall-clock budget measured from Execute entry; zero = unlimited. On
  /// expiry the request fails with kDeadlineExceeded (output unspecified).
  std::chrono::nanoseconds deadline{0};
  /// Parallelism cap: 0 = the executor's default (Router: its one thread;
  /// ThreadedRouter: its full pool), 1 = force inline execution even on a
  /// ThreadedRouter, n > 1 = cap the shards in flight at n.
  uint32_t num_threads = 0;
  /// Out-of-range id handling; see MissingVertexPolicy.
  MissingVertexPolicy missing_vertices = MissingVertexPolicy::kError;
};

/// One bulk query: a kind, borrowed id spans, options. Cheap to construct
/// per request; the spans must stay valid for the Execute call.
struct QueryRequest {
  QueryKind kind = QueryKind::kPointBatch;
  /// kPointBatch: the single source (size 1) or per-pair sources;
  /// kMatrix: matrix rows; kKNearest and kRoute: the single source (size 1).
  std::span<const Vertex> sources;
  /// kPointBatch: batch targets or per-pair targets; kMatrix: matrix
  /// columns; kKNearest: the candidate set; kRoute: the single target
  /// (size 1).
  std::span<const Vertex> targets;
  /// kKNearest: how many nearest candidates to select. kRoute: must be 0 or
  /// 1 (the single shortest path).
  size_t k = 0;
  QueryOptions options;
};

/// Non-owning `void(size_t begin, size_t end)` callable: the written-range
/// callback of QueryOutput (see "Written ranges" above). It borrows the
/// callable it wraps, which must outlive every call. Default-constructed it
/// does nothing; an empty range is never passed on.
class RangeCallback {
 public:
  RangeCallback() = default;
  template <typename Fn>
    requires(!std::is_same_v<Fn, RangeCallback>)
  RangeCallback(const Fn& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(&fn), call_([](const void* c, size_t begin, size_t end) {
          (*static_cast<const Fn*>(c))(begin, end);
        }) {}

  void operator()(size_t begin, size_t end) const {
    if (call_ != nullptr && begin < end) call_(ctx_, begin, end);
  }

 private:
  const void* ctx_ = nullptr;
  void (*call_)(const void*, size_t, size_t) = nullptr;
};

/// Caller-owned output buffers. `vertices` is only written for kKNearest
/// (candidate ids parallel to `distances`) and kRoute (the unpacked vertex
/// sequence); other kinds ignore it. `on_written`, when set, hears which
/// ranges of `distances` are final, as they become final.
struct QueryOutput {
  QueryOutput() = default;
  explicit QueryOutput(std::span<Dist> dists, std::span<Vertex> verts = {},
                       RangeCallback written = {})
      : distances(dists), vertices(verts), on_written(written) {}

  std::span<Dist> distances;
  std::span<Vertex> vertices;
  RangeCallback on_written;
};

/// Execution summary of a successful request.
struct QueryResponse {
  /// Slots written. kPointBatch: targets.size() distances; kMatrix:
  /// sources.size() * targets.size() distances; kKNearest: the number of
  /// selected neighbors (<= min(k, candidates)); kRoute: the number of path
  /// vertices (0 when the target is unreachable).
  size_t written = 0;
  /// Result shape: kMatrix reports (sources.size(), targets.size());
  /// kPointBatch, kKNearest and kRoute report (1, written).
  size_t rows = 0;
  size_t cols = 0;
};

}  // namespace hc2l

#endif  // HC2L_PUBLIC_QUERY_H_
