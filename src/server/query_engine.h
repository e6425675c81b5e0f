#ifndef HC2L_SERVER_QUERY_ENGINE_H_
#define HC2L_SERVER_QUERY_ENGINE_H_

/// Shard-per-core parallel query front end over a shared immutable HC2L
/// index.
///
/// The index is read-only after construction, so query scaling is purely a
/// matter of partitioning work: the engine splits pairwise, one-to-many and
/// many-to-many workloads into contiguous shards over a reusable thread
/// pool, each shard writing its own disjoint slice of the caller's output.
/// Because every output slot is a pure function of (index, inputs) and is
/// written exactly once, results are **bit-identical to the sequential
/// index methods and independent of thread count or scheduling order** —
/// the property the differential test suite pins down.
///
/// DistanceMatrixInto splits the longer side into at most NumThreads()
/// contiguous slices; each worker runs the index's blocked many-to-many
/// primitive (`Index::DistanceMatrixInto`: both sides split down the
/// hierarchy, one min-plus panel kernel per LCA block) on its slice against
/// the whole other side, writing a disjoint sub-matrix.
///
/// The span-output entry points also report each finished shard through
/// EngineCallOptions::on_written, on the worker that computed it, so a
/// caller can post-process (the server: serialize) results in parallel
/// with the rest of the call; see docs/query_engine.md.
///
/// Thread-safety: all query methods are const and may be called concurrently
/// from multiple caller threads; the internal pool serializes its own
/// bookkeeping. Do not call engine methods from inside tasks running on the
/// same engine's pool.
///
/// The engine is also the facade's only executor: a Router runs every
/// request through a one-thread engine of its flavour (a ThreadPool of one
/// starts no worker, so each call runs inline on the caller), a
/// ThreadedRouter through a pooled one. At one thread a point query, a
/// small batch and a matrix go straight to the index primitive; at more,
/// workloads below min_shard_queries still run inline (a query is tens of
/// nanoseconds; handing it to another core costs more than answering it),
/// and the pool pays off for bulk workloads. See docs/query_engine.md.

#include <chrono>
#include <cstdint>
#include <span>

#include "common/thread_pool.h"
#include "common/types.h"
#include "core/directed_hc2l.h"
#include "core/hc2l.h"
#include "core/query_common.h"
#include "hc2l/query.h"

namespace hc2l {

/// A request's absolute deadline, resolved once when the request starts.
struct Deadline {
  bool enabled = false;
  std::chrono::steady_clock::time_point at{};

  /// The deadline `budget` from now. Zero means unlimited; a negative
  /// budget (a caller's remaining time that already ran out) is an expired
  /// deadline, not an absent one.
  static Deadline From(std::chrono::nanoseconds budget) {
    Deadline d;
    if (budget.count() != 0) {
      d.enabled = true;
      d.at = std::chrono::steady_clock::now() + budget;
    }
    return d;
  }

  bool Expired() const {
    return enabled && std::chrono::steady_clock::now() >= at;
  }
};

/// Per-call controls of the span-output engine entry points.
struct EngineCallOptions {
  /// When enabled, workers poll it at chunk boundaries (every thousand or
  /// so queries) and abandon remaining work once it passes.
  Deadline deadline;
  /// Caps shards in flight (and thus worker concurrency) for this call;
  /// 0 = no cap beyond the pool size, 1 = fully inline on the caller.
  uint32_t max_threads = 0;
  /// Hears each finished range [begin, end) of the output, on the thread
  /// that wrote it: one call per shard (a matrix sliced by sources: per row
  /// slice; matrix cells are numbered row-major, i * targets.size() + j),
  /// or one call over the whole output on the caller when the call runs
  /// inline or slices a matrix by targets. Ranges are disjoint, arrive in
  /// no particular order and possibly concurrently; a shard that gave up on
  /// the deadline reports nothing.
  RangeCallback on_written;
};

struct QueryEngineOptions {
  /// Worker threads participating in each call (callers + pool workers);
  /// 0 means std::thread::hardware_concurrency().
  uint32_t num_threads = 0;
  /// Minimum queries per shard. Shards smaller than this are not worth the
  /// submit/wake round trip; the engine falls back to inline execution when
  /// the whole workload is below it.
  uint32_t min_shard_queries = 1024;
};

/// The engine, templated over the index flavour. Results of every method are
/// exactly what the corresponding sequential index method returns, in input
/// order.
template <typename Index>
class BasicQueryEngine {
 public:
  /// The engine borrows `index`; it must outlive the engine.
  explicit BasicQueryEngine(const Index& index,
                            const QueryEngineOptions& options = {});

  BasicQueryEngine(const BasicQueryEngine&) = delete;
  BasicQueryEngine& operator=(const BasicQueryEngine&) = delete;

  /// Total participating threads (>= 1).
  uint32_t NumThreads() const { return pool_.NumThreads(); }

  const Index& index() const { return *index_; }

  // Each entry point writes into caller-owned memory with no per-call
  // result allocation, and returns false iff the call's deadline expired
  // before completion — output contents are then unspecified. K-nearest is
  // a BatchQueryInto plus SelectKNearestInto (the facade's request path).

  /// out[i] = d(sources[i], targets[i]), independent pairs sharded across
  /// the pool; spans must be the same length.
  bool PointPairsInto(std::span<const Vertex> sources,
                      std::span<const Vertex> targets, Dist* out,
                      const EngineCallOptions& call = {}) const;

  /// One-to-many into out[0 .. targets.size()), targets sharded across the
  /// pool.
  bool BatchQueryInto(Vertex source, std::span<const Vertex> targets,
                      Dist* out, const EngineCallOptions& call = {}) const;

  /// Many-to-many, the longer side sliced across the pool; row i of `rows`
  /// receives d(sources[i], targets[j]) for every j. Each slice is one
  /// blocked-matrix call.
  bool DistanceMatrixInto(std::span<const Vertex> sources,
                          std::span<const Vertex> targets,
                          const MatrixRows& rows,
                          const EngineCallOptions& call = {}) const;

 private:
  /// Number of contiguous shards for `queries` total independent queries:
  /// bounded below by min_shard_queries per shard and above by 4 shards per
  /// thread (load-balance tail vs. scheduling overhead), additionally capped
  /// by `max_threads` when non-zero. Returns <= 1 when sharding isn't worth
  /// it.
  size_t NumShards(size_t queries, uint32_t max_threads = 0) const;

  const Index* index_;
  QueryEngineOptions options_;
  /// Started once, reused by every call. Mutable state lives inside the
  /// pool's own synchronization; queries are logically const.
  mutable ThreadPool pool_;
};

using QueryEngine = BasicQueryEngine<Hc2lIndex>;
using DirectedQueryEngine = BasicQueryEngine<DirectedHc2lIndex>;

}  // namespace hc2l

#endif  // HC2L_SERVER_QUERY_ENGINE_H_
