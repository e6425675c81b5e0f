#include "server/query_engine.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/query_common.h"

namespace hc2l {

namespace {

uint32_t ResolveThreads(uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

/// [begin, end) of shard s when `count` items split into `shards` contiguous
/// chunks (last chunk may be short).
struct ShardRange {
  size_t begin;
  size_t end;
};
ShardRange ShardOf(size_t count, size_t shards, size_t s) {
  const size_t chunk = (count + shards - 1) / shards;
  const size_t begin = s * chunk;
  return {std::min(begin, count), std::min(begin + chunk, count)};
}

/// Queries answered between deadline polls. A query is tens of nanoseconds
/// and a steady_clock read is ~20, so polling every ~1k queries keeps the
/// overhead invisible while bounding overshoot to a few tens of
/// microseconds.
constexpr size_t kDeadlineCheckQueries = 1024;

/// Shared expiry latch of one span-output call: workers poll it at chunk
/// boundaries; the first to observe the deadline passing trips it for
/// everyone. Without a deadline Expired() is a single branch.
class DeadlineGate {
 public:
  explicit DeadlineGate(const Deadline& deadline) : deadline_(deadline) {}

  bool Expired() {
    if (!deadline_.enabled) return false;
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (deadline_.Expired()) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  bool expired() const { return expired_.load(std::memory_order_relaxed); }

 private:
  const Deadline deadline_;
  std::atomic<bool> expired_{false};
};

/// The loop under the pairwise and one-to-many entry points: splits `count`
/// independent queries into `shards` contiguous shards over `pool` (inline
/// on the caller when there is one), has `answer(begin, end)` fill each
/// shard's slice of the output, and reports every finished shard to
/// `call.on_written`. Without a deadline a shard is one `answer` call; with
/// one, the shard is cut into poll-sized chunks. Returns false iff the
/// deadline expired before every shard finished.
template <typename Answer>
bool ShardAndPoll(ThreadPool& pool, size_t shards, size_t count,
                  const EngineCallOptions& call, const Answer& answer) {
  DeadlineGate gate(call.deadline);
  const auto run = [&](size_t begin, size_t end) {
    const size_t step =
        call.deadline.enabled ? kDeadlineCheckQueries : end - begin;
    for (size_t chunk = begin; chunk < end; chunk += step) {
      if (gate.Expired()) return;
      answer(chunk, std::min(end, chunk + step));
    }
    call.on_written(begin, end);
  };
  if (shards <= 1) {
    run(0, count);
  } else {
    pool.ParallelFor(shards, [&](size_t s) {
      const ShardRange r = ShardOf(count, shards, s);
      run(r.begin, r.end);
    });
  }
  return !gate.expired();
}

}  // namespace

template <typename Index>
BasicQueryEngine<Index>::BasicQueryEngine(const Index& index,
                                          const QueryEngineOptions& options)
    : index_(&index),
      options_(options),
      pool_(ResolveThreads(options.num_threads)) {
  if (options_.min_shard_queries == 0) options_.min_shard_queries = 1;
}

template <typename Index>
size_t BasicQueryEngine<Index>::NumShards(size_t queries,
                                          uint32_t max_threads) const {
  if (pool_.NumThreads() <= 1 || max_threads == 1) return 1;
  const size_t by_grain =
      (queries + options_.min_shard_queries - 1) / options_.min_shard_queries;
  size_t by_threads = static_cast<size_t>(pool_.NumThreads()) * 4;
  if (max_threads != 0) {
    // A per-request thread cap: concurrency never exceeds the shard count,
    // so capping shards at the requested thread count honors it (trading
    // away the 4x load-balance slack).
    by_threads = std::min(by_threads, static_cast<size_t>(max_threads));
  }
  return std::max<size_t>(1, std::min(by_grain, by_threads));
}

template <typename Index>
bool BasicQueryEngine<Index>::PointPairsInto(
    std::span<const Vertex> sources, std::span<const Vertex> targets,
    Dist* out, const EngineCallOptions& call) const {
  const size_t n = std::min(sources.size(), targets.size());
  const auto answer = [&](size_t begin, size_t end) {
    index_->PointPairsInto(sources.subspan(begin, end - begin),
                           targets.subspan(begin, end - begin), out + begin);
  };
  return ShardAndPoll(pool_, NumShards(n, call.max_threads), n, call, answer);
}

template <typename Index>
bool BasicQueryEngine<Index>::BatchQueryInto(
    Vertex source, std::span<const Vertex> targets, Dist* out,
    const EngineCallOptions& call) const {
  const auto answer = [&](size_t begin, size_t end) {
    index_->BatchQueryInto(source, targets.subspan(begin, end - begin),
                           out + begin);
  };
  return ShardAndPoll(pool_, NumShards(targets.size(), call.max_threads),
                      targets.size(), call, answer);
}

template <typename Index>
bool BasicQueryEngine<Index>::DistanceMatrixInto(
    std::span<const Vertex> sources, std::span<const Vertex> targets,
    const MatrixRows& rows, const EngineCallOptions& call) const {
  if (sources.empty() || targets.empty()) return true;
  DeadlineGate gate(call.deadline);
  const auto expired = [&gate] { return gate.Expired(); };
  // At most one slice per thread: each slice resolves and sorts its own
  // sides, so finer slicing would only repeat that work and shrink the
  // blocks. The longer side is the one sliced, so a 1 x N matrix spreads
  // its targets and an N x 1 its sources.
  const bool by_sources = sources.size() >= targets.size();
  const size_t longer = by_sources ? sources.size() : targets.size();
  const size_t slices =
      std::min({NumShards(sources.size() * targets.size(), call.max_threads),
                static_cast<size_t>(pool_.NumThreads()), longer});
  const size_t cells = sources.size() * targets.size();
  if (slices <= 1) {
    if (!index_->DistanceMatrixInto(sources, targets, rows, expired)) {
      return false;
    }
    call.on_written(0, cells);
    return true;
  }
  pool_.ParallelFor(slices, [&](size_t k) {
    const ShardRange r = ShardOf(longer, slices, k);
    if (r.begin == r.end) return;
    if (by_sources) {
      // A row slice is one contiguous row-major range: report it here.
      const auto slice = sources.subspan(r.begin, r.end - r.begin);
      const MatrixRows slice_rows = rows.Slice(r.begin, 0);
      if (index_->DistanceMatrixInto(slice, targets, slice_rows, expired)) {
        call.on_written(r.begin * targets.size(), r.end * targets.size());
      }
    } else {
      index_->DistanceMatrixInto(sources,
                                 targets.subspan(r.begin, r.end - r.begin),
                                 rows.Slice(0, r.begin), expired);
    }
  });
  if (gate.expired()) return false;
  // Column slices interleave within every row; the whole matrix is final
  // only once all of them are.
  if (!by_sources) call.on_written(0, cells);
  return true;
}

template class BasicQueryEngine<Hc2lIndex>;
template class BasicQueryEngine<DirectedHc2lIndex>;

}  // namespace hc2l
