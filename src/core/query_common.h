#ifndef HC2L_CORE_QUERY_COMMON_H_
#define HC2L_CORE_QUERY_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/label_arena.h"
#include "common/simd.h"
#include "common/types.h"
#include "hierarchy/tree_code.h"

namespace hc2l {

/// A non-trivial batch target awaiting its min-plus reduction.
struct PendingTarget {
  uint32_t out_index;
  Vertex core;
  Dist offset;  // contraction detour (source side + target side)
};

/// A PendingTarget in SweepPendingByLevel's level order, its array
/// resolved.
struct SweepTarget {
  const uint32_t* data;
  uint32_t len;
  uint32_t out_index;
  Dist offset;
};

/// One level array of the arena: its first entry and true (unpadded)
/// length.
struct LevelArray {
  const uint32_t* data;
  uint32_t len;
};

/// Row-output view of the matrix paths: a row-major buffer whose row i
/// starts at `flat + i * stride`. The zero-copy request path (one flat
/// caller span) and the engine's slices (a sub-block of it) share it.
struct MatrixRows {
  Dist* flat = nullptr;
  size_t stride = 0;

  Dist* Row(size_t i) const { return flat + i * stride; }

  /// The view whose cell (0, 0) is this view's cell (row, col).
  MatrixRows Slice(size_t row, size_t col) const {
    return {.flat = flat + row * stride + col, .stride = stride};
  }
};

/// Non-owning `bool()` callable a matrix call polls between blocks and
/// source rows; returning true abandons the call. Default-constructed it
/// never stops, so calls with and without a deadline run the same code.
class StopPoll {
 public:
  StopPoll() = default;
  template <typename Fn>
    requires(!std::is_same_v<Fn, StopPoll>)
  StopPoll(const Fn& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(&fn), call_([](const void* c) {
          return static_cast<bool>((*static_cast<const Fn*>(c))());
        }) {}

  bool operator()() const { return call_ != nullptr && call_(ctx_); }

 private:
  const void* ctx_ = nullptr;
  bool (*call_)(const void*) = nullptr;
};

/// Cells a matrix call answers between two StopPoll polls: a clock read is
/// ~20 ns and a cell a few, so this amortizes the poll while bounding
/// deadline overshoot to ~2k cells.
inline constexpr size_t kMatrixPollCells = 2048;

/// One vertex as the batch and matrix paths see it: contraction root (core
/// id; the vertex itself without contraction), the root's packed tree code,
/// the detour between the vertex and its root (as a source: into the core;
/// as a target: out of it; kInfDist when a one-way pendant cuts it off) and,
/// on a matrix side, the vertex's row or column in the output.
struct ResolvedVertex {
  TreeCode code;
  Vertex core;
  uint32_t pos;
  Dist detour;
};

/// A hierarchy node's own vertices on both matrix sides, as offsets into
/// the resolved sides: the only place two vertices can share a contraction
/// root.
struct MatrixGroup {
  uint32_t s_begin;
  uint32_t s_size;
  uint32_t t_begin;
  uint32_t t_size;
};

/// Work counter in front of a StopPoll: Tick(cells) polls on the first call
/// and then whenever the cells answered since the last poll would pass
/// kMatrixPollCells.
class MatrixPoller {
 public:
  explicit MatrixPoller(StopPoll stop) : stop_(stop) {}

  /// False iff the poll fired (the call must be abandoned).
  bool Tick(size_t cells) {
    if (since_ + cells > kMatrixPollCells) {
      if (stop_()) return false;
      since_ = 0;
    }
    since_ += cells;
    return true;
  }

 private:
  StopPoll stop_;
  size_t since_ = kMatrixPollCells;
};

/// Reusable per-thread working memory of the batch fast path. The
/// request/response API promises a zero-allocation hot path for span-output
/// batch and matrix queries, so every intermediate the old code allocated
/// per call — the pending list, its LCA levels, the counting-sort buffers —
/// lives here instead and keeps its capacity across calls. One instance per
/// thread (TlsQueryScratch) is enough: no entry point calls another while
/// it holds any field.
struct QueryScratch {
  std::vector<PendingTarget> pending;
  std::vector<uint32_t> level_of;
  // SweepPendingByLevel's counting sort.
  std::vector<uint32_t> bucket_pos;
  std::vector<SweepTarget> sweep_targets;
  std::vector<uint32_t> cursor;
  // SelectKNearestInto's candidate ranking.
  std::vector<uint32_t> knn_idx;
  // BlockedDistanceMatrix: both resolved sides, the here-groups of their
  // nodes, one block's level arrays of both sides, one panel of it and the
  // panel's per-column metadata and kernel output.
  std::vector<ResolvedVertex> matrix_sources;
  std::vector<ResolvedVertex> matrix_targets;
  std::vector<MatrixGroup> matrix_groups;
  std::vector<LevelArray> source_arrays;
  std::vector<LevelArray> target_arrays;
  std::vector<uint32_t> panel;
  std::vector<uint32_t> panel_out;
  std::vector<uint32_t> panel_pos;
  std::vector<Dist> panel_detour;
};

/// The calling thread's QueryScratch. Function-local so the first query on a
/// thread constructs it (empty vectors — no allocation until first use).
inline QueryScratch& TlsQueryScratch() {
  static thread_local QueryScratch scratch;
  return scratch;
}

/// The label part of the blocked matrix: recurses down the hierarchy from
/// the root, splitting both resolved sides in place into each node's own
/// vertices and its 0- and 1-subtrees, and at each node answers the four
/// rectangles whose pairs have their LCA there — S_here x T, S_0 x T_here,
/// S_0 x T_1, S_1 x [T_here, T_0] — from that level's arrays alone (source
/// arrays from `source_labels`, target arrays from `target_labels`). Each
/// block resolves both sides' arrays once; blocks of at least 4 sources x 8
/// targets transpose the target arrays into a column panel for
/// simd::MinPlusPanel, two sources per pass; narrower ones reduce pair by
/// pair with simd::MinPlusPadded. A subproblem with one source left is swept
/// by level like a batch (SweepPendingByLevel). Writes every cell of the
/// matrix as min-plus + both detours (kInfDist when unreachable) and
/// records in scratch->matrix_groups every node with vertices of both
/// sides, for BlockedDistanceMatrix's same-root fix-up. False iff `poller`
/// fired.
bool BlockedMinPlus(const LabelStore& source_labels,
                    const LabelStore& target_labels,
                    std::span<ResolvedVertex> sources,
                    std::span<ResolvedVertex> targets,
                    const MatrixRows& rows, MatrixPoller* poller,
                    QueryScratch* scratch);

/// The level sweep of the batch fast path and of the blocked matrix's
/// one-source subproblems: counting-sorts the first `count` entries of
/// `scratch->pending` by LCA level (scratch->level_of, parallel to pending,
/// values <= height) and sweeps each level bucket against the source's
/// level array at source_labels index s_base + level (the directed index's
/// out-labels; the undirected one passes one store twice). The counting
/// sort resolves every target's array as it scatters the target, and the
/// sweep prefetches arrays a few targets ahead of the one it reduces.
/// Writes out[pending[p].out_index] for every p < count. The counting-sort
/// buffers reuse `scratch` capacity, so steady-state calls do not allocate.
inline void SweepPendingByLevel(const LabelStore& source_labels,
                                const LabelStore& target_labels,
                                uint32_t s_base, uint32_t height, size_t count,
                                QueryScratch* scratch, Dist* out) {
  constexpr uint32_t kUnreachableLabel = UINT32_MAX;
  const std::vector<PendingTarget>& pending = scratch->pending;
  const std::vector<uint32_t>& level_of = scratch->level_of;
  std::vector<uint32_t>& bucket_pos = scratch->bucket_pos;
  bucket_pos.assign(height + 2, 0);
  for (size_t p = 0; p < count; ++p) ++bucket_pos[level_of[p] + 1];
  for (uint32_t l = 0; l <= height; ++l) bucket_pos[l + 1] += bucket_pos[l];
  // Scatter the targets into level order with their arrays resolved: the
  // lookups of different targets are independent, so their misses overlap
  // here instead of stalling the sweep.
  std::vector<SweepTarget>& sorted = scratch->sweep_targets;
  if (sorted.size() < count) sorted.resize(count);
  {
    std::vector<uint32_t>& cursor = scratch->cursor;
    cursor.assign(bucket_pos.begin(), bucket_pos.end() - 1);
    for (size_t p = 0; p < count; ++p) {
      const uint32_t idx = target_labels.base[pending[p].core] + level_of[p];
      sorted[cursor[level_of[p]]++] = {
          target_labels.arena.data() + target_labels.level_start[idx],
          target_labels.level_len[idx], pending[p].out_index,
          pending[p].offset};
    }
  }

  // Per level, resolve the source array once and sweep the bucket,
  // prefetching the array kArrayAhead targets ahead.
  constexpr uint32_t kArrayAhead = 3;
  for (uint32_t level = 0; level <= height; ++level) {
    const uint32_t bucket_begin = bucket_pos[level];
    const uint32_t bucket_end = bucket_pos[level + 1];
    if (bucket_begin == bucket_end) continue;
    const uint32_t s_idx = s_base + level;
    const uint32_t* a =
        source_labels.arena.data() + source_labels.level_start[s_idx];
    const uint32_t len_a = source_labels.level_len[s_idx];
    simd::PrefetchArray(a, len_a * sizeof(uint32_t));
    for (uint32_t p = bucket_begin; p < bucket_end; ++p) {
      if (p + kArrayAhead < count) {
        const SweepTarget& next = sorted[p + kArrayAhead];
        simd::PrefetchArray(next.data, next.len * sizeof(uint32_t));
      }
      const SweepTarget& cur = sorted[p];
      const uint32_t best =
          simd::MinPlusPadded(a, cur.data, std::min(len_a, cur.len));
      out[cur.out_index] =
          best >= kUnreachableLabel ? kInfDist : cur.offset + best;
    }
  }
}

/// The batch fast path shared by both flavours: out[i] = d(source,
/// targets[i]), where `s` is the source resolved as a source and
/// `resolve_target` resolves a target (ResolvedVertex code, core, detour).
/// s == t cells get 0 and same-root ones `same_tree(source, t)`; a kInfDist
/// detour sum (a one-way pendant cut off from the core) answers kInfDist;
/// every other target is queued with its LCA level for SweepPendingByLevel.
template <typename ResolveTargetFn, typename SameTreeFn>
void ResolvedBatchQuery(const LabelStore& source_labels,
                        const LabelStore& target_labels, uint32_t height,
                        Vertex source, ResolvedVertex s,
                        std::span<const Vertex> targets,
                        const ResolveTargetFn& resolve_target,
                        const SameTreeFn& same_tree, Dist* out) {
  QueryScratch& scratch = TlsQueryScratch();
  // Grow-only and written by index: no capacity check per target.
  if (scratch.pending.size() < targets.size()) {
    scratch.pending.resize(targets.size());
    scratch.level_of.resize(targets.size());
  }
  size_t count = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const Vertex t = targets[i];
    if (t == source) {
      out[i] = 0;
      continue;
    }
    const ResolvedVertex r = resolve_target(t);
    // Without contraction a root is the vertex itself, so only two vertices
    // of one pendant tree share a root here.
    if (r.core == s.core) {
      out[i] = same_tree(source, t);
      continue;
    }
    const Dist offset = AddDist(s.detour, r.detour);
    if (offset == kInfDist) {
      out[i] = kInfDist;
      continue;
    }
    scratch.pending[count] = {static_cast<uint32_t>(i), r.core, offset};
    scratch.level_of[count++] = TreeCodeLcaLevel(s.code, r.code);
  }
  SweepPendingByLevel(source_labels, target_labels, source_labels.base[s.core],
                      height, count, &scratch, out);
}

/// The many-to-many primitive shared by both index flavours:
/// rows.Row(i)[j] = d(sources[i], targets[j]) for every cell. Both sides
/// are resolved (`resolve_source` / `resolve_target` map a vertex to its
/// ResolvedVertex code, core and detour); BlockedMinPlus answers every pair
/// from its LCA level; then the same-root pairs — all inside the recorded
/// here-groups — are overwritten with 0 (s == t) or `same_tree(s, t)`, the
/// exact in-tree distance. Working memory is the calling thread's
/// QueryScratch, so steady-state calls do not allocate. Returns false iff
/// `stop` fired (row contents then unspecified).
template <typename ResolveSourceFn, typename ResolveTargetFn,
          typename SameTreeFn>
bool BlockedDistanceMatrix(std::span<const Vertex> sources,
                           std::span<const Vertex> targets,
                           const LabelStore& source_labels,
                           const LabelStore& target_labels,
                           const ResolveSourceFn& resolve_source,
                           const ResolveTargetFn& resolve_target,
                           const SameTreeFn& same_tree,
                           const MatrixRows& rows, StopPoll stop) {
  if (sources.empty() || targets.empty()) return true;
  QueryScratch& scratch = TlsQueryScratch();
  const auto resolve = [](std::span<const Vertex> vertices, const auto& fn,
                          std::vector<ResolvedVertex>* side) {
    side->resize(vertices.size());
    for (size_t i = 0; i < vertices.size(); ++i) {
      (*side)[i] = fn(vertices[i]);
      (*side)[i].pos = static_cast<uint32_t>(i);
    }
  };
  resolve(sources, resolve_source, &scratch.matrix_sources);
  resolve(targets, resolve_target, &scratch.matrix_targets);
  MatrixPoller poller(stop);
  if (!BlockedMinPlus(source_labels, target_labels, scratch.matrix_sources,
                      scratch.matrix_targets, rows, &poller, &scratch)) {
    return false;
  }

  for (const MatrixGroup& g : scratch.matrix_groups) {
    const std::span<const ResolvedVertex> t_here(
        scratch.matrix_targets.data() + g.t_begin, g.t_size);
    for (uint32_t a = g.s_begin; a < g.s_begin + g.s_size; ++a) {
      if (!poller.Tick(g.t_size)) return false;
      const ResolvedVertex& src = scratch.matrix_sources[a];
      const Vertex s = sources[src.pos];
      Dist* row = rows.Row(src.pos);
      for (const ResolvedVertex& dst : t_here) {
        if (dst.core != src.core) continue;
        const Vertex t = targets[dst.pos];
        row[dst.pos] = s == t ? 0 : same_tree(s, t);
      }
    }
  }
  return true;
}

/// Deterministic k-nearest selection of the request path: candidates are
/// ranked by (distance, candidate position), so ties break by input order —
/// the same result regardless of sort internals or how many threads produced
/// `dists`. Unreachable candidates are excluded, so fewer than k may be
/// selected. The selection goes into caller-owned arrays:
/// `out_dists`/`out_vertices` must hold at least min(k, candidates.size())
/// slots. The ranking buffer reuses `scratch->knn_idx` capacity. Returns the
/// number of slots written.
inline size_t SelectKNearestInto(std::span<const Dist> dists,
                                 std::span<const Vertex> candidates, size_t k,
                                 Dist* out_dists, Vertex* out_vertices,
                                 QueryScratch* scratch) {
  std::vector<uint32_t>& idx = scratch->knn_idx;
  idx.clear();
  for (uint32_t i = 0; i < candidates.size(); ++i) {
    if (dists[i] != kInfDist) idx.push_back(i);
  }
  const size_t keep = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + keep, idx.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (dists[a] != dists[b]) return dists[a] < dists[b];
                      return a < b;
                    });
  for (size_t i = 0; i < keep; ++i) {
    out_dists[i] = dists[idx[i]];
    out_vertices[i] = candidates[idx[i]];
  }
  return keep;
}

}  // namespace hc2l

#endif  // HC2L_CORE_QUERY_COMMON_H_
