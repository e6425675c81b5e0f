#ifndef HC2L_CORE_HC2L_H_
#define HC2L_CORE_HC2L_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/label_arena.h"
#include "common/mmap_file.h"
#include "core/query_common.h"
#include "graph/graph.h"
#include "hc2l/status.h"
#include "hierarchy/contraction.h"
#include "hierarchy/hierarchy.h"

namespace hc2l {

class ThreadPool;

/// Construction options for the HC2L index.
struct Hc2lOptions {
  /// Balance threshold beta in (0, 0.5]; the paper selects 0.2 (Section 5).
  double beta = 0.2;
  /// Recursion stops when a subgraph has at most this many vertices; the
  /// remaining set forms a leaf node and is labelled like a cut.
  uint32_t leaf_size = 8;
  /// Tail pruning (Definition 4.18). Disabling it yields the naive
  /// upper-bound labelling of Section 4.2.1 (full distance arrays): ~10-15%
  /// larger labels, ~20% faster construction.
  bool tail_pruning = true;
  /// Degree-one contraction (Section 4.2.2). Disabling indexes the full
  /// graph (ablation).
  bool contract_degree_one = true;
  /// Record route hints (the first core-graph hop toward every hub) next to
  /// the distance labels, enabling label-based path unpacking (Route).
  /// Disabling builds a distance-only index whose file omits the hint
  /// sections; routes then require a graph-backed fallback unpacker.
  bool route_hints = true;
  /// Number of construction threads; >1 gives the paper's HC2L_p variant.
  /// Query processing is always single-threaded per query.
  uint32_t num_threads = 1;
};

/// Construction and size statistics of a built index.
struct Hc2lStats {
  uint64_t num_vertices = 0;        // original graph
  uint64_t num_core_vertices = 0;   // after degree-one contraction
  uint64_t num_contracted = 0;
  uint32_t tree_height = 0;
  uint64_t num_tree_nodes = 0;
  uint64_t max_cut_size = 0;
  double avg_cut_size = 0.0;
  uint64_t num_shortcuts = 0;
  uint64_t label_entries = 0;  // stored distance values
  uint64_t label_bytes = 0;    // distance data + per-level offsets
  uint64_t lca_bytes = 0;      // packed per-vertex tree codes
  double build_seconds = 0.0;
};

/// Outcome metrics of the last RebuildLabels / RepairLabels call. Not
/// serialized; reset by Load(). The recomputed/total entry ratio is the
/// CPU-independent scoped-repair quality metric recorded in
/// BENCH_query.json's `update_latency` section.
struct RepairStats {
  uint64_t recomputed_entries = 0;  // label entries recomputed by the walk
  uint64_t reused_entries = 0;      // entries spliced verbatim from the old
                                    // store (clean subtrees)
  uint64_t dirty_nodes = 0;         // hierarchy nodes re-labelled
  uint64_t clean_subtrees = 0;      // subtrees cut off at the clean frontier
  bool full_rebuild = false;        // the walk could not be scoped (cold
                                    // cache or tail-pruning flag change)
  double seconds = 0.0;
};

/// Hierarchical Cut 2-Hop Labelling index (the paper's primary contribution).
///
/// Usage:
///   Graph g = ...;
///   Hc2lIndex index = Hc2lIndex::Build(g, {.beta = 0.2});
///   Dist d = index.Query(s, t);   // == d_G(s, t), kInfDist if disconnected
///
/// Build() constructs the balanced tree hierarchy (recursive balanced vertex
/// cuts + distance-preserving shortcuts), then the tail-pruned labelling.
/// Query() finds the level of LCA(s, t) with one XOR + clz over packed tree
/// codes and min-reduces the two aligned distance arrays of that level
/// (Eq. 7). With options.num_threads > 1 this is the paper's HC2L_p; the
/// resulting index is bit-identical to the single-threaded one.
class Hc2lIndex {
 public:
  /// Sentinel stored in labels for "unreachable from this hub".
  static constexpr uint32_t kUnreachableLabel = UINT32_MAX;

  /// Builds an index over g.
  static Hc2lIndex Build(const Graph& g, const Hc2lOptions& options = {});

  Hc2lIndex(Hc2lIndex&&) = default;
  Hc2lIndex& operator=(Hc2lIndex&&) = default;

  /// Exact shortest-path distance between s and t (kInfDist if
  /// disconnected).
  Dist Query(Vertex s, Vertex t) const;

  /// Query() that additionally reports how many hub entries were scanned —
  /// the quantity averaged in Table 3's AHS column.
  Dist QueryCountingHubs(Vertex s, Vertex t, uint64_t* hubs_scanned) const;

  /// One-to-many: distances from `source` to every target, in order.
  /// The bulk interface for the paper's motivating workloads (Section 1:
  /// matching cars to customers, k-nearest POIs).
  std::vector<Dist> BatchQuery(Vertex source,
                               std::span<const Vertex> targets) const;

  /// Span-writing BatchQuery: writes out[i] = d(source, targets[i]) for every
  /// i (every slot is written; no pre-fill needed). Working memory comes from
  /// the calling thread's QueryScratch, so steady-state calls do not allocate
  /// — the primitive under the facade's zero-copy request path.
  void BatchQueryInto(Vertex source, std::span<const Vertex> targets,
                      Dist* out) const;

  /// Many-to-many distance matrix: result[i][j] = d(sources[i], targets[j]).
  std::vector<std::vector<Dist>> DistanceMatrix(
      std::span<const Vertex> sources, std::span<const Vertex> targets) const;

  /// The many-to-many primitive under every matrix path: writes
  /// rows.Row(i)[j] = d(sources[i], targets[j]) for every cell. Both sides
  /// are split down the hierarchy by tree code, so the matrix falls into
  /// dense blocks that each share one LCA level and are min-reduced against
  /// a transposed target panel (BlockedDistanceMatrix,
  /// src/core/query_common.h); a lone source is swept by level. Polls
  /// `stop` every ~2k cells and returns false as soon as it fires (rows
  /// then unspecified). Working memory is the calling thread's
  /// QueryScratch, so steady-state calls do not allocate.
  bool DistanceMatrixInto(std::span<const Vertex> sources,
                          std::span<const Vertex> targets,
                          const MatrixRows& rows, StopPoll stop = {}) const;

  /// The k candidates nearest to `source` (ties broken deterministically by
  /// candidate order), as (distance, candidate) pairs sorted ascending;
  /// unreachable candidates are excluded, so fewer than k entries may return.
  std::vector<std::pair<Dist, Vertex>> KNearest(
      Vertex source, std::span<const Vertex> candidates, size_t k) const;

  /// Number of vertices of the indexed graph.
  size_t NumVertices() const { return stats_.num_vertices; }

  /// True when the index carries route hints (built with route_hints, or
  /// loaded from a file with a hint section) and can unpack paths without a
  /// graph.
  bool HasRouteHints() const { return !hints_.base.empty(); }

  /// Reconstructs one shortest path s -> t from the labels: out->vertices
  /// holds the full original-id sequence (s first, t last; the single
  /// vertex for s == t; empty when unreachable) and out->weight the path
  /// weight, which always equals Query(s, t). Vertex ids must be in range
  /// (the facade validates). Errors: kFailedPrecondition (no route hints —
  /// use a graph-backed fallback), kInternal (hint invariants broken, e.g.
  /// a corrupt hint store).
  Status Route(Vertex s, Vertex t, RoutePath* out) const;

  /// Up to k alternative routes s -> t, sorted ascending by weight; the
  /// first is a shortest path (Route's answer). Alternatives are built by
  /// routing via the other separator hubs of the s/t cut level and deduped
  /// by vertex sequence (plateaux-style: a via-hub already on a selected
  /// route adds nothing new). Fewer than k may return; an unreachable pair
  /// returns an empty list. k == 0 is an empty list. Error contract as
  /// Route.
  Status Routes(Vertex s, Vertex t, size_t k,
                std::vector<RoutePath>* out) const;

  /// Construction/size statistics.
  const Hc2lStats& Stats() const { return stats_; }

  /// The balanced tree hierarchy (over the core graph).
  const BalancedTreeHierarchy& Hierarchy() const { return hierarchy_; }

  /// Resident label storage in bytes: the cache-aligned arena (including its
  /// sentinel padding) plus offset tables; excludes LCA codes. The logical
  /// (unpadded) size is Stats().label_bytes.
  size_t LabelSizeBytes() const;

  /// Bytes needed for O(1) LCA lookups (Table 3's "LCA Storage").
  size_t LcaStorageBytes() const { return hierarchy_.LcaStorageBytes(); }

  /// Dynamic weight updates (Section 5.4): refreshes every distance value —
  /// contraction offsets, shortcuts and label arrays — for a graph with the
  /// SAME topology but changed edge weights, reusing the stored balanced
  /// tree hierarchy (whose construction "does not depend on edge weights,
  /// except for shortcuts"). This skips all partitioning and minimum-cut
  /// work, so it is substantially faster than Build(); the cut *ordering* is
  /// kept, which stays correct (tail pruning is sound for any fixed order)
  /// though cut quality may drift if weights change drastically. With
  /// num_threads > 1 (0 = all hardware threads) the per-node label
  /// recomputation is parallelized across each hierarchy level over the
  /// shared pool; the rebuilt index is bit-identical to the serial one.
  /// Errors (kInvalidArgument: vertex count or pendant-tree structure
  /// differs from the indexed graph) are detected before any state is
  /// mutated, so the index stays valid on failure — except kOutOfRange
  /// (updated weights push some label distance past the 2^31 encoding
  /// limit), which is detected mid-walk and leaves the index in an
  /// unspecified state; discard it (Router::UpdateWeights repairs a
  /// disposable clone, so the serving index is never at risk). The walk
  /// runs on a lazily built member pool that is reused across calls (and
  /// shared with clones), so a live update loop spawns no per-call threads.
  Status RebuildLabels(const Graph& g, bool tail_pruning = true,
                       uint32_t num_threads = 1);

  /// Scoped label repair (Section 5.4 under live traffic): g is the updated
  /// graph (same topology) and `deltas` names exactly the edges whose
  /// weights changed. Walks the stored hierarchy top-down like
  /// RebuildLabels, but cuts the walk off at every child subtree whose
  /// recomputed inputs (induced subgraph + shortcuts, compared against the
  /// cache retained from the previous walk) are unchanged: such subtrees
  /// keep their label arrays verbatim (spliced from the current store), so
  /// only the subtrees whose separators cover a changed edge are
  /// recomputed. The result is bit-identical to a full RebuildLabels(g) —
  /// pinned by the differential test in tests/dynamic_test.cc. Deltas that
  /// touch only contracted pendant edges skip the core walk entirely (the
  /// contraction offsets are refreshed wholesale either way).
  ///
  /// The repair cache is populated by the first RebuildLabels/RepairLabels
  /// walk after Build() or Load(); until then (or after a tail_pruning flag
  /// change) this falls back to a full rebuild — steady-state updates are
  /// scoped. Error contract matches RebuildLabels; LastRepairStats()
  /// reports what the call recomputed vs reused.
  Status RepairLabels(const Graph& g, std::span<const EdgeDelta> deltas,
                      bool tail_pruning = true, uint32_t num_threads = 1);

  /// Metrics of the last RebuildLabels / RepairLabels call.
  const RepairStats& LastRepairStats() const { return repair_stats_; }

  /// Deep copy: labels, hierarchy, contraction and the repair cache are
  /// copied; the lazily built rebuild pool is shared (it holds no state
  /// between calls). The copy-on-repair primitive under
  /// Router::UpdateWeights — repair the clone, keep serving the original.
  /// Rebuild/repair calls on clones sharing one pool must not overlap.
  Hc2lIndex Clone() const;

  /// True iff every queryable structure (stats, contraction, hierarchy,
  /// labels — everything except timings and the repair cache) is
  /// bit-identical to other's. The differential-test oracle for
  /// RepairLabels vs RebuildLabels.
  bool IdenticalTo(const Hc2lIndex& other) const;

  /// Serializes the index (labels, hierarchy, contraction) to a file.
  Status Save(const std::string& path) const;

  /// Loads an index previously written by Save() (HC2L0004; a file with a
  /// hint section restores route hints, so Route works without a graph).
  /// Errors: kNotFound (cannot open), kInvalidArgument (not an undirected
  /// index), kDataLoss (truncated or corrupt).
  static Result<Hc2lIndex> Load(const std::string& path);

  /// Load with an open mode. use_mmap maps the file's label and hint arenas
  /// in place (O(1) open: only the metadata section is parsed; the arenas
  /// are views into the page cache, advised MADV_RANDOM). A mapped index
  /// answers every query identically; mutation (RebuildLabels/RepairLabels)
  /// materializes owned arenas on first use, and Clone() always produces a
  /// fully owned copy.
  static Result<Hc2lIndex> Load(const std::string& path, bool use_mmap);

  /// Label bytes (arenas + offset tables) served straight from the file
  /// mapping (0 for a heap load). The IndexInfo mapped_bytes/heap_bytes
  /// split.
  size_t MappedBytes() const;

  /// Total label + hint arena and offset-table bytes regardless of
  /// backing; ArenaResidentBytes() - MappedBytes() is what the label
  /// structures hold on the heap.
  size_t ArenaResidentBytes() const;

 private:
  friend class Hc2lBuilder;
  Hc2lIndex() = default;

  /// Query over core-graph ids (labels + hierarchy only).
  Dist CoreQuery(Vertex s, Vertex t, uint64_t* hubs_scanned) const;

  /// v's contraction root, its tree code and the detour between them (pos
  /// left 0) — the same for a source and a target.
  ResolvedVertex Resolve(Vertex v) const;

  /// Hint-store walk over core ids: writes the full core-id shortest path
  /// cs..ct (inclusive; cleared first) into *out. Requires HasRouteHints().
  /// kInternal when the hints are inconsistent with the labels.
  Status CoreRoute(Vertex cs, Vertex ct, std::vector<Vertex>* out) const;

  /// Maps a core-id path back to original ids and splices the pendant-tree
  /// chains of s and/or t around it (`weight` is the known total).
  Status ExpandRoute(Vertex s, Vertex t, Dist weight,
                     const std::vector<Vertex>& core_path,
                     RoutePath* out) const;

  /// Per-hierarchy-node inputs of the last relabel walk: the node's induced
  /// subgraph (local ids), the local->core-global id map, the per-arc route
  /// annotations (first real core hop each subgraph arc stands for; empty
  /// when the index is hint-less), and how many shortcuts its creation
  /// added. A repair walk re-derives a child's inputs at its (dirty) parent
  /// and compares them against this cache — equality proves the whole
  /// subtree's labels (and hints) are unchanged, because the walk is
  /// deterministic in exactly these inputs.
  struct NodeRepairCache {
    Graph sub;
    std::vector<Vertex> to_global;
    std::vector<Vertex> ann;
    uint64_t shortcuts_into = 0;
  };

  /// Shared RebuildLabels / RepairLabels validation: vertex count and
  /// pendant-structure checks, then the wholesale contraction refresh.
  /// On success *core_out points at the (refreshed) core graph.
  Status PrepareRelabel(const Graph& g, const Graph** core_out);

  /// The top-down level-parallel relabel walk over the stored hierarchy.
  /// scoped=false recomputes every node (RebuildLabels); scoped=true cuts
  /// off clean subtrees against repair_cache_. Both populate the cache.
  Status RelabelWalk(const Graph& core, bool scoped, bool tail_pruning,
                     ThreadPool& pool);

  /// The lazily built member pool (satellite of the per-call-ThreadPool
  /// fix): rebuilt only when the resolved thread count changes.
  ThreadPool& ResolvePool(uint32_t num_threads);

  Hc2lStats stats_;
  /// Degree-one contraction; null when options.contract_degree_one == false
  /// (then core ids == original ids).
  std::unique_ptr<DegreeOneContraction> contraction_;
  BalancedTreeHierarchy hierarchy_;
  /// Cache-aligned flattened labels: vertex v's level-k distance array starts
  /// at labels_.arena[labels_.level_start[labels_.base[v] + k]] and holds
  /// labels_.level_len[labels_.base[v] + k] entries.
  LabelStore labels_;
  /// Route hints, shaped exactly like labels_ (same offset tables): entry
  /// (v, level, i) is the first core-graph hop from v toward that level's
  /// i-th hub (kInvalidVertex when v is the hub or the hub is unreachable).
  /// Empty tables when the index is hint-less (route_hints = false, or
  /// loaded from a file without a hint section).
  LabelStore hints_;
  /// The file mapping backing view-mode arenas (Load with use_mmap); null
  /// for built or heap-loaded indexes. Held for lifetime only — all access
  /// goes through the label stores.
  std::shared_ptr<MappedFile> mapping_;
  /// Node-indexed relabel-walk inputs; empty = cold (after Build/Load), so
  /// the next RepairLabels falls back to a full walk that populates it.
  std::vector<NodeRepairCache> repair_cache_;
  /// Tail-pruning flag the cache (and current labels) were produced with.
  bool repair_cache_tail_pruning_ = true;
  RepairStats repair_stats_;
  /// Lazily built rebuild/repair pool, shared across Clone()s so a live
  /// update loop reuses one set of workers instead of churning threads.
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace hc2l

#endif  // HC2L_CORE_HC2L_H_
