#ifndef HC2L_CORE_HC2L_H_
#define HC2L_CORE_HC2L_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/label_index.h"
#include "graph/graph.h"
#include "hc2l/status.h"

namespace hc2l {

class ThreadPool;

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

  friend bool operator==(const Hc2lStats&, const Hc2lStats&) = default;
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
/// (Eq. 7). With options.num_threads > 1 this is the paper's HC2L_p: the
/// label walk runs each hierarchy level's nodes in parallel and numbers
/// nodes in level order, so the index is IdenticalTo the single-threaded
/// one (and saves to the same bytes, build_seconds aside).
///
/// Queries, routes, size accounting, the store sections and the label walk
/// are the shared LabelIndex<1> core; this class adds the persisted stats
/// and the dynamic-update (relabel/repair) cut source.
class Hc2lIndex : public LabelIndex<1> {
 public:
  /// Builds an index over g.
  static Hc2lIndex Build(const Graph& g, const Hc2lOptions& options = {});

  /// Construction/size statistics.
  const Hc2lStats& Stats() const { return stats_; }

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
  /// On unchanged weights the distance labels equal Build()'s, but the
  /// first relabel after Build() or Load() may record other equal-length
  /// first hops as route hints: it induces each child subgraph in
  /// ascending vertex order, where Build() keeps the balanced cut's order,
  /// and the first witness arc of a tie depends on that order.
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

  /// Serializes the index (labels, hierarchy, contraction) to a file. With
  /// `manifest`, an index with a member layout (LayOutMembers) saves as a
  /// shard manifest plus member files instead (docs/format.md).
  Status Save(const std::string& path, bool manifest = false) const;

  /// Loads an index previously written by Save() (HC2L0004; a file with a
  /// hint section restores route hints, so Route works without a graph),
  /// or an HC2S0002 manifest of this flavour (Members() reports its layout).
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

 private:
  Hc2lIndex() = default;

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

  /// The label walk (LabelWalk<1>) over the stored hierarchy, its cuts
  /// taken from the stored nodes after separator repair. scoped=false
  /// recomputes every node (RebuildLabels); scoped=true cuts off clean
  /// subtrees against repair_cache_. Both populate the cache.
  Status RelabelWalk(const Graph& core, bool scoped, bool tail_pruning,
                     ThreadPool& pool);

  /// Recomputes every stat but the shortcut count and the timing from the
  /// current index.
  void RefreshLabelStats();

  /// The lazily built member pool (satellite of the per-call-ThreadPool
  /// fix): rebuilt only when the resolved thread count changes.
  ThreadPool& ResolvePool(uint32_t num_threads);

  /// Construction statistics, persisted verbatim in the meta section.
  Hc2lStats stats_;
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
