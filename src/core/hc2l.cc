#include "core/hc2l.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/index_format.h"
#include "core/query_common.h"
#include "partition/balanced_cut.h"
#include "partition/shortcuts.h"
#include "search/dijkstra.h"

namespace hc2l {

namespace {

/// Non-aborting variant for the rebuild/repair walk: a server-driven weight
/// update must surface encoding overflow as a Status, never a CHECK abort
/// (the walk mutates a disposable standby clone, so flag-and-finish is
/// safe). The value written for an overflowed entry is irrelevant — the
/// whole walk result is discarded once the flag is set.
uint32_t EncodeLabelDistanceOrFlag(Dist d, std::atomic<bool>* overflow) {
  if (d == kInfDist) return Hc2lIndex::kUnreachableLabel;
  if (d >= (Dist{1} << 31)) {
    overflow->store(true, std::memory_order_relaxed);
    return Hc2lIndex::kUnreachableLabel;
  }
  return static_cast<uint32_t>(d);
}

/// Byte-for-byte CSR equality — the repair walk's clean-subtree oracle.
bool SameGraph(const Graph& a, const Graph& b) {
  const size_t n = a.NumVertices();
  if (n != b.NumVertices() || a.NumArcs() != b.NumArcs()) return false;
  for (Vertex v = 0; v < n; ++v) {
    const std::span<const Arc> na = a.Neighbors(v);
    const std::span<const Arc> nb = b.Neighbors(v);
    if (na.size() != nb.size()) return false;
    for (size_t i = 0; i < na.size(); ++i) {
      if (!(na[i] == nb[i])) return false;
    }
  }
  return true;
}

// --- Route-hint machinery (OSRM-style provenance, recorded at build time
// so query-time unpacking is pure array walking). Every arc of every
// subgraph of the recursion carries an *annotation*: the first real
// core-graph hop (a global core vertex id) of the shortest core path the
// arc stands for. A real arc's annotation is its own endpoint; a shortcut
// arc inherits the annotation of the parent-side witness arc starting its
// through-the-cut path. The label hint of (vertex, hub) is then the
// annotation of the first witness arc of the hub's Dijkstra — by
// induction, the first hop of a real shortest core path toward the hub.

/// Per-subgraph arc-offset prefix array: arc j of Neighbors(v) is entry
/// arc_base[v] + j of the annotation vector (the graphs do not expose
/// their CSR offsets).
std::vector<size_t> ArcBases(const Graph& g) {
  const size_t n = g.NumVertices();
  std::vector<size_t> base(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    base[v + 1] = base[v] + g.Neighbors(v).size();
  }
  return base;
}

/// Root annotations over the core graph itself: every arc is a real core
/// edge, so its first hop is its own head.
std::vector<Vertex> RootAnnotations(const Graph& core) {
  std::vector<Vertex> ann;
  ann.reserve(core.NumArcs());
  const size_t n = core.NumVertices();
  for (Vertex v = 0; v < n; ++v) {
    for (const Arc& a : core.Neighbors(v)) ann.push_back(a.to);
  }
  return ann;
}

/// Annotation of the first witness arc out of `v` under the distance field
/// `dist` (a shortest-path tree rooted elsewhere): the first CSR arc with
/// w + dist[head] == dist[v]. kInvalidVertex when v is the root itself,
/// unreachable, or (corrupt inputs) no witness exists.
Vertex WitnessAnnotation(const Graph& g, const std::vector<Vertex>& ann,
                         const std::vector<size_t>& arc_base, Vertex v,
                         const std::vector<Dist>& dist) {
  const Dist dv = dist[v];
  if (dv == 0 || dv == kInfDist) return kInvalidVertex;
  const std::span<const Arc> arcs = g.Neighbors(v);
  for (size_t j = 0; j < arcs.size(); ++j) {
    const Arc& a = arcs[j];
    if (dist[a.to] != kInfDist && dist[a.to] + a.weight == dv) {
      return ann[arc_base[v] + j];
    }
  }
  return kInvalidVertex;
}

/// Derives a child subgraph's per-arc annotations from its parent's. A real
/// child arc copies the parent arc's annotation; a shortcut arc resolves to
/// the witness annotation of its through-the-cut path (first cut vertex in
/// rank order realizing the shortcut weight — the same deterministic choice
/// on every rebuild). Shortcut weights are strictly below any parent path
/// for the pair and builders collapse parallel edges to minimum weight, so
/// the pair lookup is unambiguous.
std::vector<Vertex> DeriveChildAnnotations(
    const Graph& parent, const std::vector<Vertex>& parent_ann,
    const std::vector<size_t>& parent_arc_base,
    const std::vector<Edge>& shortcuts,
    const std::vector<std::vector<Dist>>& dist_from_cut,
    const Graph& child_graph, const std::vector<Vertex>& to_parent) {
  struct ShortcutAnn {
    uint64_t key;  // (min parent id) << 32 | max parent id
    Vertex from_lo = kInvalidVertex;
    Vertex from_hi = kInvalidVertex;
  };
  std::vector<ShortcutAnn> sc_ann;
  sc_ann.reserve(shortcuts.size());
  for (const Edge& e : shortcuts) {
    ShortcutAnn entry;
    const Vertex lo = std::min(e.u, e.v);
    const Vertex hi = std::max(e.u, e.v);
    entry.key = (static_cast<uint64_t>(lo) << 32) | hi;
    for (const std::vector<Dist>& dist : dist_from_cut) {
      if (AddDist(dist[e.u], dist[e.v]) != e.weight) continue;
      entry.from_lo =
          WitnessAnnotation(parent, parent_ann, parent_arc_base, lo, dist);
      entry.from_hi =
          WitnessAnnotation(parent, parent_ann, parent_arc_base, hi, dist);
      break;
    }
    sc_ann.push_back(entry);
  }
  std::sort(sc_ann.begin(), sc_ann.end(),
            [](const ShortcutAnn& a, const ShortcutAnn& b) {
              return a.key < b.key;
            });

  std::vector<Vertex> ann;
  ann.reserve(child_graph.NumArcs());
  const size_t n = child_graph.NumVertices();
  for (Vertex cv = 0; cv < n; ++cv) {
    const Vertex pu = to_parent[cv];
    for (const Arc& a : child_graph.Neighbors(cv)) {
      const Vertex pv = to_parent[a.to];
      const Vertex lo = std::min(pu, pv);
      const Vertex hi = std::max(pu, pv);
      const uint64_t key = (static_cast<uint64_t>(lo) << 32) | hi;
      const auto it = std::lower_bound(
          sc_ann.begin(), sc_ann.end(), key,
          [](const ShortcutAnn& s, uint64_t k) { return s.key < k; });
      if (it != sc_ann.end() && it->key == key) {
        ann.push_back(pu == lo ? it->from_lo : it->from_hi);
        continue;
      }
      // A real arc: copy the parent arc's annotation (one arc per pair —
      // the builders collapse parallel edges).
      const std::span<const Arc> parcs = parent.Neighbors(pu);
      Vertex copied = kInvalidVertex;
      for (size_t j = 0; j < parcs.size(); ++j) {
        if (parcs[j].to == pv) {
          copied = parent_ann[parent_arc_base[pu] + j];
          break;
        }
      }
      ann.push_back(copied);
    }
  }
  return ann;
}

}  // namespace

/// Recursive construction of the balanced tree hierarchy and the tail-pruned
/// labelling (Algorithms 1-5), over the core graph.
class Hc2lBuilder {
 public:
  Hc2lBuilder(const Graph& core, const Hc2lOptions& options)
      : options_(options), pool_(options.num_threads) {
    const size_t n = core.NumVertices();
    hierarchy_.node_of_vertex_.assign(n, UINT32_MAX);
    hierarchy_.vertex_code_.assign(n, kRootCode);
    label_data_.resize(n);
    label_lens_.resize(n);
    if (options_.route_hints) {
      hint_data_.resize(n);
      hint_lens_.resize(n);
    }

    std::vector<Vertex> identity(n);
    for (Vertex v = 0; v < n; ++v) identity[v] = v;
    const int32_t root = NewNode(kRootCode, -1);
    Graph root_copy = core;  // recursion consumes its subgraph
    std::vector<Vertex> root_ann =
        options_.route_hints ? RootAnnotations(core) : std::vector<Vertex>{};
    BuildNode(std::move(root_copy), std::move(identity), std::move(root_ann),
              root, kRootCode);
  }

  /// Moves results into the index.
  void Finish(Hc2lIndex* index) {
    const size_t n = label_data_.size();
    size_t total_entries = 0;
    for (size_t v = 0; v < n; ++v) total_entries += label_data_[v].size();
    index->hierarchy_ = std::move(hierarchy_);
    index->height_ = index->hierarchy_.Height();
    index->labels_[0].BuildFrom(&label_data_, &label_lens_);
    if (options_.route_hints) {
      index->hints_[0].BuildFrom(&hint_data_, &hint_lens_);
    }

    index->stats_.num_tree_nodes = index->hierarchy_.NumNodes();
    index->stats_.tree_height = index->height_;
    index->stats_.max_cut_size = index->hierarchy_.MaxCutSize();
    index->stats_.avg_cut_size = index->hierarchy_.AvgCutSize();
    index->stats_.num_shortcuts = shortcut_count_.load();
    index->stats_.label_entries = total_entries;
    index->stats_.label_bytes =
        total_entries * sizeof(uint32_t) + index->labels_[0].MetadataBytes();
    index->stats_.lca_bytes = index->hierarchy_.LcaStorageBytes();
  }

 private:
  int32_t NewNode(TreeCode code, int32_t parent) {
    std::lock_guard<std::mutex> lock(nodes_mutex_);
    hierarchy_.nodes_.push_back(HierarchyNode{code, parent, -1, -1, {}});
    return static_cast<int32_t>(hierarchy_.nodes_.size() - 1);
  }

  /// Runs fn(i) for i in [0, count) on the shared pool.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
    pool_.ParallelFor(count, fn);
  }

  /// Ranks `cut` (ascending Eq. 6 score, ties by global id), runs the
  /// prefix-tracking Dijkstras of Algorithm 5, emits one (tail-pruned)
  /// distance array per subgraph vertex, and registers the cut vertices with
  /// the hierarchy node. Returns the per-cut-vertex distance vectors (rank
  /// order) for shortcut computation.
  std::vector<std::vector<Dist>> LabelCutSet(const Graph& sub,
                                             std::vector<Vertex>* cut,
                                             const std::vector<Vertex>& to_global,
                                             const std::vector<Vertex>& ann,
                                             int32_t node_idx, TreeCode code) {
    const size_t n = sub.NumVertices();
    const size_t m = cut->size();

    if (m == 0) {
      // Disconnected split: the empty cut still contributes one (empty)
      // array per subtree vertex so that label levels stay aligned.
      for (Vertex v = 0; v < n; ++v) {
        label_lens_[to_global[v]].push_back(0);
        if (options_.route_hints) hint_lens_[to_global[v]].push_back(0);
      }
      return {};
    }

    // Rank cut vertices by Eq. 6 / Algorithm 5 lines 2-5: ascending count of
    // vertices whose shortest path from the cut vertex passes through
    // another cut vertex ("most coverable last").
    if (options_.tail_pruning && m > 1) {
      std::vector<uint8_t> in_cut(n, 0);
      for (Vertex v : *cut) in_cut[v] = 1;
      std::vector<uint64_t> score(m, 0);
      ParallelFor(m, [&](size_t i) {
        const DistAndPruneResult r = DistAndPrune(sub, (*cut)[i], in_cut);
        uint64_t covered = 0;
        for (Vertex v = 0; v < n; ++v) covered += r.via[v];
        score[i] = covered;
      });
      ApplyCoverabilityOrder(cut, score, to_global);
    } else {
      // Deterministic order without ranking.
      std::sort(cut->begin(), cut->end(), [&](Vertex a, Vertex b) {
        return to_global[a] < to_global[b];
      });
    }

    // Prefix-tracking Dijkstras (Algorithm 5 lines 6-7); the tracked set of
    // v_i is {v_0 .. v_{i-1}}. The serial/parallel mask dispatch is the
    // shared RunPrefixMaskedSearches helper.
    std::vector<DistAndPruneResult> results(m);
    RunPrefixMaskedSearches(
        pool_, options_.tail_pruning, *cut, n,
        [&](size_t i, const std::vector<uint8_t>& mask) {
          results[i] = DistAndPrune(sub, (*cut)[i], mask);
        });

    // Labels with tail pruning (Algorithm 5 lines 8-10), plus — when the
    // index records route hints — the annotation of the first witness arc
    // toward each hub, stored in lockstep with the distance entries.
    const std::vector<size_t> arc_base =
        options_.route_hints ? ArcBases(sub) : std::vector<size_t>{};
    for (Vertex v = 0; v < n; ++v) {
      size_t k = 0;
      for (size_t i = 0; i < m; ++i) {
        if (results[i].via[v] == 0) k = i;
      }
      auto& data = label_data_[to_global[v]];
      for (size_t i = 0; i <= k; ++i) {
        data.push_back(EncodeLabelDistance(results[i].dist[v]));
      }
      label_lens_[to_global[v]].push_back(static_cast<uint32_t>(k + 1));
      if (options_.route_hints) {
        auto& hints = hint_data_[to_global[v]];
        for (size_t i = 0; i <= k; ++i) {
          hints.push_back(
              WitnessAnnotation(sub, ann, arc_base, v, results[i].dist));
        }
        hint_lens_[to_global[v]].push_back(static_cast<uint32_t>(k + 1));
      }
    }

    // Register cut vertices (global ids, rank order) with the node. The
    // nodes_ vector may be reallocated concurrently by sibling subtrees, so
    // the node reference is taken under the lock; per-vertex arrays are
    // fixed-size and each element is written by exactly one node.
    {
      std::lock_guard<std::mutex> lock(nodes_mutex_);
      HierarchyNode& node = hierarchy_.nodes_[node_idx];
      node.cut.reserve(m);
      for (Vertex v : *cut) node.cut.push_back(to_global[v]);
    }
    for (Vertex v : *cut) {
      const Vertex global = to_global[v];
      hierarchy_.node_of_vertex_[global] = static_cast<uint32_t>(node_idx);
      hierarchy_.vertex_code_[global] = code;
    }

    std::vector<std::vector<Dist>> dist_from_cut(m);
    for (size_t i = 0; i < m; ++i) {
      dist_from_cut[i] = std::move(results[i].dist);
    }
    return dist_from_cut;
  }

  void BuildNode(Graph sub, std::vector<Vertex> to_global,
                 std::vector<Vertex> ann, int32_t node_idx, TreeCode code) {
    const size_t n = sub.NumVertices();
    const uint32_t depth = TreeCodeDepth(code);

    std::vector<Vertex> cut;
    BalancedCutResult bc;
    bool is_leaf = n <= options_.leaf_size || depth >= kMaxTreeDepth;
    if (!is_leaf) {
      bc = BalancedCut(sub, options_.beta);
      // Degenerate splits (everything became the cut) terminate recursion.
      is_leaf = bc.part_a.empty() && bc.part_b.empty();
    }
    if (is_leaf) {
      cut.resize(n);
      for (Vertex v = 0; v < n; ++v) cut[v] = v;
      LabelCutSet(sub, &cut, to_global, ann, node_idx, code);
      return;
    }

    cut = std::move(bc.cut);
    const std::vector<std::vector<Dist>> dist_from_cut =
        LabelCutSet(sub, &cut, to_global, ann, node_idx, code);

    // Prepare both child subgraphs (Algorithm 3 shortcuts keep each side
    // distance-preserving), then recurse — in parallel when the budget
    // allows. Child annotations must be derived here, while the parent
    // subgraph and its cut distances are still alive.
    struct Child {
      Graph graph;
      std::vector<Vertex> to_global;
      std::vector<Vertex> ann;
      int32_t node = -1;
      TreeCode code = kRootCode;
    };
    std::vector<Child> children;
    const std::vector<size_t> arc_base =
        options_.route_hints ? ArcBases(sub) : std::vector<size_t>{};
    const std::vector<Vertex>* parts[2] = {&bc.part_a, &bc.part_b};
    for (int side = 0; side < 2; ++side) {
      const std::vector<Vertex>& part = *parts[side];
      if (part.empty()) continue;
      ShortcutResult sc = ComputeShortcuts(sub, cut, part, dist_from_cut);
      shortcut_count_.fetch_add(sc.shortcuts.size(),
                                std::memory_order_relaxed);
      Subgraph child_sub = InducedSubgraph(sub, part, sc.shortcuts);
      Child child;
      if (options_.route_hints) {
        child.ann =
            DeriveChildAnnotations(sub, ann, arc_base, sc.shortcuts,
                                   dist_from_cut, child_sub.graph,
                                   child_sub.to_parent);
      }
      child.graph = std::move(child_sub.graph);
      child.to_global.reserve(part.size());
      for (Vertex v : child_sub.to_parent) {
        child.to_global.push_back(to_global[v]);
      }
      child.code = TreeCodeChild(code, side);
      child.node = NewNode(child.code, node_idx);
      {
        std::lock_guard<std::mutex> lock(nodes_mutex_);
        (side == 0 ? hierarchy_.nodes_[node_idx].left
                   : hierarchy_.nodes_[node_idx].right) = child.node;
      }
      children.push_back(std::move(child));
    }

    // Release the parent subgraph before descending.
    sub = Graph();
    to_global.clear();
    to_global.shrink_to_fit();
    ann.clear();
    ann.shrink_to_fit();

    if (children.size() == 2 && pool_.NumThreads() > 1) {
      // Hand the left subtree to the pool and recurse into the right one
      // here; Wait() helps run queued subtree tasks, so no thread idles.
      auto left = std::make_shared<Child>(std::move(children[0]));
      const ThreadPool::TaskHandle task = pool_.Submit([this, left]() {
        BuildNode(std::move(left->graph), std::move(left->to_global),
                  std::move(left->ann), left->node, left->code);
      });
      BuildNode(std::move(children[1].graph), std::move(children[1].to_global),
                std::move(children[1].ann), children[1].node,
                children[1].code);
      pool_.Wait(task);
    } else {
      for (Child& child : children) {
        BuildNode(std::move(child.graph), std::move(child.to_global),
                  std::move(child.ann), child.node, child.code);
      }
    }
  }

  const Hc2lOptions options_;
  ThreadPool pool_;
  std::mutex nodes_mutex_;
  std::atomic<uint64_t> shortcut_count_{0};
  BalancedTreeHierarchy hierarchy_;
  // Per-core-vertex label accumulators: concatenated level arrays + lengths.
  std::vector<std::vector<uint32_t>> label_data_;
  std::vector<std::vector<uint32_t>> label_lens_;
  // Route-hint accumulators, in lockstep with the label ones (empty unless
  // options_.route_hints).
  std::vector<std::vector<uint32_t>> hint_data_;
  std::vector<std::vector<uint32_t>> hint_lens_;
};

Hc2lIndex Hc2lIndex::Build(const Graph& g, const Hc2lOptions& options) {
  HC2L_CHECK_GT(options.beta, 0.0);
  HC2L_CHECK_LE(options.beta, 0.5);
  Timer timer;
  Hc2lIndex index;
  index.num_vertices_ = g.NumVertices();
  index.stats_.num_vertices = g.NumVertices();

  const Graph* core = &g;
  if (options.contract_degree_one) {
    index.contraction_ = std::make_unique<DegreeOneContraction>(g);
    core = &index.contraction_->CoreGraph();
    index.stats_.num_contracted = index.contraction_->NumContracted();
  }
  index.stats_.num_core_vertices = core->NumVertices();

  Hc2lBuilder builder(*core, options);
  builder.Finish(&index);
  index.stats_.build_seconds = timer.Seconds();
  return index;
}

Status Hc2lIndex::PrepareRelabel(const Graph& g, const Graph** core_out) {
  if (g.NumVertices() != stats_.num_vertices) {
    return Status::InvalidArgument(
        "updated graph has " + std::to_string(g.NumVertices()) +
        " vertices but the index was built over " +
        std::to_string(stats_.num_vertices) +
        " (RebuildLabels requires identical topology)");
  }
  // Refresh the contraction distances (the removal order is deterministic in
  // topology, so on an identical-topology graph the core vertex set — and
  // its numbering — is unchanged). A differing core size means the caller
  // passed a graph with different pendant structure: reject it *before* the
  // stored contraction is replaced, so the index stays queryable.
  const Graph* core = &g;
  if (contraction_ != nullptr) {
    auto refreshed = std::make_unique<DegreeOneContraction>(g);
    if (refreshed->CoreGraph().NumVertices() != stats_.num_core_vertices) {
      return Status::InvalidArgument(
          "updated graph's pendant-tree structure differs from the indexed "
          "graph (" +
          std::to_string(refreshed->CoreGraph().NumVertices()) + " vs " +
          std::to_string(stats_.num_core_vertices) +
          " core vertices); RebuildLabels requires identical topology");
    }
    contraction_ = std::move(refreshed);
    core = &contraction_->CoreGraph();
  }
  *core_out = core;
  return Status::Ok();
}

ThreadPool& Hc2lIndex::ResolvePool(uint32_t num_threads) {
  const uint32_t resolved =
      num_threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                       : num_threads;
  if (pool_ == nullptr || pool_->NumThreads() != resolved) {
    pool_ = std::make_shared<ThreadPool>(resolved);
  }
  return *pool_;
}

Status Hc2lIndex::RebuildLabels(const Graph& g, bool tail_pruning,
                                uint32_t num_threads) {
  const Graph* core = nullptr;
  if (Status s = PrepareRelabel(g, &core); !s.ok()) return s;
  return RelabelWalk(*core, /*scoped=*/false, tail_pruning,
                     ResolvePool(num_threads));
}

Status Hc2lIndex::RepairLabels(const Graph& g,
                               std::span<const EdgeDelta> deltas,
                               bool tail_pruning, uint32_t num_threads) {
  if (HC2L_FAULT_SHOULD_FAIL("index.repair")) {
    return Status::Internal("injected index-repair fault");
  }
  for (const EdgeDelta& d : deltas) {
    if (d.u >= g.NumVertices() || d.v >= g.NumVertices() || d.u == d.v) {
      return Status::InvalidArgument(
          "edge delta {" + std::to_string(d.u) + ", " + std::to_string(d.v) +
          "} does not name an edge of the updated graph");
    }
  }
  // Scoping requires a warm cache produced with the same tail-pruning flag:
  // the cache (and the labels it vouches for) must come from a previous
  // relabel walk — Build()'s own recursion order is not comparable, and
  // Load() does not persist the cache.
  const bool scoped = !repair_cache_.empty() &&
                      repair_cache_.size() == hierarchy_.nodes_.size() &&
                      repair_cache_tail_pruning_ == tail_pruning;
  const Graph* core = nullptr;
  if (Status s = PrepareRelabel(g, &core); !s.ok()) return s;

  if (scoped && contraction_ != nullptr) {
    // Pendant-only fast path: no delta touches a core-core edge, so the
    // core graph — and with it every shortcut and label array — is
    // unchanged; the contraction refresh above already absorbed the new
    // pendant weights.
    bool touches_core = false;
    for (const EdgeDelta& d : deltas) {
      if (contraction_->InCore(d.u) && contraction_->InCore(d.v)) {
        touches_core = true;
        break;
      }
    }
    if (!touches_core) {
      repair_stats_ = RepairStats{};
      repair_stats_.reused_entries = stats_.label_entries;
      return Status::Ok();
    }
  }
  return RelabelWalk(*core, scoped, tail_pruning, ResolvePool(num_threads));
}

Status Hc2lIndex::RelabelWalk(const Graph& core, bool scoped,
                              bool tail_pruning, ThreadPool& pool) {
  Timer timer;
  const size_t n = core.NumVertices();
  auto& nodes = hierarchy_.nodes_;
  if (!scoped) repair_cache_.assign(nodes.size(), NodeRepairCache{});

  // Fresh label accumulators. A hint-carrying index recomputes its route
  // hints in the same walk (RepairLabels must keep them consistent); a
  // hint-less index stays hint-less, keeping repair bit-identical to a
  // rebuild in both modes.
  const bool hints = HasRouteHints();
  std::vector<std::vector<uint32_t>> label_data(n);
  std::vector<std::vector<uint32_t>> label_lens(n);
  std::vector<std::vector<uint32_t>> hint_data(hints ? n : 0);
  std::vector<std::vector<uint32_t>> hint_lens(hints ? n : 0);
  uint64_t shortcut_count = 0;
  std::atomic<bool> overflow{false};

  // Top-down walk over the stored hierarchy, recomputing distances.
  //
  // Weight changes can make the recomputed shortcut sets differ from the
  // original build's, and a *new* shortcut may connect the two sides of a
  // stored descendant cut — breaking the separator invariant the labels
  // depend on (the paper's "with some adjustments for shortcuts", §5.4).
  // Before labelling each node we therefore scan its subgraph for edges
  // crossing the stored cut and move one endpoint of each such edge into
  // the cut (the same repair Algorithm 2 applies to direct S-T edges),
  // updating the vertex's hierarchy assignment accordingly.
  //
  // The walk proceeds level by level so the per-node recomputation can run
  // on the pool: same-level nodes own disjoint vertex sets, so their label
  // writes, hierarchy repairs (confined to the node's own subtree) and
  // global_to_child slots never alias, and per-vertex label arrays are still
  // appended in root-to-leaf (level) order — the rebuilt index is
  // bit-identical to the serial walk's.
  // A scoped (repair) walk additionally cuts off every child whose
  // recomputed inputs — the induced subgraph plus the local-to-global id
  // map — equal the cached inputs of the previous walk: the walk is
  // deterministic in exactly those inputs, so the whole subtree's label
  // arrays (levels >= the child's depth) are provably unchanged and are
  // spliced verbatim out of the current store. A changed edge weight
  // anywhere inside the child's subgraph, a changed shortcut set, or a
  // separator repair that moved a vertex all surface as an input mismatch,
  // so the comparison needs no separate delta bookkeeping.
  struct Frame {
    Graph sub;
    std::vector<Vertex> to_global;
    std::vector<Vertex> ann;  // per-arc route annotations (hint mode only)
    int32_t node;
  };
  struct FrameOut {
    std::vector<Frame> children;
    std::vector<int32_t> clean_subtrees;  // child node ids cut off as clean
    uint64_t shortcuts = 0;
    uint64_t recomputed = 0;  // label entries recomputed at this node
    uint64_t reused = 0;      // label entries spliced from the old store
  };
  std::vector<Frame> level;
  {
    std::vector<Vertex> identity(n);
    for (Vertex v = 0; v < n; ++v) identity[v] = v;
    std::vector<Vertex> root_ann =
        hints ? RootAnnotations(core) : std::vector<Vertex>{};
    level.push_back({core, std::move(identity), std::move(root_ann), 0});
  }
  std::vector<Vertex> global_to_child(n, kInvalidVertex);
  const auto process_node = [&](Frame frame, FrameOut* out) {
    const int32_t node_idx = frame.node;
    const size_t sub_n = frame.sub.NumVertices();

    for (size_t i = 0; i < frame.to_global.size(); ++i) {
      global_to_child[frame.to_global[i]] = static_cast<Vertex>(i);
    }

    // Side of each subgraph vertex: 0 = left subtree, 1 = right subtree,
    // 2 = this node's cut. Membership is derived from the (kept-up-to-date)
    // vertex codes: v lies in child c's subtree iff LcaLevel(code(v),
    // code(c)) == depth(c).
    const int32_t left = nodes[node_idx].left;
    const int32_t right = nodes[node_idx].right;
    std::vector<uint8_t> side(sub_n, 2);
    auto assign_sides = [&]() {
      for (Vertex v = 0; v < sub_n; ++v) {
        const TreeCode code = hierarchy_.vertex_code_[frame.to_global[v]];
        side[v] = 2;
        for (int which = 0; which < 2; ++which) {
          const int32_t child = which == 0 ? left : right;
          if (child < 0) continue;
          const TreeCode child_code = nodes[child].code;
          if (TreeCodeLcaLevel(code, child_code) == TreeCodeDepth(child_code)) {
            side[v] = static_cast<uint8_t>(which);
            break;
          }
        }
      }
    };
    assign_sides();

    // Separator repair: move one endpoint of every cut-crossing edge into
    // this node's cut.
    if (left >= 0 || right >= 0) {
      bool repaired = true;
      while (repaired) {
        repaired = false;
        for (Vertex x = 0; x < sub_n && !repaired; ++x) {
          if (side[x] != 0) continue;
          for (const Arc& a : frame.sub.Neighbors(x)) {
            if (side[a.to] != 1) continue;
            // Edge x(left) - a.to(right): reassign x to this node's cut.
            const Vertex global_x = frame.to_global[x];
            const uint32_t old_node = hierarchy_.node_of_vertex_[global_x];
            auto& old_cut = nodes[old_node].cut;
            old_cut.erase(std::find(old_cut.begin(), old_cut.end(), global_x));
            nodes[node_idx].cut.push_back(global_x);
            hierarchy_.node_of_vertex_[global_x] =
                static_cast<uint32_t>(node_idx);
            hierarchy_.vertex_code_[global_x] = nodes[node_idx].code;
            side[x] = 2;
            repaired = true;
            break;
          }
        }
      }
    }

    const std::vector<Vertex>& cut_global = nodes[node_idx].cut;
    const size_t m = cut_global.size();
    std::vector<Vertex> cut_child(m);
    for (size_t i = 0; i < m; ++i) {
      cut_child[i] = global_to_child[cut_global[i]];
      HC2L_CHECK_NE(cut_child[i], kInvalidVertex);
    }

    // Prefix-tracking Dijkstras in the stored (+ repaired) rank order.
    std::vector<DistAndPruneResult> results(m);
    {
      std::vector<uint8_t> mask(sub_n, 0);
      const std::vector<uint8_t> empty_mask(sub_n, 0);
      for (size_t i = 0; i < m; ++i) {
        results[i] = DistAndPrune(frame.sub, cut_child[i],
                                  tail_pruning ? mask : empty_mask);
        mask[cut_child[i]] = 1;
      }
    }
    const std::vector<size_t> arc_base =
        hints ? ArcBases(frame.sub) : std::vector<size_t>{};
    if (m == 0) {
      for (Vertex v = 0; v < sub_n; ++v) {
        label_lens[frame.to_global[v]].push_back(0);
        if (hints) hint_lens[frame.to_global[v]].push_back(0);
      }
    } else {
      for (Vertex v = 0; v < sub_n; ++v) {
        size_t k = 0;
        for (size_t i = 0; i < m; ++i) {
          if (results[i].via[v] == 0) k = i;
        }
        auto& data = label_data[frame.to_global[v]];
        for (size_t i = 0; i <= k; ++i) {
          data.push_back(EncodeLabelDistanceOrFlag(results[i].dist[v],
                                                   &overflow));
        }
        label_lens[frame.to_global[v]].push_back(
            static_cast<uint32_t>(k + 1));
        out->recomputed += k + 1;
        if (hints) {
          auto& hdata = hint_data[frame.to_global[v]];
          for (size_t i = 0; i <= k; ++i) {
            hdata.push_back(WitnessAnnotation(frame.sub, frame.ann, arc_base,
                                              v, results[i].dist));
          }
          hint_lens[frame.to_global[v]].push_back(
              static_cast<uint32_t>(k + 1));
        }
      }
    }

    std::vector<std::vector<Dist>> dist_from_cut(m);
    for (size_t i = 0; i < m; ++i) {
      dist_from_cut[i] = std::move(results[i].dist);
    }
    for (int which = 0; which < 2; ++which) {
      const int32_t child = which == 0 ? left : right;
      if (child < 0) continue;
      std::vector<Vertex> part;
      for (Vertex v = 0; v < sub_n; ++v) {
        if (side[v] == which) part.push_back(v);
      }
      if (part.empty()) continue;
      ShortcutResult sc =
          ComputeShortcuts(frame.sub, cut_child, part, dist_from_cut);
      out->shortcuts += sc.shortcuts.size();
      Subgraph child_sub = InducedSubgraph(frame.sub, part, sc.shortcuts);
      std::vector<Vertex> child_to_global;
      child_to_global.reserve(part.size());
      for (Vertex v : child_sub.to_parent) {
        child_to_global.push_back(frame.to_global[v]);
      }
      std::vector<Vertex> child_ann;
      if (hints) {
        child_ann = DeriveChildAnnotations(frame.sub, frame.ann, arc_base,
                                           sc.shortcuts, dist_from_cut,
                                           child_sub.graph,
                                           child_sub.to_parent);
      }

      NodeRepairCache& cache = repair_cache_[child];
      // A byte-identical child subgraph does NOT imply identical hints:
      // ancestor weight changes can switch which equal-distance witness the
      // annotations picked, so hint mode also compares the annotations.
      if (scoped && child_to_global == cache.to_global &&
          SameGraph(child_sub.graph, cache.sub) &&
          (!hints || child_ann == cache.ann)) {
        // Clean subtree: identical inputs reproduce identical labels, so
        // every descendant level array is spliced verbatim out of the
        // current store instead of recursing. The cache entry stays valid.
        const uint32_t child_depth = TreeCodeDepth(nodes[child].code);
        const LabelStore& store = labels_[0];
        const uint32_t* arena = store.arena.data();
        const uint32_t* hint_arena = hints ? hints_[0].arena.data() : nullptr;
        for (const Vertex gv : child_to_global) {
          const uint32_t base = store.base[gv];
          const uint32_t arrays = store.base[gv + 1] - base;
          auto& data = label_data[gv];
          for (uint32_t k = child_depth; k < arrays; ++k) {
            const uint32_t start = store.level_start[base + k];
            const uint32_t len = store.level_len[base + k];
            data.insert(data.end(), arena + start, arena + start + len);
            label_lens[gv].push_back(len);
            out->reused += len;
            if (hints) {
              // The hint store shares the label store's offset tables.
              auto& hdata = hint_data[gv];
              hdata.insert(hdata.end(), hint_arena + start,
                           hint_arena + start + len);
              hint_lens[gv].push_back(len);
            }
          }
        }
        out->clean_subtrees.push_back(child);
        continue;
      }
      cache.sub = child_sub.graph;
      cache.to_global = child_to_global;
      cache.ann = child_ann;
      cache.shortcuts_into = sc.shortcuts.size();
      out->children.push_back({std::move(child_sub.graph),
                               std::move(child_to_global),
                               std::move(child_ann), child});
    }
  };
  std::vector<int32_t> clean_roots;
  uint64_t dirty_nodes = 0;
  uint64_t recomputed_entries = 0;
  uint64_t reused_entries = 0;
  while (!level.empty()) {
    const size_t count = level.size();
    std::vector<FrameOut> outs(count);
    pool.ParallelFor(count, [&](size_t fi) {
      process_node(std::move(level[fi]), &outs[fi]);
    });
    level.clear();
    dirty_nodes += count;
    for (size_t fi = 0; fi < count; ++fi) {
      shortcut_count += outs[fi].shortcuts;
      recomputed_entries += outs[fi].recomputed;
      reused_entries += outs[fi].reused;
      clean_roots.insert(clean_roots.end(), outs[fi].clean_subtrees.begin(),
                         outs[fi].clean_subtrees.end());
      for (Frame& child : outs[fi].children) {
        level.push_back(std::move(child));
      }
    }
  }

  // Shortcuts inside clean subtrees were not re-walked; their cached
  // per-node counts complete the total (each cut-off child's own incoming
  // shortcut set was recounted by its parent above, so only strict
  // descendants are summed here).
  for (const int32_t clean_root : clean_roots) {
    std::vector<int32_t> stack{clean_root};
    while (!stack.empty()) {
      const int32_t node = stack.back();
      stack.pop_back();
      for (const int32_t child : {nodes[node].left, nodes[node].right}) {
        if (child < 0) continue;
        shortcut_count += repair_cache_[child].shortcuts_into;
        stack.push_back(child);
      }
    }
  }

  if (overflow.load(std::memory_order_relaxed)) {
    // The hierarchy may already hold this walk's separator repairs and the
    // cache is partially overwritten: the index is in an unspecified state
    // (the header tells callers to repair a disposable clone). Invalidate
    // the cache so a retained index at least never scopes against it.
    repair_cache_.clear();
    return Status::OutOfRange(
        "updated weights push a shortest-path distance past 2^31, beyond "
        "the 32-bit label encoding; refusing to produce wrapped labels");
  }

  // Re-flatten into a fresh aligned arena.
  uint64_t total_entries = 0;
  for (size_t v = 0; v < n; ++v) total_entries += label_data[v].size();
  labels_[0].BuildFrom(&label_data, &label_lens);
  if (hints) hints_[0].BuildFrom(&hint_data, &hint_lens);

  stats_.num_shortcuts = shortcut_count;
  stats_.label_entries = total_entries;
  stats_.label_bytes =
      total_entries * sizeof(uint32_t) + labels_[0].MetadataBytes();
  // Cut repairs may have moved vertices between nodes.
  height_ = hierarchy_.Height();
  stats_.tree_height = height_;
  stats_.max_cut_size = hierarchy_.MaxCutSize();
  stats_.avg_cut_size = hierarchy_.AvgCutSize();
  stats_.build_seconds = timer.Seconds();

  repair_cache_tail_pruning_ = tail_pruning;
  repair_stats_ = RepairStats{};
  repair_stats_.recomputed_entries = recomputed_entries;
  repair_stats_.reused_entries = reused_entries;
  repair_stats_.dirty_nodes = dirty_nodes;
  repair_stats_.clean_subtrees = clean_roots.size();
  repair_stats_.full_rebuild = !scoped;
  repair_stats_.seconds = timer.Seconds();
  return Status::Ok();
}

Hc2lIndex Hc2lIndex::Clone() const {
  Hc2lIndex out;
  out.num_vertices_ = num_vertices_;
  out.stats_ = stats_;
  if (contraction_ != nullptr) {
    out.contraction_ = std::make_unique<DegreeOneContraction>(*contraction_);
  }
  out.hierarchy_ = hierarchy_;
  out.height_ = height_;
  // The offset tables deep-copy (even from a mapping); arenas are copied
  // into fresh owned, aligned storage.
  const auto copy_store = [](const LabelStore& from, LabelStore* to) {
    to->base = from.base;
    to->level_start = from.level_start;
    to->level_len = from.level_len;
    to->arena.Reset(from.arena.size());
    std::memcpy(to->arena.data(), from.arena.data(), from.arena.SizeBytes());
  };
  copy_store(labels_[0], &out.labels_[0]);
  if (HasRouteHints()) copy_store(hints_[0], &out.hints_[0]);
  out.repair_cache_ = repair_cache_;
  out.repair_cache_tail_pruning_ = repair_cache_tail_pruning_;
  out.repair_stats_ = repair_stats_;
  out.pool_ = pool_;
  return out;
}

bool Hc2lIndex::IdenticalTo(const Hc2lIndex& other) const {
  const Hc2lStats& a = stats_;
  const Hc2lStats& b = other.stats_;
  if (a.num_vertices != b.num_vertices ||
      a.num_core_vertices != b.num_core_vertices ||
      a.num_contracted != b.num_contracted || a.tree_height != b.tree_height ||
      a.num_tree_nodes != b.num_tree_nodes ||
      a.max_cut_size != b.max_cut_size || a.avg_cut_size != b.avg_cut_size ||
      a.num_shortcuts != b.num_shortcuts ||
      a.label_entries != b.label_entries || a.label_bytes != b.label_bytes ||
      a.lca_bytes != b.lca_bytes) {
    return false;
  }
  if ((contraction_ == nullptr) != (other.contraction_ == nullptr)) {
    return false;
  }
  if (contraction_ != nullptr) {
    const DegreeOneContraction& c = *contraction_;
    const DegreeOneContraction& d = *other.contraction_;
    if (!SameGraph(c.core_, d.core_) ||
        c.num_contracted_ != d.num_contracted_ || c.core_id_ != d.core_id_ ||
        c.to_original_ != d.to_original_ ||
        c.root_core_id_ != d.root_core_id_ ||
        c.dist_to_root_ != d.dist_to_root_ || c.parent_ != d.parent_ ||
        c.parent_weight_ != d.parent_weight_ || c.depth_ != d.depth_) {
      return false;
    }
  }
  const BalancedTreeHierarchy& h = hierarchy_;
  const BalancedTreeHierarchy& i = other.hierarchy_;
  if (h.node_of_vertex_ != i.node_of_vertex_ ||
      h.vertex_code_ != i.vertex_code_ || h.nodes_.size() != i.nodes_.size()) {
    return false;
  }
  for (size_t k = 0; k < h.nodes_.size(); ++k) {
    const HierarchyNode& x = h.nodes_[k];
    const HierarchyNode& y = i.nodes_[k];
    if (x.code != y.code || x.parent != y.parent || x.left != y.left ||
        x.right != y.right || x.cut != y.cut) {
      return false;
    }
  }
  const auto same_store = [](const LabelStore& x, const LabelStore& y) {
    return x.base == y.base && x.level_start == y.level_start &&
           x.level_len == y.level_len && x.arena.size() == y.arena.size() &&
           (x.arena.size() == 0 ||
            std::memcmp(x.arena.data(), y.arena.data(),
                        x.arena.SizeBytes()) == 0);
  };
  return same_store(labels_[0], other.labels_[0]) &&
         same_store(hints_[0], other.hints_[0]);
}

// On-disk format (src/core/index_format.h, docs/format.md): the sectioned
// HC2L0004 layout. The meta body carries the stats and the optional
// contraction; the core (LabelIndex::SaveSections) appends the hierarchy and
// writes the label store and, when the index has route hints, its hint
// store.
Status Hc2lIndex::Save(const std::string& path) const {
  return SaveSections(path, kHc2lIndexMagic, [&](std::FILE* out) {
    const uint8_t has_contraction = contraction_ != nullptr ? 1 : 0;
    bool ok =
        io::WriteValue(out, stats_) && io::WriteValue(out, has_contraction);
    if (ok && has_contraction) {
      const DegreeOneContraction& c = *contraction_;
      const uint64_t contracted = c.num_contracted_;
      ok = io::WriteVector(out, c.core_id_) &&
           io::WriteVector(out, c.to_original_) &&
           io::WriteVector(out, c.root_core_id_) &&
           io::WriteVector(out, c.dist_to_root_) &&
           io::WriteVector(out, c.parent_) &&
           io::WriteVector(out, c.parent_weight_) &&
           io::WriteVector(out, c.depth_) && io::WriteValue(out, contracted);
    }
    return ok;
  });
}

Result<Hc2lIndex> Hc2lIndex::Load(const std::string& path) {
  return Load(path, /*use_mmap=*/false);
}

Result<Hc2lIndex> Hc2lIndex::Load(const std::string& path, bool use_mmap) {
  Hc2lIndex index;
  uint8_t has_contraction = 0;
  const auto parse_body = [&](io::Reader* in) {
    bool ok = io::ReadValue(in, &index.stats_) &&
              io::ReadValue(in, &has_contraction);
    if (ok && has_contraction) {
      index.contraction_ =
          std::unique_ptr<DegreeOneContraction>(new DegreeOneContraction());
      DegreeOneContraction& c = *index.contraction_;
      uint64_t contracted = 0;
      ok = io::ReadVector(in, &c.core_id_) &&
           io::ReadVector(in, &c.to_original_) &&
           io::ReadVector(in, &c.root_core_id_) &&
           io::ReadVector(in, &c.dist_to_root_) &&
           io::ReadVector(in, &c.parent_) &&
           io::ReadVector(in, &c.parent_weight_) &&
           io::ReadVector(in, &c.depth_) && io::ReadValue(in, &contracted);
      c.num_contracted_ = contracted;
    }
    return ok;
  };

  // The contraction mapping is indexed without bounds checks, so its sizes
  // and id ranges must agree with the loaded core. The stored stats counts
  // feed the facade's range checks (NumVertices gates every query id), so a
  // corrupt stats block must not survive either: pin it to the loaded
  // sizes.
  const auto check_body = [&](size_t core) {
    if (has_contraction) {
      const DegreeOneContraction& c = *index.contraction_;
      const size_t n = c.core_id_.size();
      if (c.to_original_.size() != core || c.root_core_id_.size() != n ||
          c.dist_to_root_.size() != n || c.parent_.size() != n ||
          c.parent_weight_.size() != n || c.depth_.size() != n ||
          core + c.num_contracted_ != n) {
        return false;
      }
      for (size_t v = 0; v < n; ++v) {
        if (c.root_core_id_[v] >= core || c.parent_[v] >= n) return false;
        if (c.core_id_[v] != kInvalidVertex &&
            (c.core_id_[v] >= core ||
             c.to_original_[c.core_id_[v]] != static_cast<Vertex>(v))) {
          return false;
        }
      }
    }
    const uint64_t n =
        has_contraction ? index.contraction_->core_id_.size() : core;
    const uint64_t contracted =
        has_contraction ? index.contraction_->num_contracted_ : 0;
    return index.stats_.num_vertices == n &&
           index.stats_.num_core_vertices == core &&
           index.stats_.num_contracted == contracted;
  };

  if (Status st = index.LoadSections(path, "HC2L index", kHc2lIndexMagic,
                                     use_mmap, parse_body, check_body);
      !st.ok()) {
    return st;
  }
  index.num_vertices_ = index.stats_.num_vertices;
  index.stats_.tree_height = index.height_;
  return index;
}

}  // namespace hc2l
