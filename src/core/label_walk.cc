#include "core/label_walk.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "partition/balanced_cut.h"
#include "partition/shortcuts.h"
#include "search/dijkstra.h"

namespace hc2l {

namespace {

// --- The two graph shapes behind one walk. Direction 0 is the out side
// (the neighbours of an undirected graph), direction 1 the in side of a
// digraph. The search for store d computes that store's distances:
// d(v -> root) for out — a backward search on a digraph — and d(root -> v)
// for in, a forward one.

std::span<const Arc> Arcs(const Graph& g, Vertex v, int /*direction*/) {
  return g.Neighbors(v);
}

std::span<const Arc> Arcs(const Digraph& g, Vertex v, int direction) {
  return direction == 0 ? g.OutArcs(v) : g.InArcs(v);
}

/// The arcs the search for store `direction` relaxes: a digraph's in-arcs
/// for the out store (d(v -> root) is a backward search) and its out-arcs
/// for the in store; an undirected graph's neighbours.
template <typename G>
std::span<const Arc> SearchArcs(const G& g, Vertex v, int direction) {
  return Arcs(g, v, 1 - direction);
}

/// The shortest-path tree of store `direction` rooted at `root`.
template <typename G>
ShortestPathTree Tree(const G& g, Vertex root, int direction) {
  return ShortestPathTreeOver(g.NumVertices(), root, [&](Vertex v) {
    return SearchArcs(g, v, direction);
  });
}

/// Flags, over `tree` of store `direction`, every vertex some shortest
/// path to which from the tree's root passes a vertex u with
/// pos[u] < limit (see FlagTrackedPaths).
template <typename G>
void FlagPaths(const G& g, int direction, const ShortestPathTree& tree,
               const std::vector<uint32_t>& pos, uint32_t limit,
               std::vector<uint8_t>* via) {
  FlagTrackedPaths(
      tree, [&](Vertex v) { return SearchArcs(g, v, direction); },
      [&](Vertex u) { return pos[u] < limit; }, via);
}

/// Position of every cut vertex in `cut`, UINT32_MAX for the others.
std::vector<uint32_t> CutPositions(const std::vector<Vertex>& cut,
                                   size_t num_vertices) {
  std::vector<uint32_t> pos(num_vertices, UINT32_MAX);
  for (size_t i = 0; i < cut.size(); ++i) {
    pos[cut[i]] = static_cast<uint32_t>(i);
  }
  return pos;
}

/// Balanced cuts must separate paths in both directions, so a digraph is
/// cut on its undirected projection.
BalancedCutResult CutOf(const Graph& g, double beta) {
  return BalancedCut(g, beta);
}

BalancedCutResult CutOf(const Digraph& g, double beta) {
  return BalancedCut(g.UndirectedProjection(), beta);
}

/// Per direction, the distance vectors of every cut vertex (rank order)
/// over the node's subgraph.
template <int kDirections>
using CutDistances =
    std::array<std::vector<std::vector<Dist>>, kDirections>;

/// One side's child subgraph (Algorithm 3 shortcuts added) and the
/// shortcuts as arcs in parent ids — an undirected shortcut in both
/// orientations — for the annotation derivation.
template <int kDirections>
struct ChildGraph {
  LabelGraph<kDirections> graph;
  std::vector<Vertex> to_parent;
  std::vector<DirectedArc> shortcut_arcs;
  uint64_t shortcuts = 0;
};

ChildGraph<1> InduceChild(const Graph& sub, std::span<const Vertex> cut,
                          std::span<const Vertex> part,
                          const CutDistances<1>& dist, ThreadPool& pool) {
  const ShortcutResult sc = ComputeShortcuts(sub, cut, part, dist[0], pool);
  Subgraph child = InducedSubgraph(sub, part, sc.shortcuts);
  ChildGraph<1> out{std::move(child.graph), std::move(child.to_parent), {},
                    sc.shortcuts.size()};
  out.shortcut_arcs.reserve(2 * sc.shortcuts.size());
  for (const Edge& e : sc.shortcuts) {
    out.shortcut_arcs.push_back({e.u, e.v, e.weight});
    out.shortcut_arcs.push_back({e.v, e.u, e.weight});
  }
  return out;
}

ChildGraph<2> InduceChild(const Digraph& sub, std::span<const Vertex> cut,
                          std::span<const Vertex> part,
                          const CutDistances<2>& dist, ThreadPool& pool) {
  std::vector<DirectedArc> sc =
      ComputeDirectedShortcuts(sub, cut, part, dist[0], dist[1], pool);
  Subdigraph child = InducedSubdigraph(sub, part, sc);
  const uint64_t count = sc.size();
  return {std::move(child.graph), std::move(child.to_parent), std::move(sc),
          count};
}

/// Encodes a distance as a 32-bit label entry. Finite values must stay
/// below 2^31 so that any finite pair-sum is strictly smaller than the
/// sentinel plus anything (the min-plus kernels rely on it); a larger one
/// sets *overflow and is written as unreachable — the caller discards the
/// walk (a weight update reports kOutOfRange, a build aborts).
uint32_t EncodeLabelDistance(Dist d, std::atomic<bool>* overflow) {
  if (d == kInfDist) return LabelIndex<1>::kUnreachableLabel;
  if (d >= (Dist{1} << 31)) {
    overflow->store(true, std::memory_order_relaxed);
    return LabelIndex<1>::kUnreachableLabel;
  }
  return static_cast<uint32_t>(d);
}

// --- Route-hint machinery (OSRM-style provenance, recorded while labelling
// so query-time unpacking is pure array walking). Every arc of every
// subgraph carries, per direction, an annotation (ArcAnnotations): the
// out-annotation is the first real core hop leaving the arc's tail, the
// in-annotation the real core predecessor of its head. A real arc
// annotates itself; a shortcut arc inherits from the witness arcs of its
// through-the-cut path. The hint of (vertex, hub) is then the annotation of
// the first witness arc of the hub's search — by induction, the first hop
// of a real shortest core path toward the hub (out) or the predecessor on
// one from it (in).

/// Arc-offset prefix array of one direction: arc j of Arcs(g, v, d) is
/// entry base[v] + j of the matching annotation vector.
template <typename G>
std::vector<size_t> ArcBases(const G& g, int direction) {
  const size_t n = g.NumVertices();
  std::vector<size_t> base(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    base[v + 1] = base[v] + Arcs(g, v, direction).size();
  }
  return base;
}

/// Annotations over the core graph itself: every arc is real, so each
/// annotation is the arc's other end (InArcs' Arc::to is the source).
template <int kDirections>
ArcAnnotations<kDirections> RootAnnotations(
    const LabelGraph<kDirections>& core) {
  ArcAnnotations<kDirections> ann;
  const size_t n = core.NumVertices();
  for (int d = 0; d < kDirections; ++d) {
    ann[d].reserve(core.NumArcs());
    for (Vertex v = 0; v < n; ++v) {
      for (const Arc& a : Arcs(core, v, d)) ann[d].push_back(a.to);
    }
  }
  return ann;
}

/// Annotation of the first witness arc of `v` in `direction` under the
/// distance field `dist` of that direction's search: the first arc with
/// dist[other end] + w == dist[v]. kInvalidVertex when v is the search root
/// itself, unreachable, or (corrupt inputs) no witness exists.
template <typename G>
Vertex Witness(const G& g, int direction, const std::vector<Vertex>& ann,
               const std::vector<size_t>& base, Vertex v,
               const std::vector<Dist>& dist) {
  const Dist dv = dist[v];
  if (dv == 0 || dv == kInfDist) return kInvalidVertex;
  const std::span<const Arc> arcs = Arcs(g, v, direction);
  for (size_t j = 0; j < arcs.size(); ++j) {
    const Arc& a = arcs[j];
    if (dist[a.to] != kInfDist && dist[a.to] + a.weight == dv) {
      return ann[base[v] + j];
    }
  }
  return kInvalidVertex;
}

/// Derives a child subgraph's annotations from its parent's. A real child
/// arc copies the parent arc's annotations; a shortcut from -> to resolves
/// against its witness cut vertex (the first in rank order realizing the
/// shortcut weight as d(from -> cut) + d(cut -> to)): the out side from the
/// out field at `from`, the in side from the in field at `to`. Shortcut
/// weights are strictly below any in-partition path and the graph builders
/// collapse parallel arcs to minimum weight, so the pair lookup is
/// unambiguous.
template <int kDirections>
ArcAnnotations<kDirections> DeriveChildAnnotations(
    const LabelGraph<kDirections>& parent,
    const ArcAnnotations<kDirections>& parent_ann,
    const std::array<std::vector<size_t>, kDirections>& base,
    const ChildGraph<kDirections>& child,
    const CutDistances<kDirections>& dist) {
  constexpr int kIn = kDirections - 1;
  struct ShortcutAnn {
    uint64_t key;  // (parent from) << 32 | parent to
    std::array<Vertex, kDirections> ann;
  };
  std::vector<ShortcutAnn> sc_ann;
  sc_ann.reserve(child.shortcut_arcs.size());
  for (const DirectedArc& e : child.shortcut_arcs) {
    ShortcutAnn entry;
    entry.key = (static_cast<uint64_t>(e.from) << 32) | e.to;
    entry.ann.fill(kInvalidVertex);
    for (size_t c = 0; c < dist[0].size(); ++c) {
      if (AddDist(dist[0][c][e.from], dist[kIn][c][e.to]) != e.weight) {
        continue;
      }
      for (int d = 0; d < kDirections; ++d) {
        entry.ann[d] = Witness(parent, d, parent_ann[d], base[d],
                               d == 0 ? e.from : e.to, dist[d][c]);
      }
      break;
    }
    sc_ann.push_back(entry);
  }
  std::sort(sc_ann.begin(), sc_ann.end(),
            [](const ShortcutAnn& a, const ShortcutAnn& b) {
              return a.key < b.key;
            });

  ArcAnnotations<kDirections> ann;
  const size_t n = child.graph.NumVertices();
  for (int d = 0; d < kDirections; ++d) {
    ann[d].reserve(child.graph.NumArcs());
    for (Vertex cv = 0; cv < n; ++cv) {
      const Vertex x = child.to_parent[cv];
      for (const Arc& a : Arcs(child.graph, cv, d)) {
        const Vertex y = child.to_parent[a.to];
        const uint64_t key = d == 0 ? (static_cast<uint64_t>(x) << 32) | y
                                    : (static_cast<uint64_t>(y) << 32) | x;
        const auto it = std::lower_bound(
            sc_ann.begin(), sc_ann.end(), key,
            [](const ShortcutAnn& s, uint64_t k) { return s.key < k; });
        if (it != sc_ann.end() && it->key == key) {
          ann[d].push_back(it->ann[d]);
          continue;
        }
        // A real arc: copy the parent arc's annotation.
        const std::span<const Arc> parcs = Arcs(parent, x, d);
        Vertex copied = kInvalidVertex;
        for (size_t j = 0; j < parcs.size(); ++j) {
          if (parcs[j].to == y) {
            copied = parent_ann[d][base[d][x] + j];
            break;
          }
        }
        ann[d].push_back(copied);
      }
    }
  }
  return ann;
}

/// Puts a freshly chosen cut into label rank order. With tail pruning that
/// is Eq. 6 / Algorithm 5 lines 2-5: ascending count, summed over the
/// directions, of vertices whose shortest path from the cut vertex passes
/// through another cut vertex ("most coverable last"); ties, and every cut
/// without pruning, go by core id. The trees searched for the count are
/// handed over in rank order, for the labelling to reuse.
template <int kDirections>
void RankCut(const WalkFrame<kDirections>& frame, bool tail_pruning,
             ThreadPool& pool, NodeCut<kDirections>* nc) {
  const std::vector<Vertex>& to_global = frame.to_global;
  std::vector<Vertex>& cut = nc->cut;
  const size_t m = cut.size();
  std::vector<uint64_t> score(m, 0);
  const bool searched = tail_pruning && m > 1;
  if (searched) {
    const size_t n = frame.sub.NumVertices();
    const std::vector<uint32_t> pos = CutPositions(cut, n);
    for (auto& trees : nc->trees) trees.resize(m);
    pool.ParallelFor(m, [&](size_t i) {
      std::vector<uint8_t> via;
      for (int d = 0; d < kDirections; ++d) {
        ShortestPathTree& tree = nc->trees[d][i];
        tree = Tree(frame.sub, cut[i], d);
        FlagPaths(frame.sub, d, tree, pos, static_cast<uint32_t>(m), &via);
        for (Vertex v = 0; v < n; ++v) score[i] += via[v];
      }
    });
  }
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (score[a] != score[b]) return score[a] < score[b];
    return to_global[cut[a]] < to_global[cut[b]];
  });
  std::vector<Vertex> ranked(m);
  for (size_t i = 0; i < m; ++i) ranked[i] = cut[order[i]];
  cut = std::move(ranked);
  if (!searched) return;
  for (auto& trees : nc->trees) {
    std::vector<ShortestPathTree> ranked_trees(m);
    for (size_t i = 0; i < m; ++i) {
      ranked_trees[i] = std::move(trees[order[i]]);
    }
    trees = std::move(ranked_trees);
  }
}

}  // namespace

template <int kDirections>
LabelWalk<kDirections>::LabelWalk(size_t num_vertices, bool tail_pruning,
                                  bool hints)
    : tail_pruning_(tail_pruning), hints_(hints) {
  for (int d = 0; d < kDirections; ++d) {
    label_data_[d].resize(num_vertices);
    label_lens_[d].resize(num_vertices);
    if (hints_) hint_data_[d].resize(num_vertices);
  }
}

template <int kDirections>
void LabelWalk<kDirections>::Run(const LabelGraph<kDirections>& core,
                                 const CutSource<kDirections>& source,
                                 ThreadPool& pool) {
  const size_t n = core.NumVertices();
  std::vector<Frame> level(1);
  level[0].sub = core;
  level[0].to_global.resize(n);
  for (Vertex v = 0; v < n; ++v) level[0].to_global[v] = v;
  if (hints_) level[0].ann = RootAnnotations<kDirections>(core);
  level[0].node = 0;

  ThreadPool inline_pool(1);
  while (!level.empty()) {
    const size_t count = level.size();
    // A level with a frame per thread keeps the pool busy frame by frame;
    // the narrow top levels spread each frame's searches over it instead.
    ThreadPool& inner = count >= pool.NumThreads() ? inline_pool : pool;
    std::vector<int32_t> parents(count);
    std::vector<StepOut> outs(count);
    for (size_t fi = 0; fi < count; ++fi) parents[fi] = level[fi].node;
    pool.ParallelFor(count, [&](size_t fi) {
      Step(std::move(level[fi]), source, inner, &outs[fi]);
    });
    level.clear();
    nodes_ += count;
    // Children are numbered after the level, in frame order: level order
    // whatever the thread count.
    for (size_t fi = 0; fi < count; ++fi) {
      shortcuts_ += outs[fi].shortcuts;
      recomputed_ += outs[fi].recomputed;
      for (auto& [side, child] : outs[fi].children) {
        child.node = source.child_node(parents[fi], side);
        level.push_back(std::move(child));
      }
    }
  }
}

template <int kDirections>
void LabelWalk<kDirections>::Step(Frame frame,
                                  const CutSource<kDirections>& source,
                                  ThreadPool& pool, StepOut* out) {
  NodeCut<kDirections> nc;
  source.cut(frame, pool, &nc);
  const LabelGraph<kDirections>& sub = frame.sub;
  const size_t n = sub.NumVertices();
  const size_t m = nc.cut.size();

  // 1. One shortest-path tree per cut vertex and direction, unless the
  // source handed them over. With tail pruning, the tracked set of cut[i]
  // is its prefix cut[0..i-1] in both directions; the settle order is only
  // needed for that flag pass and is freed after it.
  std::array<std::vector<ShortestPathTree>, kDirections>& trees = nc.trees;
  const bool handed = !trees[0].empty();
  std::array<std::vector<std::vector<uint8_t>>, kDirections> via;
  std::vector<uint32_t> pos;
  if (tail_pruning_) pos = CutPositions(nc.cut, n);
  for (int d = 0; d < kDirections; ++d) {
    if (handed) HC2L_CHECK_EQ(trees[d].size(), m);
    trees[d].resize(m);
    if (tail_pruning_) via[d].resize(m);
  }
  pool.ParallelFor(m, [&](size_t i) {
    for (int d = 0; d < kDirections; ++d) {
      ShortestPathTree& tree = trees[d][i];
      if (!handed) tree = Tree(sub, nc.cut[i], d);
      if (tail_pruning_) {
        FlagPaths(sub, d, tree, pos, static_cast<uint32_t>(i), &via[d][i]);
      }
      tree.order = std::vector<Vertex>();
    }
  });

  // 2. Labels with tail pruning (Algorithm 5 lines 8-10): vertex v keeps
  // the hubs up to the last one whose shortest path avoids every earlier
  // hub; an empty cut still gives every vertex one (empty) array, so label
  // levels stay aligned. Hints follow the entries in lockstep.
  std::array<std::vector<size_t>, kDirections> bases;
  for (int d = 0; d < kDirections; ++d) {
    if (hints_) bases[d] = ArcBases(sub, d);
    for (Vertex v = 0; v < n; ++v) {
      const Vertex gv = frame.to_global[v];
      if (m == 0) {
        label_lens_[d][gv].push_back(0);
        continue;
      }
      // cut[0] tracks nothing, so k stops at 0 at the latest.
      size_t k = m - 1;
      if (tail_pruning_) {
        while (via[d][k][v] != 0) --k;
      }
      std::vector<uint32_t>& data = label_data_[d][gv];
      for (size_t i = 0; i <= k; ++i) {
        data.push_back(EncodeLabelDistance(trees[d][i].dist[v], &overflow_));
      }
      label_lens_[d][gv].push_back(static_cast<uint32_t>(k + 1));
      out->recomputed += k + 1;
      if (hints_) {
        std::vector<uint32_t>& hints = hint_data_[d][gv];
        for (size_t i = 0; i <= k; ++i) {
          hints.push_back(
              Witness(sub, d, frame.ann[d], bases[d], v, trees[d][i].dist));
        }
      }
    }
  }
  if (nc.parts[0].empty() && nc.parts[1].empty()) return;

  // 3. Children: Algorithm 3 shortcuts keep each side distance-preserving;
  // their border searches run on `pool` like the trees.
  CutDistances<kDirections> dist;
  for (int d = 0; d < kDirections; ++d) {
    dist[d].reserve(m);
    for (ShortestPathTree& tree : trees[d]) {
      dist[d].push_back(std::move(tree.dist));
    }
    trees[d] = {};
    via[d] = {};
  }
  for (int side = 0; side < 2; ++side) {
    const std::vector<Vertex>& part = nc.parts[side];
    if (part.empty()) continue;
    ChildGraph<kDirections> child =
        InduceChild(sub, nc.cut, part, dist, pool);
    out->shortcuts += child.shortcuts;
    Frame next;
    next.to_global.reserve(part.size());
    for (Vertex v : child.to_parent) {
      next.to_global.push_back(frame.to_global[v]);
    }
    if (hints_) {
      next.ann = DeriveChildAnnotations<kDirections>(sub, frame.ann, bases,
                                                       child, dist);
    }
    next.sub = std::move(child.graph);
    if (source.descend && !source.descend(frame, side, next, child.shortcuts)) {
      continue;
    }
    out->children.emplace_back(side, std::move(next));
  }
}

template <int kDirections>
uint64_t LabelWalk<kDirections>::Splice(std::span<const Vertex> vertices,
                                        uint32_t depth, const Stores& labels,
                                        const Stores& hints) {
  uint64_t entries = 0;
  for (int d = 0; d < kDirections; ++d) {
    const LabelStore& store = labels[d];
    const uint32_t* arena = store.arena.data();
    // A hint store shares its label store's offset tables.
    const uint32_t* hint_arena = hints_ ? hints[d].arena.data() : nullptr;
    for (const Vertex gv : vertices) {
      const uint32_t base = store.base[gv];
      const uint32_t arrays = store.base[gv + 1] - base;
      for (uint32_t k = depth; k < arrays; ++k) {
        const uint32_t start = store.level_start[base + k];
        const uint32_t len = store.level_len[base + k];
        std::vector<uint32_t>& data = label_data_[d][gv];
        data.insert(data.end(), arena + start, arena + start + len);
        label_lens_[d][gv].push_back(len);
        entries += len;
        if (hints_) {
          std::vector<uint32_t>& hdata = hint_data_[d][gv];
          hdata.insert(hdata.end(), hint_arena + start,
                       hint_arena + start + len);
        }
      }
    }
  }
  return entries;
}

template <int kDirections>
void LabelWalk<kDirections>::MoveInto(Stores* labels, Stores* hints) {
  for (int d = 0; d < kDirections; ++d) {
    if (hints_) {
      // BuildFrom consumes the lengths, and the hint arrays share them.
      std::vector<std::vector<uint32_t>> lens = label_lens_[d];
      (*hints)[d].BuildFrom(&hint_data_[d], &lens);
    }
    (*labels)[d].BuildFrom(&label_data_[d], &label_lens_[d]);
  }
}

template <int kDirections>
uint64_t LabelIndex<kDirections>::BuildLabels(const LabelGraph<kDirections>& g,
                                              const Hc2lOptions& options) {
  HC2L_CHECK_GT(options.beta, 0.0);
  HC2L_CHECK_LE(options.beta, 0.5);
  num_vertices_ = g.NumVertices();
  const LabelGraph<kDirections>* core = &g;
  if (options.contract_degree_one) {
    contraction_ = std::make_unique<Contraction>(g);
    core = &contraction_->CoreGraph();
  }
  const size_t n = core->NumVertices();
  std::vector<HierarchyNode>& nodes = hierarchy_.nodes_;
  nodes.assign(1, HierarchyNode{});
  hierarchy_.node_of_vertex_.assign(n, UINT32_MAX);
  hierarchy_.vertex_code_.assign(n, kRootCode);

  CutSource<kDirections> source;
  source.cut = [&](const WalkFrame<kDirections>& frame, ThreadPool& pool,
                   NodeCut<kDirections>* out) {
    const size_t sub_n = frame.sub.NumVertices();
    const TreeCode code = nodes[frame.node].code;
    bool leaf =
        sub_n <= options.leaf_size || TreeCodeDepth(code) >= kMaxTreeDepth;
    if (!leaf) {
      BalancedCutResult bc = CutOf(frame.sub, options.beta);
      // Degenerate splits (everything became the cut) end the recursion.
      leaf = bc.part_a.empty() && bc.part_b.empty();
      if (!leaf) {
        out->cut = std::move(bc.cut);
        out->parts = {std::move(bc.part_a), std::move(bc.part_b)};
      }
    }
    if (leaf) {
      // A leaf labels its whole residual vertex set like a cut.
      out->cut.resize(sub_n);
      for (Vertex v = 0; v < sub_n; ++v) out->cut[v] = v;
    }
    RankCut(frame, options.tail_pruning, pool, out);
    // Nodes are only appended between levels, so this frame's node and the
    // per-vertex entries of its cut are its own.
    HierarchyNode& node = nodes[frame.node];
    node.cut.reserve(out->cut.size());
    for (Vertex v : out->cut) {
      const Vertex global = frame.to_global[v];
      node.cut.push_back(global);
      hierarchy_.node_of_vertex_[global] = static_cast<uint32_t>(frame.node);
      hierarchy_.vertex_code_[global] = code;
    }
  };
  source.child_node = [&](int32_t parent, int side) {
    nodes.push_back(HierarchyNode{TreeCodeChild(nodes[parent].code, side),
                                  parent, -1, -1, {}});
    const int32_t child = static_cast<int32_t>(nodes.size() - 1);
    (side == 0 ? nodes[parent].left : nodes[parent].right) = child;
    return child;
  };

  ThreadPool pool(options.num_threads);
  LabelWalk<kDirections> walk(n, options.tail_pruning, options.route_hints);
  walk.Run(*core, source, pool);
  HC2L_CHECK_MSG(!walk.overflow(),
                 "a shortest-path distance exceeds the 2^31 label encoding");
  walk.MoveInto(&labels_, &hints_);
  height_ = hierarchy_.Height();
  return walk.shortcuts();
}

template class LabelWalk<1>;
template class LabelWalk<2>;
template uint64_t LabelIndex<1>::BuildLabels(const Graph&,
                                             const Hc2lOptions&);
template uint64_t LabelIndex<2>::BuildLabels(const Digraph&,
                                             const Hc2lOptions&);

}  // namespace hc2l
