#include "core/directed_hc2l.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/index_format.h"
#include "core/query_common.h"
#include "partition/balanced_cut.h"
#include "search/directed_dijkstra.h"

namespace hc2l {

namespace {

// --- Directed route-hint machinery, the dual-CSR port of the undirected
// annotation propagation (see hc2l.cc): every subgraph arc carries, per
// direction, the provenance of the shortest core path it stands for — the
// out-annotation is the first real core hop leaving the arc's tail, the
// in-annotation the real core predecessor of its head. Real arcs annotate
// themselves; shortcut arcs inherit from the witness arcs of their
// through-the-cut path.

/// Per-direction arc-offset prefix array: arc j of OutArcs(v) (or InArcs(v))
/// is entry base[v] + j of the matching annotation vector.
std::vector<size_t> DirectedArcBases(const Digraph& g, bool out) {
  const size_t n = g.NumVertices();
  std::vector<size_t> base(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    base[v + 1] = base[v] + (out ? g.OutArcs(v) : g.InArcs(v)).size();
  }
  return base;
}

/// Per-arc annotations of one subgraph, both directions.
struct DirectedAnnotations {
  std::vector<Vertex> out;  // indexed like the out-CSR
  std::vector<Vertex> in;   // indexed like the in-CSR
};

/// Root annotations over the core digraph: every arc is real, so the
/// out-annotation of v -> w is w and the in-annotation of w's in-arc from v
/// is v (InArcs' Arc::to is the source, so both loops just push a.to).
DirectedAnnotations RootAnnotations(const Digraph& core) {
  DirectedAnnotations ann;
  ann.out.reserve(core.NumArcs());
  ann.in.reserve(core.NumArcs());
  const size_t n = core.NumVertices();
  for (Vertex v = 0; v < n; ++v) {
    for (const Arc& a : core.OutArcs(v)) ann.out.push_back(a.to);
    for (const Arc& a : core.InArcs(v)) ann.in.push_back(a.to);
  }
  return ann;
}

/// Out-annotation of the first witness out-arc of v under the *backward*
/// distance field db (db[x] = d(x -> root)): the first out-arc with
/// w + db[head] == db[v] — i.e. the first hop of a shortest v -> root path.
Vertex OutWitness(const Digraph& g, const std::vector<Vertex>& out_ann,
                  const std::vector<size_t>& out_base, Vertex v,
                  const std::vector<Dist>& db) {
  const Dist dv = db[v];
  if (dv == 0 || dv == kInfDist) return kInvalidVertex;
  const std::span<const Arc> arcs = g.OutArcs(v);
  for (size_t j = 0; j < arcs.size(); ++j) {
    const Arc& a = arcs[j];
    if (db[a.to] != kInfDist && a.weight + db[a.to] == dv) {
      return out_ann[out_base[v] + j];
    }
  }
  return kInvalidVertex;
}

/// In-annotation of the first witness in-arc of v under the *forward*
/// distance field df (df[x] = d(root -> x)): the first in-arc with
/// df[source] + w == df[v] — the real predecessor of v on a shortest
/// root -> v path.
Vertex InWitness(const Digraph& g, const std::vector<Vertex>& in_ann,
                 const std::vector<size_t>& in_base, Vertex v,
                 const std::vector<Dist>& df) {
  const Dist dv = df[v];
  if (dv == 0 || dv == kInfDist) return kInvalidVertex;
  const std::span<const Arc> arcs = g.InArcs(v);  // a.to is the source
  for (size_t j = 0; j < arcs.size(); ++j) {
    const Arc& a = arcs[j];
    if (df[a.to] != kInfDist && df[a.to] + a.weight == dv) {
      return in_ann[in_base[v] + j];
    }
  }
  return kInvalidVertex;
}

/// Derives a child sub-digraph's annotations from its parent's. A real
/// child arc copies the parent arc's annotations; a shortcut from -> to
/// resolves against its witness cut vertex (first in rank order realizing
/// the shortcut weight as d(from -> cut) + d(cut -> to)): the out side from
/// the backward field at `from`, the in side from the forward field at
/// `to`. Shortcut weights are strictly below any in-partition path, and
/// the builders collapse parallel arcs to minimum weight, so the directed
/// pair lookup is unambiguous.
DirectedAnnotations DeriveChildAnnotations(
    const Digraph& parent, const DirectedAnnotations& parent_ann,
    const std::vector<size_t>& out_base, const std::vector<size_t>& in_base,
    const std::vector<DirectedArc>& shortcuts,
    const std::vector<DistAndPruneResult>& fwd,
    const std::vector<DistAndPruneResult>& bwd, const Digraph& child,
    const std::vector<Vertex>& to_parent) {
  struct ShortcutAnn {
    uint64_t key;  // (parent from) << 32 | parent to
    Vertex out_ann = kInvalidVertex;
    Vertex in_ann = kInvalidVertex;
  };
  std::vector<ShortcutAnn> sc_ann;
  sc_ann.reserve(shortcuts.size());
  for (const DirectedArc& e : shortcuts) {
    ShortcutAnn entry;
    entry.key = (static_cast<uint64_t>(e.from) << 32) | e.to;
    for (size_t c = 0; c < fwd.size(); ++c) {
      if (AddDist(bwd[c].dist[e.from], fwd[c].dist[e.to]) != e.weight) {
        continue;
      }
      entry.out_ann =
          OutWitness(parent, parent_ann.out, out_base, e.from, bwd[c].dist);
      entry.in_ann =
          InWitness(parent, parent_ann.in, in_base, e.to, fwd[c].dist);
      break;
    }
    sc_ann.push_back(entry);
  }
  std::sort(sc_ann.begin(), sc_ann.end(),
            [](const ShortcutAnn& a, const ShortcutAnn& b) {
              return a.key < b.key;
            });
  const auto find_shortcut = [&](Vertex pu, Vertex pv) -> const ShortcutAnn* {
    const uint64_t key = (static_cast<uint64_t>(pu) << 32) | pv;
    const auto it = std::lower_bound(
        sc_ann.begin(), sc_ann.end(), key,
        [](const ShortcutAnn& s, uint64_t k) { return s.key < k; });
    return it != sc_ann.end() && it->key == key ? &*it : nullptr;
  };

  DirectedAnnotations ann;
  ann.out.reserve(child.NumArcs());
  ann.in.reserve(child.NumArcs());
  const size_t n = child.NumVertices();
  for (Vertex cv = 0; cv < n; ++cv) {
    const Vertex pu = to_parent[cv];
    for (const Arc& a : child.OutArcs(cv)) {
      const Vertex pv = to_parent[a.to];
      if (const ShortcutAnn* s = find_shortcut(pu, pv)) {
        ann.out.push_back(s->out_ann);
        continue;
      }
      const std::span<const Arc> parcs = parent.OutArcs(pu);
      Vertex copied = kInvalidVertex;
      for (size_t j = 0; j < parcs.size(); ++j) {
        if (parcs[j].to == pv) {
          copied = parent_ann.out[out_base[pu] + j];
          break;
        }
      }
      ann.out.push_back(copied);
    }
  }
  for (Vertex cv = 0; cv < n; ++cv) {
    const Vertex pv = to_parent[cv];
    for (const Arc& a : child.InArcs(cv)) {
      const Vertex pu = to_parent[a.to];  // source
      if (const ShortcutAnn* s = find_shortcut(pu, pv)) {
        ann.in.push_back(s->in_ann);
        continue;
      }
      const std::span<const Arc> parcs = parent.InArcs(pv);
      Vertex copied = kInvalidVertex;
      for (size_t j = 0; j < parcs.size(); ++j) {
        if (parcs[j].to == pu) {
          copied = parent_ann.in[in_base[pv] + j];
          break;
        }
      }
      ann.in.push_back(copied);
    }
  }
  return ann;
}

}  // namespace

/// Recursive construction: balanced cuts on the undirected projection,
/// per-direction tail-pruned labels, directed shortcut arcs.
class DirectedHc2lBuilder {
 public:
  DirectedHc2lBuilder(const Digraph& g, const Hc2lOptions& options)
      : options_(options), pool_(options.num_threads) {
    const size_t n = g.NumVertices();
    hierarchy_.node_of_vertex_.assign(n, UINT32_MAX);
    hierarchy_.vertex_code_.assign(n, kRootCode);
    out_label_.resize(n);
    in_label_.resize(n);
    out_lens_.resize(n);
    in_lens_.resize(n);
    if (options_.route_hints) {
      out_hint_.resize(n);
      in_hint_.resize(n);
      out_hint_lens_.resize(n);
      in_hint_lens_.resize(n);
    }
    std::vector<Vertex> identity(n);
    for (Vertex v = 0; v < n; ++v) identity[v] = v;
    hierarchy_.nodes_.push_back(HierarchyNode{kRootCode, -1, -1, -1, {}});
    Digraph root = g;
    DirectedAnnotations root_ann =
        options_.route_hints ? RootAnnotations(g) : DirectedAnnotations{};
    BuildNode(std::move(root), std::move(identity), std::move(root_ann), 0,
              kRootCode);
  }

  void Finish(DirectedHc2lIndex* index) {
    index->hierarchy_ = std::move(hierarchy_);
    index->height_ = index->hierarchy_.Height();
    index->labels_[0].BuildFrom(&out_label_, &out_lens_);
    index->labels_[1].BuildFrom(&in_label_, &in_lens_);
    if (options_.route_hints) {
      index->hints_[0].BuildFrom(&out_hint_, &out_hint_lens_);
      index->hints_[1].BuildFrom(&in_hint_, &in_hint_lens_);
    }
  }

 private:
  void BuildNode(Digraph sub, std::vector<Vertex> to_global,
                 DirectedAnnotations ann, int32_t node_idx, TreeCode code) {
    const size_t n = sub.NumVertices();
    const uint32_t depth = TreeCodeDepth(code);

    BalancedCutResult bc;
    bool is_leaf = n <= options_.leaf_size || depth >= kMaxTreeDepth;
    if (!is_leaf) {
      bc = BalancedCut(sub.UndirectedProjection(), options_.beta);
      is_leaf = bc.part_a.empty() && bc.part_b.empty();
    }
    std::vector<Vertex> cut;
    if (is_leaf) {
      cut.resize(n);
      for (Vertex v = 0; v < n; ++v) cut[v] = v;
    } else {
      cut = std::move(bc.cut);
    }

    const size_t m = cut.size();
    std::vector<DistAndPruneResult> fwd(m);  // d(cut_i -> u), prunes in-side
    std::vector<DistAndPruneResult> bwd(m);  // d(u -> cut_i), prunes out-side
    if (m == 0) {
      for (Vertex v = 0; v < n; ++v) {
        out_lens_[to_global[v]].push_back(0);
        in_lens_[to_global[v]].push_back(0);
        if (options_.route_hints) {
          out_hint_lens_[to_global[v]].push_back(0);
          in_hint_lens_[to_global[v]].push_back(0);
        }
      }
    } else {
      RankAndLabel(sub, &cut, to_global, ann, node_idx, code, &fwd, &bwd);
    }
    if (is_leaf) return;

    for (int side = 0; side < 2; ++side) {
      const std::vector<Vertex>& part = side == 0 ? bc.part_a : bc.part_b;
      if (part.empty()) continue;
      std::vector<DirectedArc> shortcuts =
          ComputeDirectedShortcuts(sub, cut, part, fwd, bwd);
      Subdigraph child = InducedSubdigraph(sub, part, shortcuts);
      std::vector<Vertex> child_to_global;
      child_to_global.reserve(part.size());
      for (Vertex v : child.to_parent) child_to_global.push_back(to_global[v]);
      DirectedAnnotations child_ann;
      if (options_.route_hints) {
        child_ann = DeriveChildAnnotations(
            sub, ann, DirectedArcBases(sub, /*out=*/true),
            DirectedArcBases(sub, /*out=*/false), shortcuts, fwd, bwd,
            child.graph, child.to_parent);
      }
      const TreeCode child_code = TreeCodeChild(code, side);
      hierarchy_.nodes_.push_back(
          HierarchyNode{child_code, node_idx, -1, -1, {}});
      const int32_t child_idx =
          static_cast<int32_t>(hierarchy_.nodes_.size() - 1);
      (side == 0 ? hierarchy_.nodes_[node_idx].left
                 : hierarchy_.nodes_[node_idx].right) = child_idx;
      BuildNode(std::move(child.graph), std::move(child_to_global),
                std::move(child_ann), child_idx, child_code);
    }
  }

  /// Ranks the cut (sum of both directions' coverability, ascending), runs
  /// the per-direction prefix-tracking Dijkstras, and emits the two label
  /// arrays per subgraph vertex — plus, in hint mode, the two hint arrays
  /// (out: first hop toward each hub, in: predecessor from each hub) in
  /// lockstep with the label entries.
  void RankAndLabel(const Digraph& sub, std::vector<Vertex>* cut,
                    const std::vector<Vertex>& to_global,
                    const DirectedAnnotations& ann, int32_t node_idx,
                    TreeCode code, std::vector<DistAndPruneResult>* fwd,
                    std::vector<DistAndPruneResult>* bwd) {
    const size_t n = sub.NumVertices();
    const size_t m = cut->size();

    if (options_.tail_pruning && m > 1) {
      std::vector<uint8_t> in_cut(n, 0);
      for (Vertex v : *cut) in_cut[v] = 1;
      std::vector<uint64_t> score(m, 0);
      pool_.ParallelFor(m, [&](size_t i) {
        const auto f = DirectedDistAndPrune(sub, (*cut)[i],
                                            SearchDirection::kForward, in_cut);
        const auto b = DirectedDistAndPrune(
            sub, (*cut)[i], SearchDirection::kBackward, in_cut);
        for (Vertex v = 0; v < n; ++v) score[i] += f.via[v] + b.via[v];
      });
      ApplyCoverabilityOrder(cut, score, to_global);
    } else {
      std::sort(cut->begin(), cut->end(), [&](Vertex a, Vertex b) {
        return to_global[a] < to_global[b];
      });
    }

    // Prefix-tracking Dijkstras; the tracked set of v_i is {v_0 .. v_{i-1}}
    // and both directions of one cut vertex share its prefix mask. The
    // serial/parallel mask dispatch is the shared RunPrefixMaskedSearches
    // helper.
    RunPrefixMaskedSearches(
        pool_, options_.tail_pruning, *cut, n,
        [&](size_t i, const std::vector<uint8_t>& mask) {
          (*fwd)[i] = DirectedDistAndPrune(sub, (*cut)[i],
                                           SearchDirection::kForward, mask);
          (*bwd)[i] = DirectedDistAndPrune(sub, (*cut)[i],
                                           SearchDirection::kBackward, mask);
        });

    const std::vector<size_t> out_base =
        options_.route_hints ? DirectedArcBases(sub, /*out=*/true)
                             : std::vector<size_t>{};
    const std::vector<size_t> in_base =
        options_.route_hints ? DirectedArcBases(sub, /*out=*/false)
                             : std::vector<size_t>{};
    for (Vertex v = 0; v < n; ++v) {
      size_t k_in = 0;
      size_t k_out = 0;
      for (size_t i = 0; i < m; ++i) {
        if ((*fwd)[i].via[v] == 0) k_in = i;
        if ((*bwd)[i].via[v] == 0) k_out = i;
      }
      auto& in_data = in_label_[to_global[v]];
      for (size_t i = 0; i <= k_in; ++i) {
        in_data.push_back(EncodeLabelDistance((*fwd)[i].dist[v]));
      }
      in_lens_[to_global[v]].push_back(static_cast<uint32_t>(k_in + 1));
      auto& out_data = out_label_[to_global[v]];
      for (size_t i = 0; i <= k_out; ++i) {
        out_data.push_back(EncodeLabelDistance((*bwd)[i].dist[v]));
      }
      out_lens_[to_global[v]].push_back(static_cast<uint32_t>(k_out + 1));
      if (options_.route_hints) {
        auto& in_hints = in_hint_[to_global[v]];
        for (size_t i = 0; i <= k_in; ++i) {
          in_hints.push_back(
              InWitness(sub, ann.in, in_base, v, (*fwd)[i].dist));
        }
        in_hint_lens_[to_global[v]].push_back(static_cast<uint32_t>(k_in + 1));
        auto& out_hints = out_hint_[to_global[v]];
        for (size_t i = 0; i <= k_out; ++i) {
          out_hints.push_back(
              OutWitness(sub, ann.out, out_base, v, (*bwd)[i].dist));
        }
        out_hint_lens_[to_global[v]].push_back(
            static_cast<uint32_t>(k_out + 1));
      }
    }

    HierarchyNode& node = hierarchy_.nodes_[node_idx];
    node.cut.reserve(m);
    for (Vertex v : *cut) {
      const Vertex global = to_global[v];
      node.cut.push_back(global);
      hierarchy_.node_of_vertex_[global] = static_cast<uint32_t>(node_idx);
      hierarchy_.vertex_code_[global] = code;
    }
  }

  /// Directed Algorithm 3: shortcut arcs that make the child sub-digraph
  /// distance-preserving in both directions.
  std::vector<DirectedArc> ComputeDirectedShortcuts(
      const Digraph& sub, const std::vector<Vertex>& cut,
      const std::vector<Vertex>& part,
      const std::vector<DistAndPruneResult>& fwd,
      const std::vector<DistAndPruneResult>& bwd) {
    const size_t n = sub.NumVertices();
    std::vector<uint8_t> in_cut(n, 0);
    for (Vertex v : cut) in_cut[v] = 1;

    std::vector<Vertex> border;
    for (Vertex v : part) {
      bool touches = false;
      for (const Arc& a : sub.OutArcs(v)) touches |= in_cut[a.to] != 0;
      for (const Arc& a : sub.InArcs(v)) touches |= in_cut[a.to] != 0;
      if (touches) border.push_back(v);
    }
    const size_t b = border.size();
    if (b < 2) return {};

    Subdigraph gp = InducedSubdigraph(sub, part);
    std::vector<Vertex> to_child(n, kInvalidVertex);
    for (size_t i = 0; i < part.size(); ++i) to_child[part[i]] = i;

    // d_GP(border_i -> border_j), forward Dijkstras inside G[P].
    std::vector<std::vector<Dist>> d_gp(b, std::vector<Dist>(b));
    for (size_t i = 0; i < b; ++i) {
      const auto dist = DirectedDistancesFrom(gp.graph, to_child[border[i]],
                                              SearchDirection::kForward);
      for (size_t j = 0; j < b; ++j) d_gp[i][j] = dist[to_child[border[j]]];
    }

    // True directed distances: best of in-partition and via-cut routes.
    std::vector<std::vector<Dist>> d_g = d_gp;
    for (size_t i = 0; i < b; ++i) {
      for (size_t j = 0; j < b; ++j) {
        if (i == j) continue;
        Dist through_cut = kInfDist;
        for (size_t c = 0; c < cut.size(); ++c) {
          const Dist to_c = bwd[c].dist[border[i]];    // d(border_i -> cut_c)
          const Dist from_c = fwd[c].dist[border[j]];  // d(cut_c -> border_j)
          if (to_c == kInfDist || from_c == kInfDist) continue;
          through_cut = std::min(through_cut, to_c + from_c);
        }
        d_g[i][j] = std::min(d_gp[i][j], through_cut);
      }
    }

    std::vector<DirectedArc> shortcuts;
    for (size_t i = 0; i < b; ++i) {
      for (size_t j = 0; j < b; ++j) {
        if (i == j || d_g[i][j] >= d_gp[i][j]) continue;
        bool redundant = false;
        for (size_t k = 0; k < b && !redundant; ++k) {
          if (k == i || k == j) continue;
          if (d_g[i][k] != kInfDist && d_g[k][j] != kInfDist &&
              d_g[i][k] + d_g[k][j] == d_g[i][j]) {
            redundant = true;
          }
        }
        if (!redundant) {
          HC2L_CHECK_LE(d_g[i][j], std::numeric_limits<Weight>::max());
          shortcuts.push_back(
              {border[i], border[j], static_cast<Weight>(d_g[i][j])});
        }
      }
    }
    return shortcuts;
  }

  const Hc2lOptions options_;
  ThreadPool pool_;
  BalancedTreeHierarchy hierarchy_;
  std::vector<std::vector<uint32_t>> out_label_, in_label_;
  std::vector<std::vector<uint32_t>> out_lens_, in_lens_;
  // Route-hint accumulators, in lockstep with the label ones (empty unless
  // options_.route_hints).
  std::vector<std::vector<uint32_t>> out_hint_, in_hint_;
  std::vector<std::vector<uint32_t>> out_hint_lens_, in_hint_lens_;
};

DirectedHc2lIndex DirectedHc2lIndex::Build(const Digraph& g,
                                           const Hc2lOptions& options) {
  HC2L_CHECK_GT(options.beta, 0.0);
  HC2L_CHECK_LE(options.beta, 0.5);
  DirectedHc2lIndex index;
  index.num_vertices_ = g.NumVertices();
  const Digraph* core = &g;
  if (options.contract_degree_one) {
    index.contraction_ = std::make_unique<DirectedDegreeOneContraction>(g);
    core = &index.contraction_->CoreGraph();
  }
  DirectedHc2lBuilder builder(*core, options);
  builder.Finish(&index);
  return index;
}

// On-disk format (src/core/index_format.h, docs/format.md): the sectioned
// HC2D0004 layout. The meta body carries a uint8 contraction marker, the
// vertex count, the stored height and the contraction's per-direction
// weights; the core (LabelIndex::SaveSections) appends the hierarchy and
// writes the out- and in-direction stores, with hint arenas for both
// directions or neither.
Status DirectedHc2lIndex::Save(const std::string& path) const {
  return SaveSections(path, kDirectedIndexMagic, [&](std::FILE* out) {
    // core_id_ / to_original_ are derivable (a vertex is in the core iff
    // its depth is 0, and its core id is then its root id), so the format
    // does not carry them; Load reconstructs both.
    const uint8_t has_contraction = contraction_ != nullptr ? 1 : 0;
    bool ok = io::WriteValue(out, has_contraction) &&
              io::WriteValue(out, num_vertices_);
    if (!ok || !has_contraction) return ok && io::WriteValue(out, height_);
    const DirectedDegreeOneContraction& c = *contraction_;
    const uint64_t num_contracted = c.num_contracted_;
    return io::WriteValue(out, num_contracted) &&
           io::WriteValue(out, height_) &&
           io::WriteVector(out, c.root_core_id_) &&
           io::WriteVector(out, c.parent_) && io::WriteVector(out, c.depth_) &&
           io::WriteVector(out, c.up_weight_) &&
           io::WriteVector(out, c.down_weight_) &&
           io::WriteVector(out, c.up_dist_) &&
           io::WriteVector(out, c.down_dist_);
  });
}

Result<DirectedHc2lIndex> DirectedHc2lIndex::Load(const std::string& path) {
  return Load(path, /*use_mmap=*/false);
}

Result<DirectedHc2lIndex> DirectedHc2lIndex::Load(const std::string& path,
                                                  bool use_mmap) {
  DirectedHc2lIndex index;
  uint64_t num_contracted = 0;
  // The stored height is informational; the core recomputes the level
  // bound from the validated codes.
  uint32_t stored_height = 0;
  const auto parse_body = [&](io::Reader* in) {
    uint8_t has_contraction = 0;
    const bool ok = io::ReadValue(in, &has_contraction) &&
                    has_contraction <= 1 &&
                    io::ReadValue(in, &index.num_vertices_);
    if (!ok || !has_contraction) {
      return ok && io::ReadValue(in, &stored_height);
    }
    index.contraction_ = std::unique_ptr<DirectedDegreeOneContraction>(
        new DirectedDegreeOneContraction());
    DirectedDegreeOneContraction& c = *index.contraction_;
    if (!io::ReadValue(in, &num_contracted)) return false;
    c.num_contracted_ = num_contracted;
    return io::ReadValue(in, &stored_height) &&
           io::ReadVector(in, &c.root_core_id_) &&
           io::ReadVector(in, &c.parent_) && io::ReadVector(in, &c.depth_) &&
           io::ReadVector(in, &c.up_weight_) &&
           io::ReadVector(in, &c.down_weight_) &&
           io::ReadVector(in, &c.up_dist_) &&
           io::ReadVector(in, &c.down_dist_);
  };

  // With a contraction the per-vertex mapping arrays must cover every
  // original vertex and point inside the core, so the query paths never
  // index out of bounds.
  const auto check_body = [&](size_t core) {
    const size_t n = index.num_vertices_;
    if (index.contraction_ == nullptr) return core == n;
    DirectedDegreeOneContraction& c = *index.contraction_;
    bool ok = core + num_contracted == n && c.root_core_id_.size() == n &&
              c.parent_.size() == n && c.depth_.size() == n &&
              c.up_weight_.size() == n && c.down_weight_.size() == n &&
              c.up_dist_.size() == n && c.down_dist_.size() == n;
    for (size_t v = 0; ok && v < n; ++v) {
      ok = c.root_core_id_[v] < core && c.parent_[v] < n;
    }
    if (!ok) return false;
    // Reconstruct the derived mappings; doing so doubles as the
    // consistency check that the depth-0 set maps one-to-one onto the core.
    c.core_id_.assign(n, kInvalidVertex);
    c.to_original_.assign(core, kInvalidVertex);
    for (size_t v = 0; ok && v < n; ++v) {
      if (c.depth_[v] != 0) continue;
      const Vertex id = c.root_core_id_[v];
      ok = c.to_original_[id] == kInvalidVertex;
      c.to_original_[id] = static_cast<Vertex>(v);
      c.core_id_[v] = id;
    }
    for (size_t i = 0; ok && i < core; ++i) {
      ok = c.to_original_[i] != kInvalidVertex;
    }
    return ok;
  };

  if (Status st = index.LoadSections(path, "directed HC2L index",
                                     kDirectedIndexMagic, use_mmap,
                                     parse_body, check_body);
      !st.ok()) {
    return st;
  }
  return index;
}

}  // namespace hc2l
