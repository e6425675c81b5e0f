#include "core/hc2l.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/index_format.h"
#include "core/label_walk.h"

namespace hc2l {

Hc2lIndex Hc2lIndex::Build(const Graph& g, const Hc2lOptions& options) {
  Timer timer;
  Hc2lIndex index;
  index.stats_.num_shortcuts = index.BuildLabels(g, options);
  index.RefreshLabelStats();
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

void Hc2lIndex::RefreshLabelStats() {
  stats_.num_vertices = num_vertices_;
  stats_.num_core_vertices = NumCoreVertices();
  stats_.num_contracted = NumContracted();
  stats_.num_tree_nodes = hierarchy_.NumNodes();
  stats_.tree_height = height_;
  stats_.max_cut_size = hierarchy_.MaxCutSize();
  stats_.avg_cut_size = hierarchy_.AvgCutSize();
  stats_.label_entries = NumEntries();
  stats_.label_bytes = LabelLogicalBytes();
  stats_.lca_bytes = hierarchy_.LcaStorageBytes();
}

Status Hc2lIndex::RelabelWalk(const Graph& core, bool scoped,
                              bool tail_pruning, ThreadPool& pool) {
  Timer timer;
  const size_t n = core.NumVertices();
  auto& nodes = hierarchy_.nodes_;
  if (!scoped) repair_cache_.assign(nodes.size(), NodeRepairCache{});

  // A hint-carrying index recomputes its route hints in the same walk
  // (RepairLabels must keep them consistent); a hint-less index stays
  // hint-less, keeping repair bit-identical to a rebuild in both modes.
  const bool hints = HasRouteHints();
  LabelWalk<1> walk(n, tail_pruning, hints);

  // The label walk over the stored hierarchy, recomputing distances.
  //
  // Weight changes can make the recomputed shortcut sets differ from the
  // original build's, and a *new* shortcut may connect the two sides of a
  // stored descendant cut — breaking the separator invariant the labels
  // depend on (the paper's "with some adjustments for shortcuts", §5.4).
  // Before labelling each node we therefore scan its subgraph for edges
  // crossing the stored cut and move one endpoint of each such edge into
  // the cut (the same repair Algorithm 2 applies to direct S-T edges),
  // updating the vertex's hierarchy assignment accordingly. Same-level
  // nodes own disjoint vertex sets and subtrees, so these repairs and the
  // global_to_child slots never alias across the walk's parallel frames.
  //
  // A scoped (repair) walk additionally cuts off every child whose
  // recomputed inputs — the induced subgraph plus the local-to-global id
  // map — equal the cached inputs of the previous walk: the walk is
  // deterministic in exactly those inputs, so the whole subtree's label
  // arrays (levels >= the child's depth) are provably unchanged and are
  // spliced verbatim out of the current store. A changed edge weight
  // anywhere inside the child's subgraph, a changed shortcut set, or a
  // separator repair that moved a vertex all surface as an input mismatch,
  // so the comparison needs no separate delta bookkeeping.
  std::vector<Vertex> global_to_child(n, kInvalidVertex);
  std::atomic<uint64_t> reused_entries{0};
  std::atomic<uint64_t> clean_subtrees{0};
  std::atomic<uint64_t> clean_shortcuts{0};
  CutSource<1> source;
  source.cut = [&](const WalkFrame<1>& frame, ThreadPool&,
                   NodeCut<1>* out) {
    const int32_t node_idx = frame.node;
    const size_t sub_n = frame.sub.NumVertices();
    for (size_t i = 0; i < frame.to_global.size(); ++i) {
      global_to_child[frame.to_global[i]] = static_cast<Vertex>(i);
    }

    // Side of each subgraph vertex: 0 = left subtree, 1 = right subtree,
    // 2 = this node's cut. Membership is derived from the (kept-up-to-date)
    // vertex codes: v lies in child c's subtree iff LcaLevel(code(v),
    // code(c)) == depth(c).
    const int32_t children[2] = {nodes[node_idx].left, nodes[node_idx].right};
    std::vector<uint8_t> side(sub_n, 2);
    for (Vertex v = 0; v < sub_n; ++v) {
      const TreeCode code = hierarchy_.vertex_code_[frame.to_global[v]];
      for (int which = 0; which < 2; ++which) {
        if (children[which] < 0) continue;
        const TreeCode child_code = nodes[children[which]].code;
        if (TreeCodeLcaLevel(code, child_code) == TreeCodeDepth(child_code)) {
          side[v] = static_cast<uint8_t>(which);
          break;
        }
      }
    }

    // Separator repair: move one endpoint of every cut-crossing edge into
    // this node's cut.
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

    // The stored (+ repaired) rank order; children are induced in
    // ascending subgraph order.
    for (const Vertex global : nodes[node_idx].cut) {
      out->cut.push_back(global_to_child[global]);
      HC2L_CHECK_NE(out->cut.back(), kInvalidVertex);
    }
    for (int which = 0; which < 2; ++which) {
      if (children[which] < 0) continue;
      for (Vertex v = 0; v < sub_n; ++v) {
        if (side[v] == which) out->parts[which].push_back(v);
      }
    }
  };
  source.child_node = [&](int32_t parent, int side) {
    return side == 0 ? nodes[parent].left : nodes[parent].right;
  };
  source.descend = [&](const WalkFrame<1>& parent, int side,
                       const WalkFrame<1>& child, uint64_t shortcuts) {
    const int32_t child_node =
        side == 0 ? nodes[parent.node].left : nodes[parent.node].right;
    NodeRepairCache& cache = repair_cache_[child_node];
    // A byte-identical child subgraph does NOT imply identical hints:
    // ancestor weight changes can switch which equal-distance witness the
    // annotations picked, so hint mode also compares the annotations.
    if (scoped && child.to_global == cache.to_global &&
        child.sub == cache.sub &&
        (!hints || child.ann[0] == cache.ann)) {
      // Clean subtree: identical inputs reproduce identical labels, so
      // every descendant level array is spliced verbatim out of the
      // current store instead of recursing. The cache entry stays valid,
      // and the cached per-node counts stand in for the shortcuts of the
      // strict descendants (the child's own were recounted just now).
      reused_entries += walk.Splice(
          child.to_global, TreeCodeDepth(nodes[child_node].code), labels_,
          hints_);
      ++clean_subtrees;
      uint64_t below = 0;
      std::vector<int32_t> stack{child_node};
      while (!stack.empty()) {
        const int32_t node = stack.back();
        stack.pop_back();
        for (const int32_t c : {nodes[node].left, nodes[node].right}) {
          if (c < 0) continue;
          below += repair_cache_[c].shortcuts_into;
          stack.push_back(c);
        }
      }
      clean_shortcuts += below;
      return false;
    }
    cache.sub = child.sub;
    cache.to_global = child.to_global;
    cache.ann = child.ann[0];
    cache.shortcuts_into = shortcuts;
    return true;
  };
  walk.Run(core, source, pool);

  if (walk.overflow()) {
    // The hierarchy may already hold this walk's separator repairs and the
    // cache is partially overwritten: the index is in an unspecified state
    // (the header tells callers to repair a disposable clone). Invalidate
    // the cache so a retained index at least never scopes against it.
    repair_cache_.clear();
    return Status::OutOfRange(
        "updated weights push a shortest-path distance past 2^31, beyond "
        "the 32-bit label encoding; refusing to produce wrapped labels");
  }

  walk.MoveInto(&labels_, &hints_);
  members_.clear();  // the walk lays the stores out compactly
  // Cut repairs may have moved vertices between nodes.
  height_ = hierarchy_.Height();
  stats_.num_shortcuts = walk.shortcuts() + clean_shortcuts.load();
  RefreshLabelStats();
  stats_.build_seconds = timer.Seconds();

  repair_cache_tail_pruning_ = tail_pruning;
  repair_stats_ = RepairStats{};
  repair_stats_.recomputed_entries = walk.recomputed();
  repair_stats_.reused_entries = reused_entries.load();
  repair_stats_.dirty_nodes = walk.nodes();
  repair_stats_.clean_subtrees = clean_subtrees.load();
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
  out.members_ = members_;
  out.repair_cache_ = repair_cache_;
  out.repair_cache_tail_pruning_ = repair_cache_tail_pruning_;
  out.repair_stats_ = repair_stats_;
  out.pool_ = pool_;
  return out;
}

bool Hc2lIndex::IdenticalTo(const Hc2lIndex& other) const {
  Hc2lStats a = stats_;
  Hc2lStats b = other.stats_;
  a.build_seconds = b.build_seconds = 0.0;
  if (a != b) return false;
  if ((contraction_ == nullptr) != (other.contraction_ == nullptr)) {
    return false;
  }
  if (contraction_ != nullptr) {
    const DegreeOneContraction& c = *contraction_;
    const DegreeOneContraction& d = *other.contraction_;
    if (c.core_ != d.core_ || c.num_contracted_ != d.num_contracted_ ||
        c.core_id_ != d.core_id_ || c.to_original_ != d.to_original_ ||
        c.root_core_id_ != d.root_core_id_ ||
        c.dist_to_root_ != d.dist_to_root_ || c.parent_ != d.parent_ ||
        c.parent_weight_ != d.parent_weight_ || c.depth_ != d.depth_) {
      return false;
    }
  }
  const BalancedTreeHierarchy& h = hierarchy_;
  const BalancedTreeHierarchy& i = other.hierarchy_;
  if (h.node_of_vertex_ != i.node_of_vertex_ ||
      h.vertex_code_ != i.vertex_code_ || h.nodes_ != i.nodes_) {
    return false;
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
Status Hc2lIndex::Save(const std::string& path, bool manifest) const {
  const auto write_body = [&](std::FILE* out) {
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
  };
  return SaveSections(path, kHc2lIndexMagic, manifest, write_body);
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
