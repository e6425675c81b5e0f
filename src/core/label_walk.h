#ifndef HC2L_CORE_LABEL_WALK_H_
#define HC2L_CORE_LABEL_WALK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/label_arena.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "core/label_index.h"
#include "search/dijkstra.h"

namespace hc2l {

/// Per-arc route annotations of one subgraph, one vector per direction:
/// entry base[v] + j of `[0]` belongs to the j-th out-arc of v (the j-th
/// neighbour of an undirected graph) and is the first real core hop of the
/// shortest core path that arc stands for; `[1]` (directed only) is indexed
/// like the in-arcs and holds the real core predecessor of the arc's head.
/// Empty when the walk records no route hints.
template <int kDirections>
using ArcAnnotations = std::array<std::vector<Vertex>, kDirections>;

/// One hierarchy node awaiting its labels: the node's subgraph (with the
/// shortcuts its ancestors added, local ids), the local -> core id map,
/// the subgraph's arc annotations and the node id.
template <int kDirections>
struct WalkFrame {
  LabelGraph<kDirections> sub;
  std::vector<Vertex> to_global;
  ArcAnnotations<kDirections> ann;
  int32_t node = -1;
};

/// What a cut source decides for one node, in the frame's local ids: the
/// cut in label rank order, and the vertices of the left (`parts[0]`) and
/// right (`parts[1]`) child in the order the child subgraph is induced in.
/// An empty part means no child on that side. A source that searched from
/// the cut vertices to rank them hands the shortest-path trees over in
/// `trees` (per direction, one per cut vertex in rank order); otherwise
/// `trees` stays empty and the walk searches itself.
template <int kDirections>
struct NodeCut {
  std::vector<Vertex> cut;
  std::array<std::vector<Vertex>, 2> parts;
  std::array<std::vector<ShortestPathTree>, kDirections> trees;
};

/// Where a walk's cuts come from: Build chooses fresh balanced cuts, a
/// relabel re-uses the stored ones. `cut` and `descend` run concurrently
/// for the frames of one level (which own disjoint vertex sets and
/// subtrees); `cut` may run its own searches on the pool it is handed.
/// `child_node` runs serially after each level, in frame order.
template <int kDirections>
struct CutSource {
  std::function<void(const WalkFrame<kDirections>&, ThreadPool&,
                     NodeCut<kDirections>*)>
      cut;
  /// Offered every derived child frame (with the number of shortcuts its
  /// induction added); false when the source accounts for the child's
  /// subtree itself and the walk must not descend. Null descends always.
  std::function<bool(const WalkFrame<kDirections>& parent, int side,
                     const WalkFrame<kDirections>& child, uint64_t shortcuts)>
      descend;
  /// Hierarchy node id of `parent`'s child on `side`.
  std::function<int32_t(int32_t parent, int side)> child_node;
};

/// The labelling recursion of both HC2L flavours (Algorithms 3-5), run
/// top-down level by level: one pool.ParallelFor over the frames of a
/// level, each frame running the same step —
///   1. one shortest-path tree per cut vertex and direction (out =
///      d(v -> hub) in store 0, in = d(hub -> v) in store kDirections - 1;
///      one symmetric search for an undirected graph), searched once and
///      shared by the Eq. 6 ranking (when the cut source ranks) and the
///      labelling; with tail pruning, one pass over each tree in settle
///      order flags the vertices some shortest path to which passes the
///      prefix cut[0..i-1] of its root cut[i] (Algorithm 5 lines 6-7);
///   2. per store, the tail-pruned label arrays of every subgraph vertex
///      and, with hints, the first-witness-arc annotations in lockstep;
///   3. per side, the shortcuts, the induced child subgraph, its core id
///      map and its arc annotations.
/// The node's own cut search state is freed before the next level. Every
/// vertex receives its arrays root to leaf, one per level, so the labels
/// do not depend on the thread count or on the order of frames in a level.
template <int kDirections>
class LabelWalk {
 public:
  using Frame = WalkFrame<kDirections>;
  using Stores = std::array<LabelStore, kDirections>;

  LabelWalk(size_t num_vertices, bool tail_pruning, bool hints);

  /// Walks the hierarchy from its root (node 0, covering all of `core`).
  void Run(const LabelGraph<kDirections>& core,
           const CutSource<kDirections>& source, ThreadPool& pool);

  /// Appends, for every core vertex of `vertices`, its arrays of levels >=
  /// `depth` copied out of `labels` (and `hints` when the walk records
  /// hints): the splice of a clean subtree whose labels are unchanged.
  /// Safe to call concurrently for disjoint vertex sets. Returns the label
  /// entries appended.
  uint64_t Splice(std::span<const Vertex> vertices, uint32_t depth,
                  const Stores& labels, const Stores& hints);

  /// Flattens the accumulated arrays into the stores (hint stores only
  /// when the walk records hints).
  void MoveInto(Stores* labels, Stores* hints);

  /// Frames walked, shortcuts added and label entries computed so far.
  uint64_t nodes() const { return nodes_; }
  uint64_t shortcuts() const { return shortcuts_; }
  uint64_t recomputed() const { return recomputed_; }

  /// True when some distance did not fit the 32-bit label encoding (the
  /// entry was written as unreachable; the walk's result is unusable).
  bool overflow() const { return overflow_.load(std::memory_order_relaxed); }

 private:
  struct StepOut {
    std::vector<std::pair<int, Frame>> children;  // (side, frame)
    uint64_t shortcuts = 0;
    uint64_t recomputed = 0;
  };

  void Step(Frame frame, const CutSource<kDirections>& source,
            ThreadPool& pool, StepOut* out);

  const bool tail_pruning_;
  const bool hints_;
  // Per direction, per core vertex: concatenated level arrays + lengths.
  // Hint arrays are shaped exactly like the label arrays (same lengths).
  std::array<std::vector<std::vector<uint32_t>>, kDirections> label_data_;
  std::array<std::vector<std::vector<uint32_t>>, kDirections> label_lens_;
  std::array<std::vector<std::vector<uint32_t>>, kDirections> hint_data_;
  std::atomic<bool> overflow_{false};
  uint64_t nodes_ = 0;
  uint64_t shortcuts_ = 0;
  uint64_t recomputed_ = 0;
};

extern template class LabelWalk<1>;
extern template class LabelWalk<2>;

}  // namespace hc2l

#endif  // HC2L_CORE_LABEL_WALK_H_
