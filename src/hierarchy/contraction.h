#ifndef HC2L_HIERARCHY_CONTRACTION_H_
#define HC2L_HIERARCHY_CONTRACTION_H_

#include <vector>

#include "graph/digraph.h"
#include "graph/graph.h"

namespace hc2l {

/// The weight-independent skeleton of an iterated degree-one contraction:
/// which vertices survive into the core, the pendant forest's parent
/// pointers, and the leaves-first removal order (whose reverse visits every
/// parent before its children — the order both contractions propagate
/// root/distance/depth information in). Shared by the undirected
/// DegreeOneContraction and the directed DirectedDegreeOneContraction, which
/// only differ in how they attach weights to the skeleton.
struct PendantSkeleton {
  size_t num_contracted = 0;
  std::vector<Vertex> core_id;        // original -> core (or kInvalidVertex)
  std::vector<Vertex> to_original;    // core -> original
  std::vector<Vertex> root_core_id;   // original -> root (core ids)
  std::vector<Vertex> parent;         // original -> parent (self for core)
  std::vector<uint32_t> depth;        // hops to root (0 for core)
  std::vector<Vertex> removal_order;  // leaves first
};

/// Iteratively strips degree-1 vertices of `g` (whole pendant trees, unlike
/// PHL's single-pass variant) and fills every mapping of the skeleton. For a
/// digraph, pass the undirected projection: a vertex is contractible when
/// its combined in/out neighbourhood reduces to one core attachment, which
/// is exactly projection degree one. Deterministic in the graph alone, so
/// identical topologies always produce the identical core numbering.
PendantSkeleton StripPendants(const Graph& g);

/// Degree-one contraction (Section 4.2.2, final paragraphs).
///
/// Repeatedly strips degree-1 vertices from the input graph. The removed
/// vertices form pendant trees that attach to the remaining *core* graph at
/// a single vertex each (their *root*); all shortest paths from a pendant
/// vertex to anything outside its tree pass through that root. Queries
/// between two pendant vertices of the same tree are answered by climbing
/// parent pointers to their in-tree lowest common ancestor:
///   d(v, w) = d(v, root) + d(w, root) - 2 * d(lca, root).
class DegreeOneContraction {
 public:
  /// Builds the contraction of g.
  explicit DegreeOneContraction(const Graph& g);

  /// The core graph (all vertices of degree >= 2 after iteration, renumbered
  /// 0..k-1). If the input is a tree the core is a single vertex.
  const Graph& CoreGraph() const { return core_; }

  /// Number of vertices removed by the contraction.
  size_t NumContracted() const { return num_contracted_; }

  /// True iff v survived into the core.
  bool InCore(Vertex v) const { return core_id_[v] != kInvalidVertex; }

  /// Core id of a surviving vertex (kInvalidVertex for contracted ones).
  Vertex CoreId(Vertex v) const { return core_id_[v]; }

  /// Original id of a core vertex.
  Vertex OriginalId(Vertex core_vertex) const { return to_original_[core_vertex]; }

  /// Root of v's pendant tree in core ids (v's own core id if v is in the
  /// core).
  Vertex RootCoreId(Vertex v) const { return root_core_id_[v]; }

  /// Distance from v to its root (0 for core vertices).
  Dist DistToRoot(Vertex v) const { return dist_to_root_[v]; }

  /// Distance from v's root to v: DistToRoot(v), edges being undirected.
  /// Lets the label core read both contractions alike.
  Dist DistFromRoot(Vertex v) const { return dist_to_root_[v]; }

  /// v's pendant-tree parent (original ids; v itself for core vertices).
  Vertex Parent(Vertex v) const { return parent_[v]; }

  /// Hops from v to its root (0 for core vertices).
  uint32_t Depth(Vertex v) const { return depth_[v]; }

  /// Exact distance between two vertices hanging off the *same* root,
  /// via the in-tree LCA climb. Both arguments may also be the root itself.
  Dist SameTreeDistance(Vertex v, Vertex w) const;

  /// Bytes used by the contraction side structures.
  size_t MemoryBytes() const;

 private:
  friend class Hc2lIndex;  // serialization
  DegreeOneContraction() = default;

  Graph core_;
  size_t num_contracted_ = 0;
  std::vector<Vertex> core_id_;       // original -> core (or kInvalidVertex)
  std::vector<Vertex> to_original_;   // core -> original
  std::vector<Vertex> root_core_id_;  // original -> root (core ids)
  std::vector<Dist> dist_to_root_;    // original -> distance to root
  std::vector<Vertex> parent_;        // original -> tree parent (original
                                      // ids; self for core vertices)
  std::vector<Weight> parent_weight_;  // edge weight to parent
  std::vector<uint32_t> depth_;        // hops to root (0 for core)
};

/// Degree-one contraction for digraphs (the directed port of Section 4.2.2).
///
/// The contractible set is decided on the underlying undirected projection —
/// a vertex whose in- and out-neighbourhood reduce to a single core
/// attachment has projection degree one — so the same iterated stripping
/// applies. Each pendant vertex then carries *two* parent-arc weights, one
/// per direction, either of which may be absent (a one-way pendant street):
///
///   up_weight_[v]   = w(v -> parent(v)), kInfDist when the arc is missing
///   down_weight_[v] = w(parent(v) -> v), kInfDist when the arc is missing
///
/// Every path between a pendant vertex and anything outside its tree
/// traverses the tree chain to the root, so directed distances through the
/// tree resolve as inf-propagating prefix sums:
///
///   up_dist_[v]   = d(v -> root)  (kInfDist once any upward link is missing)
///   down_dist_[v] = d(root -> v)  (symmetrically for downward links)
///
/// and a one-way pendant is reachable in one direction, unreachable in the
/// other — exactly the semantics the full Dijkstra oracle produces. Queries
/// within one tree climb to the in-tree LCA accumulating upward weights on
/// the source side and downward weights on the target side.
class DirectedDegreeOneContraction {
 public:
  /// Builds the contraction of g.
  explicit DirectedDegreeOneContraction(const Digraph& g);

  /// The core digraph (projection degree >= 2 after iteration, renumbered).
  const Digraph& CoreGraph() const { return core_; }

  /// Number of vertices removed by the contraction.
  size_t NumContracted() const { return num_contracted_; }

  /// True iff v survived into the core.
  bool InCore(Vertex v) const { return core_id_[v] != kInvalidVertex; }

  /// Core id of a surviving vertex (kInvalidVertex for contracted ones).
  Vertex CoreId(Vertex v) const { return core_id_[v]; }

  /// Original id of a core vertex.
  Vertex OriginalId(Vertex core_vertex) const {
    return to_original_[core_vertex];
  }

  /// Root of v's pendant tree in core ids (v's own core id if v is in the
  /// core).
  Vertex RootCoreId(Vertex v) const { return root_core_id_[v]; }

  /// d(v -> root); 0 for core vertices, kInfDist when some upward arc of
  /// the chain is missing (one-way pendant reachable only from the core).
  Dist DistToRoot(Vertex v) const { return up_dist_[v]; }

  /// d(root -> v); 0 for core vertices, kInfDist when some downward arc of
  /// the chain is missing (one-way pendant that can only exit to the core).
  Dist DistFromRoot(Vertex v) const { return down_dist_[v]; }

  /// v's pendant-tree parent (original ids; v itself for core vertices).
  Vertex Parent(Vertex v) const { return parent_[v]; }

  /// Hops from v to its root (0 for core vertices).
  uint32_t Depth(Vertex v) const { return depth_[v]; }

  /// Exact directed distance d(v -> w) for two vertices hanging off the
  /// *same* root (either may be the root itself): climbs both sides to the
  /// in-tree LCA, accumulating upward arc weights on v's side and downward
  /// arc weights on w's side, kInfDist once either chain is broken.
  Dist SameTreeDistance(Vertex v, Vertex w) const;

  /// Bytes used by the contraction side structures.
  size_t MemoryBytes() const;

 private:
  friend class DirectedHc2lIndex;  // serialization
  DirectedDegreeOneContraction() = default;

  Digraph core_;
  size_t num_contracted_ = 0;
  std::vector<Vertex> core_id_;       // original -> core (or kInvalidVertex)
  std::vector<Vertex> to_original_;   // core -> original
  std::vector<Vertex> root_core_id_;  // original -> root (core ids)
  std::vector<Vertex> parent_;        // original -> parent (self for core)
  std::vector<uint32_t> depth_;       // hops to root (0 for core)
  std::vector<Dist> up_weight_;       // w(v -> parent), kInfDist if absent
  std::vector<Dist> down_weight_;     // w(parent -> v), kInfDist if absent
  std::vector<Dist> up_dist_;         // d(v -> root), inf-propagating
  std::vector<Dist> down_dist_;       // d(root -> v), inf-propagating
};

}  // namespace hc2l

#endif  // HC2L_HIERARCHY_CONTRACTION_H_
