#ifndef HC2L_HIERARCHY_HIERARCHY_H_
#define HC2L_HIERARCHY_HIERARCHY_H_

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/binary_io.h"
#include "common/types.h"
#include "hierarchy/tree_code.h"

namespace hc2l {

/// One node of a balanced tree hierarchy (Definition 4.1). Internal nodes
/// hold the vertex cut that split their subgraph; leaves hold the residual
/// vertex set. Cut vertices are stored in tail-pruning rank order (Eq. 6).
struct HierarchyNode {
  TreeCode code = kRootCode;
  int32_t parent = -1;
  int32_t left = -1;
  int32_t right = -1;
  std::vector<Vertex> cut;

  friend bool operator==(const HierarchyNode&, const HierarchyNode&) = default;
};

/// The balanced tree hierarchy H_G: a binary tree over vertex cuts together
/// with the total surjective mapping ℓ : V(G) -> nodes and the packed
/// per-vertex codes enabling O(1) LCA-level computation.
class BalancedTreeHierarchy {
 public:
  BalancedTreeHierarchy() = default;

  size_t NumNodes() const { return nodes_.size(); }
  const HierarchyNode& Node(size_t i) const { return nodes_[i]; }
  const std::vector<HierarchyNode>& Nodes() const { return nodes_; }

  /// Index of ℓ(v).
  uint32_t NodeOf(Vertex v) const { return node_of_vertex_[v]; }

  /// Packed code of ℓ(v) (by reference, so a batched query can prefetch it).
  const TreeCode& CodeOf(Vertex v) const { return vertex_code_[v]; }

  /// Depth of LCA(ℓ(s), ℓ(t)) — one XOR + clz (Lemma 4.21).
  uint32_t LcaLevel(Vertex s, Vertex t) const {
    return TreeCodeLcaLevel(vertex_code_[s], vertex_code_[t]);
  }

  /// Height of the tree (max node depth; 0 for a single root).
  uint32_t Height() const;

  /// Upper bound on any LcaLevel() result: the max depth over nodes *and*
  /// stored per-vertex codes. On a well-formed hierarchy this equals
  /// Height(); computing the bound from both sources keeps query-time level
  /// bucketing in bounds even for a corrupt or crafted serialized file.
  uint32_t LevelBound() const;

  /// Size of the largest cut (Table 5's "Max Cut Size").
  size_t MaxCutSize() const;

  /// Mean cut size over all nodes with non-empty cuts (Figure 7).
  double AvgCutSize() const;

  /// Bytes needed at query time to locate LCAs: the packed per-vertex codes
  /// (Table 3's "LCA Storage" for HC2L).
  size_t LcaStorageBytes() const { return vertex_code_.size() * sizeof(TreeCode); }

  /// Internal consistency check: node 0 is the root, parent and child
  /// links are in range and mutual, child codes extend their parent's by
  /// their side, and ℓ maps every vertex to exactly the node whose cut
  /// holds it, with that node's code. Bounds-safe on arbitrary contents;
  /// the loaders run it on every file.
  bool Validate(size_t num_vertices) const;

  /// Serializes the hierarchy to an open stream (node list with cuts, the
  /// vertex-to-node mapping and the packed codes — the layout embedded in
  /// the meta section of both index formats).
  bool WriteTo(std::FILE* f) const;

  /// Reads a hierarchy written by WriteTo through a bounded reader (sizes
  /// validated against remaining file bytes before allocation). On failure
  /// the hierarchy is left in an unspecified state and false is returned.
  bool ReadFrom(io::Reader* r);

 private:
  friend class Hc2lIndex;  // relabel walk + IdenticalTo
  template <int kDirections>
  friend class LabelIndex;  // label walk (Build) + load validation

  std::vector<HierarchyNode> nodes_;
  std::vector<uint32_t> node_of_vertex_;
  std::vector<TreeCode> vertex_code_;
};

}  // namespace hc2l

#endif  // HC2L_HIERARCHY_HIERARCHY_H_
