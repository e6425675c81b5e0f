#include "hierarchy/hierarchy.h"

#include <algorithm>

#include "common/binary_io.h"

namespace hc2l {

uint32_t BalancedTreeHierarchy::Height() const {
  uint32_t height = 0;
  for (const HierarchyNode& node : nodes_) {
    height = std::max(height, TreeCodeDepth(node.code));
  }
  return height;
}

uint32_t BalancedTreeHierarchy::LevelBound() const {
  uint32_t bound = Height();
  for (const TreeCode code : vertex_code_) {
    bound = std::max(bound, TreeCodeDepth(code));
  }
  return bound;
}

size_t BalancedTreeHierarchy::MaxCutSize() const {
  size_t max_cut = 0;
  for (const HierarchyNode& node : nodes_) {
    max_cut = std::max(max_cut, node.cut.size());
  }
  return max_cut;
}

double BalancedTreeHierarchy::AvgCutSize() const {
  size_t total = 0;
  size_t count = 0;
  for (const HierarchyNode& node : nodes_) {
    if (node.cut.empty()) continue;
    total += node.cut.size();
    ++count;
  }
  return count == 0 ? 0.0 : static_cast<double>(total) / count;
}

bool BalancedTreeHierarchy::Validate(size_t num_vertices) const {
  if (node_of_vertex_.size() != num_vertices ||
      vertex_code_.size() != num_vertices) {
    return false;
  }
  // Node 0 is the root; every other node hangs below an in-range parent
  // that links back to it. Links are range-checked before they are
  // followed, so a corrupt file cannot make this check read out of bounds.
  const size_t num_nodes = nodes_.size();
  if (num_nodes == 0 || nodes_[0].parent != -1 || nodes_[0].code != kRootCode) {
    return false;
  }
  const auto in_range = [&](int32_t i) {
    return i > 0 && static_cast<size_t>(i) < num_nodes;
  };
  std::vector<uint32_t> seen(num_vertices, 0);
  for (size_t i = 0; i < num_nodes; ++i) {
    const HierarchyNode& node = nodes_[i];
    const int32_t self = static_cast<int32_t>(i);
    if (TreeCodeDepth(node.code) > kMaxTreeDepth) return false;
    if (i > 0) {
      if (node.parent < 0 || static_cast<size_t>(node.parent) >= num_nodes) {
        return false;
      }
      const HierarchyNode& parent = nodes_[node.parent];
      if (parent.left != self && parent.right != self) return false;
    }
    // Parent/child pointers must be mutually consistent, and a child's
    // code extends its parent's by the side it hangs on (so depths grow by
    // one along every link and the links cannot cycle).
    for (uint32_t side = 0; side < 2; ++side) {
      const int32_t child = side == 0 ? node.left : node.right;
      if (child == -1) continue;
      if (!in_range(child) || nodes_[child].parent != self ||
          nodes_[child].code != TreeCodeChild(node.code, side)) {
        return false;
      }
    }
    for (Vertex v : node.cut) {
      if (v >= num_vertices) return false;
      if (node_of_vertex_[v] != i) return false;
      if (vertex_code_[v] != node.code) return false;
      ++seen[v];
    }
  }
  // ℓ is total and maps each vertex to exactly one node.
  return std::all_of(seen.begin(), seen.end(),
                     [](uint32_t c) { return c == 1; });
}

bool BalancedTreeHierarchy::WriteTo(std::FILE* f) const {
  const uint64_t num_nodes = nodes_.size();
  bool ok = io::WriteValue(f, num_nodes);
  for (const HierarchyNode& node : nodes_) {
    ok = ok && io::WriteValue(f, node.code) && io::WriteValue(f, node.parent) &&
         io::WriteValue(f, node.left) && io::WriteValue(f, node.right) &&
         io::WriteVector(f, node.cut);
  }
  return ok && io::WriteVector(f, node_of_vertex_) &&
         io::WriteVector(f, vertex_code_);
}

bool BalancedTreeHierarchy::ReadFrom(io::Reader* r) {
  uint64_t num_nodes = 0;
  if (!io::ReadValue(r, &num_nodes)) return false;
  // Every serialized node occupies at least its fixed fields plus the cut's
  // length prefix; a count the remaining bytes cannot back is corruption,
  // rejected before the resize allocates anything.
  constexpr uint64_t kMinNodeBytes =
      sizeof(TreeCode) + 3 * sizeof(int32_t) + sizeof(uint64_t);
  if (!r->CanHold(num_nodes, kMinNodeBytes)) return false;
  nodes_.resize(num_nodes);
  for (HierarchyNode& node : nodes_) {
    if (!io::ReadValue(r, &node.code) || !io::ReadValue(r, &node.parent) ||
        !io::ReadValue(r, &node.left) || !io::ReadValue(r, &node.right) ||
        !io::ReadVector(r, &node.cut)) {
      return false;
    }
  }
  return io::ReadVector(r, &node_of_vertex_) &&
         io::ReadVector(r, &vertex_code_);
}

}  // namespace hc2l
