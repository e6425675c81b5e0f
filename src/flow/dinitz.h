#ifndef HC2L_FLOW_DINITZ_H_
#define HC2L_FLOW_DINITZ_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hc2l {

/// Dinitz's maximum-flow algorithm on an explicit flow network.
///
/// The paper reduces the minimal balanced vertex-cut problem to maximum flow
/// on a vertex-split ("in/out copy") graph whose inner edges have unit
/// capacity; on such graphs Dinitz needs at most O(sqrt(V)) phases and each
/// phase is O(E), giving the O(|E| * min(sqrt(|V|), |V_cut|)) bound of
/// Section 4.1.1.
class DinitzMaxFlow {
 public:
  using NodeId = uint32_t;
  using Capacity = uint64_t;

  static constexpr Capacity kInfCapacity = ~Capacity{0};

  explicit DinitzMaxFlow(NodeId num_nodes);

  /// Adds a directed edge u -> v with the given capacity. Returns an edge id
  /// usable with ResidualCapacity()/Flow() after MaxFlow(). Only before
  /// MaxFlow().
  size_t AddEdge(NodeId u, NodeId v, Capacity capacity);

  /// Computes the maximum s-t flow. Call at most once per instance. Each
  /// node's arcs are scanned in the order they were added.
  Capacity MaxFlow(NodeId s, NodeId t);

  /// Remaining capacity of edge `id` after MaxFlow().
  Capacity ResidualCapacity(size_t id) const;

  /// Flow pushed through edge `id` after MaxFlow().
  Capacity Flow(size_t id) const;

  /// Nodes reachable from s in the residual graph (call after MaxFlow()).
  std::vector<uint8_t> ResidualReachableFromSource() const;

  /// Nodes that can reach t in the residual graph (call after MaxFlow()).
  std::vector<uint8_t> ResidualReachingSink() const;

 private:
  // Edge 2k is the k-th added edge u -> v with its capacity, 2k + 1 its
  // reverse v -> u with none (id ^ 1).
  struct Edge {
    NodeId to;
    Capacity capacity;
  };
  // One residual arc, stored in CSR order.
  struct ResidualArc {
    NodeId to;
    uint32_t reverse;   // position of the paired arc
    Capacity capacity;  // residual capacity
  };

  void BuildArcs();
  bool BuildLevels();
  Capacity PushBlockingFlow(NodeId v, Capacity limit);

  NodeId num_nodes_;
  NodeId source_ = 0;
  NodeId sink_ = 0;
  std::vector<Edge> edges_;  // as added, with the original capacities
  // The residual graph as a CSR built by MaxFlow: the arcs leaving node v
  // are arcs_[arc_begin_[v] .. arc_begin_[v + 1]), in the order they were
  // added; edge id sits at position position_[id].
  std::vector<uint32_t> arc_begin_;
  std::vector<ResidualArc> arcs_;
  std::vector<uint32_t> position_;
  std::vector<uint32_t> level_;
  std::vector<uint32_t> next_arc_;  // per node, a position in arcs_
  std::vector<NodeId> queue_;       // BFS queue of BuildLevels
};

}  // namespace hc2l

#endif  // HC2L_FLOW_DINITZ_H_
