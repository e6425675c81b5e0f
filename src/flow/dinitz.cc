#include "flow/dinitz.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace hc2l {

DinitzMaxFlow::DinitzMaxFlow(NodeId num_nodes) : num_nodes_(num_nodes) {}

size_t DinitzMaxFlow::AddEdge(NodeId u, NodeId v, Capacity capacity) {
  HC2L_CHECK_LT(u, num_nodes_);
  HC2L_CHECK_LT(v, num_nodes_);
  HC2L_CHECK(arcs_.empty());
  const size_t id = edges_.size();
  edges_.push_back({v, capacity});
  edges_.push_back({u, 0});
  return id;
}

void DinitzMaxFlow::BuildArcs() {
  const size_t m = edges_.size();
  HC2L_CHECK_LT(m, size_t{std::numeric_limits<uint32_t>::max()});
  // A stable counting sort of the edge ids by tail (the head of the
  // paired edge) keeps each node's arcs in insertion order.
  arc_begin_.assign(num_nodes_ + 1, 0);
  for (size_t id = 0; id < m; ++id) ++arc_begin_[edges_[id ^ 1].to + 1];
  for (NodeId v = 0; v < num_nodes_; ++v) arc_begin_[v + 1] += arc_begin_[v];
  std::vector<uint32_t> fill(arc_begin_.begin(), arc_begin_.end() - 1);
  position_.resize(m);
  for (size_t id = 0; id < m; ++id) position_[id] = fill[edges_[id ^ 1].to]++;
  arcs_.resize(m);
  for (size_t id = 0; id < m; ++id) {
    arcs_[position_[id]] = {edges_[id].to, position_[id ^ 1],
                            edges_[id].capacity};
  }
}

bool DinitzMaxFlow::BuildLevels() {
  level_.assign(num_nodes_, UINT32_MAX);
  level_[source_] = 0;
  queue_.clear();
  queue_.push_back(source_);
  for (size_t head = 0; head < queue_.size(); ++head) {
    const NodeId v = queue_[head];
    // Nodes at the sink's level or beyond lead no path to the sink, so
    // the levels past it are not needed.
    if (level_[v] >= level_[sink_]) break;
    for (uint32_t i = arc_begin_[v]; i < arc_begin_[v + 1]; ++i) {
      const ResidualArc& a = arcs_[i];
      if (a.capacity > 0 && level_[a.to] == UINT32_MAX) {
        level_[a.to] = level_[v] + 1;
        queue_.push_back(a.to);
      }
    }
  }
  return level_[sink_] != UINT32_MAX;
}

DinitzMaxFlow::Capacity DinitzMaxFlow::PushBlockingFlow(NodeId v,
                                                        Capacity limit) {
  if (v == sink_ || limit == 0) return limit;
  Capacity pushed = 0;
  for (uint32_t& i = next_arc_[v]; i < arc_begin_[v + 1]; ++i) {
    ResidualArc& a = arcs_[i];
    if (a.capacity == 0 || level_[a.to] != level_[v] + 1) continue;
    const Capacity d =
        PushBlockingFlow(a.to, std::min(limit - pushed, a.capacity));
    if (d == 0) continue;
    a.capacity -= d;
    arcs_[a.reverse].capacity += d;
    pushed += d;
    if (pushed == limit) return pushed;
  }
  level_[v] = UINT32_MAX;  // dead end: prune from this phase
  return pushed;
}

DinitzMaxFlow::Capacity DinitzMaxFlow::MaxFlow(NodeId s, NodeId t) {
  HC2L_CHECK_NE(s, t);
  source_ = s;
  sink_ = t;
  BuildArcs();
  Capacity total = 0;
  while (BuildLevels()) {
    next_arc_.assign(arc_begin_.begin(), arc_begin_.end() - 1);
    total += PushBlockingFlow(source_, kInfCapacity);
  }
  return total;
}

DinitzMaxFlow::Capacity DinitzMaxFlow::ResidualCapacity(size_t id) const {
  HC2L_CHECK_LT(id, position_.size());  // MaxFlow() ran
  return arcs_[position_[id]].capacity;
}

DinitzMaxFlow::Capacity DinitzMaxFlow::Flow(size_t id) const {
  HC2L_CHECK_EQ(id % 2, 0u);  // flow is defined on forward edges
  return edges_[id].capacity - ResidualCapacity(id);
}

std::vector<uint8_t> DinitzMaxFlow::ResidualReachableFromSource() const {
  HC2L_CHECK_EQ(arc_begin_.size(), size_t{num_nodes_} + 1);  // MaxFlow() ran
  std::vector<uint8_t> reachable(num_nodes_, 0);
  std::vector<NodeId> stack{source_};
  reachable[source_] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (uint32_t i = arc_begin_[v]; i < arc_begin_[v + 1]; ++i) {
      const ResidualArc& a = arcs_[i];
      if (a.capacity > 0 && reachable[a.to] == 0) {
        reachable[a.to] = 1;
        stack.push_back(a.to);
      }
    }
  }
  return reachable;
}

std::vector<uint8_t> DinitzMaxFlow::ResidualReachingSink() const {
  HC2L_CHECK_EQ(arc_begin_.size(), size_t{num_nodes_} + 1);  // MaxFlow() ran
  // Reverse residual reachability: u reaches t via arc u -> w if that arc
  // has residual capacity. Walking backwards from t: each arc w -> u
  // leaving w is paired with the arc u -> w entering it.
  std::vector<uint8_t> reaching(num_nodes_, 0);
  std::vector<NodeId> stack{sink_};
  reaching[sink_] = 1;
  while (!stack.empty()) {
    const NodeId w = stack.back();
    stack.pop_back();
    for (uint32_t i = arc_begin_[w]; i < arc_begin_[w + 1]; ++i) {
      const ResidualArc& out = arcs_[i];
      if (arcs_[out.reverse].capacity > 0 && reaching[out.to] == 0) {
        reaching[out.to] = 1;
        stack.push_back(out.to);
      }
    }
  }
  return reaching;
}

}  // namespace hc2l
