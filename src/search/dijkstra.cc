#include "search/dijkstra.h"

#include <algorithm>

#include "common/check.h"

namespace hc2l {

namespace {

using HeapEntry = std::pair<Dist, Vertex>;

struct HeapGreater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.first > b.first;
  }
};

}  // namespace

void SearchHeap::Widen() {
  // Packed keys order exactly like (distance, vertex) pairs, so the array
  // stays a heap entry for entry.
  wide_keys_.reserve(keys_.size() + 1);
  for (const uint64_t key : keys_) {
    wide_keys_.emplace_back(key >> 32, static_cast<Vertex>(key));
  }
  keys_.clear();
  wide_ = true;
}

SearchHeap& SearchHeap::ForThisThread() {
  thread_local SearchHeap heap;
  return heap;
}

Dijkstra::Dijkstra(const Graph& graph)
    : graph_(graph),
      dist_(graph.NumVertices(), kInfDist),
      stamp_(graph.NumVertices(), 0) {}

void Dijkstra::Reset() {
  ++version_;
  settled_.clear();
  heap_.clear();
}

void Dijkstra::Run(Vertex source) { RunToTarget(source, kInvalidVertex); }

void Dijkstra::RunToTarget(Vertex source, Vertex target) {
  HC2L_CHECK_LT(source, graph_.NumVertices());
  Reset();
  auto push = [&](Vertex v, Dist d) {
    heap_.emplace_back(d, v);
    std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
  };

  dist_[source] = 0;
  stamp_[source] = version_;
  push(source, 0);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
    const auto [d, v] = heap_.back();
    heap_.pop_back();
    if (d > dist_[v]) continue;  // stale heap entry
    settled_.push_back(v);
    if (v == target) return;
    for (const Arc& a : graph_.Neighbors(v)) {
      const Dist nd = d + a.weight;
      if (stamp_[a.to] != version_ || nd < dist_[a.to]) {
        dist_[a.to] = nd;
        stamp_[a.to] = version_;
        push(a.to, nd);
      }
    }
  }
}

Vertex Dijkstra::FurthestVertex() const {
  if (settled_.empty()) return kInvalidVertex;
  return settled_.back();
}

Dist ShortestPathDistance(const Graph& g, Vertex s, Vertex t) {
  Dijkstra dijkstra(g);
  dijkstra.RunToTarget(s, t);
  return dijkstra.DistanceTo(t);
}

std::vector<Dist> AllDistancesFrom(const Graph& g, Vertex source) {
  return DistancesOver(g.NumVertices(), source,
                       [&g](Vertex v) { return g.Neighbors(v); });
}

Dist BidirectionalShortestPath(const Graph& g, Vertex s, Vertex t,
                               std::vector<Vertex>* path) {
  HC2L_CHECK_LT(s, g.NumVertices());
  HC2L_CHECK_LT(t, g.NumVertices());
  path->clear();
  if (s == t) {
    path->push_back(s);
    return 0;
  }

  // Side 0 grows a ball around s, side 1 around t; pred[side][v] is the
  // previous vertex on the side's shortest path to v. The search stops once
  // neither frontier can improve the best meeting vertex.
  std::vector<Dist> dist[2];
  std::vector<Vertex> pred[2];
  std::vector<HeapEntry> heap[2];
  for (int side = 0; side < 2; ++side) {
    dist[side].assign(g.NumVertices(), kInfDist);
    pred[side].assign(g.NumVertices(), kInvalidVertex);
  }
  dist[0][s] = 0;
  heap[0].emplace_back(0, s);
  dist[1][t] = 0;
  heap[1].emplace_back(0, t);

  Dist best = kInfDist;
  Vertex meet = kInvalidVertex;
  while (!heap[0].empty() || !heap[1].empty()) {
    int side;
    if (heap[0].empty()) {
      side = 1;
    } else if (heap[1].empty()) {
      side = 0;
    } else {
      side = heap[0].front().first <= heap[1].front().first ? 0 : 1;
    }
    std::pop_heap(heap[side].begin(), heap[side].end(), HeapGreater{});
    const auto [d, v] = heap[side].back();
    heap[side].pop_back();
    if (d > dist[side][v]) continue;  // stale entry
    if (d >= best) break;             // cannot improve further
    for (const Arc& a : g.Neighbors(v)) {
      const Dist nd = d + a.weight;
      if (nd < dist[side][a.to]) {
        dist[side][a.to] = nd;
        pred[side][a.to] = v;
        heap[side].emplace_back(nd, a.to);
        std::push_heap(heap[side].begin(), heap[side].end(), HeapGreater{});
        const Dist total = AddDist(nd, dist[1 - side][a.to]);
        if (total < best) {
          best = total;
          meet = a.to;
        }
      }
    }
  }
  if (meet == kInvalidVertex) return kInfDist;

  // s-side chain: meet back to s, reversed in place.
  for (Vertex v = meet; v != kInvalidVertex; v = pred[0][v]) path->push_back(v);
  std::reverse(path->begin(), path->end());
  // t-side chain: pred[1] points toward t.
  for (Vertex v = pred[1][meet]; v != kInvalidVertex; v = pred[1][v]) {
    path->push_back(v);
  }
  return best;
}

BidirectionalDijkstra::BidirectionalDijkstra(const Graph& graph)
    : graph_(graph) {
  for (int side = 0; side < 2; ++side) {
    dist_[side].assign(graph.NumVertices(), kInfDist);
    stamp_[side].assign(graph.NumVertices(), 0);
  }
}

Dist BidirectionalDijkstra::Query(Vertex s, Vertex t) {
  HC2L_CHECK_LT(s, graph_.NumVertices());
  HC2L_CHECK_LT(t, graph_.NumVertices());
  if (s == t) return 0;
  ++version_;

  auto set_dist = [&](int side, Vertex v, Dist d) {
    dist_[side][v] = d;
    stamp_[side][v] = version_;
  };
  auto get_dist = [&](int side, Vertex v) -> Dist {
    return stamp_[side][v] == version_ ? dist_[side][v] : kInfDist;
  };

  for (int side = 0; side < 2; ++side) heap_[side].clear();
  heap_[0].emplace_back(0, s);
  set_dist(0, s, 0);
  heap_[1].emplace_back(0, t);
  set_dist(1, t, 0);

  Dist best = kInfDist;
  while (!heap_[0].empty() || !heap_[1].empty()) {
    // Expand the side with the smaller frontier distance.
    int side;
    if (heap_[0].empty()) {
      side = 1;
    } else if (heap_[1].empty()) {
      side = 0;
    } else {
      side = heap_[0].front().first <= heap_[1].front().first ? 0 : 1;
    }
    std::pop_heap(heap_[side].begin(), heap_[side].end(), HeapGreater{});
    const auto [d, v] = heap_[side].back();
    heap_[side].pop_back();
    if (d > get_dist(side, v)) continue;  // stale entry
    if (d >= best) break;                 // cannot improve further
    for (const Arc& a : graph_.Neighbors(v)) {
      const Dist nd = d + a.weight;
      if (get_dist(side, a.to) > nd) {
        set_dist(side, a.to, nd);
        heap_[side].emplace_back(nd, a.to);
        std::push_heap(heap_[side].begin(), heap_[side].end(), HeapGreater{});
        const Dist o = get_dist(1 - side, a.to);
        if (o != kInfDist && nd + o < best) best = nd + o;
      }
    }
  }
  return best;
}

DistAndPruneResult DistAndPrune(const Graph& g, Vertex root,
                                const std::vector<uint8_t>& in_p) {
  return DistAndPruneOver(g.NumVertices(), root, in_p,
                          [&g](Vertex v) { return g.Neighbors(v); });
}

std::vector<uint32_t> BfsHops(const Graph& g, Vertex source) {
  std::vector<uint32_t> hops(g.NumVertices(), UINT32_MAX);
  std::vector<Vertex> frontier{source};
  hops[source] = 0;
  uint32_t level = 0;
  while (!frontier.empty()) {
    std::vector<Vertex> next;
    ++level;
    for (Vertex v : frontier) {
      for (const Arc& a : g.Neighbors(v)) {
        if (hops[a.to] == UINT32_MAX) {
          hops[a.to] = level;
          next.push_back(a.to);
        }
      }
    }
    frontier = std::move(next);
  }
  return hops;
}

}  // namespace hc2l
