#include "search/directed_dijkstra.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace hc2l {

namespace {

std::span<const Arc> ArcsOf(const Digraph& g, Vertex v,
                            SearchDirection direction) {
  return direction == SearchDirection::kForward ? g.OutArcs(v) : g.InArcs(v);
}

}  // namespace

std::vector<Dist> DirectedDistancesFrom(const Digraph& g, Vertex source,
                                        SearchDirection direction) {
  return DistancesOver(g.NumVertices(), source, [&g, direction](Vertex v) {
    return ArcsOf(g, v, direction);
  });
}

Dist DirectedShortestPathDistance(const Digraph& g, Vertex s, Vertex t) {
  return DirectedDistancesFrom(g, s, SearchDirection::kForward)[t];
}

Dist DirectedShortestPath(const Digraph& g, Vertex s, Vertex t,
                          std::vector<Vertex>* path) {
  HC2L_CHECK_LT(s, g.NumVertices());
  HC2L_CHECK_LT(t, g.NumVertices());
  path->clear();
  if (s == t) {
    path->push_back(s);
    return 0;
  }

  // Side 0 searches forward from s over out-arcs (pred = previous vertex on
  // the s -> v path), side 1 backward from t over in-arcs (whose Arc::to is
  // the arc's source; pred = next vertex on the v -> t path).
  std::vector<Dist> dist[2];
  std::vector<Vertex> pred[2];
  std::vector<std::pair<Dist, Vertex>> heap[2];
  for (int side = 0; side < 2; ++side) {
    dist[side].assign(g.NumVertices(), kInfDist);
    pred[side].assign(g.NumVertices(), kInvalidVertex);
  }
  dist[0][s] = 0;
  heap[0].push_back({0, s});
  dist[1][t] = 0;
  heap[1].push_back({0, t});

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
    std::pop_heap(heap[side].begin(), heap[side].end(), std::greater<>());
    const auto [d, v] = heap[side].back();
    heap[side].pop_back();
    if (d > dist[side][v]) continue;  // stale entry
    if (d >= best) break;             // cannot improve further
    const SearchDirection direction =
        side == 0 ? SearchDirection::kForward : SearchDirection::kBackward;
    for (const Arc& a : ArcsOf(g, v, direction)) {
      const Dist nd = d + a.weight;
      if (nd < dist[side][a.to]) {
        dist[side][a.to] = nd;
        pred[side][a.to] = v;
        heap[side].push_back({nd, a.to});
        std::push_heap(heap[side].begin(), heap[side].end(), std::greater<>());
        const Dist o = dist[1 - side][a.to];
        if (o != kInfDist && nd + o < best) {
          best = nd + o;
          meet = a.to;
        }
      }
    }
  }
  if (meet == kInvalidVertex) return kInfDist;

  // Forward chain: meet back to s, reversed in place.
  for (Vertex v = meet; v != kInvalidVertex; v = pred[0][v]) path->push_back(v);
  std::reverse(path->begin(), path->end());
  // Backward chain: pred[1] points toward t.
  for (Vertex v = pred[1][meet]; v != kInvalidVertex; v = pred[1][v]) {
    path->push_back(v);
  }
  return best;
}

DistAndPruneResult DirectedDistAndPrune(const Digraph& g, Vertex root,
                                        SearchDirection direction,
                                        const std::vector<uint8_t>& in_p) {
  return DistAndPruneOver(
      g.NumVertices(), root, in_p,
      [&g, direction](Vertex v) { return ArcsOf(g, v, direction); });
}

}  // namespace hc2l
