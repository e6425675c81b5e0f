#ifndef HC2L_SEARCH_DIJKSTRA_H_
#define HC2L_SEARCH_DIJKSTRA_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "graph/graph.h"

namespace hc2l {

/// Single-source shortest paths with reusable buffers.
///
/// A Dijkstra instance is bound to one graph size; Run() can be called many
/// times without reallocating. Buffers are reset with version stamps, so a
/// run costs O(touched) rather than O(n).
class Dijkstra {
 public:
  explicit Dijkstra(const Graph& graph);

  /// Computes distances from `source` to every vertex.
  void Run(Vertex source);

  /// Computes distances from `source`, stopping once `target` is settled.
  /// Distances of unsettled vertices are upper bounds or kInfDist.
  void RunToTarget(Vertex source, Vertex target);

  /// Distance to v from the last Run's source (kInfDist if unreached).
  Dist DistanceTo(Vertex v) const {
    return stamp_[v] == version_ ? dist_[v] : kInfDist;
  }

  /// Vertices settled by the last run, in settling order.
  std::span<const Vertex> SettledVertices() const { return settled_; }

  /// The vertex with maximum finite distance in the last run (useful for
  /// finding far-apart vertex pairs and diameters). kInvalidVertex if the
  /// source had no reachable vertices.
  Vertex FurthestVertex() const;

 private:
  void Reset();

  const Graph& graph_;
  std::vector<Dist> dist_;
  std::vector<uint32_t> stamp_;
  uint32_t version_ = 0;
  std::vector<Vertex> settled_;
  // Heap entries are (distance, vertex) with lazy deletion.
  std::vector<std::pair<Dist, Vertex>> heap_;
};

/// One-shot convenience: distance between s and t (kInfDist if disconnected).
Dist ShortestPathDistance(const Graph& g, Vertex s, Vertex t);

/// Bidirectional Dijkstra that also reconstructs one shortest s..t path into
/// *path (full vertex sequence, s first and t last; the single vertex for
/// s == t; cleared to empty when disconnected). Returns the path weight.
/// This is the graph-backed fallback unpacker for hint-less HC2L indexes.
Dist BidirectionalShortestPath(const Graph& g, Vertex s, Vertex t,
                               std::vector<Vertex>* path);

/// One-shot convenience: all distances from source.
std::vector<Dist> AllDistancesFrom(const Graph& g, Vertex source);

/// Bidirectional Dijkstra. Functionally identical to Dijkstra but explores a
/// much smaller ball around each endpoint; it is the search-based baseline
/// the paper's related-work section discusses and the tests' fast oracle.
class BidirectionalDijkstra {
 public:
  explicit BidirectionalDijkstra(const Graph& graph);

  /// Shortest-path distance between s and t (kInfDist if disconnected).
  Dist Query(Vertex s, Vertex t);

 private:
  const Graph& graph_;
  std::vector<Dist> dist_[2];
  std::vector<uint32_t> stamp_[2];
  uint32_t version_ = 0;
  std::vector<std::pair<Dist, Vertex>> heap_[2];
};

/// A shortest-path tree: the distances from the search root and the
/// vertices the search settled, root first. Weights are positive, so the
/// settle order is a topological order of the shortest-path DAG: for every
/// arc u -> v with dist[u] + w == dist[v], u comes before v.
struct ShortestPathTree {
  std::vector<Dist> dist;     // kInfDist if unreachable
  std::vector<Vertex> order;  // settled vertices in settle order
};

/// Dijkstra from `root` over any adjacency: `arcs(v)` returns the arcs
/// relaxed out of v (a graph's neighbours; a digraph's out- or in-arcs for
/// a forward or backward search). A heap entry is pushed only when a
/// distance improves.
template <typename ArcsFn>
ShortestPathTree ShortestPathTreeOver(size_t num_vertices, Vertex root,
                                      const ArcsFn& arcs) {
  HC2L_CHECK_LT(root, num_vertices);
  ShortestPathTree tree;
  tree.dist.assign(num_vertices, kInfDist);
  tree.order.reserve(num_vertices);
  const auto greater = [](const std::pair<Dist, Vertex>& a,
                          const std::pair<Dist, Vertex>& b) {
    return a.first > b.first;
  };
  std::vector<std::pair<Dist, Vertex>> heap;
  tree.dist[root] = 0;
  heap.emplace_back(0, root);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const auto [d, v] = heap.back();
    heap.pop_back();
    if (d > tree.dist[v]) continue;  // stale heap entry
    tree.order.push_back(v);
    for (const Arc& a : arcs(v)) {
      const Dist nd = d + a.weight;
      if (nd < tree.dist[a.to]) {
        tree.dist[a.to] = nd;
        heap.emplace_back(nd, a.to);
        std::push_heap(heap.begin(), heap.end(), greater);
      }
    }
  }
  return tree;
}

/// The flag of Algorithm 4 over a finished tree: sets (*via)[v] to 1 iff
/// SOME shortest root -> v path has an intermediate vertex u (neither the
/// root nor v) with tracked(u) — the existential semantics of Definition
/// 4.16 — and to 0 otherwise. `arcs` must be the adjacency `tree` was
/// searched over. One pass in settle order: a flagged or tracked vertex
/// flags every vertex its tight arcs reach, and each vertex is final
/// before it is read because its DAG predecessors settle first.
template <typename ArcsFn, typename TrackedFn>
void FlagTrackedPaths(const ShortestPathTree& tree, const ArcsFn& arcs,
                      const TrackedFn& tracked, std::vector<uint8_t>* via) {
  via->assign(tree.dist.size(), 0);
  if (tree.order.empty()) return;
  const Vertex root = tree.order[0];
  for (const Vertex u : tree.order) {
    if ((*via)[u] == 0 && (u == root || !tracked(u))) continue;
    const Dist du = tree.dist[u];
    for (const Arc& a : arcs(u)) {
      if (du + a.weight == tree.dist[a.to]) (*via)[a.to] = 1;
    }
  }
}

/// Result of a pruneability-tracking Dijkstra (Algorithm 4 of the paper).
struct DistAndPruneResult {
  std::vector<Dist> dist;    // distance from root; kInfDist if unreachable
  std::vector<uint8_t> via;  // 1 iff SOME shortest root->v path has an
                             // intermediate vertex (excluding root and v)
                             // in the tracked set P
};

/// Algorithm 4: Dijkstra from `root` that also records, per vertex v, whether
/// a shortest path from root to v passes through a vertex of `in_p`
/// (a bitmask over vertices; root's own membership is ignored): one
/// shortest-path tree search, then the FlagTrackedPaths pass.
DistAndPruneResult DistAndPrune(const Graph& g, Vertex root,
                                const std::vector<uint8_t>& in_p);

/// DistAndPrune over any adjacency (see ShortestPathTreeOver).
template <typename ArcsFn>
DistAndPruneResult DistAndPruneOver(size_t num_vertices, Vertex root,
                                    const std::vector<uint8_t>& in_p,
                                    const ArcsFn& arcs) {
  HC2L_CHECK_EQ(in_p.size(), num_vertices);
  ShortestPathTree tree = ShortestPathTreeOver(num_vertices, root, arcs);
  DistAndPruneResult result;
  FlagTrackedPaths(
      tree, arcs, [&in_p](Vertex u) { return in_p[u] != 0; }, &result.via);
  result.dist = std::move(tree.dist);
  return result;
}

/// Unweighted BFS distances (hop counts) from source.
std::vector<uint32_t> BfsHops(const Graph& g, Vertex source);

}  // namespace hc2l

#endif  // HC2L_SEARCH_DIJKSTRA_H_
