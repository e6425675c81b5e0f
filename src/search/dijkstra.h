#ifndef HC2L_SEARCH_DIJKSTRA_H_
#define HC2L_SEARCH_DIJKSTRA_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <span>
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

/// Result of a pruneability-tracking Dijkstra (Algorithm 4 of the paper).
struct DistAndPruneResult {
  std::vector<Dist> dist;    // distance from root; kInfDist if unreachable
  std::vector<uint8_t> via;  // 1 iff SOME shortest root->v path has an
                             // intermediate vertex (excluding root and v)
                             // in the tracked set P
};

/// Algorithm 4: Dijkstra from `root` that also records, per vertex v, whether
/// a shortest path from root to v passes through a vertex of `in_p`
/// (a bitmask over vertices; root's own membership is ignored). The queue is
/// ordered by (distance, pruned) with pruned entries first, which yields the
/// existential semantics of Definition 4.16.
DistAndPruneResult DistAndPrune(const Graph& g, Vertex root,
                                const std::vector<uint8_t>& in_p);

/// DistAndPrune over any adjacency: `arcs(v)` returns the arcs relaxed out
/// of v (a graph's neighbours; a digraph's out- or in-arcs for a forward or
/// backward search).
template <typename ArcsFn>
DistAndPruneResult DistAndPruneOver(size_t num_vertices, Vertex root,
                                    const std::vector<uint8_t>& in_p,
                                    const ArcsFn& arcs) {
  HC2L_CHECK_LT(root, num_vertices);
  HC2L_CHECK_EQ(in_p.size(), num_vertices);
  DistAndPruneResult result;
  result.dist.assign(num_vertices, kInfDist);
  result.via.assign(num_vertices, 0);

  // Heap entries ordered by (distance, pruned) with pruned=true first, per
  // Algorithm 4's "Q is ordered by (d, p) with True < False". Popping pruned
  // entries first at equal distance yields the existential semantics: via[v]
  // is set iff SOME shortest root->v path has a tracked intermediate vertex.
  struct Entry {
    Dist d;
    uint8_t not_pruned;  // 0 if pruned: sorts before non-pruned at equal d
    Vertex v;
    bool operator>(const Entry& other) const {
      if (d != other.d) return d > other.d;
      return not_pruned > other.not_pruned;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  std::vector<uint8_t> done(num_vertices, 0);

  queue.push({0, 1, root});
  while (!queue.empty()) {
    const Entry top = queue.top();
    queue.pop();
    const Vertex v = top.v;
    if (done[v]) continue;
    done[v] = 1;
    result.dist[v] = top.d;
    result.via[v] = top.not_pruned == 0 ? 1 : 0;
    // The flag propagates along the path; traversing v itself sets it when v
    // is a tracked vertex (root's own membership is ignored, and a vertex is
    // not an intermediate of its own path).
    const bool next_pruned = result.via[v] != 0 || (v != root && in_p[v] != 0);
    for (const Arc& a : arcs(v)) {
      if (done[a.to]) continue;
      queue.push(
          {top.d + a.weight, next_pruned ? uint8_t{0} : uint8_t{1}, a.to});
    }
  }
  return result;
}

/// Unweighted BFS distances (hop counts) from source.
std::vector<uint32_t> BfsHops(const Graph& g, Vertex source);

}  // namespace hc2l

#endif  // HC2L_SEARCH_DIJKSTRA_H_
