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
///
/// Unlike the build's kernel (SettleFrom), it pops ties at one distance in
/// std::pop_heap order, and that order is part of its contract:
/// BalancedPartition seeds its cuts from FurthestVertex, the last vertex
/// settled among those at the maximum distance, so another tie order would
/// move every cut, and with them every index file.
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

/// The min-heap of the build's search kernel (SettleFrom). Entries are
/// (distance, vertex) keys ordered lexicographically, so equal distances
/// pop in vertex order whatever the push order. While every key's distance
/// fits 32 bits a key is packed as `dist << 32 | vertex` and compared as
/// one integer; the first push of a larger distance moves the heap, as it
/// stands (the packed order is the same order), onto (Dist, Vertex) pairs
/// until Clear(); one 128-bit key for every distance compared slower than
/// the packed one, so the pairs serve only that case. A pop moves its hole
/// down to a leaf along the smaller children, choosing each without a
/// branch, then sifts the last entry up from there (Floyd's variant: one
/// comparison per level instead of a sift-down's two, since the last entry
/// usually belongs near the leaves).
class SearchHeap {
 public:
  bool empty() const { return wide_ ? wide_keys_.empty() : keys_.empty(); }

  /// True once a distance of 2^32 or more was pushed since Clear().
  bool wide() const { return wide_; }

  void Clear() {
    keys_.clear();
    wide_keys_.clear();
    wide_ = false;
  }

  void Push(Dist d, Vertex v) {
    if (!wide_) {
      if ((d >> 32) == 0) {
        PushKey(&keys_, (d << 32) | v);
        return;
      }
      Widen();
    }
    PushKey(&wide_keys_, std::pair<Dist, Vertex>(d, v));
  }

  /// Removes and returns the least (distance, vertex) entry.
  std::pair<Dist, Vertex> Pop() {
    if (!wide_) {
      const uint64_t key = PopKey(&keys_);
      return {key >> 32, static_cast<Vertex>(key)};
    }
    return PopKey(&wide_keys_);
  }

  /// The calling thread's heap, reused by its searches (one at a time);
  /// it keeps the capacity of its largest search until the thread ends.
  static SearchHeap& ForThisThread();

 private:
  template <typename Key>
  static void PushKey(std::vector<Key>* heap, Key key) {
    std::vector<Key>& h = *heap;
    size_t hole = h.size();
    h.push_back(key);
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!(key < h[parent])) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = key;
  }

  template <typename Key>
  static Key PopKey(std::vector<Key>* heap) {
    std::vector<Key>& h = *heap;
    const Key top = h[0];
    const Key last = h.back();
    h.pop_back();
    const size_t n = h.size();
    if (n == 0) return top;
    size_t hole = 0;
    size_t child = 1;
    for (; child + 1 < n; child = 2 * hole + 1) {
      child += h[child + 1] < h[child];
      h[hole] = h[child];
      hole = child;
    }
    if (child < n) {
      h[hole] = h[child];
      hole = child;
    }
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!(last < h[parent])) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = last;
    return top;
  }

  void Widen();

  bool wide_ = false;
  std::vector<uint64_t> keys_;
  std::vector<std::pair<Dist, Vertex>> wide_keys_;
};

/// The build's search kernel: Dijkstra from `root` over any adjacency
/// (`arcs(v)` returns the arcs relaxed out of v: a graph's neighbours, a
/// digraph's out- or in-arcs for a forward or backward search). `dist`
/// must hold kInfDist for every vertex the search can reach; the search
/// writes the distances it finds there and calls settle(v) for each vertex
/// it settles — in increasing (distance, vertex) order, at most once each.
/// It stops before settling a vertex farther than `radius` (kInfDist: no
/// bound): every vertex within the radius ends exact and settled, and the
/// distances of the others are upper bounds or kInfDist. An entry is pushed
/// only when a distance improves; `heap` is cleared first. For searches
/// whose result does not depend on the order of ties; Dijkstra keeps its
/// own (see there).
template <typename ArcsFn, typename SettleFn>
void SettleFrom(SearchHeap& heap, Vertex root, Dist radius,
                const ArcsFn& arcs, std::vector<Dist>& dist,
                const SettleFn& settle) {
  HC2L_CHECK_LT(root, dist.size());
  heap.Clear();
  dist[root] = 0;
  heap.Push(0, root);
  while (!heap.empty()) {
    const auto [d, v] = heap.Pop();
    if (d > dist[v]) continue;  // stale heap entry
    if (d > radius) break;
    settle(v);
    for (const Arc& a : arcs(v)) {
      const Dist nd = d + a.weight;
      if (nd < dist[a.to]) {
        dist[a.to] = nd;
        heap.Push(nd, a.to);
      }
    }
  }
}

/// Distances from `source` over any adjacency (see SettleFrom);
/// kInfDist where unreachable.
template <typename ArcsFn>
std::vector<Dist> DistancesOver(size_t num_vertices, Vertex source,
                                const ArcsFn& arcs) {
  std::vector<Dist> dist(num_vertices, kInfDist);
  SettleFrom(SearchHeap::ForThisThread(), source, kInfDist, arcs, dist,
             [](Vertex) {});
  return dist;
}

/// A shortest-path tree: the distances from the search root and the
/// vertices the search settled, root first. Weights are positive, so the
/// settle order is a topological order of the shortest-path DAG: for every
/// arc u -> v with dist[u] + w == dist[v], u comes before v.
struct ShortestPathTree {
  std::vector<Dist> dist;     // kInfDist if unreachable
  std::vector<Vertex> order;  // settled vertices in settle order
};

/// The shortest-path tree of `root` over any adjacency (see SettleFrom).
template <typename ArcsFn>
ShortestPathTree ShortestPathTreeOver(size_t num_vertices, Vertex root,
                                      const ArcsFn& arcs) {
  ShortestPathTree tree;
  tree.dist.assign(num_vertices, kInfDist);
  tree.order.reserve(num_vertices);
  SettleFrom(SearchHeap::ForThisThread(), root, kInfDist, arcs, tree.dist,
             [&tree](Vertex v) { tree.order.push_back(v); });
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
