#include "baselines/pruned_highway_labelling.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/check.h"
#include "search/dijkstra.h"

namespace hc2l {

namespace {

/// One label triple during construction.
struct Triple {
  uint32_t path;
  uint32_t offset;
  uint32_t dist;
};

/// Eq. 2 evaluated over two sorted triple lists (upper bound; exact once the
/// labelling is complete).
Dist TripleQuery(const std::vector<Triple>& a, const std::vector<Triple>& b) {
  Dist best = kInfDist;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].path < b[j].path) {
      ++i;
    } else if (a[i].path > b[j].path) {
      ++j;
    } else {
      const uint32_t path = a[i].path;
      size_t ei = i;
      size_t ej = j;
      while (ei < a.size() && a[ei].path == path) ++ei;
      while (ej < b.size() && b[ej].path == path) ++ej;
      for (size_t x = i; x < ei; ++x) {
        for (size_t y = j; y < ej; ++y) {
          const uint32_t hi = std::max(a[x].offset, b[y].offset);
          const uint32_t lo = std::min(a[x].offset, b[y].offset);
          const Dist d = static_cast<Dist>(a[x].dist) + b[y].dist + (hi - lo);
          if (d < best) best = d;
        }
      }
      i = ei;
      j = ej;
    }
  }
  return best;
}

}  // namespace

PrunedHighwayLabelling::PrunedHighwayLabelling(const Graph& g) {
  const size_t n = g.NumVertices();
  offsets_.assign(n + 1, 0);
  if (n == 0) return;

  // --- Highway decomposition: shortest-path forest + heavy paths. ---
  // Shortest-path forest from the max-degree vertex of each component.
  std::vector<Vertex> tree_parent(n, kInvalidVertex);
  std::vector<Dist> root_dist(n, kInfDist);
  {
    ComponentInfo cc = ConnectedComponents(g);
    std::vector<Vertex> component_root(cc.num_components, kInvalidVertex);
    for (Vertex v = 0; v < n; ++v) {
      Vertex& r = component_root[cc.component_of[v]];
      if (r == kInvalidVertex || g.Degree(v) > g.Degree(r)) r = v;
    }
    Dijkstra dijkstra(g);
    for (Vertex root : component_root) {
      dijkstra.Run(root);
      for (Vertex v : dijkstra.SettledVertices()) {
        root_dist[v] = dijkstra.DistanceTo(v);
        if (v == root) continue;
        // Parent: any neighbour on a shortest path to the root.
        for (const Arc& a : g.Neighbors(v)) {
          if (dijkstra.DistanceTo(a.to) != kInfDist &&
              dijkstra.DistanceTo(a.to) + a.weight == root_dist[v]) {
            tree_parent[v] = a.to;
            break;
          }
        }
        HC2L_CHECK_NE(tree_parent[v], kInvalidVertex);
      }
    }
  }

  // Subtree sizes (children counts via reverse topological order by root
  // distance: children are strictly farther than parents).
  std::vector<uint32_t> subtree(n, 1);
  {
    std::vector<Vertex> by_dist(n);
    std::iota(by_dist.begin(), by_dist.end(), 0);
    std::sort(by_dist.begin(), by_dist.end(), [&](Vertex a, Vertex b) {
      return root_dist[a] > root_dist[b];
    });
    for (Vertex v : by_dist) {
      if (tree_parent[v] != kInvalidVertex) subtree[tree_parent[v]] += subtree[v];
    }
  }

  // Heavy child of each vertex.
  std::vector<Vertex> heavy_child(n, kInvalidVertex);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex p = tree_parent[v];
    if (p == kInvalidVertex) continue;
    if (heavy_child[p] == kInvalidVertex || subtree[v] > subtree[heavy_child[p]]) {
      heavy_child[p] = v;
    }
  }

  // Paths: heads are roots and light children; follow heavy chains.
  struct PathInfo {
    std::vector<Vertex> vertices;  // top-down
    uint64_t importance = 0;       // vertices served (sum of subtree sizes
                                   // of path members minus double counts)
  };
  std::vector<PathInfo> paths;
  std::vector<uint32_t> path_of_vertex(n, UINT32_MAX);
  std::vector<uint32_t> offset_of_vertex(n, 0);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex p = tree_parent[v];
    const bool is_head = p == kInvalidVertex || heavy_child[p] != v;
    if (!is_head) continue;
    PathInfo info;
    Vertex cur = v;
    while (cur != kInvalidVertex) {
      info.vertices.push_back(cur);
      cur = heavy_child[cur];
    }
    info.importance = subtree[v];
    paths.push_back(std::move(info));
  }
  // Importance order: paths serving more vertices first.
  std::sort(paths.begin(), paths.end(),
            [](const PathInfo& a, const PathInfo& b) {
              if (a.importance != b.importance) {
                return a.importance > b.importance;
              }
              return a.vertices.front() < b.vertices.front();
            });
  num_paths_ = paths.size();
  for (uint32_t rank = 0; rank < paths.size(); ++rank) {
    const PathInfo& info = paths[rank];
    const Dist base = root_dist[info.vertices.front()];
    for (const Vertex u : info.vertices) {
      path_of_vertex[u] = rank;
      const Dist along = root_dist[u] - base;
      HC2L_CHECK_LT(along, Dist{1} << 31);
      offset_of_vertex[u] = static_cast<uint32_t>(along);
    }
  }

  // --- Pruned labelling in (path rank, offset) hub order. ---
  std::vector<std::vector<Triple>> labels(n);
  std::vector<Dist> dist(n, kInfDist);
  std::vector<uint32_t> stamp(n, 0);
  uint32_t version = 0;
  std::vector<std::pair<Dist, Vertex>> heap;

  for (uint32_t rank = 0; rank < paths.size(); ++rank) {
    for (const Vertex hub : paths[rank].vertices) {
      ++version;
      heap.clear();
      auto get = [&](Vertex v) {
        return stamp[v] == version ? dist[v] : kInfDist;
      };
      auto set = [&](Vertex v, Dist d) {
        dist[v] = d;
        stamp[v] = version;
      };
      set(hub, 0);
      heap.push_back({0, hub});
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const auto [d, v] = heap.back();
        heap.pop_back();
        if (d > get(v)) continue;
        // Prune with the Eq. 2 upper bound over existing labels: a genuine
        // path length, so pruning preserves exactness (PLL argument).
        if (TripleQuery(labels[hub], labels[v]) <= d) continue;
        HC2L_CHECK_LT(d, Dist{1} << 31);
        labels[v].push_back({rank, offset_of_vertex[hub],
                             static_cast<uint32_t>(d)});
        for (const Arc& a : g.Neighbors(v)) {
          const Dist nd = d + a.weight;
          if (nd < get(a.to)) {
            set(a.to, nd);
            heap.push_back({nd, a.to});
            std::push_heap(heap.begin(), heap.end(), std::greater<>());
          }
        }
      }
    }
  }

  // --- Per-path lower-envelope compression: drop triples dominated by a
  // sibling attachment on the same path. Valid by the triangle inequality
  // along the path. ---
  for (Vertex v = 0; v < n; ++v) {
    auto& lab = labels[v];
    std::vector<Triple> kept;
    kept.reserve(lab.size());
    size_t i = 0;
    while (i < lab.size()) {
      size_t e = i;
      while (e < lab.size() && lab[e].path == lab[i].path) ++e;
      for (size_t x = i; x < e; ++x) {
        bool dominated = false;
        for (size_t y = i; y < e && !dominated; ++y) {
          if (y == x) continue;
          const uint32_t gap = lab[x].offset > lab[y].offset
                                   ? lab[x].offset - lab[y].offset
                                   : lab[y].offset - lab[x].offset;
          const Dist via = static_cast<Dist>(lab[y].dist) + gap;
          if (via < lab[x].dist ||
              (via == lab[x].dist && y < x)) {  // tie: keep the earlier one
            dominated = true;
          }
        }
        if (!dominated) kept.push_back(lab[x]);
      }
      i = e;
    }
    lab = std::move(kept);
  }

  // --- Flatten to CSR. ---
  size_t total = 0;
  for (Vertex v = 0; v < n; ++v) total += labels[v].size();
  path_of_entry_.reserve(total);
  offset_of_entry_.reserve(total);
  dist_of_entry_.reserve(total);
  for (Vertex v = 0; v < n; ++v) {
    offsets_[v] = path_of_entry_.size();
    for (const Triple& t : labels[v]) {
      path_of_entry_.push_back(t.path);
      offset_of_entry_.push_back(t.offset);
      dist_of_entry_.push_back(t.dist);
    }
    labels[v] = {};
  }
  offsets_[n] = path_of_entry_.size();
}

Dist PrunedHighwayLabelling::Query(Vertex s, Vertex t) const {
  return QueryCountingHubs(s, t, nullptr);
}

Dist PrunedHighwayLabelling::QueryCountingHubs(Vertex s, Vertex t,
                                               uint64_t* hubs_scanned) const {
  if (s == t) return 0;
  uint64_t i = offsets_[s];
  uint64_t j = offsets_[t];
  const uint64_t end_i = offsets_[s + 1];
  const uint64_t end_j = offsets_[t + 1];
  Dist best = kInfDist;
  uint64_t scanned = 0;
  while (i < end_i && j < end_j) {
    ++scanned;
    if (path_of_entry_[i] < path_of_entry_[j]) {
      ++i;
    } else if (path_of_entry_[i] > path_of_entry_[j]) {
      ++j;
    } else {
      const uint32_t path = path_of_entry_[i];
      uint64_t ei = i;
      uint64_t ej = j;
      while (ei < end_i && path_of_entry_[ei] == path) ++ei;
      while (ej < end_j && path_of_entry_[ej] == path) ++ej;
      for (uint64_t x = i; x < ei; ++x) {
        for (uint64_t y = j; y < ej; ++y) {
          const uint32_t ox = offset_of_entry_[x];
          const uint32_t oy = offset_of_entry_[y];
          const uint32_t gap = ox > oy ? ox - oy : oy - ox;
          const Dist d = static_cast<Dist>(dist_of_entry_[x]) +
                         dist_of_entry_[y] + gap;
          if (d < best) best = d;
          ++scanned;
        }
      }
      i = ei;
      j = ej;
    }
  }
  if (hubs_scanned != nullptr) *hubs_scanned += scanned;
  return best;
}

size_t PrunedHighwayLabelling::MemoryBytes() const {
  return offsets_.size() * sizeof(uint64_t) +
         path_of_entry_.size() * sizeof(uint32_t) +
         offset_of_entry_.size() * sizeof(uint32_t) +
         dist_of_entry_.size() * sizeof(uint32_t);
}

}  // namespace hc2l
