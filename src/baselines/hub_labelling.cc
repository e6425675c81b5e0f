#include "baselines/hub_labelling.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/check.h"

namespace hc2l {

HubLabelling::HubLabelling(const Graph& g, std::vector<Vertex> order) {
  const size_t n = g.NumVertices();
  if (order.empty()) {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
      return g.Degree(a) > g.Degree(b);
    });
  }
  HC2L_CHECK_EQ(order.size(), n);

  // Temporary per-vertex labels as (hub_rank, dist), built in rank order so
  // each vector stays sorted by construction.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> labels(n);

  // Pruned Dijkstra state.
  std::vector<Dist> dist(n, kInfDist);
  std::vector<uint32_t> stamp(n, 0);
  uint32_t version = 0;
  std::vector<std::pair<Dist, Vertex>> heap;
  // Distances from the current hub's label, indexed by hub rank, for O(1)
  // prune queries during the search.
  std::vector<Dist> hub_label_dist;

  for (uint32_t rank = 0; rank < n; ++rank) {
    const Vertex hub = order[rank];
    ++version;
    heap.clear();

    // Load the hub's own label for prune queries.
    hub_label_dist.assign(rank + 1, kInfDist);
    for (const auto& [r, d] : labels[hub]) hub_label_dist[r] = d;

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
      // Prune: if existing labels already certify a distance <= d via a more
      // important hub, neither store nor expand (Akiba et al. 2013).
      bool pruned = false;
      for (const auto& [r, dv] : labels[v]) {
        if (hub_label_dist[r] != kInfDist &&
            hub_label_dist[r] + dv <= d) {
          pruned = true;
          break;
        }
      }
      if (pruned) continue;
      HC2L_CHECK_LT(d, Dist{1} << 31);
      labels[v].push_back({rank, static_cast<uint32_t>(d)});
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

  // Flatten into CSR.
  offsets_.assign(n + 1, 0);
  size_t total = 0;
  for (Vertex v = 0; v < n; ++v) total += labels[v].size();
  hub_rank_of_entry_.reserve(total);
  dist_of_entry_.reserve(total);
  for (Vertex v = 0; v < n; ++v) {
    offsets_[v] = hub_rank_of_entry_.size();
    for (const auto& [r, d] : labels[v]) {
      hub_rank_of_entry_.push_back(r);
      dist_of_entry_.push_back(d);
    }
    labels[v] = {};
  }
  offsets_[n] = hub_rank_of_entry_.size();
}

Dist HubLabelling::Query(Vertex s, Vertex t) const {
  return QueryCountingHubs(s, t, nullptr);
}

Dist HubLabelling::QueryCountingHubs(Vertex s, Vertex t,
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
    const uint32_t ri = hub_rank_of_entry_[i];
    const uint32_t rj = hub_rank_of_entry_[j];
    if (ri == rj) {
      const Dist sum =
          static_cast<Dist>(dist_of_entry_[i]) + dist_of_entry_[j];
      if (sum < best) best = sum;
      ++i;
      ++j;
    } else if (ri < rj) {
      ++i;
    } else {
      ++j;
    }
  }
  if (hubs_scanned != nullptr) *hubs_scanned += scanned;
  return best;
}

size_t HubLabelling::MemoryBytes() const {
  return offsets_.size() * sizeof(uint64_t) +
         hub_rank_of_entry_.size() * sizeof(uint32_t) +
         dist_of_entry_.size() * sizeof(uint32_t);
}

}  // namespace hc2l
