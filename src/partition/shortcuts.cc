#include "partition/shortcuts.h"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "common/check.h"
#include "search/dijkstra.h"

namespace hc2l {

namespace {

bool TouchesCut(const Graph& g, Vertex v, const std::vector<uint8_t>& in_cut) {
  for (const Arc& a : g.Neighbors(v)) {
    if (in_cut[a.to]) return true;
  }
  return false;
}

bool TouchesCut(const Digraph& g, Vertex v,
                const std::vector<uint8_t>& in_cut) {
  for (const Arc& a : g.OutArcs(v)) {
    if (in_cut[a.to]) return true;
  }
  for (const Arc& a : g.InArcs(v)) {
    if (in_cut[a.to]) return true;
  }
  return false;
}

Subgraph Induced(const Graph& g, std::span<const Vertex> part) {
  return InducedSubgraph(g, part);
}

Subdigraph Induced(const Digraph& g, std::span<const Vertex> part) {
  return InducedSubdigraph(g, part);
}

std::span<const Arc> ForwardArcs(const Graph& g, Vertex v) {
  return g.Neighbors(v);
}

std::span<const Arc> ForwardArcs(const Digraph& g, Vertex v) {
  return g.OutArcs(v);
}

/// Algorithm 3 over either graph shape. `to_cut[j][v]` is d(v -> cut[j])
/// and `from_cut[j][v]` is d(cut[j] -> v); the undirected case passes one
/// field twice and only visits border pairs i < j, emitting one edge per
/// pair. `Out` is the shortcut type ({from, to, weight}).
template <typename G, typename Out>
std::vector<Out> Shortcuts(const G& g, std::span<const Vertex> cut,
                           std::span<const Vertex> part,
                           const std::vector<std::vector<Dist>>& to_cut,
                           const std::vector<std::vector<Dist>>& from_cut,
                           ThreadPool& pool, std::vector<Vertex>* border) {
  constexpr bool kSymmetric = std::is_same_v<G, Graph>;
  HC2L_CHECK_EQ(cut.size(), to_cut.size());
  const size_t n = g.NumVertices();
  std::vector<uint8_t> in_cut(n, 0);
  for (Vertex v : cut) in_cut[v] = 1;

  // Line 2: border vertices = partition vertices adjacent to the cut.
  for (Vertex v : part) {
    if (TouchesCut(g, v, in_cut)) border->push_back(v);
  }
  const size_t b = border->size();
  if (b < 2) return {};

  // Line 8's second term first: d_g[i][j] starts as the best detour
  // b_i -> cut -> b_j. The search from b_i need not go past the radius
  // R_i, the largest detour of its row (kInfDist if any is infinite): a
  // pair with d_G[P] > R_i has d_G = the detour either way and is a
  // shortcut candidate (condition (1)), so its exact d_G[P] is never read.
  // The undirected rows only cover j > i (d_G[P] is symmetric); the last
  // border vertex needs no search.
  std::vector<std::vector<Dist>> d_g(b, std::vector<Dist>(b, kInfDist));
  std::vector<Dist> radius(b, 0);
  for (size_t i = 0; i < b; ++i) {
    for (size_t j = kSymmetric ? i + 1 : 0; j < b; ++j) {
      if (i == j) continue;
      Dist through_cut = kInfDist;
      for (size_t c = 0; c < cut.size(); ++c) {
        const Dist to_c = to_cut[c][(*border)[i]];
        const Dist from_c = from_cut[c][(*border)[j]];
        if (to_c == kInfDist || from_c == kInfDist) continue;
        through_cut = std::min(through_cut, to_c + from_c);
      }
      d_g[i][j] = through_cut;
      radius[i] = std::max(radius[i], through_cut);
    }
  }

  // Lines 3-6: distances between border vertices inside G[P], kInfDist
  // for the pairs beyond their row's radius.
  const auto gp = Induced(g, part);
  std::vector<Vertex> to_child(n, kInvalidVertex);
  for (size_t i = 0; i < part.size(); ++i) to_child[part[i]] = i;
  std::vector<std::vector<Dist>> d_gp(b, std::vector<Dist>(b, kInfDist));
  const auto search = [&](size_t i) {
    std::vector<Dist> dist(gp.graph.NumVertices(), kInfDist);
    SettleFrom(
        SearchHeap::ForThisThread(), to_child[(*border)[i]], radius[i],
        [&gp](Vertex v) { return ForwardArcs(gp.graph, v); }, dist,
        [](Vertex) {});
    for (size_t j = kSymmetric ? i + 1 : 0; j < b; ++j) {
      const Dist d = dist[to_child[(*border)[j]]];
      if (d <= radius[i]) d_gp[i][j] = d;
    }
  };
  pool.ParallelFor(kSymmetric ? b - 1 : b, search);

  // Lines 7-8: true distances d_G(b_i -> b_j) = min(d_G[P], best detour
  // through a cut vertex).
  for (size_t i = 0; i < b; ++i) {
    for (size_t j = kSymmetric ? i + 1 : 0; j < b; ++j) {
      if (i == j) continue;
      d_g[i][j] = std::min(d_gp[i][j], d_g[i][j]);
      if (kSymmetric) d_g[j][i] = d_g[i][j];
    }
  }

  // Lines 9-16: add non-redundant shortcuts.
  std::vector<Out> shortcuts;
  for (size_t i = 0; i < b; ++i) {
    for (size_t j = kSymmetric ? i + 1 : 0; j < b; ++j) {
      if (i == j) continue;
      if (d_g[i][j] >= d_gp[i][j]) continue;  // condition (1) of Lemma 4.11
      bool redundant = false;
      for (size_t k = 0; k < b && !redundant; ++k) {
        if (k == i || k == j) continue;
        if (d_g[i][k] != kInfDist && d_g[k][j] != kInfDist &&
            d_g[i][k] + d_g[k][j] == d_g[i][j]) {
          redundant = true;  // condition (2) of Lemma 4.11
        }
      }
      if (!redundant) {
        HC2L_CHECK_LE(d_g[i][j], std::numeric_limits<Weight>::max());
        shortcuts.push_back({(*border)[i], (*border)[j],
                             static_cast<Weight>(d_g[i][j])});
      }
    }
  }
  return shortcuts;
}

}  // namespace

ShortcutResult ComputeShortcuts(
    const Graph& g, std::span<const Vertex> cut, std::span<const Vertex> part,
    const std::vector<std::vector<Dist>>& dist_from_cut, ThreadPool& pool) {
  ShortcutResult result;
  result.shortcuts = Shortcuts<Graph, Edge>(
      g, cut, part, dist_from_cut, dist_from_cut, pool, &result.border);
  return result;
}

std::vector<DirectedArc> ComputeDirectedShortcuts(
    const Digraph& g, std::span<const Vertex> cut, std::span<const Vertex> part,
    const std::vector<std::vector<Dist>>& to_cut,
    const std::vector<std::vector<Dist>>& from_cut, ThreadPool& pool) {
  std::vector<Vertex> border;
  return Shortcuts<Digraph, DirectedArc>(g, cut, part, to_cut, from_cut, pool,
                                         &border);
}

bool IsDistancePreserving(const Graph& parent, const Graph& enhanced,
                          std::span<const Vertex> part_to_parent) {
  HC2L_CHECK_EQ(enhanced.NumVertices(), part_to_parent.size());
  Dijkstra in_parent(parent);
  Dijkstra in_enhanced(enhanced);
  for (Vertex v = 0; v < enhanced.NumVertices(); ++v) {
    in_parent.Run(part_to_parent[v]);
    in_enhanced.Run(v);
    for (Vertex w = 0; w < enhanced.NumVertices(); ++w) {
      if (in_enhanced.DistanceTo(w) != in_parent.DistanceTo(part_to_parent[w])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace hc2l
