#ifndef HC2L_TESTS_TEST_UTIL_H_
#define HC2L_TESTS_TEST_UTIL_H_

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"

namespace hc2l::testing {

/// Path graph 0 - 1 - ... - (n-1) with the given uniform weight.
inline Graph MakePath(size_t n, Weight w = 1) {
  GraphBuilder b(n);
  for (Vertex v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1, w);
  return std::move(b).Build();
}

/// Cycle graph on n vertices.
inline Graph MakeCycle(size_t n, Weight w = 1) {
  GraphBuilder b(n);
  for (Vertex v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1, w);
  if (n > 2) b.AddEdge(static_cast<Vertex>(n - 1), 0, w);
  return std::move(b).Build();
}

/// Star with center 0 and n-1 leaves.
inline Graph MakeStar(size_t n, Weight w = 1) {
  GraphBuilder b(n);
  for (Vertex v = 1; v < n; ++v) b.AddEdge(0, v, w);
  return std::move(b).Build();
}

/// Complete graph on n vertices.
inline Graph MakeComplete(size_t n, Weight w = 1) {
  GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v) b.AddEdge(u, v, w);
  return std::move(b).Build();
}

/// Two complete graphs of size k joined by a single path of length
/// `bridge_len` — the classic bottleneck shape exercising Algorithm 1's
/// equivalence-class handling.
inline Graph MakeBarbell(size_t k, size_t bridge_len, Weight w = 1) {
  const size_t n = 2 * k + bridge_len;
  GraphBuilder b(n);
  for (Vertex u = 0; u < k; ++u)
    for (Vertex v = u + 1; v < k; ++v) b.AddEdge(u, v, w);
  for (Vertex u = 0; u < k; ++u)
    for (Vertex v = u + 1; v < k; ++v)
      b.AddEdge(static_cast<Vertex>(k + bridge_len + u),
                static_cast<Vertex>(k + bridge_len + v), w);
  // Bridge: k-1 (in clique A) - k - k+1 - ... - k+bridge_len (in clique B).
  Vertex prev = static_cast<Vertex>(k - 1);
  for (size_t i = 0; i < bridge_len; ++i) {
    const Vertex next = static_cast<Vertex>(k + i);
    b.AddEdge(prev, next, w);
    prev = next;
  }
  b.AddEdge(prev, static_cast<Vertex>(k + bridge_len), w);
  return std::move(b).Build();
}

/// Unweighted 4-neighbour grid, all weights w.
inline Graph MakeGrid(size_t rows, size_t cols, Weight w = 1) {
  GraphBuilder b(rows * cols);
  auto id = [cols](size_t r, size_t c) {
    return static_cast<Vertex>(r * cols + c);
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.AddEdge(id(r, c), id(r, c + 1), w);
      if (r + 1 < rows) b.AddEdge(id(r, c), id(r + 1, c), w);
    }
  }
  return std::move(b).Build();
}

/// All-pairs shortest path distances by Floyd-Warshall; ground truth for
/// small graphs.
inline std::vector<std::vector<Dist>> FloydWarshall(const Graph& g) {
  const size_t n = g.NumVertices();
  std::vector<std::vector<Dist>> d(n, std::vector<Dist>(n, kInfDist));
  for (Vertex v = 0; v < n; ++v) d[v][v] = 0;
  for (Vertex u = 0; u < n; ++u)
    for (const Arc& a : g.Neighbors(u))
      d[u][a.to] = std::min<Dist>(d[u][a.to], a.weight);
  for (Vertex k = 0; k < n; ++k)
    for (Vertex i = 0; i < n; ++i) {
      if (d[i][k] == kInfDist) continue;
      for (Vertex j = 0; j < n; ++j) {
        if (d[k][j] == kInfDist) continue;
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  return d;
}

/// The whole file at `path` as bytes (empty if it cannot be read).
inline std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace hc2l::testing

#endif  // HC2L_TESTS_TEST_UTIL_H_
