#ifndef HC2L_TESTS_TEST_UTIL_H_
#define HC2L_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/query_common.h"
#include "graph/graph.h"
#include "hc2l/router.h"

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

// --- One helper per bulk query kind, returning the answers as vectors.
// On a Router or ThreadedRouter each runs one default-options Execute and
// returns its Result; on an index or a query engine each runs the span
// primitives (PointPairsInto, BatchQueryInto, DistanceMatrixInto,
// SelectKNearestInto) and returns the values.

template <typename Q>
concept Executor = requires(const Q& q) {
  q.Execute(QueryRequest{}, QueryOutput{});
};

/// Runs `request` on `q` into `out`, then returns `value()` or the error.
template <typename Q, typename Fn>
auto ExecuteThen(const Q& q, const QueryRequest& request,
                 const QueryOutput& out, const Fn& value)
    -> Result<decltype(value(size_t{}))> {
  const Result<QueryResponse> response = q.Execute(request, out);
  if (!response.ok()) return response.status();
  return value(response->written);
}

/// out[i] = d(pairs[i].first, pairs[i].second).
template <typename Q>
auto PointQueries(const Q& q,
                  std::span<const std::pair<Vertex, Vertex>> pairs) {
  std::vector<Vertex> sources;
  std::vector<Vertex> targets;
  for (const auto& [s, t] : pairs) {
    sources.push_back(s);
    targets.push_back(t);
  }
  std::vector<Dist> out(pairs.size(), kInfDist);
  if constexpr (Executor<Q>) {
    QueryRequest request;
    request.sources = sources;
    request.targets = targets;
    return ExecuteThen(q, request, QueryOutput(out),
                       [&](size_t) { return out; });
  } else {
    q.PointPairsInto(sources, targets, out.data());
    return out;
  }
}

/// out[i] = d(source, targets[i]).
template <typename Q>
auto BatchQuery(const Q& q, Vertex source, std::span<const Vertex> targets) {
  std::vector<Dist> out(targets.size(), kInfDist);
  if constexpr (Executor<Q>) {
    QueryRequest request;
    request.sources = std::span<const Vertex>(&source, 1);
    request.targets = targets;
    return ExecuteThen(q, request, QueryOutput(out),
                       [&](size_t) { return out; });
  } else {
    q.BatchQueryInto(source, targets, out.data());
    return out;
  }
}

/// result[i][j] = d(sources[i], targets[j]).
template <typename Q>
auto DistanceMatrix(const Q& q, std::span<const Vertex> sources,
                    std::span<const Vertex> targets) {
  std::vector<Dist> flat(sources.size() * targets.size(), kInfDist);
  const auto rows = [&](size_t) {
    std::vector<std::vector<Dist>> matrix(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      matrix[i].assign(flat.begin() + i * targets.size(),
                       flat.begin() + (i + 1) * targets.size());
    }
    return matrix;
  };
  if constexpr (Executor<Q>) {
    QueryRequest request;
    request.kind = QueryKind::kMatrix;
    request.sources = sources;
    request.targets = targets;
    return ExecuteThen(q, request, QueryOutput(flat), rows);
  } else {
    q.DistanceMatrixInto(
        sources, targets,
        MatrixRows{.flat = flat.data(), .stride = targets.size()});
    return rows(0);
  }
}

/// The k candidates nearest to `source` as (distance, candidate) pairs,
/// ascending, ties by candidate position, unreachable ones excluded.
template <typename Q>
auto KNearest(const Q& q, Vertex source, std::span<const Vertex> candidates,
              size_t k) {
  const size_t slots = std::min(k, candidates.size());
  std::vector<Dist> dists(slots);
  std::vector<Vertex> vertices(slots);
  const auto pairs = [&](size_t written) {
    std::vector<std::pair<Dist, Vertex>> out;
    for (size_t i = 0; i < written; ++i) {
      out.emplace_back(dists[i], vertices[i]);
    }
    return out;
  };
  if constexpr (Executor<Q>) {
    QueryRequest request;
    request.kind = QueryKind::kKNearest;
    request.sources = std::span<const Vertex>(&source, 1);
    request.targets = candidates;
    request.k = k;
    return ExecuteThen(q, request, QueryOutput(dists, vertices), pairs);
  } else {
    const std::vector<Dist> all = BatchQuery(q, source, candidates);
    return pairs(SelectKNearestInto(all, candidates, k, dists.data(),
                                    vertices.data(), &TlsQueryScratch()));
  }
}

}  // namespace hc2l::testing

#endif  // HC2L_TESTS_TEST_UTIL_H_
