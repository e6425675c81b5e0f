#ifndef HC2L_GRAPH_GRAPH_H_
#define HC2L_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace hc2l {

/// One outgoing arc of a vertex: target vertex and arc weight.
struct Arc {
  Vertex to;
  Weight weight;

  friend bool operator==(const Arc& a, const Arc& b) {
    return a.to == b.to && a.weight == b.weight;
  }
};

/// An undirected weighted edge, used when assembling graphs.
struct Edge {
  Vertex u;
  Vertex v;
  Weight weight;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.u == b.u && a.v == b.v && a.weight == b.weight;
  }
};

/// Immutable weighted graph in compressed-sparse-row (CSR) form.
///
/// The library treats graphs as undirected road networks: every edge is
/// stored as two arcs. Use GraphBuilder to assemble one. All algorithms in
/// this repository (partitioning, labelling, baselines) operate on this type.
class Graph {
 public:
  Graph() = default;

  /// Number of vertices.
  size_t NumVertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of undirected edges (arcs / 2).
  size_t NumEdges() const { return arcs_.size() / 2; }

  /// Number of stored arcs (directed half-edges).
  size_t NumArcs() const { return arcs_.size(); }

  /// Outgoing arcs of v.
  std::span<const Arc> Neighbors(Vertex v) const {
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }

  /// Degree of v.
  size_t Degree(Vertex v) const { return offsets_[v + 1] - offsets_[v]; }

  /// All edges with u < v, reconstructed from the arc lists.
  std::vector<Edge> UndirectedEdges() const;

  /// Approximate in-memory footprint in bytes (CSR arrays).
  size_t MemoryBytes() const {
    return offsets_.size() * sizeof(uint64_t) + arcs_.size() * sizeof(Arc);
  }

  /// Sets the weight of the existing edge {u, v} — both stored arc copies —
  /// to w. The one mutation the CSR form admits without rebuilding: topology
  /// (vertex set, adjacency) is untouched, which is exactly the contract of
  /// a Section 5.4 dynamic weight update. Returns false (and changes
  /// nothing) if u or v is out of range, u == v, or no such edge exists.
  bool UpdateEdgeWeight(Vertex u, Vertex v, Weight w);

  /// Byte-for-byte CSR equality (same vertices, same arcs in the same
  /// order) — the repair walk's clean-subtree oracle.
  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  friend class GraphBuilder;

  std::vector<uint64_t> offsets_;  // size NumVertices() + 1
  std::vector<Arc> arcs_;
};

/// Assembles an undirected Graph from an edge list.
///
/// Duplicate (parallel) edges are collapsed keeping the minimum weight, and
/// self-loops are dropped — both are harmless in shortest-path indexes and
/// appear in raw DIMACS data.
class GraphBuilder {
 public:
  /// Creates a builder for a graph with num_vertices vertices (ids
  /// 0 .. num_vertices-1).
  explicit GraphBuilder(size_t num_vertices) : num_vertices_(num_vertices) {}

  /// Adds the undirected edge {u, v} with positive weight w.
  void AddEdge(Vertex u, Vertex v, Weight w);

  /// Adds every edge in the list.
  void AddEdges(const std::vector<Edge>& edges);

  /// Builds the CSR graph. The builder must not be reused afterwards.
  Graph Build() &&;

 private:
  size_t num_vertices_;
  std::vector<Edge> edges_;
};

/// A subgraph extraction result: the induced graph plus id translations.
struct Subgraph {
  Graph graph;
  /// new id -> old id, size graph.NumVertices().
  std::vector<Vertex> to_parent;
};

/// Extracts the subgraph induced by `vertices` (ids in the parent graph),
/// optionally augmented with extra edges (given in *parent* ids; endpoints
/// must be members of `vertices`). Vertices are renumbered 0..k-1 in the
/// order given.
Subgraph InducedSubgraph(const Graph& parent, std::span<const Vertex> vertices,
                         std::span<const Edge> extra_parent_edges = {});

/// Connected components of g. Returns component id per vertex and the number
/// of components; component ids are dense in [0, num_components).
struct ComponentInfo {
  std::vector<uint32_t> component_of;
  size_t num_components = 0;
  /// Component sizes indexed by component id.
  std::vector<uint32_t> sizes;
};
ComponentInfo ConnectedComponents(const Graph& g);

/// Convenience: true iff g is connected (or empty).
bool IsConnected(const Graph& g);

}  // namespace hc2l

#endif  // HC2L_GRAPH_GRAPH_H_
