#ifndef HC2L_SHARD_SHARDED_INDEX_H_
#define HC2L_SHARD_SHARDED_INDEX_H_

/// Sharded HC2L serving for continental-scale graphs.
///
/// A ShardedIndex cuts the input graph into `num_shards` vertex regions
/// (recursive balanced cuts, src/partition/balanced_cut.h), builds one
/// ordinary HC2L index per shard, and stitches cross-shard answers back
/// together through the *boundary vertices* — the endpoints of edges whose
/// ends fall in different regions. Each shard indexes the subgraph induced
/// by its region PLUS every foreign boundary vertex adjacent to it, and a
/// global |B| x |B| table D of boundary-pair distances (computed on the full
/// graph at shard time) bridges the shards:
///
///   d(s, t) = min( d_i(s, t)                      if i == j,
///                  min_{u in B_i, v in B_j} d_i(s, u) + D(u, v) + d_j(v, t) )
///
/// where i/j are the home shards of s/t and B_i is shard i's boundary set.
/// The formula is exact — decompose a global shortest path at the last
/// vertex whose prefix stays in shard i and the first vertex whose suffix
/// stays in shard j; both are boundary vertices, and a path that never
/// leaves one shard is covered by the direct term or the u == v pairs — so
/// sharded distances are bit-identical to the monolithic index over the
/// same graph (pinned by tests/differential_oracle_test.cc for all seeds of
/// both flavours). Routes splice shard-local unpacked paths with
/// recursively expanded boundary-to-boundary segments, so every reported
/// route remains a real path of the original graph.
///
/// On disk a sharded index is a *manifest* (magic HC2S0001: the partition
/// tables, boundary sets and D) next to one ordinary index file per shard
/// (HC2L0004/HC2D0004). Router::Open sniffs the manifest magic, so the
/// facade, server and CLI serve a sharded index through the same surface as
/// a monolithic one; OpenMode::kMmap maps every member shard's label arenas
/// in place. Byte-level spec: docs/format.md.
///
/// Thread-safety: all query methods are const and safe to call concurrently
/// (working memory is per-thread); the index is immutable after Build/Load.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/directed_hc2l.h"
#include "core/hc2l.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "hc2l/status.h"

namespace hc2l {

/// Options for ShardedIndex::Build.
struct ShardOptions {
  /// Number of partitions. Must be in [1, NumVertices]. The partitioner
  /// recursively splits the largest region, so exactly this many non-empty
  /// regions come out.
  uint32_t num_shards = 2;
  /// Balance threshold of each recursive BalancedCut in (0, 0.5].
  double partition_beta = 0.25;
  /// Per-shard index construction (Hc2lOptions).
  /// Route hints are always on — cross-shard Route needs every shard to
  /// unpack its own segments.
  double build_beta = 0.2;
  uint32_t leaf_size = 8;
  bool tail_pruning = true;
  bool contract_degree_one = true;
  /// Threads for the per-shard builds and the boundary-pair table (one full
  /// Dijkstra per boundary vertex); 0 = all hardware threads.
  uint32_t num_threads = 1;
};

class ShardedIndex {
 public:
  /// Partitions `g`, builds one index per shard and the boundary-pair
  /// table. Errors: kInvalidArgument (empty graph, num_shards out of
  /// [1, NumVertices], bad options).
  static Result<ShardedIndex> Build(const Graph& g,
                                    const ShardOptions& options = {});
  static Result<ShardedIndex> Build(const Digraph& g,
                                    const ShardOptions& options = {});

  /// Writes the manifest to `manifest_path` and each shard's index next to
  /// it as `<manifest-filename>.<k>` (paths stored relative, so the
  /// directory relocates as a unit). Errors: kInternal (I/O failure).
  Status Save(const std::string& manifest_path) const;

  /// Loads a manifest and every member shard; `use_mmap` maps each shard's
  /// label arenas in place (OpenMode::kMmap). Shard paths are resolved
  /// relative to the manifest's directory and must stay inside it (no
  /// absolute paths, no ".."). Errors: kNotFound, kInvalidArgument (wrong
  /// magic), kDataLoss (corrupt manifest or shard, or manifest/shard
  /// mismatch).
  static Result<ShardedIndex> Load(const std::string& manifest_path,
                                   bool use_mmap);

  // --- Query surface (the BasicQueryEngine contract, so the engine and
  // facade template over ShardedIndex exactly like the concrete indexes) ---

  /// Exact distance d(s, t) — directed when directed() — bit-identical to
  /// the monolithic index over the same graph.
  Dist Query(Vertex s, Vertex t) const;

  /// Writes out[i] = Query(sources[i], targets[i]) for every i (the spans
  /// have equal length), one pair at a time.
  void PointPairsInto(std::span<const Vertex> sources,
                      std::span<const Vertex> targets, Dist* out) const;

  /// Writes out[i] = d(source, targets[i]) for every i. One shard batch
  /// computes the source-to-boundary row, the boundary join folds through
  /// D, and targets are answered grouped by home shard. Steady-state calls
  /// do not allocate (per-thread scratch).
  void BatchQueryInto(Vertex source, std::span<const Vertex> targets,
                      Dist* out) const;

  /// Many-to-many under the monolithic indexes' contract (returns false iff
  /// `stop` fired): one BatchQueryInto per row and kMatrixPollCells
  /// targets, polling `stop` before each, since the boundary join resolves
  /// per source anyway.
  bool DistanceMatrixInto(std::span<const Vertex> sources,
                          std::span<const Vertex> targets,
                          const MatrixRows& rows, StopPoll stop = {}) const;

  /// Reconstructs one shortest path s..t across shards: shard-local hint
  /// walks spliced with boundary-to-boundary expansions. Same contract as
  /// the monolithic Route (full original-id sequence, weight == Query(s, t),
  /// empty when unreachable); every consecutive pair is a real edge/arc.
  Status Route(Vertex s, Vertex t, RoutePath* out) const;

  /// Up to k alternative routes, ascending by weight, first == Route's
  /// shortest path. Alternatives are forced through the other boundary
  /// vertices (plus the home shard's own alternatives when s and t share a
  /// shard), deduped by vertex sequence.
  Status Routes(Vertex s, Vertex t, size_t k, std::vector<RoutePath>* out) const;

  /// Number of vertices of the original (pre-partition) graph.
  size_t NumVertices() const { return num_vertices_; }

  bool directed() const { return directed_; }
  size_t NumShards() const {
    return directed_ ? dir_shards_.size() : und_shards_.size();
  }
  size_t NumBoundaryVertices() const { return boundary_.size(); }

  /// Always true: Build forces route hints on and Load rejects hint-less
  /// shards.
  bool HasRouteHints() const { return true; }

  /// Arena bytes served from file mappings across all shards (0 after Build
  /// or a heap Load).
  size_t MappedBytes() const;

  /// Total label + hint arena bytes across all shards regardless of
  /// backing.
  size_t ArenaResidentBytes() const;

  /// Member shards, for statistics aggregation (Router::Info). Exactly one
  /// of the two is non-empty.
  const std::vector<Hc2lIndex>& UndirectedShards() const {
    return und_shards_;
  }
  const std::vector<DirectedHc2lIndex>& DirectedShards() const {
    return dir_shards_;
  }

 private:
  ShardedIndex() = default;

  template <typename IndexT>
  void BatchImpl(const std::vector<IndexT>& shards, Vertex source,
                 std::span<const Vertex> targets, Dist* out) const;

  template <typename IndexT>
  Status RouteImpl(const std::vector<IndexT>& shards, Vertex s, Vertex t,
                   RoutePath* out) const;

  template <typename IndexT>
  Status RoutesImpl(const std::vector<IndexT>& shards, Vertex s, Vertex t,
                    size_t k, std::vector<RoutePath>* out) const;

  /// Appends the global-id vertex sequence of a shortest boundary-to-
  /// boundary path between boundary table indexes bu and bv (inclusive,
  /// weight exactly D[bu][bv]): either some shard holds both as boundary
  /// members at the exact distance, or an intermediate boundary vertex
  /// splits the pair and both halves recurse (strictly decreasing weights,
  /// so the recursion terminates).
  template <typename IndexT>
  Status ExpandBoundary(const std::vector<IndexT>& shards, uint32_t bu,
                        uint32_t bv, std::vector<Vertex>* out) const;

  /// Local id of boundary table index `b` inside shard `k`, or
  /// kInvalidVertex when the shard does not hold it.
  Vertex LocalBoundary(size_t k, uint32_t b) const;

  /// d(s, boundary[b]) for every b, via the home-shard boundary row folded
  /// through D (exact: the u == b term covers boundary members of the home
  /// shard). `row` must hold NumBoundaryVertices() slots.
  template <typename IndexT>
  void SourceToBoundary(const std::vector<IndexT>& shards, Vertex s,
                        Dist* row) const;

  /// d(boundary[b], t) for every b (directed: d(b -> t)).
  template <typename IndexT>
  void BoundaryToTarget(const std::vector<IndexT>& shards, Vertex t,
                        Dist* row) const;

  friend struct ShardedIndexBuilder;

  bool directed_ = false;
  uint64_t num_vertices_ = 0;
  // Exactly one non-empty, by flavour.
  std::vector<Hc2lIndex> und_shards_;
  std::vector<DirectedHc2lIndex> dir_shards_;
  // Home shard (the region it was partitioned into) and the local id there,
  // per original vertex. Boundary vertices are replicated into every
  // touching shard; these point at the home copy.
  std::vector<uint32_t> shard_of_;
  std::vector<Vertex> local_id_;
  // Global ids of all boundary vertices, ascending. Index into this array
  // ("boundary index") keys the distance table.
  std::vector<Vertex> boundary_;
  // Row-major |B| x |B| global distances between boundary vertices
  // (directed: row -> column).
  std::vector<Dist> dtable_;
  // Per shard: its boundary members as parallel (boundary index, local id)
  // arrays, ascending by boundary index.
  std::vector<std::vector<uint32_t>> bset_bidx_;
  std::vector<std::vector<Vertex>> bset_local_;
  // Per shard: local id -> original id (the induced-subgraph translation).
  std::vector<std::vector<Vertex>> to_global_;
};

}  // namespace hc2l

#endif  // HC2L_SHARD_SHARDED_INDEX_H_
