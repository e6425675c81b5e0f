#ifndef HC2L_CORE_DIRECTED_HC2L_H_
#define HC2L_CORE_DIRECTED_HC2L_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/label_arena.h"
#include "common/mmap_file.h"
#include "core/query_common.h"
#include "graph/digraph.h"
#include "hc2l/status.h"
#include "hierarchy/contraction.h"
#include "hierarchy/hierarchy.h"

namespace hc2l {

/// Options for the directed HC2L extension.
struct DirectedHc2lOptions {
  double beta = 0.2;
  uint32_t leaf_size = 8;
  bool tail_pruning = true;
  /// Degree-one contraction over the underlying undirected projection
  /// (Section 4.2.2 ported to digraphs): pendant chains — including one-way
  /// pendant streets — are stripped before the hierarchy is built and
  /// answered through the contraction mapping. Disabling indexes the full
  /// digraph (ablation).
  bool contract_degree_one = true;
  /// Record per-direction route hints next to the labels (out: first hop of
  /// v -> hub; in: predecessor on hub -> v), enabling label-based path
  /// unpacking (Route). Disabling omits the hint sections from the saved
  /// file; routes then need a graph-backed fallback unpacker.
  bool route_hints = true;
  /// Construction threads (shared pool); queries stay single-threaded.
  uint32_t num_threads = 1;
};

/// Directed-graph HC2L (the Section 5.3 extension).
///
/// Vertex cuts are computed on the undirected projection, so they separate
/// paths in both directions; every label level stores *two* distance arrays
/// per vertex — an out-array d(v -> hub) and an in-array d(hub -> v) — each
/// tail-pruned independently per direction. A query min-reduces the source's
/// out-array against the target's in-array at the LCA level:
///   d(s -> t) = min_r d(s -> r) + d(r -> t),  r in cut(LCA(s, t)).
///
/// Degree-one contraction (on by default, as in the undirected index)
/// strips pendant trees of the underlying projection and builds the
/// hierarchy over the directed core only. Distances through a pendant chain
/// resolve as per-direction offsets to its root — for one-way pendant edges
/// that means offset-to-root in the existing direction and unreachable in
/// the other — and same-tree queries climb to the in-tree LCA
/// (DirectedDegreeOneContraction, src/hierarchy/contraction.h).
class DirectedHc2lIndex {
 public:
  static constexpr uint32_t kUnreachableLabel = UINT32_MAX;

  /// Builds an index over the digraph.
  static DirectedHc2lIndex Build(const Digraph& g,
                                 const DirectedHc2lOptions& options = {});

  /// Exact directed distance d(s -> t); kInfDist if t is unreachable from s.
  Dist Query(Vertex s, Vertex t) const;

  /// One-to-many: d(source -> targets[i]) for every target, in order. Mirrors
  /// the undirected fast path: the source's out-array side is hoisted and
  /// targets are swept grouped by LCA level.
  std::vector<Dist> BatchQuery(Vertex source,
                               std::span<const Vertex> targets) const;

  /// Span-writing BatchQuery: writes out[i] = d(source -> targets[i]) for
  /// every i (every slot is written). Working memory reuses the calling
  /// thread's QueryScratch, so steady-state calls do not allocate.
  void BatchQueryInto(Vertex source, std::span<const Vertex> targets,
                      Dist* out) const;

  /// Many-to-many: result[i][j] = d(sources[i] -> targets[j]).
  std::vector<std::vector<Dist>> DistanceMatrix(
      std::span<const Vertex> sources, std::span<const Vertex> targets) const;

  /// The directed twin of Hc2lIndex::DistanceMatrixInto: the same blocked
  /// matrix with source out-arrays against target in-arrays. Returns false
  /// iff `stop` fired.
  bool DistanceMatrixInto(std::span<const Vertex> sources,
                          std::span<const Vertex> targets,
                          const MatrixRows& rows, StopPoll stop = {}) const;

  /// The k candidates nearest *from* `source` by directed distance (ties
  /// broken deterministically by candidate order), sorted ascending;
  /// unreachable candidates excluded.
  std::vector<std::pair<Dist, Vertex>> KNearest(
      Vertex source, std::span<const Vertex> candidates, size_t k) const;

  /// Number of vertices of the indexed digraph (before contraction).
  size_t NumVertices() const { return num_vertices_; }

  /// True when the index carries route hints (built with route_hints, or
  /// loaded from a file with hint sections) and can unpack paths without a
  /// digraph.
  bool HasRouteHints() const { return !out_hints_.base.empty(); }

  /// Reconstructs one shortest directed path s -> t: out->vertices holds the
  /// full original-id sequence (s first, t last; the single vertex for
  /// s == t; empty when t is unreachable from s) and out->weight the path
  /// weight, always equal to Query(s, t). Every consecutive pair is a real
  /// arc of the digraph, traversed in its direction. Errors:
  /// kFailedPrecondition (no route hints), kInternal (corrupt hint store).
  Status Route(Vertex s, Vertex t, RoutePath* out) const;

  /// Up to k alternative directed routes s -> t, sorted ascending by weight;
  /// the first is Route's shortest path. Alternatives route via the other
  /// separator hubs of the pair's LCA level, deduped plateaux-style. Error
  /// contract as Route.
  Status Routes(Vertex s, Vertex t, size_t k,
                std::vector<RoutePath>* out) const;

  /// Vertices surviving into the labelled core (== NumVertices() without
  /// contraction).
  size_t NumCoreVertices() const { return out_labels_.base.size() - 1; }

  /// Vertices removed by degree-one contraction (0 when disabled).
  size_t NumContracted() const {
    return contraction_ == nullptr ? 0 : contraction_->NumContracted();
  }

  const BalancedTreeHierarchy& Hierarchy() const { return hierarchy_; }

  /// Total stored distance entries (both directions, padding excluded).
  size_t NumEntries() const;

  /// Logical label size in bytes (distance data + per-level offsets, both
  /// directions) — same definition as the undirected Hc2lStats::label_bytes.
  size_t LabelLogicalBytes() const;

  /// Resident label storage in bytes (aligned arenas + offset tables).
  size_t LabelSizeBytes() const;

  /// Serializes the index (hierarchy + both label stores) as the sectioned,
  /// mmap-able HC2D0004: a 64-byte-aligned section table; metadata, one
  /// offsets section per direction and the raw arenas as separate sections
  /// (two label arenas, plus two hint arenas when the index has hints).
  Status Save(const std::string& path) const;

  /// Loads an index previously written by Save() (HC2D0004; hint sections
  /// restore route hints). Errors: kNotFound (cannot open),
  /// kInvalidArgument (not a directed HC2L file), kDataLoss (truncated or
  /// corrupt, including a file with only one direction's hint arena).
  static Result<DirectedHc2lIndex> Load(const std::string& path);

  /// Load with an explicit open mode. With use_mmap the arenas are mapped
  /// in place (O(1) open: only the metadata section is parsed and the label
  /// pages are advised MADV_RANDOM). A mapped index answers queries
  /// identically to a heap-loaded one.
  static Result<DirectedHc2lIndex> Load(const std::string& path,
                                        bool use_mmap);

  /// Bytes of label/hint storage (arenas + offset tables) backed by a file
  /// mapping rather than the heap (0 for heap-loaded or built indexes).
  size_t MappedBytes() const;

  /// Total arena and offset-table bytes of all four stores regardless of
  /// backing; ArenaResidentBytes() - MappedBytes() is what the label
  /// structures hold on the heap.
  size_t ArenaResidentBytes() const;

 private:
  DirectedHc2lIndex() = default;
  friend class DirectedHc2lBuilder;

  /// Query over core ids (labels + hierarchy only).
  Dist CoreQuery(Vertex s, Vertex t) const;

  /// v's contraction root, its tree code and the detour between them (pos
  /// left 0): climbing to the root as a source (DistToRoot), descending
  /// from it as a target (DistFromRoot).
  ResolvedVertex Resolve(Vertex v, bool as_source) const;

  /// Hint-store walk over core ids: the full core-id shortest directed path
  /// cs..ct (inclusive; cleared first) into *out. Requires HasRouteHints().
  Status CoreRoute(Vertex cs, Vertex ct, std::vector<Vertex>* out) const;

  /// Maps a core-id path back to original ids and splices s's upward and
  /// t's downward pendant chains around it (`weight` is the known total).
  Status ExpandRoute(Vertex s, Vertex t, Dist weight,
                     const std::vector<Vertex>& core_path,
                     RoutePath* out) const;

  /// Original vertex count (the core count plus contracted pendants).
  uint64_t num_vertices_ = 0;
  /// Pendant contraction; null when options.contract_degree_one == false
  /// (then core ids == original ids).
  std::unique_ptr<DirectedDegreeOneContraction> contraction_;
  BalancedTreeHierarchy hierarchy_;
  // Cached hierarchy height: the batch path's level bucketing must not
  // rescan every tree node per call.
  uint32_t height_ = 0;
  // Per-direction cache-aligned labels, same layout as the undirected index
  // (see LabelStore): out = d(v -> hub), in = d(hub -> v). Indexed by core
  // ids.
  LabelStore out_labels_;
  LabelStore in_labels_;
  // Per-direction route hints, shaped exactly like the matching label store
  // (same offset tables): out entry (v, level, i) is the first core hop of
  // a shortest v -> hub_i path, in entry the predecessor of v on a shortest
  // hub_i -> v path (kInvalidVertex for the hub itself or an unreachable
  // hub). Empty when the index is hint-less.
  LabelStore out_hints_;
  LabelStore in_hints_;
  // Keeps an mmap-backed file alive while any arena above is a view into
  // it; null for heap-loaded or built indexes.
  std::shared_ptr<MappedFile> mapping_;
};

}  // namespace hc2l

#endif  // HC2L_CORE_DIRECTED_HC2L_H_
