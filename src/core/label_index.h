#ifndef HC2L_CORE_LABEL_INDEX_H_
#define HC2L_CORE_LABEL_INDEX_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/label_arena.h"
#include "common/mmap_file.h"
#include "core/query_common.h"
#include "hc2l/status.h"
#include "hierarchy/contraction.h"
#include "hierarchy/hierarchy.h"

namespace hc2l {

namespace io {
class Reader;
}  // namespace io

/// Construction options of both HC2L flavours.
struct Hc2lOptions {
  /// Balance threshold beta in (0, 0.5]; the paper selects 0.2 (Section 5).
  double beta = 0.2;
  /// Recursion stops when a subgraph has at most this many vertices; the
  /// remaining set forms a leaf node and is labelled like a cut.
  uint32_t leaf_size = 8;
  /// Tail pruning (Definition 4.18). Disabling it yields the naive
  /// upper-bound labelling of Section 4.2.1 (full distance arrays): ~10%
  /// larger labels, ~8-11% faster construction (see BuildOptions).
  bool tail_pruning = true;
  /// Degree-one contraction (Section 4.2.2). For a digraph the contractible
  /// set is decided on the undirected projection, so one-way pendant streets
  /// are stripped too and answered through the contraction mapping.
  /// Disabling indexes the full graph (ablation).
  bool contract_degree_one = true;
  /// Record route hints (the first core-graph hop toward every hub; for a
  /// digraph also the predecessor from every hub) next to the distance
  /// labels, enabling label-based path unpacking (Route). Disabling builds a
  /// distance-only index whose file omits the hint sections; routes then
  /// require a graph-backed fallback unpacker.
  bool route_hints = true;
  /// Number of construction threads; >1 gives the paper's HC2L_p variant.
  /// Query processing is always single-threaded per query.
  uint32_t num_threads = 1;
};

/// One member of a shard manifest's arena layout (LayOutMembers): its core
/// vertices and its slice's entries in each direction's arenas (4096-byte
/// aligned; a hint arena is sliced like its label arena).
struct MemberSlice {
  uint64_t core_vertices = 0;
  std::array<uint64_t, 2> entries{};
};

/// The index magic (HC2L0004 or HC2D0004) the shard manifest at `path`
/// stands for. Errors: kNotFound, kInvalidArgument (not a manifest),
/// kDataLoss (corrupt).
Result<uint64_t> ManifestFlavour(const std::string& path);

/// The pendant contraction a flavour answers through.
template <int kDirections>
using LabelContraction =
    std::conditional_t<kDirections == 1, DegreeOneContraction,
                       DirectedDegreeOneContraction>;

/// The graph a flavour indexes, and that its label walk recurses over.
template <int kDirections>
using LabelGraph = std::conditional_t<kDirections == 1, Graph, Digraph>;

/// The label-index core shared by both HC2L flavours: a balanced tree
/// hierarchy over the (optionally contracted) core graph and, per
/// direction, one cache-aligned label store plus an optional route-hint
/// store. A query is one min-plus of two label arrays at the LCA level
/// (Eq. 7): the source's out-array against the target's in-array. The
/// undirected index (kDirections = 1) keeps one store that serves both
/// sides; the directed one (kDirections = 2, Section 5.3) keeps out =
/// d(v -> hub) in direction 0 and in = d(hub -> v) in direction 1.
///
/// Everything that only reads labels lives here: point, batch, matrix and
/// k-nearest queries, route unpacking, size accounting and the sectioned
/// store I/O. The flavours add construction and their meta-section body.
template <int kDirections>
class LabelIndex {
  static_assert(kDirections == 1 || kDirections == 2);

 public:
  using Contraction = LabelContraction<kDirections>;

  /// Sentinel stored in labels for "unreachable from this hub".
  static constexpr uint32_t kUnreachableLabel = UINT32_MAX;

  LabelIndex(LabelIndex&&) = default;
  LabelIndex& operator=(LabelIndex&&) = default;

  /// Exact shortest-path distance d(s -> t) (kInfDist if t is unreachable
  /// from s).
  Dist Query(Vertex s, Vertex t) const;

  /// Query() that additionally adds the hub entries it scanned to
  /// *hubs_scanned (when non-null) — the quantity averaged in Table 3's AHS
  /// column.
  Dist QueryCountingHubs(Vertex s, Vertex t, uint64_t* hubs_scanned) const;

  /// Pairwise: writes out[i] = Query(sources[i], targets[i]) for every i
  /// (the spans have equal length), bit for bit. Pairs go through in groups
  /// of 16, stage by stage — resolve, LCA level, offset entries, operand
  /// arrays, min-plus — prefetching each stage's loads for the whole group
  /// before the next stage reads them, so the group's cache misses overlap
  /// instead of running one pair after another (docs/query_kernel.md).
  void PointPairsInto(std::span<const Vertex> sources,
                      std::span<const Vertex> targets, Dist* out) const;

  /// One-to-many, the bulk interface for the paper's motivating workloads
  /// (Section 1: matching cars to customers, k-nearest POIs): writes
  /// out[i] = d(source, targets[i]) for every i (every slot is written; no
  /// pre-fill needed). The source side is resolved once and targets are
  /// swept grouped by LCA level. Working
  /// memory comes from the calling thread's QueryScratch, so steady-state
  /// calls do not allocate — the primitive under the facade's zero-copy
  /// request path.
  void BatchQueryInto(Vertex source, std::span<const Vertex> targets,
                      Dist* out) const;

  /// The many-to-many primitive under every matrix path: writes
  /// rows.Row(i)[j] = d(sources[i], targets[j]) for every cell. Both sides
  /// are split down the hierarchy by tree code, so the matrix falls into
  /// dense blocks that each share one LCA level and are min-reduced against
  /// a transposed target panel (BlockedDistanceMatrix,
  /// src/core/query_common.h); a lone source is swept by level. Polls
  /// `stop` every ~2k cells and returns false as soon as it fires (rows
  /// then unspecified). Working memory is the calling thread's
  /// QueryScratch, so steady-state calls do not allocate.
  bool DistanceMatrixInto(std::span<const Vertex> sources,
                          std::span<const Vertex> targets,
                          const MatrixRows& rows, StopPoll stop = {}) const;

  /// Reconstructs one shortest path s -> t from the labels: out->vertices
  /// holds the full original-id sequence (s first, t last; the single
  /// vertex for s == t; empty when unreachable) and out->weight the path
  /// weight, which always equals Query(s, t). Every consecutive pair is a
  /// real edge (arc, traversed in its direction) of the indexed graph.
  /// Vertex ids must be in range (the facade validates). Errors:
  /// kFailedPrecondition (no route hints — use a graph-backed fallback),
  /// kInternal (hint invariants broken, e.g. a corrupt hint store).
  Status Route(Vertex s, Vertex t, RoutePath* out) const;

  /// Up to k alternative routes s -> t, sorted ascending by weight; the
  /// first is a shortest path (Route's answer). Alternatives are built by
  /// routing via the other separator hubs of the s/t cut level and deduped
  /// by vertex sequence (plateaux-style: a via-hub already on a selected
  /// route adds nothing new). Fewer than k may return; an unreachable pair
  /// returns an empty list. k == 0 is an empty list. Error contract as
  /// Route.
  Status Routes(Vertex s, Vertex t, size_t k,
                std::vector<RoutePath>* out) const;

  /// Number of vertices of the indexed graph (before contraction).
  size_t NumVertices() const { return num_vertices_; }

  /// True when the index carries route hints (built with route_hints, or
  /// loaded from a file with hint sections) and can unpack paths without a
  /// graph.
  bool HasRouteHints() const { return !hints_[0].base.empty(); }

  /// Vertices surviving into the labelled core (== NumVertices() without
  /// contraction).
  size_t NumCoreVertices() const { return labels_[0].base.size() - 1; }

  /// Vertices removed by degree-one contraction (0 when disabled).
  size_t NumContracted() const {
    return contraction_ == nullptr ? 0 : contraction_->NumContracted();
  }

  /// The balanced tree hierarchy (over the core graph).
  const BalancedTreeHierarchy& Hierarchy() const { return hierarchy_; }

  /// The hierarchy's height: the bound on every LCA level the batch path
  /// buckets by (recomputed from the codes when loaded from a file).
  uint32_t TreeHeight() const { return height_; }

  /// Stored distance entries over every direction (padding excluded).
  size_t NumEntries() const;

  /// Logical label size in bytes: distance data + per-level offsets over
  /// every direction (Hc2lStats::label_bytes for the undirected index).
  size_t LabelLogicalBytes() const;

  /// Resident label storage in bytes: the cache-aligned arenas (including
  /// their sentinel padding) plus offset tables; excludes LCA codes.
  size_t LabelSizeBytes() const;

  /// Bytes needed for O(1) LCA lookups (Table 3's "LCA Storage").
  size_t LcaStorageBytes() const { return hierarchy_.LcaStorageBytes(); }

  /// Label and hint bytes (arenas + offset tables) served straight from the
  /// file mapping (0 for a built or heap-loaded index). The IndexInfo
  /// mapped_bytes/heap_bytes split.
  size_t MappedBytes() const;

  /// Total label + hint arena and offset-table bytes regardless of
  /// backing; ArenaResidentBytes() - MappedBytes() is what the label
  /// structures hold on the heap.
  size_t ArenaResidentBytes() const;

  /// Re-lays every label and hint arena for a shard manifest: member k's
  /// core vertices (those with member_of[v] == k, one entry per core
  /// vertex) get their arrays back to back in one page-aligned slice,
  /// members in order. Only the arena offsets move; every answer stays.
  void LayOutMembers(std::span<const uint32_t> member_of,
                     uint32_t num_members);

  /// The member slices of a sharded layout (LayOutMembers, or an open of
  /// a shard manifest); empty for a compact store — built, relabelled or
  /// opened from an ordinary file.
  const std::vector<MemberSlice>& Members() const { return members_; }

 protected:
  /// Direction 0 holds the source-side (out) arrays, the last direction the
  /// target-side (in) arrays; the undirected index reads one store twice.
  static constexpr int kOut = 0;
  static constexpr int kIn = kDirections - 1;

  LabelIndex() = default;
  ~LabelIndex() = default;

  /// Query over core ids (labels + hierarchy only).
  Dist CoreQuery(Vertex s, Vertex t, uint64_t* hubs_scanned) const;

  /// v's contraction root, its tree code and the detour between them (pos
  /// left 0): climbing to the root as a source (DistToRoot), descending
  /// from it as a target (DistFromRoot).
  ResolvedVertex Resolve(Vertex v, bool as_source) const;

  /// Hint-store walk over core ids: writes the full core-id shortest path
  /// cs..ct (inclusive; cleared first) into *out. Requires HasRouteHints().
  /// kInternal when the hints are inconsistent with the labels.
  Status CoreRoute(Vertex cs, Vertex ct, std::vector<Vertex>* out) const;

  /// Maps a core-id path back to original ids and splices s's upward and
  /// t's downward pendant chains around it (`weight` is the known total).
  Status ExpandRoute(Vertex s, Vertex t, Dist weight,
                     const std::vector<Vertex>& core_path,
                     RoutePath* out) const;

  /// Build() of both flavours: the pendant contraction of `g` (when
  /// options.contract_degree_one), then the hierarchy and every store over
  /// the core in one label walk (src/core/label_walk.cc) — balanced cuts
  /// (on the undirected projection of a digraph), Eq. 6 cut ranking,
  /// tail-pruned labels, route hints when options.route_hints, nodes
  /// numbered in level order. Returns the number of shortcuts it added.
  uint64_t BuildLabels(const LabelGraph<kDirections>& g,
                       const Hc2lOptions& options);

  /// Saves the sectioned file: the meta section holds the flavour's body
  /// (`write_body`), then the hierarchy and every direction's store counts;
  /// each direction's offsets, label arena and (with hints) hint arena
  /// follow as their own sections.
  /// With `manifest` (a member layout is required) it saves a shard
  /// manifest instead: the same meta and offsets sections and a member
  /// table, magic HC2S0002, and member k's slice of every arena in
  /// `<manifest filename>.<k>` next to it.
  Status SaveSections(const std::string& path, uint64_t magic, bool manifest,
                      const std::function<bool(std::FILE*)>& write_body) const;

  /// Loads a file written by SaveSections, either form, into this empty index
  /// (a manifest's arenas are read from its member files, or mapped into one
  /// reserved address range). `name` labels the format in error messages.
  /// `parse_body` reads the flavour's meta body; after the shared checks —
  /// every direction present with or without hints alike, code tables covering
  /// every core vertex, and every vertex owning at least depth+1 arrays in
  /// every store, so any LCA level indexes inside its range — `check_body(core
  /// vertex count)` runs the flavour's contraction checks. Errors as
  /// SectionFile::Open, then kDataLoss for any failed parse or check.
  Status LoadSections(const std::string& path, const std::string& name,
                      uint64_t magic, bool use_mmap,
                      const std::function<bool(io::Reader*)>& parse_body,
                      const std::function<bool(size_t)>& check_body);

  /// Original vertex count (the core count plus contracted pendants).
  uint64_t num_vertices_ = 0;
  /// Degree-one contraction; null when options.contract_degree_one == false
  /// (then core ids == original ids).
  std::unique_ptr<Contraction> contraction_;
  BalancedTreeHierarchy hierarchy_;
  /// Cached hierarchy height: the batch path's level bucketing must not
  /// rescan every tree node per call.
  uint32_t height_ = 0;
  /// Per-direction cache-aligned labels indexed by core id: vertex v's
  /// level-k array starts at arena[level_start[base[v] + k]] and holds
  /// level_len[base[v] + k] entries.
  std::array<LabelStore, kDirections> labels_;
  /// Route hints, shaped exactly like the matching label store (same offset
  /// tables): out entry (v, level, i) is the first core hop of a shortest
  /// path from v toward that level's i-th hub, in entry the predecessor of
  /// v on a shortest path from the hub (kInvalidVertex for the hub itself
  /// or an unreachable hub). Empty when the index is hint-less.
  std::array<LabelStore, kDirections> hints_;
  /// The mappings backing view-mode tables and arenas (Load with use_mmap:
  /// the file, plus a manifest's reserved range of member slices); empty
  /// otherwise. Held for lifetime only — access goes through the stores.
  std::vector<std::shared_ptr<MappedFile>> mappings_;
  /// The member layout of the arenas (Members()).
  std::vector<MemberSlice> members_;
};

extern template class LabelIndex<1>;
extern template class LabelIndex<2>;

}  // namespace hc2l

#endif  // HC2L_CORE_LABEL_INDEX_H_
