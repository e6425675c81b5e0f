#ifndef HC2L_CORE_DIRECTED_HC2L_H_
#define HC2L_CORE_DIRECTED_HC2L_H_

#include <string>

#include "core/label_index.h"
#include "graph/digraph.h"
#include "hc2l/status.h"

namespace hc2l {

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
///
/// Queries, routes, size accounting, the store sections and the label walk
/// are the shared LabelIndex<2> core; this class adds the directed meta
/// body (the contraction's per-direction weights). With options.num_threads
/// > 1 the walk labels each hierarchy level's nodes in parallel and numbers
/// nodes in level order, so the saved file is byte-identical to the
/// single-threaded build's.
class DirectedHc2lIndex : public LabelIndex<2> {
 public:
  /// Builds an index over the digraph.
  static DirectedHc2lIndex Build(const Digraph& g,
                                 const Hc2lOptions& options = {});

  /// Serializes the index (hierarchy + both label stores) as the sectioned,
  /// mmap-able HC2D0004: a 64-byte-aligned section table; metadata, one
  /// offsets section per direction and the raw arenas as separate sections
  /// (two label arenas, plus two hint arenas when the index has hints).
  /// With `manifest`, an index with a member layout (LayOutMembers) saves
  /// as a shard manifest plus member files instead (docs/format.md).
  Status Save(const std::string& path, bool manifest = false) const;

  /// Loads an index previously written by Save() (HC2D0004, or an HC2S0002
  /// manifest of this flavour; hint sections restore route hints). Errors:
  /// kNotFound (cannot open), kInvalidArgument (not a directed HC2L file),
  /// kDataLoss (truncated or corrupt, including a file with only one
  /// direction's hint arena).
  static Result<DirectedHc2lIndex> Load(const std::string& path);

  /// Load with an explicit open mode. With use_mmap the arenas are mapped
  /// in place (O(1) open: only the metadata section is parsed and the label
  /// pages are advised MADV_RANDOM). A mapped index answers queries
  /// identically to a heap-loaded one.
  static Result<DirectedHc2lIndex> Load(const std::string& path,
                                        bool use_mmap);

 private:
  DirectedHc2lIndex() = default;
};

}  // namespace hc2l

#endif  // HC2L_CORE_DIRECTED_HC2L_H_
