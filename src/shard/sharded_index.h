#ifndef HC2L_SHARD_SHARDED_INDEX_H_
#define HC2L_SHARD_SHARDED_INDEX_H_

/// Sharded HC2L storage for continental-scale graphs. The balanced tree
/// hierarchy already partitions the graph: a vertex's label holds only its
/// ancestors' cut arrays, so two subtrees below a labelled cut share
/// nothing. A ShardedIndex is therefore one ordinary index (HC2L_p at
/// `num_threads`, route hints on) split only in storage: Build cuts the
/// hierarchy into `num_shards` subtrees, largest first, one member each
/// (the cuts above them join member 0), and lays every arena out member by
/// member (LabelIndex::LayOutMembers); Save writes an HC2S0002 manifest and
/// one file per member holding its slice of every arena (docs/format.md).
/// Router::Open of a manifest returns the ordinary index, so every query,
/// route, engine and repair path is the monolithic code; this class keeps
/// only Build, Save, Load and thin forwards. Immutable after Build/Load;
/// the query methods are safe to call concurrently.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <variant>
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
  /// Number of members, in [1, NumVertices]. A hierarchy with fewer
  /// splittable subtrees (a tiny or heavily contracted graph) leaves the
  /// last members empty.
  uint32_t num_shards = 2;
  /// Index construction (Hc2lOptions); route hints are always on.
  double build_beta = 0.2;
  uint32_t leaf_size = 8;
  bool tail_pruning = true;
  bool contract_degree_one = true;
  /// Construction threads (HC2L_p); 0 = all hardware threads.
  uint32_t num_threads = 1;
};

class ShardedIndex {
 public:
  /// Builds the index and its member layout. Errors: kInvalidArgument
  /// (empty graph, num_shards out of [1, NumVertices], bad options).
  static Result<ShardedIndex> Build(const Graph& g,
                                    const ShardOptions& options = {});
  static Result<ShardedIndex> Build(const Digraph& g,
                                    const ShardOptions& options = {});

  /// Writes the manifest to `manifest_path` and member k next to it as
  /// `<manifest-filename>.<k>` (names stored relative, so the directory
  /// relocates as a unit). Errors: kUnavailable (I/O failure).
  Status Save(const std::string& manifest_path) const;

  /// Loads a manifest and its member files; `use_mmap` maps the members'
  /// slices in place (OpenMode::kMmap). Member names resolve relative to
  /// the manifest's directory and must stay inside it. Errors: kNotFound,
  /// kInvalidArgument (not a shard manifest), kDataLoss (corrupt manifest
  /// or member, or a member file of another build or slot).
  static Result<ShardedIndex> Load(const std::string& manifest_path,
                                   bool use_mmap);

  // Thin forwards to the ordinary index (the monolithic contracts).
  Dist Query(Vertex s, Vertex t) const {
    return std::visit([&](const auto& index) { return index.Query(s, t); },
                      index_);
  }
  void BatchQueryInto(Vertex source, std::span<const Vertex> targets,
                      Dist* out) const {
    std::visit(
        [&](const auto& index) { index.BatchQueryInto(source, targets, out); },
        index_);
  }
  Status Route(Vertex s, Vertex t, RoutePath* out) const {
    return std::visit(
        [&](const auto& index) { return index.Route(s, t, out); }, index_);
  }
  Status Routes(Vertex s, Vertex t, size_t k,
                std::vector<RoutePath>* out) const {
    return std::visit(
        [&](const auto& index) { return index.Routes(s, t, k, out); }, index_);
  }
  size_t NumVertices() const {
    return std::visit([](const auto& index) { return index.NumVertices(); },
                      index_);
  }
  size_t NumShards() const {
    return std::visit([](const auto& index) { return index.Members().size(); },
                      index_);
  }
  /// Arena and offset-table bytes served from file mappings (0 after Build
  /// or a heap Load).
  size_t MappedBytes() const {
    return std::visit([](const auto& index) { return index.MappedBytes(); },
                      index_);
  }

  /// Core vertices per member, in member order (member 0 includes the cut
  /// vertices above the subtrees).
  std::vector<uint64_t> MemberCoreVertices() const;

 private:
  using Index = std::variant<Hc2lIndex, DirectedHc2lIndex>;
  explicit ShardedIndex(Index index) : index_(std::move(index)) {}

  Index index_;
};

}  // namespace hc2l

#endif  // HC2L_SHARD_SHARDED_INDEX_H_
