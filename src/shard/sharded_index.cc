#include "shard/sharded_index.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.h"
#include "core/index_format.h"
#include "hierarchy/hierarchy.h"

namespace hc2l {

namespace {

/// Assigns every core vertex to one of `num_members` members by cutting
/// the hierarchy into subtrees: while there are fewer subtrees than
/// members, the largest subtree that has a child is replaced by its
/// children. Subtree k becomes member k; the cuts of the replaced nodes,
/// above every subtree, join member 0. A hierarchy that runs out of
/// splittable subtrees leaves the last members empty.
std::vector<uint32_t> MemberOfCore(const BalancedTreeHierarchy& h,
                                   size_t core_vertices,
                                   uint32_t num_members) {
  // Core vertices per subtree; the build numbers nodes parents first.
  const std::vector<HierarchyNode>& nodes = h.Nodes();
  std::vector<uint64_t> size(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) size[i] = nodes[i].cut.size();
  for (size_t i = nodes.size(); i-- > 1;) {
    HC2L_CHECK_LT(nodes[i].parent, static_cast<int32_t>(i));
    size[nodes[i].parent] += size[i];
  }
  std::vector<int32_t> subtrees{0};
  while (subtrees.size() < num_members) {
    size_t best = subtrees.size();
    for (size_t i = 0; i < subtrees.size(); ++i) {
      const HierarchyNode& node = nodes[subtrees[i]];
      const bool splittable = node.left >= 0 || node.right >= 0;
      if (splittable && (best == subtrees.size() ||
                         size[subtrees[i]] > size[subtrees[best]])) {
        best = i;
      }
    }
    if (best == subtrees.size()) break;  // only leaves left
    const HierarchyNode& split = nodes[subtrees[best]];
    subtrees[best] = split.left >= 0 ? split.left : split.right;
    if (split.left >= 0 && split.right >= 0) subtrees.push_back(split.right);
  }
  // Members by node, parents first: a subtree root names its member, and
  // every node below it inherits the member; nodes above stay in member 0.
  std::vector<int64_t> member(nodes.size(), -1);
  for (size_t k = 0; k < subtrees.size(); ++k) {
    member[subtrees[k]] = static_cast<int64_t>(k);
  }
  std::vector<uint32_t> member_of(core_vertices, 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (member[i] < 0 && i > 0) member[i] = member[nodes[i].parent];
    for (const Vertex v : nodes[i].cut) {
      member_of[v] = static_cast<uint32_t>(std::max<int64_t>(member[i], 0));
    }
  }
  return member_of;
}

/// The ordinary build (route hints on), then the member layout.
template <typename IndexT, typename GraphT>
Result<IndexT> BuildMembers(const GraphT& g, const ShardOptions& options) {
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot shard an empty graph");
  }
  if (options.num_shards == 0 || options.num_shards > g.NumVertices()) {
    return Status::InvalidArgument("num_shards must be in [1, NumVertices()]");
  }
  if (!(options.build_beta > 0.0 && options.build_beta <= 0.5) ||
      options.leaf_size == 0) {
    return Status::InvalidArgument(
        "build_beta must be in (0, 0.5] and leaf_size >= 1");
  }
  Hc2lOptions build;
  build.beta = options.build_beta;
  build.leaf_size = options.leaf_size;
  build.tail_pruning = options.tail_pruning;
  build.contract_degree_one = options.contract_degree_one;
  build.num_threads = options.num_threads != 0
                          ? options.num_threads
                          : std::max(1u, std::thread::hardware_concurrency());
  IndexT index = IndexT::Build(g, build);
  index.LayOutMembers(MemberOfCore(index.Hierarchy(), index.NumCoreVertices(),
                                   options.num_shards),
                      options.num_shards);
  return index;
}

}  // namespace

Result<ShardedIndex> ShardedIndex::Build(const Graph& g,
                                         const ShardOptions& options) {
  Result<Hc2lIndex> index = BuildMembers<Hc2lIndex>(g, options);
  if (!index.ok()) return index.status();
  return ShardedIndex(std::move(index).value());
}

Result<ShardedIndex> ShardedIndex::Build(const Digraph& g,
                                         const ShardOptions& options) {
  Result<DirectedHc2lIndex> index = BuildMembers<DirectedHc2lIndex>(g, options);
  if (!index.ok()) return index.status();
  return ShardedIndex(std::move(index).value());
}

Status ShardedIndex::Save(const std::string& manifest_path) const {
  return std::visit(
      [&](const auto& index) { return index.Save(manifest_path, true); },
      index_);
}

Result<ShardedIndex> ShardedIndex::Load(const std::string& manifest_path,
                                        bool use_mmap) {
  const Result<uint64_t> flavour = ManifestFlavour(manifest_path);
  if (!flavour.ok()) return flavour.status();
  const auto wrap = [](auto index) -> Result<ShardedIndex> {
    if (!index.ok()) return index.status();
    return ShardedIndex(std::move(index).value());
  };
  return *flavour == kDirectedIndexMagic
             ? wrap(DirectedHc2lIndex::Load(manifest_path, use_mmap))
             : wrap(Hc2lIndex::Load(manifest_path, use_mmap));
}

std::vector<uint64_t> ShardedIndex::MemberCoreVertices() const {
  std::vector<uint64_t> counts;
  std::visit(
      [&](const auto& index) {
        for (const MemberSlice& m : index.Members()) {
          counts.push_back(m.core_vertices);
        }
      },
      index_);
  return counts;
}

}  // namespace hc2l
