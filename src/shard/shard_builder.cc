#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "partition/balanced_cut.h"
#include "search/dijkstra.h"
#include "search/directed_dijkstra.h"
#include "shard/sharded_index.h"

namespace hc2l {

namespace {

/// Splits the vertex set into exactly `num_shards` disjoint non-empty
/// regions by recursively bisecting the currently largest region with
/// BalancedCut (the cut itself joins the smaller side). Regions of
/// disconnected or degenerate subgraphs that a cut cannot split fall back to
/// an id-order half split, so the recursion always makes progress.
std::vector<std::vector<Vertex>> PartitionRegions(const Graph& g,
                                                  uint32_t num_shards,
                                                  double beta) {
  std::vector<std::vector<Vertex>> regions(1);
  regions[0].resize(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) regions[0][v] = v;
  while (regions.size() < num_shards) {
    size_t largest = 0;
    for (size_t i = 1; i < regions.size(); ++i) {
      if (regions[i].size() > regions[largest].size()) largest = i;
    }
    std::vector<Vertex>& region = regions[largest];
    std::vector<Vertex> side_a;
    std::vector<Vertex> side_b;
    if (region.size() >= 2) {
      const Subgraph sub = InducedSubgraph(g, region);
      BalancedCutResult cut = BalancedCut(sub.graph, beta);
      std::vector<Vertex>* smaller =
          cut.part_a.size() <= cut.part_b.size() ? &cut.part_a : &cut.part_b;
      smaller->insert(smaller->end(), cut.cut.begin(), cut.cut.end());
      side_a.reserve(cut.part_a.size());
      for (const Vertex v : cut.part_a) side_a.push_back(sub.to_parent[v]);
      side_b.reserve(cut.part_b.size());
      for (const Vertex v : cut.part_b) side_b.push_back(sub.to_parent[v]);
    }
    if (side_a.empty() || side_b.empty()) {
      const size_t half = region.size() / 2;
      side_a.assign(region.begin(), region.begin() + half);
      side_b.assign(region.begin() + half, region.end());
    }
    std::sort(side_a.begin(), side_a.end());
    std::sort(side_b.begin(), side_b.end());
    region = std::move(side_a);
    regions.push_back(std::move(side_b));
  }
  return regions;
}

Status ValidateOptions(size_t num_vertices, const ShardOptions& options) {
  if (num_vertices == 0) {
    return Status::InvalidArgument("cannot shard an empty graph");
  }
  if (options.num_shards == 0 || options.num_shards > num_vertices) {
    return Status::InvalidArgument(
        "num_shards must be in [1, NumVertices()]");
  }
  if (!(options.partition_beta > 0.0 && options.partition_beta <= 0.5)) {
    return Status::InvalidArgument("partition_beta must be in (0, 0.5]");
  }
  return Status::Ok();
}

uint32_t EffectiveThreads(uint32_t num_threads) {
  if (num_threads != 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

/// The per-shard index options of both flavours. Route hints are always
/// on: cross-shard Route needs every shard to unpack its own segments.
Hc2lOptions ShardIndexOptions(const ShardOptions& options) {
  Hc2lOptions shard_options;
  shard_options.beta = options.build_beta;
  shard_options.leaf_size = options.leaf_size;
  shard_options.tail_pruning = options.tail_pruning;
  shard_options.contract_degree_one = options.contract_degree_one;
  shard_options.route_hints = true;
  shard_options.num_threads = EffectiveThreads(options.num_threads);
  return shard_options;
}

}  // namespace

/// Assembles the partition tables shared by both flavours: region
/// assignment, boundary set, shard vertex sets (home region plus foreign
/// boundary replicas), local-id translations and the boundary-pair distance
/// table. The flavour-specific Build functions below supply the cross-edge
/// endpoint pairs and run the actual per-shard index constructions.
struct ShardedIndexBuilder {
  // (u, v) endpoint pairs of edges/arcs whose endpoints live in different
  // regions.
  static void AssembleTables(
      ShardedIndex* index, const std::vector<std::vector<Vertex>>& regions,
      const std::vector<std::pair<Vertex, Vertex>>& cross,
      std::vector<std::vector<Vertex>>* shard_vertices) {
    const size_t n = index->num_vertices_;
    const size_t num_shards = regions.size();
    index->shard_of_.assign(n, 0);
    for (size_t k = 0; k < num_shards; ++k) {
      for (const Vertex v : regions[k]) {
        index->shard_of_[v] = static_cast<uint32_t>(k);
      }
    }

    // Boundary = endpoints of cross edges, ascending; bindex_of inverts it.
    std::vector<Vertex> boundary;
    boundary.reserve(cross.size() * 2);
    for (const auto& [u, v] : cross) {
      boundary.push_back(u);
      boundary.push_back(v);
    }
    std::sort(boundary.begin(), boundary.end());
    boundary.erase(std::unique(boundary.begin(), boundary.end()),
                   boundary.end());
    index->boundary_ = std::move(boundary);
    std::vector<uint32_t> bindex_of(n, UINT32_MAX);
    for (size_t b = 0; b < index->boundary_.size(); ++b) {
      bindex_of[index->boundary_[b]] = static_cast<uint32_t>(b);
    }

    // Shard vertex sets: home region (already ascending), then the foreign
    // boundary endpoints of cross edges touching the region, sorted-unique.
    std::vector<std::vector<Vertex>> foreign(num_shards);
    for (const auto& [u, v] : cross) {
      foreign[index->shard_of_[v]].push_back(u);
      foreign[index->shard_of_[u]].push_back(v);
    }
    shard_vertices->resize(num_shards);
    for (size_t k = 0; k < num_shards; ++k) {
      std::vector<Vertex>& f = foreign[k];
      std::sort(f.begin(), f.end());
      f.erase(std::unique(f.begin(), f.end()), f.end());
      std::vector<Vertex>& sv = (*shard_vertices)[k];
      sv.reserve(regions[k].size() + f.size());
      sv.insert(sv.end(), regions[k].begin(), regions[k].end());
      for (const Vertex v : f) {
        if (index->shard_of_[v] != k) sv.push_back(v);
      }
    }

    // Local ids of the home copies, and per-shard boundary member tables
    // (ascending by boundary index == ascending by global id, since both
    // shard vertex halves are ascending and get merged by global id here).
    index->local_id_.assign(n, kInvalidVertex);
    index->bset_bidx_.assign(num_shards, {});
    index->bset_local_.assign(num_shards, {});
    for (size_t k = 0; k < num_shards; ++k) {
      const std::vector<Vertex>& sv = (*shard_vertices)[k];
      std::vector<std::pair<uint32_t, Vertex>> members;  // (bindex, local)
      for (size_t l = 0; l < sv.size(); ++l) {
        const Vertex v = sv[l];
        if (index->shard_of_[v] == k) {
          index->local_id_[v] = static_cast<Vertex>(l);
        }
        if (bindex_of[v] != UINT32_MAX) {
          members.emplace_back(bindex_of[v], static_cast<Vertex>(l));
        }
      }
      std::sort(members.begin(), members.end());
      index->bset_bidx_[k].reserve(members.size());
      index->bset_local_[k].reserve(members.size());
      for (const auto& [b, l] : members) {
        index->bset_bidx_[k].push_back(b);
        index->bset_local_[k].push_back(l);
      }
    }
  }

  static Result<ShardedIndex> Build(const Graph& g,
                                    const ShardOptions& options) {
    if (Status st = ValidateOptions(g.NumVertices(), options); !st.ok()) {
      return st;
    }
    ShardedIndex index;
    index.directed_ = false;
    index.num_vertices_ = g.NumVertices();
    const std::vector<std::vector<Vertex>> regions =
        PartitionRegions(g, options.num_shards, options.partition_beta);

    index.shard_of_.assign(g.NumVertices(), 0);
    for (size_t k = 0; k < regions.size(); ++k) {
      for (const Vertex v : regions[k]) {
        index.shard_of_[v] = static_cast<uint32_t>(k);
      }
    }
    std::vector<std::pair<Vertex, Vertex>> cross;
    for (const Edge& e : g.UndirectedEdges()) {
      if (index.shard_of_[e.u] != index.shard_of_[e.v]) {
        cross.emplace_back(e.u, e.v);
      }
    }
    std::vector<std::vector<Vertex>> shard_vertices;
    AssembleTables(&index, regions, cross, &shard_vertices);
    BuildDistanceTable(&index, EffectiveThreads(options.num_threads),
                       [&](Vertex u) { return AllDistancesFrom(g, u); });

    const Hc2lOptions shard_options = ShardIndexOptions(options);
    index.und_shards_.reserve(regions.size());
    index.to_global_.reserve(regions.size());
    for (const std::vector<Vertex>& sv : shard_vertices) {
      Subgraph sub = InducedSubgraph(g, sv);
      index.und_shards_.push_back(Hc2lIndex::Build(sub.graph, shard_options));
      index.to_global_.push_back(std::move(sub.to_parent));
    }
    return index;
  }

  static Result<ShardedIndex> Build(const Digraph& g,
                                    const ShardOptions& options) {
    if (Status st = ValidateOptions(g.NumVertices(), options); !st.ok()) {
      return st;
    }
    ShardedIndex index;
    index.directed_ = true;
    index.num_vertices_ = g.NumVertices();
    // Cuts on the undirected projection separate paths of both directions.
    const std::vector<std::vector<Vertex>> regions = PartitionRegions(
        g.UndirectedProjection(), options.num_shards, options.partition_beta);
    index.shard_of_.assign(g.NumVertices(), 0);
    for (size_t k = 0; k < regions.size(); ++k) {
      for (const Vertex v : regions[k]) {
        index.shard_of_[v] = static_cast<uint32_t>(k);
      }
    }
    std::vector<std::pair<Vertex, Vertex>> cross;
    for (const DirectedArc& a : g.AllArcs()) {
      if (index.shard_of_[a.from] != index.shard_of_[a.to]) {
        cross.emplace_back(a.from, a.to);
      }
    }
    std::vector<std::vector<Vertex>> shard_vertices;
    AssembleTables(&index, regions, cross, &shard_vertices);
    BuildDistanceTable(&index, EffectiveThreads(options.num_threads),
                       [&](Vertex u) {
                         return DirectedDistancesFrom(
                             g, u, SearchDirection::kForward);
                       });

    const Hc2lOptions shard_options = ShardIndexOptions(options);
    index.dir_shards_.reserve(regions.size());
    index.to_global_.reserve(regions.size());
    for (const std::vector<Vertex>& sv : shard_vertices) {
      Subdigraph sub = InducedSubdigraph(g, sv);
      index.dir_shards_.push_back(
          DirectedHc2lIndex::Build(sub.graph, shard_options));
      index.to_global_.push_back(std::move(sub.to_parent));
    }
    return index;
  }

  /// Fills the |B| x |B| boundary-pair table, one full-graph single-source
  /// search per boundary vertex (rows in parallel).
  template <typename DistancesFn>
  static void BuildDistanceTable(ShardedIndex* index, uint32_t num_threads,
                                 const DistancesFn& distances_from) {
    const size_t nb = index->boundary_.size();
    index->dtable_.assign(nb * nb, kInfDist);
    if (nb == 0) return;
    ThreadPool pool(num_threads);
    pool.ParallelFor(nb, [&](size_t row) {
      const std::vector<Dist> dist = distances_from(index->boundary_[row]);
      Dist* out = index->dtable_.data() + row * nb;
      for (size_t b = 0; b < nb; ++b) out[b] = dist[index->boundary_[b]];
    });
  }
};

Result<ShardedIndex> ShardedIndex::Build(const Graph& g,
                                         const ShardOptions& options) {
  return ShardedIndexBuilder::Build(g, options);
}

Result<ShardedIndex> ShardedIndex::Build(const Digraph& g,
                                         const ShardOptions& options) {
  return ShardedIndexBuilder::Build(g, options);
}

}  // namespace hc2l
