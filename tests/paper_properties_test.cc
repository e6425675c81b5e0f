// Tests pinning the paper's formal claims (lemmas and definitions) as
// executable properties, beyond plain answer-equality with Dijkstra.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/directed_hc2l.h"
#include "core/hc2l.h"
#include "graph/road_network_generator.h"
#include "hierarchy/tree_code.h"
#include "search/dijkstra.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::MakeGrid;

TEST(PaperProperties, Lemma42HeightBound) {
  // Lemma 4.2: height of H_G is bounded by log_{1/(1-beta)}(n).
  for (const double beta : {0.2, 0.3, 0.5}) {
    RoadNetworkOptions opt;
    opt.rows = 18;
    opt.cols = 18;
    opt.seed = 3;
    Graph g = GenerateRoadNetwork(opt);
    Hc2lOptions options;
    options.beta = beta;
    options.contract_degree_one = false;
    options.leaf_size = 1;
    Hc2lIndex index = Hc2lIndex::Build(g, options);
    const double alpha = 1.0 / (1.0 - beta);
    const double bound =
        std::log(static_cast<double>(g.NumVertices())) / std::log(alpha);
    EXPECT_LE(index.Stats().tree_height, bound + 1) << "beta=" << beta;
  }
}

TEST(PaperProperties, BalanceConditionDefinition41) {
  // Definition 4.1 condition (1): each subtree holds at most
  // (1-beta) * |Subtree(parent)| vertices. Verified via the node->vertex
  // mapping of the built hierarchy.
  RoadNetworkOptions opt;
  opt.rows = 16;
  opt.cols = 17;
  opt.seed = 5;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lOptions options;
  options.beta = 0.25;
  options.contract_degree_one = false;
  Hc2lIndex index = Hc2lIndex::Build(g, options);
  const BalancedTreeHierarchy& h = index.Hierarchy();

  // Subtree vertex counts, children-first (children have larger indices).
  std::vector<size_t> subtree(h.NumNodes(), 0);
  for (size_t i = h.NumNodes(); i-- > 0;) {
    subtree[i] = h.Node(i).cut.size();
    for (int32_t c : {h.Node(i).left, h.Node(i).right}) {
      if (c >= 0) subtree[i] += subtree[c];
    }
  }
  size_t checked = 0;
  for (size_t i = 0; i < h.NumNodes(); ++i) {
    // The guarantee targets internal nodes large enough for the greedy
    // component assignment to matter; allow +1 slack for rounding.
    if (subtree[i] < 8) continue;
    for (int32_t c : {h.Node(i).left, h.Node(i).right}) {
      if (c < 0) continue;
      EXPECT_LE(subtree[c], (1.0 - options.beta) * subtree[i] + 1)
          << "node " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(PaperProperties, Lemma422QueryCostBoundedByMaxCut) {
  // Lemma 4.22: a query scans at most O(max cut) hub entries.
  RoadNetworkOptions opt;
  opt.rows = 15;
  opt.cols = 15;
  opt.seed = 9;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lOptions options;
  options.contract_degree_one = false;
  Hc2lIndex index = Hc2lIndex::Build(g, options);
  const size_t max_cut = index.Stats().max_cut_size;
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
    uint64_t hubs = 0;
    index.QueryCountingHubs(s, t, &hubs);
    EXPECT_LE(hubs, max_cut);
  }

  // The directed query min-reduces the source's out-array against the
  // target's in-array of the same LCA cut, so the bound carries over to a
  // one-way road network (pendant chains contracted, as by default).
  const Digraph dg = GenerateDirectedRoadNetwork(opt, 0.3);
  const DirectedHc2lIndex directed = DirectedHc2lIndex::Build(dg);
  const size_t directed_max_cut = directed.Hierarchy().MaxCutSize();
  uint64_t total_hubs = 0;
  for (int i = 0; i < 500; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(dg.NumVertices()));
    const Vertex t = static_cast<Vertex>(rng.Below(dg.NumVertices()));
    uint64_t hubs = 0;
    EXPECT_EQ(directed.QueryCountingHubs(s, t, &hubs), directed.Query(s, t));
    EXPECT_LE(hubs, directed_max_cut);
    total_hubs += hubs;
  }
  EXPECT_GT(total_hubs, 0u);
}

TEST(PaperProperties, Definition414HierarchicalCondition) {
  // Definition 4.14 condition (1): hubs of L(v) are ancestors of l(v) in the
  // quasi-order. Equivalently, v's arrays exist exactly for levels
  // 0..depth(l(v)), each no longer than the corresponding ancestor's cut.
  RoadNetworkOptions opt;
  opt.rows = 12;
  opt.cols = 13;
  opt.seed = 21;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lOptions options;
  options.contract_degree_one = false;
  Hc2lIndex index = Hc2lIndex::Build(g, options);
  const BalancedTreeHierarchy& h = index.Hierarchy();
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    // Ancestor chain from l(v) upward, then reversed: root..l(v).
    std::vector<int32_t> chain;
    for (int32_t node = h.NodeOf(v); node >= 0; node = h.Node(node).parent) {
      chain.push_back(node);
    }
    std::reverse(chain.begin(), chain.end());
    ASSERT_EQ(chain.size(), TreeCodeDepth(h.CodeOf(v)) + 1);
    for (size_t level = 0; level < chain.size(); ++level) {
      uint64_t hubs = 0;
      // Self-query against a vertex of the level's cut measures that level's
      // scan width indirectly; instead simply bound: scanning any pair whose
      // LCA is this level can touch at most the cut size.
      const auto& cut = h.Node(chain[level]).cut;
      if (cut.empty()) continue;
      index.QueryCountingHubs(v, cut.front(), &hubs);
      EXPECT_LE(hubs, cut.size());
    }
  }
}

TEST(PaperProperties, TwoHopCoverViaLcaCut) {
  // Definition 4.14 condition (2): for random pairs, some vertex r of the
  // LCA cut satisfies d(s,r) + d(r,t) = d(s,t) (when s,t are connected).
  RoadNetworkOptions opt;
  opt.rows = 11;
  opt.cols = 11;
  opt.seed = 13;
  Graph g = GenerateRoadNetwork(opt);
  Hc2lOptions options;
  options.contract_degree_one = false;
  Hc2lIndex index = Hc2lIndex::Build(g, options);
  const BalancedTreeHierarchy& h = index.Hierarchy();
  Dijkstra from_s(g);
  Dijkstra from_t(g);
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    const Vertex s = static_cast<Vertex>(rng.Below(g.NumVertices()));
    const Vertex t = static_cast<Vertex>(rng.Below(g.NumVertices()));
    if (s == t) continue;
    from_s.Run(s);
    from_t.Run(t);
    if (from_s.DistanceTo(t) == kInfDist) continue;
    // Find the LCA node by walking ancestor chains.
    std::vector<int32_t> ps, pt;
    for (int32_t n = h.NodeOf(s); n >= 0; n = h.Node(n).parent) ps.push_back(n);
    for (int32_t n = h.NodeOf(t); n >= 0; n = h.Node(n).parent) pt.push_back(n);
    int32_t lca = -1;
    for (size_t k = 0; k < std::min(ps.size(), pt.size()); ++k) {
      if (ps[ps.size() - 1 - k] == pt[pt.size() - 1 - k]) {
        lca = ps[ps.size() - 1 - k];
      }
    }
    ASSERT_GE(lca, 0);
    bool covered = false;
    for (const Vertex r : h.Node(lca).cut) {
      if (from_s.DistanceTo(r) != kInfDist &&
          from_t.DistanceTo(r) != kInfDist &&
          from_s.DistanceTo(r) + from_t.DistanceTo(r) ==
              from_s.DistanceTo(t)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "s=" << s << " t=" << t;
  }
}

TEST(PaperProperties, LabelsStoreOnlyDistances) {
  // Section 4.2.2: labels store distance values only — the per-vertex cost
  // is ~4 bytes per entry plus offsets, roughly half of (hub id, distance)
  // schemes. Sanity-check the accounting.
  Graph g = MakeGrid(12, 12, 4);
  Hc2lOptions options;
  options.contract_degree_one = false;
  Hc2lIndex index = Hc2lIndex::Build(g, options);
  const Hc2lStats& s = index.Stats();
  // bytes = 4 * entries + offset overhead (one start and one length per
  // level per vertex, plus the per-vertex base table).
  EXPECT_GE(s.label_bytes, 4 * s.label_entries);
  EXPECT_LE(s.label_bytes, 4 * s.label_entries +
                               4 * (2 * s.num_core_vertices *
                                        (s.tree_height + 1) +
                                    s.num_core_vertices + 1));
}

}  // namespace
}  // namespace hc2l
