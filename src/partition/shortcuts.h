#ifndef HC2L_PARTITION_SHORTCUTS_H_
#define HC2L_PARTITION_SHORTCUTS_H_

#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "graph/digraph.h"
#include "graph/graph.h"

namespace hc2l {

/// Result of Algorithm 3 (Add Shortcuts) for one partition.
struct ShortcutResult {
  /// Non-redundant shortcuts between border vertices, in the ids of the
  /// graph passed to ComputeShortcuts. Adding these to the induced subgraph
  /// G[P] makes it distance-preserving (Definition 4.5).
  std::vector<Edge> shortcuts;
  /// Border vertices of the partition (diagnostics).
  std::vector<Vertex> border;
};

/// Algorithm 3 of the paper.
///
/// `g` is the current (already distance-preserving) subgraph, `cut` its
/// vertex cut and `part` one side of the partition. `dist_from_cut[j]` must
/// hold distances in `g` from cut[j] to every vertex of `g` — the labelling
/// construction already computes these, so they are passed in rather than
/// recomputed.
///
/// For every pair of border vertices (vertices of `part` adjacent to the
/// cut) the true distance d_G is the minimum of the within-partition distance
/// d_G[P] and the best detour through a cut vertex (line 7-8). A shortcut is
/// added iff the detour is strictly shorter and no third border vertex lies
/// on it (Lemma 4.11's redundancy conditions).
///
/// The within-partition distances come from one search per border vertex,
/// which stops at the row's largest detour (beyond it d_G[P] is never
/// needed). The searches run on `pool`; the result does not depend on its
/// size.
ShortcutResult ComputeShortcuts(
    const Graph& g, std::span<const Vertex> cut, std::span<const Vertex> part,
    const std::vector<std::vector<Dist>>& dist_from_cut, ThreadPool& pool);

/// Directed Algorithm 3: the non-redundant shortcut arcs between border
/// vertices of `part` that keep the child sub-digraph distance-preserving
/// in both directions. `to_cut[j][v]` is d(v -> cut[j]) and `from_cut[j][v]`
/// is d(cut[j] -> v) in `g`, the backward and forward searches the
/// labelling already ran. Searches and `pool` as in ComputeShortcuts.
std::vector<DirectedArc> ComputeDirectedShortcuts(
    const Digraph& g, std::span<const Vertex> cut, std::span<const Vertex> part,
    const std::vector<std::vector<Dist>>& to_cut,
    const std::vector<std::vector<Dist>>& from_cut, ThreadPool& pool);

/// Verifies the distance-preserving property (Definition 4.5) of the
/// shortcut-enhanced subgraph G<P> by comparing all-pairs distances against
/// the parent graph. O(|P| * |E|) per vertex — tests only.
bool IsDistancePreserving(const Graph& parent, const Graph& enhanced,
                          std::span<const Vertex> part_to_parent);

}  // namespace hc2l

#endif  // HC2L_PARTITION_SHORTCUTS_H_
