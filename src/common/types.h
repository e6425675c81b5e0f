#ifndef HC2L_COMMON_TYPES_H_
#define HC2L_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace hc2l {

/// Vertex identifier. Road networks in the paper have up to ~24M vertices,
/// far below the 32-bit limit.
using Vertex = uint32_t;

/// Edge weight (positive; either metres for "distance" weights or
/// deci-seconds for "travel time" weights).
using Weight = uint32_t;

/// Shortest-path distance. 64 bits so that sums of 32-bit weights along any
/// path can never overflow.
using Dist = uint64_t;

/// Sentinel for "no vertex".
inline constexpr Vertex kInvalidVertex = std::numeric_limits<Vertex>::max();

/// Sentinel for "unreachable" distances.
inline constexpr Dist kInfDist = std::numeric_limits<Dist>::max();

/// One edge-weight change of a dynamic update batch (Section 5.4): the edge
/// {u, v} (which must already exist — updates never change topology) takes
/// the new weight. Consumed by Hc2lIndex::RepairLabels and
/// Router::UpdateWeights, and carried by the server's `update_weights` wire
/// verb as `[u, v, weight]` triples.
struct EdgeDelta {
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;
  Weight weight = 0;
};

/// One reconstructed shortest (or alternative) route: the full vertex
/// sequence from source to target inclusive, plus its total weight. An
/// unreachable pair reports kInfDist with an empty sequence; s == t reports
/// weight 0 with the single vertex. Produced by the route-unpacking paths
/// (LabelIndex::Route under both index flavours, Router::Route) and carried
/// by the server's `route` wire verb.
struct RoutePath {
  std::vector<Vertex> vertices;
  Dist weight = kInfDist;
};

/// Inf-propagating sum of two distances: unreachable plus anything is
/// unreachable. Finite operands are path sums of 32-bit weights, far below
/// the 64-bit overflow point. Used by the pendant contractions (chain
/// prefix sums, LCA climbs) and the batch query paths (source + target
/// detour offsets), which must agree on the arithmetic.
inline constexpr Dist AddDist(Dist a, Dist b) {
  return (a == kInfDist || b == kInfDist) ? kInfDist : a + b;
}

}  // namespace hc2l

#endif  // HC2L_COMMON_TYPES_H_
