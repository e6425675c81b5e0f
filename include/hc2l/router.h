#ifndef HC2L_PUBLIC_ROUTER_H_
#define HC2L_PUBLIC_ROUTER_H_

/// hc2l::Router — the single public query API over both HC2L index flavours.
///
/// The paper (Farhan, Koehler, Ohrimenko, Wang, PACMMOD'23) describes one
/// query model: hierarchical cut 2-hop labels answering exact shortest-path
/// distances. The repo implements it twice — an undirected index with
/// degree-one contraction (format HC2L0004) and the Section 5.3 directed
/// extension with the ported contraction (format HC2D0004), both saved in
/// the same sectioned, mmap-able layout. Router type-erases over the two so
/// that
/// every consumer (CLI, examples, benches, a future RPC front end) programs
/// against one surface:
///
///   hc2l::Result<hc2l::Router> r = hc2l::Router::Build(graph, {});
///   if (!r.ok()) { ... r.status() ... }
///   hc2l::Result<hc2l::Dist> d = r->Distance(s, t);            // validated
///   hc2l::Dist fast = r->DistanceUnchecked(s, t);              // hot loops
///
///   hc2l::Result<hc2l::Router> o = hc2l::Router::Open("x.idx"); // sniffs
///   // o->directed() tells which format the file held.
///
/// Bulk queries — pairwise and one-to-many points, matrices, k-nearest and
/// span-written routes — have one entry point, Execute (hc2l/query.h): a
/// request of borrowed id spans answered into caller-owned output spans.
/// There is one executor, the query engine: a Router is that engine at one
/// thread, run inline on the calling thread; the ThreadedRouter from
/// WithThreads runs the same requests on a pooled engine.
///
/// Error model: every fallible entry point returns Status / Result<T>
/// (hc2l/status.h); bad input — missing or corrupt files, out-of-range
/// vertex ids, invalid options — never aborts the process.
///
/// Ownership: Router owns its index. Router is movable, not copyable.
/// Thread-safety: all query methods are const and safe to call concurrently;
/// the index is immutable after Build/Open. RebuildLabels is the one mutator
/// and must not race queries. A ThreadedRouter (WithThreads) *borrows* its
/// Router, which must stay alive and unmoved for the handle's lifetime.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "hc2l/query.h"
#include "hc2l/status.h"

namespace hc2l {

class Graph;
class Digraph;

/// Construction options, unified for both directions (Hc2lOptions
/// internally). Validated by Router::Build: beta must be in (0, 0.5],
/// leaf_size >= 1.
struct BuildOptions {
  /// Balance threshold beta in (0, 0.5]; the paper selects 0.2 (Section 5).
  double beta = 0.2;
  /// Recursion stops at subgraphs of at most this many vertices.
  uint32_t leaf_size = 8;
  /// Tail pruning (Definition 4.18): ~9-10% fewer label entries, ~9-12%
  /// slower construction when on (20k-vertex road network, 1 thread, on a
  /// 4-vCPU VM: 1.58 vs 1.45 s undirected, 2.53 vs 2.26 s directed).
  bool tail_pruning = true;
  /// Degree-one contraction (Section 4.2.2), honoured by both flavours. For
  /// digraphs the contractible set is decided on the underlying undirected
  /// projection; one-way pendant edges resolve as offset-to-root in the
  /// existing direction and unreachable in the other (docs/directed.md).
  bool contract_degree_one = true;
  /// Record route hints next to the labels (the predecessor-toward-hub
  /// entries that Route unpacks paths from, ~one extra Vertex per label
  /// entry). Disabling leaves the hint sections out of the saved file; Route
  /// then needs an attached graph to fall back on.
  bool route_hints = true;
  /// Construction threads; 0 = all hardware threads, >1 is the paper's
  /// HC2L_p variant (bit-identical index).
  uint32_t num_threads = 1;
};

/// Options for the parallel query handle (Router::WithThreads).
struct ParallelOptions {
  /// Threads participating in each call; 0 = all hardware threads.
  uint32_t num_threads = 0;
  /// Workloads below this many queries run inline on the caller (a query is
  /// tens of nanoseconds; shipping it to another core costs more).
  uint32_t min_shard_queries = 1024;
};

/// How Router::Open attaches an index file's label storage.
enum class OpenMode {
  /// Deserialize everything onto the heap.
  kHeap,
  /// Map the label and (when present) hint arenas of the index file in
  /// place: O(1) open — only the metadata section is parsed, no arena
  /// copy — with the mapped pages advised MADV_RANDOM for the label access
  /// pattern. Every index file maps, with or without route hints. A shard
  /// manifest maps every member file's arena slices into one reserved
  /// address range. Queries are bit-identical to kHeap.
  kMmap,
};

/// Size and construction statistics, unified across both index flavours.
/// Fields that only exist for one flavour are documented as such.
struct IndexInfo {
  bool directed = false;
  uint64_t num_vertices = 0;
  /// After degree-one contraction (both flavours); == num_vertices when the
  /// index was built with contract_degree_one = false.
  uint64_t num_core_vertices = 0;
  uint64_t num_contracted = 0;
  uint32_t tree_height = 0;
  uint64_t num_tree_nodes = 0;
  uint64_t max_cut_size = 0;
  double avg_cut_size = 0.0;
  /// Undirected only (the directed builder does not count its shortcuts).
  uint64_t num_shortcuts = 0;
  /// Stored distance values (both directions for directed indexes).
  uint64_t label_entries = 0;
  /// Logical label size: distance data + per-level offset tables — the
  /// paper-comparable quantity.
  uint64_t label_logical_bytes = 0;
  /// Resident label storage: cache-aligned, sentinel-padded arena(s) +
  /// offset tables (what the process actually holds in memory).
  uint64_t label_resident_bytes = 0;
  /// Bytes for O(1) LCA lookups (packed per-vertex tree codes).
  uint64_t lca_bytes = 0;
  /// Wall-clock seconds of the Build/RebuildLabels that produced this
  /// index. Undirected indexes persist their construction stats, so an
  /// opened HC2L0004 file reports the original build's time; directed
  /// indexes do not persist it and report 0 after Open.
  double build_seconds = 0.0;
  /// Label storage (arenas + offset tables, labels and route hints, all
  /// directions) split by backing: bytes served from a file mapping
  /// (OpenMode::kMmap; paged in on demand) vs bytes held on
  /// the heap. A mapped open views the offset tables as well as the
  /// arenas, so its heap share is only the parsed metadata.
  uint64_t mapped_bytes = 0;
  uint64_t heap_bytes = 0;
  /// Member files the arenas came from when the router was opened from a
  /// shard manifest (HC2S0002); 0 otherwise, including after a repair.
  uint64_t num_shards = 0;
};

class ThreadedRouter;

/// The facade. One non-null underlying index (undirected or directed),
/// selected at Build time by the graph type or at Open time by the file's
/// format magic.
class Router {
 public:
  /// Opens a serialized index, sniffing the format magic: HC2L0004 loads
  /// the undirected index, HC2D0004 the directed one (route hints come back
  /// when the file has hint sections), and HC2S0002 — a shard manifest
  /// written by `hc2l shard` — loads the ordinary index of its flavour, its
  /// arenas assembled from the member files. Errors: kNotFound (cannot
  /// open), kInvalidArgument (any other magic), kDataLoss (truncated or
  /// corrupt, or a member file of another build or slot).
  static Result<Router> Open(const std::string& path);

  /// Open with an explicit label-storage mode (see OpenMode). The
  /// single-argument overload is Open(path, OpenMode::kHeap).
  static Result<Router> Open(const std::string& path, OpenMode mode);

  /// Builds an undirected index. Errors: kInvalidArgument (bad options).
  static Result<Router> Build(const Graph& graph,
                              const BuildOptions& options = {});

  /// Builds a directed index; every option applies, contract_degree_one on
  /// the undirected projection (see BuildOptions). Errors: kInvalidArgument
  /// (bad options).
  static Result<Router> Build(const Digraph& graph,
                              const BuildOptions& options = {});

  Router(Router&&) noexcept;
  Router& operator=(Router&&) noexcept;
  ~Router();

  /// True when the underlying index answers directed distances d(s -> t).
  bool directed() const;

  /// Number of vertices of the indexed graph.
  uint64_t NumVertices() const;

  /// Unified construction/size statistics.
  IndexInfo Info() const;

  /// Serializes the index in its flavour's sectioned, mmap-able format
  /// (HC2L0004 / HC2D0004), also when it was opened from a shard manifest.
  /// Hint-less indexes (route_hints = false) omit the hint sections.
  Status Save(const std::string& path) const;

  /// Exact distance d(s, t) — d(s -> t) for directed indexes; kInfDist when
  /// t is unreachable (reachability is an answer, not an error). Errors:
  /// kInvalidArgument for out-of-range vertex ids.
  Result<Dist> Distance(Vertex s, Vertex t) const;

  /// Distance() without the range check, for hot loops that validated their
  /// inputs up front. Out-of-range ids abort (internal invariant).
  Dist DistanceUnchecked(Vertex s, Vertex t) const;

  // --- Route unpacking (docs/api.md "Routes") ---

  /// Reconstructs one shortest path s..t (s -> t for directed indexes):
  /// out->vertices is the full original-id sequence (s first, t last; the
  /// single vertex for s == t; empty when unreachable) and out->weight the
  /// path weight, always equal to Distance(s, t). Answered from the index's
  /// route hints when it carries them; a hint-less index falls back to a
  /// bidirectional Dijkstra over the attached graph (AttachGraph /
  /// AttachDigraph), so old index files keep working. Errors:
  /// kInvalidArgument (out-of-range id), kFailedPrecondition (no hints and
  /// no attached graph).
  Status Route(Vertex s, Vertex t, RoutePath* out) const;

  /// Route() into a caller-owned span: writes the vertex sequence into
  /// out_vertices, the path weight into *weight, and returns the vertex
  /// count (0 when unreachable) — Execute with a kRoute request. The hot
  /// path performs no per-call heap allocation once its per-thread scratch
  /// is warm. A path longer than out_vertices fails with kInvalidArgument
  /// naming the required size (out_vertices is then untouched).
  Result<size_t> RouteInto(Vertex s, Vertex t, std::span<Vertex> out_vertices,
                           Dist* weight) const;

  /// Up to k alternative routes s..t, sorted ascending by weight; the first
  /// is Route's shortest path. Alternatives route via the other separator
  /// hubs of the pair's LCA level, deduped plateaux-style, so they need
  /// route hints — a hint-less index with an attached graph degrades to the
  /// single fallback shortest path. k == 0 or an unreachable pair is an
  /// empty result, not an error. Error contract as Route.
  Result<std::vector<RoutePath>> Routes(Vertex s, Vertex t, size_t k) const;

  // --- Zero-copy request/response surface (hc2l/query.h) ---
  // Results land in caller-owned memory, and the hot path performs no
  // per-call heap allocation once its per-thread scratch is warm.

  /// Executes `request` on this Router's one-thread query engine, inline on
  /// the calling thread (QueryOptions::num_threads is a cap, which one
  /// thread satisfies; ThreadedRouter::Execute parallelizes). Shape
  /// contract and deadline semantics: hc2l/query.h. Errors:
  /// kInvalidArgument (shape mismatch, out-of-range id under the kError
  /// policy), kDeadlineExceeded, kFailedPrecondition (a route without hints
  /// or an attached graph).
  Result<QueryResponse> Execute(const QueryRequest& request,
                                const QueryOutput& out) const;

  /// Execute with a kMatrix request: the row-major matrix
  /// out[i * targets.size() + j] = d(sources[i], targets[j]); out.size()
  /// must equal sources.size() * targets.size() exactly.
  Status DistanceMatrixInto(std::span<const Vertex> sources,
                            std::span<const Vertex> targets,
                            std::span<Dist> out) const;

  /// Dynamic weight updates (Section 5.4, undirected only): refreshes every
  /// distance value for a graph with the SAME topology but changed weights,
  /// reusing the stored hierarchy — much faster than Build. num_threads
  /// parallelizes the per-level label recomputation (0 = all hardware
  /// threads). Errors: kFailedPrecondition (directed index),
  /// kInvalidArgument (vertex count or pendant-tree structure differs) —
  /// detected before any state changes, so the index stays valid on
  /// failure.
  Status RebuildLabels(const Graph& updated, bool tail_pruning = true,
                       uint32_t num_threads = 1);

  /// Attaches (or replaces) the graph copy UpdateWeights repairs against.
  /// Build(const Graph&) attaches automatically; an Open()ed router has no
  /// graph until one is attached (hc2ld's --graph flag does this). The graph
  /// must match the indexed topology — UpdateWeights validates what it can
  /// cheaply detect and fails without touching the serving index otherwise.
  void AttachGraph(Graph graph);

  /// True when a graph is attached (Build(const Graph&) or AttachGraph).
  bool HasGraph() const;

  /// Attaches (or replaces) the digraph copy that hint-less directed
  /// indexes unpack routes against (the Route fallback). Build(const
  /// Digraph&) does NOT attach automatically — hint-carrying indexes (the
  /// default) never need the copy.
  void AttachDigraph(Digraph digraph);

  /// True when a digraph is attached.
  bool HasDigraph() const;

  /// Incremental weight update (Section 5.4 under live traffic, undirected
  /// only): applies `deltas` — existing edges taking new positive weights —
  /// to a copy of the attached graph and repairs a CLONE of the index
  /// (Hc2lIndex::RepairLabels: only subtrees whose separators cover a
  /// changed edge are recomputed; bit-identical to a full rebuild). This
  /// router keeps serving unchanged throughout; on success the returned
  /// router carries the repaired index plus the updated graph, so chained
  /// updates stay scoped. The copy-on-repair primitive under the server's
  /// `update_weights` wire verb. Errors: kFailedPrecondition (directed
  /// index, or no graph attached), kInvalidArgument (a delta names a
  /// non-edge or a zero weight), kOutOfRange (a repaired distance exceeds
  /// the 2^31 label encoding) — all leave this router untouched.
  Result<Router> UpdateWeights(std::span<const EdgeDelta> deltas,
                               bool tail_pruning = true,
                               uint32_t num_threads = 1) const;

  /// A parallel bulk-query handle routing through the shard-per-core query
  /// engine (docs/query_engine.md). The handle borrows this Router; results
  /// are bit-identical to the sequential methods for every thread count.
  Result<ThreadedRouter> WithThreads(uint32_t num_threads) const;
  Result<ThreadedRouter> WithThreads(const ParallelOptions& options) const;

 private:
  friend class ThreadedRouter;
  struct Impl;
  explicit Router(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Parallel bulk queries over a borrowed Router (see Router::WithThreads):
/// the same Execute contract, run over the query engine. All methods are
/// const and safe to call concurrently from several caller threads. Do not
/// outlive (or move) the Router it was created from.
class ThreadedRouter {
 public:
  ThreadedRouter(ThreadedRouter&&) noexcept;
  ThreadedRouter& operator=(ThreadedRouter&&) noexcept;
  ~ThreadedRouter();

  /// Total participating threads (>= 1).
  uint32_t NumThreads() const;

  /// Router::Execute on a pooled engine: pairs and one-to-many targets
  /// shard across the pool, a matrix slices its longer side, and k-nearest
  /// computes its distances in parallel before a deterministic sequential
  /// selection. QueryOptions::num_threads caps the shards in flight per
  /// request (1 = inline on the caller); results are bit-identical to
  /// Router::Execute for every cap. Errors: as Router::Execute.
  Result<QueryResponse> Execute(const QueryRequest& request,
                                const QueryOutput& out) const;

  /// Execute with a kMatrix request; see Router::DistanceMatrixInto.
  Status DistanceMatrixInto(std::span<const Vertex> sources,
                            std::span<const Vertex> targets,
                            std::span<Dist> out) const;

 private:
  friend class Router;
  struct Impl;
  explicit ThreadedRouter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace hc2l

#endif  // HC2L_PUBLIC_ROUTER_H_
