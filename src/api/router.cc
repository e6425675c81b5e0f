#include "hc2l/router.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/binary_io.h"
#include "common/timer.h"
#include "core/directed_hc2l.h"
#include "core/hc2l.h"
#include "core/index_format.h"
#include "core/query_common.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "search/dijkstra.h"
#include "search/directed_dijkstra.h"
#include "server/query_engine.h"

namespace hc2l {

namespace {

Status ValidateBuildOptions(const BuildOptions& options) {
  if (!(options.beta > 0.0) || options.beta > 0.5) {
    return Status::InvalidArgument("beta must be in (0, 0.5], got " +
                                   std::to_string(options.beta));
  }
  if (options.leaf_size == 0) {
    return Status::InvalidArgument("leaf_size must be >= 1");
  }
  return Status::Ok();
}

uint32_t ResolveThreads(uint32_t num_threads) {
  return num_threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                          : num_threads;
}

/// The index options both flavours build with.
Hc2lOptions IndexOptions(const BuildOptions& options) {
  Hc2lOptions concrete;
  concrete.beta = options.beta;
  concrete.leaf_size = options.leaf_size;
  concrete.tail_pruning = options.tail_pruning;
  concrete.contract_degree_one = options.contract_degree_one;
  concrete.route_hints = options.route_hints;
  concrete.num_threads = ResolveThreads(options.num_threads);
  return concrete;
}

Status CheckVertex(const char* what, Vertex v, uint64_t num_vertices) {
  if (v >= num_vertices) {
    return Status::InvalidArgument(
        std::string(what) + " vertex id " + std::to_string(v) +
        " out of range [0, " + std::to_string(num_vertices) + ")");
  }
  return Status::Ok();
}

Status CheckVertices(const char* what, std::span<const Vertex> vs,
                     uint64_t num_vertices) {
  for (size_t i = 0; i < vs.size(); ++i) {
    if (vs[i] >= num_vertices) {
      return Status::InvalidArgument(
          std::string(what) + "[" + std::to_string(i) + "] = " +
          std::to_string(vs[i]) + " out of range [0, " +
          std::to_string(num_vertices) + ")");
    }
  }
  return Status::Ok();
}

// ------------------------------------------------- request execution ---
//
// Execute is the one bulk-query entry point of both executors, and both run
// it on the query engine through one EngineRunner: a Router on its own
// one-thread engine, inline on the calling thread; a ThreadedRouter on a
// pooled one, capped per request by QueryOptions::num_threads. The runner
// supplies three primitives — Pairs, Batch, Matrix — plus Route. Shape and
// id validation and the missing-vertex policy live above the runner; the
// primitives only ever see in-range ids, and report the output ranges they
// finished to their RangeCallback (QueryOutput::on_written) per shard.

Status DeadlineError() {
  return Status::DeadlineExceeded(
      "request deadline expired before completion; output contents are "
      "unspecified");
}

/// A query engine of the index's flavour; exactly one is non-null.
struct FlavourEngine {
  std::unique_ptr<QueryEngine> undirected;
  std::unique_ptr<DirectedQueryEngine> directed;

  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    if (undirected != nullptr) return fn(*undirected);
    return fn(*directed);
  }
};

/// Per-thread staging buffers of the facade layer: missing-vertex
/// filtering, k-nearest distance staging, route unpacking. Kept separate
/// from the core QueryScratch (which the index primitives use underneath on
/// the same thread).
struct FacadeScratch {
  std::vector<Vertex> ids_a;  // filtered sources (pairwise / matrix)
  std::vector<Vertex> ids_b;  // filtered targets
  std::vector<uint32_t> pos_a;
  std::vector<uint32_t> pos_b;
  std::vector<Dist> stage;
  std::vector<Dist> knn;
  RoutePath route;
};

FacadeScratch& TlsFacadeScratch() {
  static thread_local FacadeScratch scratch;
  return scratch;
}

bool AllInRange(std::span<const Vertex> vs, uint64_t n) {
  for (const Vertex v : vs) {
    if (v >= n) return false;
  }
  return true;
}

// The *WithPolicy functions run a primitive on ids the kError policy has
// already validated (or kUnchecked vouches for); under kUnreachable they
// answer the in-range ids through the primitive into staging and scatter
// them into an output frame of kInfDist, reporting the whole output to
// `on_written` once, after the scatter.

/// One-to-many: writes every slot of out[0 .. targets.size()).
template <typename Runner>
Status BatchWithPolicy(const Runner& runner, uint64_t n, Vertex source,
                       std::span<const Vertex> targets, Dist* out,
                       MissingVertexPolicy policy, const Deadline& dl,
                       FacadeScratch& fs, RangeCallback on_written) {
  if (policy != MissingVertexPolicy::kUnreachable ||
      (source < n && AllInRange(targets, n))) {
    return runner.Batch(source, targets, out, dl, on_written);
  }
  std::fill(out, out + targets.size(), kInfDist);
  if (source < n) {
    fs.ids_b.clear();
    fs.pos_b.clear();
    for (size_t i = 0; i < targets.size(); ++i) {
      if (targets[i] < n) {
        fs.ids_b.push_back(targets[i]);
        fs.pos_b.push_back(static_cast<uint32_t>(i));
      }
    }
    fs.stage.resize(fs.ids_b.size());
    if (Status st = runner.Batch(source, fs.ids_b, fs.stage.data(), dl);
        !st.ok()) {
      return st;
    }
    for (size_t j = 0; j < fs.ids_b.size(); ++j) {
      out[fs.pos_b[j]] = fs.stage[j];
    }
  }
  on_written(0, targets.size());
  return Status::Ok();
}

/// Pairwise: out[i] = d(sources[i], targets[i]).
template <typename Runner>
Status PairsWithPolicy(const Runner& runner, uint64_t n,
                       std::span<const Vertex> sources,
                       std::span<const Vertex> targets, Dist* out,
                       MissingVertexPolicy policy, const Deadline& dl,
                       FacadeScratch& fs, RangeCallback on_written) {
  if (policy != MissingVertexPolicy::kUnreachable ||
      (AllInRange(sources, n) && AllInRange(targets, n))) {
    return runner.Pairs(sources, targets, out, dl, on_written);
  }
  fs.ids_a.clear();
  fs.ids_b.clear();
  fs.pos_a.clear();
  for (size_t i = 0; i < targets.size(); ++i) {
    if (sources[i] < n && targets[i] < n) {
      fs.ids_a.push_back(sources[i]);
      fs.ids_b.push_back(targets[i]);
      fs.pos_a.push_back(static_cast<uint32_t>(i));
    }
  }
  std::fill(out, out + targets.size(), kInfDist);
  fs.stage.resize(fs.ids_a.size());
  if (Status st = runner.Pairs(fs.ids_a, fs.ids_b, fs.stage.data(), dl);
      !st.ok()) {
    return st;
  }
  for (size_t j = 0; j < fs.ids_a.size(); ++j) {
    out[fs.pos_a[j]] = fs.stage[j];
  }
  on_written(0, targets.size());
  return Status::Ok();
}

/// Row-major many-to-many.
template <typename Runner>
Status MatrixWithPolicy(const Runner& runner, uint64_t n,
                        std::span<const Vertex> sources,
                        std::span<const Vertex> targets, Dist* out,
                        MissingVertexPolicy policy, const Deadline& dl,
                        FacadeScratch& fs, RangeCallback on_written) {
  const size_t cols = targets.size();
  if (policy != MissingVertexPolicy::kUnreachable ||
      (AllInRange(sources, n) && AllInRange(targets, n))) {
    return runner.Matrix(sources, targets,
                         MatrixRows{.flat = out, .stride = cols}, dl,
                         on_written);
  }
  fs.ids_a.clear();
  fs.pos_a.clear();
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i] < n) {
      fs.ids_a.push_back(sources[i]);
      fs.pos_a.push_back(static_cast<uint32_t>(i));
    }
  }
  fs.ids_b.clear();
  fs.pos_b.clear();
  for (size_t j = 0; j < targets.size(); ++j) {
    if (targets[j] < n) {
      fs.ids_b.push_back(targets[j]);
      fs.pos_b.push_back(static_cast<uint32_t>(j));
    }
  }
  const size_t cells = sources.size() * cols;
  std::fill(out, out + cells, kInfDist);
  if (fs.ids_a.empty() || fs.ids_b.empty()) {
    on_written(0, cells);
    return Status::Ok();
  }
  fs.stage.resize(fs.ids_a.size() * fs.ids_b.size());
  if (Status st = runner.Matrix(
          fs.ids_a, fs.ids_b,
          MatrixRows{.flat = fs.stage.data(), .stride = fs.ids_b.size()}, dl);
      !st.ok()) {
    return st;
  }
  for (size_t i = 0; i < fs.ids_a.size(); ++i) {
    const Dist* stage_row = fs.stage.data() + i * fs.ids_b.size();
    Dist* out_row = out + static_cast<size_t>(fs.pos_a[i]) * cols;
    for (size_t j = 0; j < fs.ids_b.size(); ++j) {
      out_row[fs.pos_b[j]] = stage_row[j];
    }
  }
  on_written(0, cells);
  return Status::Ok();
}

std::string ShapeError(const char* what, size_t got, size_t need) {
  return std::string("output distance span holds ") + std::to_string(got) +
         " slots; " + what + " needs exactly " + std::to_string(need);
}

/// A default-options request of `kind` over the given id spans.
QueryRequest RequestOf(QueryKind kind, std::span<const Vertex> sources,
                       std::span<const Vertex> targets) {
  QueryRequest request;
  request.kind = kind;
  request.sources = sources;
  request.targets = targets;
  return request;
}

/// A response's slot count, for the wrappers that return only that.
Result<size_t> WrittenOf(const Result<QueryResponse>& response) {
  if (!response.ok()) return response.status();
  return response->written;
}

/// The kError policy's id check, naming the first out-of-range id. A
/// matrix's sources are rows, a list even when there is only one; elsewhere
/// a lone source is "source".
Status CheckIds(const QueryRequest& req, uint64_t n, const char* targets_name) {
  if (req.options.missing_vertices != MissingVertexPolicy::kError) {
    return Status::Ok();
  }
  Status st = req.sources.size() == 1 && req.kind != QueryKind::kMatrix
                  ? CheckVertex("source", req.sources[0], n)
                  : CheckVertices("sources", req.sources, n);
  if (!st.ok()) return st;
  return CheckVertices(targets_name, req.targets, n);
}

/// The shared Execute implementation: shape validation, policy dispatch,
/// response assembly. `runner` supplies the compute primitives.
template <typename Runner>
Result<QueryResponse> ExecuteRequest(const QueryRequest& req,
                                     const QueryOutput& out,
                                     const Runner& runner) {
  const uint64_t n = runner.NumVertices();
  const MissingVertexPolicy policy = req.options.missing_vertices;
  const Deadline dl = Deadline::From(req.options.deadline);
  FacadeScratch& fs = TlsFacadeScratch();
  switch (req.kind) {
    case QueryKind::kPointBatch: {
      if (out.distances.size() != req.targets.size()) {
        return Status::InvalidArgument(ShapeError(
            "a point batch", out.distances.size(), req.targets.size()));
      }
      // Equal counts are pairwise (a lone pair included); one-to-many is a
      // single source against any other number of targets.
      const bool pairwise = req.sources.size() == req.targets.size();
      if (!pairwise && req.sources.size() != 1) {
        return Status::InvalidArgument(
            "a point batch needs one source (one-to-many) or exactly as many "
            "sources as targets (pairwise); got " +
            std::to_string(req.sources.size()) + " sources for " +
            std::to_string(req.targets.size()) + " targets");
      }
      if (Status st = CheckIds(req, n, "targets"); !st.ok()) {
        return st;
      }
      if (Status st = pairwise ? PairsWithPolicy(runner, n, req.sources,
                                                 req.targets,
                                                 out.distances.data(), policy,
                                                 dl, fs, out.on_written)
                               : BatchWithPolicy(runner, n, req.sources[0],
                                                 req.targets,
                                                 out.distances.data(), policy,
                                                 dl, fs, out.on_written);
          !st.ok()) {
        return st;
      }
      return QueryResponse{req.targets.size(), 1, req.targets.size()};
    }
    case QueryKind::kMatrix: {
      const size_t need = req.sources.size() * req.targets.size();
      if (out.distances.size() != need) {
        return Status::InvalidArgument(
            ShapeError("a distance matrix", out.distances.size(), need));
      }
      if (Status st = CheckIds(req, n, "targets"); !st.ok()) {
        return st;
      }
      if (Status st =
              MatrixWithPolicy(runner, n, req.sources, req.targets,
                               out.distances.data(), policy, dl, fs,
                               out.on_written);
          !st.ok()) {
        return st;
      }
      return QueryResponse{need, req.sources.size(), req.targets.size()};
    }
    case QueryKind::kKNearest: {
      if (req.sources.size() != 1) {
        return Status::InvalidArgument(
            "k-nearest needs exactly one source, got " +
            std::to_string(req.sources.size()));
      }
      if (out.distances.size() != out.vertices.size()) {
        return Status::InvalidArgument(
            "k-nearest needs distance and vertex output spans of equal size "
            "(got " +
            std::to_string(out.distances.size()) + " and " +
            std::to_string(out.vertices.size()) + ")");
      }
      const size_t need = std::min(req.k, req.targets.size());
      if (out.distances.size() < need) {
        return Status::InvalidArgument(
            "output spans hold " + std::to_string(out.distances.size()) +
            " slots; k-nearest may write up to " + std::to_string(need));
      }
      if (Status st = CheckIds(req, n, "candidates"); !st.ok()) {
        return st;
      }
      // k == 0 or no candidates: an empty result, not an error.
      if (need == 0) return QueryResponse{0, 1, 0};
      fs.knn.resize(req.targets.size());
      // The staged distances are not the output: nothing to report.
      if (Status st = BatchWithPolicy(runner, n, req.sources[0], req.targets,
                                      fs.knn.data(), policy, dl, fs, {});
          !st.ok()) {
        return st;
      }
      const size_t written = SelectKNearestInto(
          fs.knn, req.targets, req.k, out.distances.data(),
          out.vertices.data(), &TlsQueryScratch());
      return QueryResponse{written, 1, written};
    }
    case QueryKind::kRoute: {
      if (req.sources.size() != 1 || req.targets.size() != 1) {
        return Status::InvalidArgument(
            "a route needs exactly one source and one target, got " +
            std::to_string(req.sources.size()) + " sources and " +
            std::to_string(req.targets.size()) + " targets");
      }
      if (req.k > 1) {
        return Status::InvalidArgument(
            "a route request unpacks the single shortest path (k must be 0 "
            "or 1); alternatives go through Router::Routes");
      }
      if (out.distances.empty()) {
        return Status::InvalidArgument(
            "a route needs at least one output distance slot for the path "
            "weight");
      }
      const Vertex s = req.sources[0];
      const Vertex t = req.targets[0];
      if (policy == MissingVertexPolicy::kError) {
        if (Status st = CheckVertex("source", s, n); !st.ok()) return st;
        if (Status st = CheckVertex("target", t, n); !st.ok()) return st;
      } else if (policy == MissingVertexPolicy::kUnreachable &&
                 (s >= n || t >= n)) {
        out.distances[0] = kInfDist;
        return QueryResponse{0, 1, 0};
      }
      // One unpacking (or, hint-less, one whole-graph bidirectional
      // search) has no chunk boundary to poll at: a spent budget fails here.
      if (dl.Expired()) return DeadlineError();
      if (Status st = runner.Route(s, t, &fs.route); !st.ok()) return st;
      if (fs.route.vertices.size() > out.vertices.size()) {
        return Status::InvalidArgument(
            "output vertex span holds " + std::to_string(out.vertices.size()) +
            " slots; this route needs " +
            std::to_string(fs.route.vertices.size()));
      }
      std::copy(fs.route.vertices.begin(), fs.route.vertices.end(),
                out.vertices.begin());
      out.distances[0] = fs.route.weight;
      return QueryResponse{fs.route.vertices.size(), 1,
                           fs.route.vertices.size()};
    }
  }
  return Status::InvalidArgument("unknown QueryKind");
}

}  // namespace

struct Router::Impl {
  // Exactly one is non-null.
  std::unique_ptr<Hc2lIndex> undirected;
  std::unique_ptr<DirectedHc2lIndex> directed;
  // The graph UpdateWeights repairs against (and hint-less undirected
  // indexes unpack routes against): kept by Build(const Graph&), attachable
  // after Open via AttachGraph, carried forward (with the deltas applied)
  // by the router UpdateWeights returns. Null until one is known.
  std::unique_ptr<Graph> graph;
  // The digraph hint-less directed indexes unpack routes against
  // (AttachDigraph). Null until attached.
  std::unique_ptr<Digraph> digraph;
  // The directed index does not record its own build time (and does not
  // persist one), so the facade times Build itself; 0 after Open. The
  // undirected flavour carries its own persisted Hc2lStats instead.
  double directed_build_seconds = 0.0;
  // The one-thread engine Execute runs on (a pool of one starts no worker,
  // so every call runs inline on the caller). Declared last: it borrows the
  // index and must go first.
  FlavourEngine engine;

  /// Calls fn on whichever concrete index is present. All instantiations
  /// must return the same type (the query surfaces are shape-identical).
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    if (undirected != nullptr) return fn(*undirected);
    return fn(*directed);
  }

  /// A query engine over this impl's index.
  FlavourEngine EngineOf(const QueryEngineOptions& options) const {
    FlavourEngine e;
    if (undirected != nullptr) {
      e.undirected = std::make_unique<QueryEngine>(*undirected, options);
    } else {
      e.directed = std::make_unique<DirectedQueryEngine>(*directed, options);
    }
    return e;
  }

  /// The shared Route primitive: hint-based unpacking when the index
  /// carries route hints, the graph-backed bidirectional-Dijkstra fallback
  /// otherwise (so hint-less indexes keep answering routes once a graph is
  /// attached).
  Status Route(Vertex s, Vertex t, RoutePath* out) const;

  /// K-alternative routes need the hint store (alternatives enumerate the
  /// LCA's separator hubs); a hint-less index degrades to the single
  /// fallback shortest path.
  Status Routes(Vertex s, Vertex t, size_t k,
                std::vector<RoutePath>* out) const;
};

Status Router::Impl::Route(Vertex s, Vertex t, RoutePath* out) const {
  if (undirected != nullptr) {
    if (undirected->HasRouteHints()) return undirected->Route(s, t, out);
    if (graph != nullptr) {
      out->weight = BidirectionalShortestPath(*graph, s, t, &out->vertices);
      return Status::Ok();
    }
  } else {
    if (directed->HasRouteHints()) return directed->Route(s, t, out);
    if (digraph != nullptr) {
      out->weight = DirectedShortestPath(*digraph, s, t, &out->vertices);
      return Status::Ok();
    }
  }
  return Status::FailedPrecondition(
      "this index carries no route hints (built with route_hints = false, or "
      "loaded from a file without hint sections) and no graph is attached to "
      "unpack against; attach one with AttachGraph / AttachDigraph");
}

Status Router::Impl::Routes(Vertex s, Vertex t, size_t k,
                            std::vector<RoutePath>* out) const {
  out->clear();
  if (k == 0) return Status::Ok();
  if (undirected != nullptr && undirected->HasRouteHints()) {
    return undirected->Routes(s, t, k, out);
  }
  if (directed != nullptr && directed->HasRouteHints()) {
    return directed->Routes(s, t, k, out);
  }
  RoutePath path;
  if (Status st = Route(s, t, &path); !st.ok()) return st;
  if (path.weight != kInfDist) out->push_back(std::move(path));
  return Status::Ok();
}

namespace {

/// The executor of both Router flavours: the request primitives on `engine`,
/// at most `max_threads` shards in flight (0 = the pool size), and routes
/// answered inline through `router`'s hint-or-fallback primitive. Templated
/// over Router::Impl, which is private (namespace-scope code cannot name
/// it; aggregate deduction at the call sites supplies it).
template <typename RouterImpl>
struct EngineRunner {
  const FlavourEngine* engine;
  const RouterImpl* router;
  uint32_t max_threads;

  uint64_t NumVertices() const {
    return engine->Visit(
        [](const auto& e) -> uint64_t { return e.index().NumVertices(); });
  }

  EngineCallOptions Call(const Deadline& dl, RangeCallback on_written) const {
    return {dl, max_threads, on_written};
  }

  Status Pairs(std::span<const Vertex> s, std::span<const Vertex> t,
               Dist* out, const Deadline& dl,
               RangeCallback on_written = {}) const {
    const bool done = engine->Visit([&](const auto& e) {
      return e.PointPairsInto(s, t, out, Call(dl, on_written));
    });
    return done ? Status::Ok() : DeadlineError();
  }
  Status Batch(Vertex source, std::span<const Vertex> targets, Dist* out,
               const Deadline& dl, RangeCallback on_written = {}) const {
    const bool done = engine->Visit([&](const auto& e) {
      return e.BatchQueryInto(source, targets, out, Call(dl, on_written));
    });
    return done ? Status::Ok() : DeadlineError();
  }
  Status Matrix(std::span<const Vertex> s, std::span<const Vertex> t,
                const MatrixRows& rows, const Deadline& dl,
                RangeCallback on_written = {}) const {
    const bool done = engine->Visit([&](const auto& e) {
      return e.DistanceMatrixInto(s, t, rows, Call(dl, on_written));
    });
    return done ? Status::Ok() : DeadlineError();
  }
  Status Route(Vertex s, Vertex t, RoutePath* out) const {
    return router->Route(s, t, out);
  }
};

}  // namespace

Router::Router(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {
  impl_->engine = impl_->EngineOf(QueryEngineOptions{.num_threads = 1});
}
Router::Router(Router&&) noexcept = default;
Router& Router::operator=(Router&&) noexcept = default;
Router::~Router() = default;

Result<Router> Router::Open(const std::string& path) {
  return Open(path, OpenMode::kHeap);
}

Result<Router> Router::Open(const std::string& path, OpenMode mode) {
  uint64_t magic = 0;
  {
    io::FilePtr f(std::fopen(path.c_str(), "rb"));
    if (f == nullptr) {
      return Status::NotFound("cannot open " + path);
    }
    io::Reader r(f.get());
    if (!io::ReadValue(&r, &magic)) {
      return Status::DataLoss(path + " is too short to hold an index header");
    }
  }
  if (magic == kShardManifestMagic) {
    // A manifest loads as the ordinary index of the flavour it names.
    const Result<uint64_t> flavour = ManifestFlavour(path);
    if (!flavour.ok()) return flavour.status();
    magic = *flavour;
  }
  const bool use_mmap = mode == OpenMode::kMmap;
  auto impl = std::make_unique<Impl>();
  if (magic == kHc2lIndexMagic) {
    Result<Hc2lIndex> index = Hc2lIndex::Load(path, use_mmap);
    if (!index.ok()) return index.status();
    impl->undirected =
        std::make_unique<Hc2lIndex>(std::move(index).value());
  } else if (magic == kDirectedIndexMagic) {
    Result<DirectedHc2lIndex> index = DirectedHc2lIndex::Load(path, use_mmap);
    if (!index.ok()) return index.status();
    impl->directed =
        std::make_unique<DirectedHc2lIndex>(std::move(index).value());
  } else {
    return Status::InvalidArgument(
        path + " is not an HC2L index (unrecognized format magic; expected "
               "HC2L0004, HC2D0004 or an HC2S0002 shard manifest)");
  }
  return Router(std::move(impl));
}

Result<Router> Router::Build(const Graph& graph, const BuildOptions& options) {
  if (Status s = ValidateBuildOptions(options); !s.ok()) return s;
  auto impl = std::make_unique<Impl>();
  impl->undirected = std::make_unique<Hc2lIndex>(
      Hc2lIndex::Build(graph, IndexOptions(options)));
  impl->graph = std::make_unique<Graph>(graph);
  return Router(std::move(impl));
}

Result<Router> Router::Build(const Digraph& graph,
                             const BuildOptions& options) {
  if (Status s = ValidateBuildOptions(options); !s.ok()) return s;
  auto impl = std::make_unique<Impl>();
  Timer timer;
  impl->directed = std::make_unique<DirectedHc2lIndex>(
      DirectedHc2lIndex::Build(graph, IndexOptions(options)));
  impl->directed_build_seconds = timer.Seconds();
  return Router(std::move(impl));
}

bool Router::directed() const { return impl_->directed != nullptr; }

uint64_t Router::NumVertices() const {
  return impl_->Visit(
      [](const auto& index) -> uint64_t { return index.NumVertices(); });
}

IndexInfo Router::Info() const {
  IndexInfo info;
  info.directed = directed();
  info.num_vertices = NumVertices();
  impl_->Visit([&](const auto& index) {
    const BalancedTreeHierarchy& h = index.Hierarchy();
    info.num_core_vertices = index.NumCoreVertices();
    info.num_contracted = index.NumContracted();
    info.tree_height = index.TreeHeight();
    info.num_tree_nodes = h.NumNodes();
    info.max_cut_size = h.MaxCutSize();
    info.avg_cut_size = h.AvgCutSize();
    info.label_entries = index.NumEntries();
    info.label_logical_bytes = index.LabelLogicalBytes();
    info.label_resident_bytes = index.LabelSizeBytes();
    info.lca_bytes = index.LcaStorageBytes();
    info.mapped_bytes = index.MappedBytes();
    info.heap_bytes = index.ArenaResidentBytes() - index.MappedBytes();
    info.num_shards = index.Members().size();
  });
  // Only the undirected flavour records its shortcut count and build time.
  if (impl_->undirected != nullptr) {
    info.num_shortcuts = impl_->undirected->Stats().num_shortcuts;
    info.build_seconds = impl_->undirected->Stats().build_seconds;
  } else {
    info.build_seconds = impl_->directed_build_seconds;
  }
  return info;
}

Status Router::Save(const std::string& path) const {
  return impl_->Visit([&](const auto& index) { return index.Save(path); });
}

Result<Dist> Router::Distance(Vertex s, Vertex t) const {
  const uint64_t n = NumVertices();
  if (Status st = CheckVertex("source", s, n); !st.ok()) return st;
  if (Status st = CheckVertex("target", t, n); !st.ok()) return st;
  return DistanceUnchecked(s, t);
}

Dist Router::DistanceUnchecked(Vertex s, Vertex t) const {
  return impl_->Visit([&](const auto& index) { return index.Query(s, t); });
}

Status Router::Route(Vertex s, Vertex t, RoutePath* out) const {
  const uint64_t n = NumVertices();
  if (Status st = CheckVertex("source", s, n); !st.ok()) return st;
  if (Status st = CheckVertex("target", t, n); !st.ok()) return st;
  return impl_->Route(s, t, out);
}

Result<size_t> Router::RouteInto(Vertex s, Vertex t,
                                 std::span<Vertex> out_vertices,
                                 Dist* weight) const {
  return WrittenOf(Execute(RequestOf(QueryKind::kRoute, {&s, 1}, {&t, 1}),
                           QueryOutput({weight, 1}, out_vertices)));
}

Result<std::vector<RoutePath>> Router::Routes(Vertex s, Vertex t,
                                              size_t k) const {
  const uint64_t n = NumVertices();
  if (Status st = CheckVertex("source", s, n); !st.ok()) return st;
  if (Status st = CheckVertex("target", t, n); !st.ok()) return st;
  std::vector<RoutePath> out;
  if (Status st = impl_->Routes(s, t, k, &out); !st.ok()) return st;
  return out;
}

Result<QueryResponse> Router::Execute(const QueryRequest& request,
                                      const QueryOutput& out) const {
  return ExecuteRequest(request, out,
                        EngineRunner{&impl_->engine, impl_.get(), 1});
}

Status Router::DistanceMatrixInto(std::span<const Vertex> sources,
                                  std::span<const Vertex> targets,
                                  std::span<Dist> out) const {
  return Execute(RequestOf(QueryKind::kMatrix, sources, targets),
                 QueryOutput(out))
      .status();
}

Status Router::RebuildLabels(const Graph& updated, bool tail_pruning,
                             uint32_t num_threads) {
  if (impl_->undirected == nullptr) {
    return Status::FailedPrecondition(
        "RebuildLabels is only supported by undirected indexes (the "
        "directed extension rebuilds from scratch)");
  }
  // The concrete index validates what it can cheaply detect (vertex count,
  // pendant structure) before mutating anything.
  return impl_->undirected->RebuildLabels(updated, tail_pruning,
                                          ResolveThreads(num_threads));
}

void Router::AttachGraph(Graph graph) {
  impl_->graph = std::make_unique<Graph>(std::move(graph));
}

bool Router::HasGraph() const { return impl_->graph != nullptr; }

void Router::AttachDigraph(Digraph digraph) {
  impl_->digraph = std::make_unique<Digraph>(std::move(digraph));
}

bool Router::HasDigraph() const { return impl_->digraph != nullptr; }

Result<Router> Router::UpdateWeights(std::span<const EdgeDelta> deltas,
                                     bool tail_pruning,
                                     uint32_t num_threads) const {
  if (impl_->undirected == nullptr) {
    return Status::FailedPrecondition(
        "UpdateWeights is only supported by undirected indexes (the "
        "directed extension rebuilds from scratch)");
  }
  if (impl_->graph == nullptr) {
    return Status::FailedPrecondition(
        "no graph attached to repair against; build this router from a Graph "
        "or call AttachGraph first");
  }
  auto updated = std::make_unique<Graph>(*impl_->graph);
  for (const EdgeDelta& d : deltas) {
    if (d.weight == 0) {
      return Status::InvalidArgument(
          "edge delta {" + std::to_string(d.u) + ", " + std::to_string(d.v) +
          "} carries weight 0; edge weights must be positive");
    }
    if (!updated->UpdateEdgeWeight(d.u, d.v, d.weight)) {
      return Status::InvalidArgument(
          "edge delta {" + std::to_string(d.u) + ", " + std::to_string(d.v) +
          "} does not name an existing edge (weight updates never change "
          "topology)");
    }
  }
  // Copy-on-repair: the clone shares nothing mutable with the serving index
  // (only the stateless rebuild pool), so this router keeps answering
  // queries while the standby is repaired; any failure discards the clone.
  Hc2lIndex repaired = impl_->undirected->Clone();
  if (Status st = repaired.RepairLabels(*updated, deltas, tail_pruning,
                                        ResolveThreads(num_threads));
      !st.ok()) {
    return st;
  }
  auto impl = std::make_unique<Impl>();
  impl->undirected = std::make_unique<Hc2lIndex>(std::move(repaired));
  impl->graph = std::move(updated);
  return Router(std::move(impl));
}

// ------------------------------------------------------------- threaded ---

struct ThreadedRouter::Impl {
  FlavourEngine engine;
  // The borrowed Router's impl: a route is one query, answered inline by
  // its hint-or-fallback primitive rather than sharded.
  const Router::Impl* router = nullptr;
};

ThreadedRouter::ThreadedRouter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ThreadedRouter::ThreadedRouter(ThreadedRouter&&) noexcept = default;
ThreadedRouter& ThreadedRouter::operator=(ThreadedRouter&&) noexcept = default;
ThreadedRouter::~ThreadedRouter() = default;

Result<ThreadedRouter> Router::WithThreads(uint32_t num_threads) const {
  ParallelOptions options;
  options.num_threads = num_threads;
  return WithThreads(options);
}

Result<ThreadedRouter> Router::WithThreads(
    const ParallelOptions& options) const {
  // 4096 threads is far beyond any machine this serves; treat it as a unit
  // mix-up rather than oversubscribing the process with thousands of
  // workers.
  if (options.num_threads > 4096) {
    return Status::InvalidArgument("num_threads must be in [0, 4096], got " +
                                   std::to_string(options.num_threads));
  }
  QueryEngineOptions engine_options;
  engine_options.num_threads = options.num_threads;
  engine_options.min_shard_queries = std::max(1u, options.min_shard_queries);
  auto impl = std::make_unique<ThreadedRouter::Impl>();
  impl->engine = impl_->EngineOf(engine_options);
  impl->router = impl_.get();
  return ThreadedRouter(std::move(impl));
}

uint32_t ThreadedRouter::NumThreads() const {
  return impl_->engine.Visit(
      [](const auto& engine) { return engine.NumThreads(); });
}

Result<QueryResponse> ThreadedRouter::Execute(const QueryRequest& request,
                                              const QueryOutput& out) const {
  const uint32_t cap = request.options.num_threads;
  return ExecuteRequest(request, out,
                        EngineRunner{&impl_->engine, impl_->router, cap});
}

Status ThreadedRouter::DistanceMatrixInto(std::span<const Vertex> sources,
                                          std::span<const Vertex> targets,
                                          std::span<Dist> out) const {
  return Execute(RequestOf(QueryKind::kMatrix, sources, targets),
                 QueryOutput(out))
      .status();
}

}  // namespace hc2l
