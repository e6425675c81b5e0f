// hc2l — command-line front end for the library, programmed entirely
// against the public facade (hc2l/hc2l.h).
//
// Subcommands:
//   hc2l generate --rows R --cols C [--seed S] [--travel-time]
//                 [--pendant-frac F] [--oneway-frac F] --out network.gr
//   hc2l generate --model road --vertices N [--seed S] [...] --out network.gr
//       Emit a synthetic road network in DIMACS .gr format. With
//       --oneway-frac F > 0 the network is directed (F of the streets are
//       one-way) and every arc is written individually. --model road sizes
//       the grid from a target vertex count instead of explicit --rows/
//       --cols: the square backbone closest to N vertices after pendant
//       attachment (seed-reproducible — same N, seed and fractions, same
//       network).
//
//   hc2l build --graph network.gr --out index.hc2l [--directed]
//              [--beta B] [--leaf-size L] [--threads T]
//              [--no-tail-pruning] [--no-contraction]
//       Build an HC2L index from a DIMACS graph and serialize it. With
//       --directed the arcs are kept one-way and the Section 5.3 directed
//       index is built (format HC2D0004); otherwise arcs collapse to
//       undirected edges (format HC2L0004). Both formats carry route hints
//       and map in place under --mmap. --no-contraction disables degree-one
//       contraction in both flavours.
//
//   hc2l shard --graph network.gr --out index.hc2s [--shards N]
//              [--directed] [--beta B] [--leaf-size L] [--threads T]
//       Build one HC2L index (HC2L_p at --threads), cut its hierarchy into
//       N subtrees and write an HC2S0002 manifest with one member file per
//       subtree next to it (index.hc2s.0, .1, ...), each holding that
//       subtree's slice of every label and hint arena. Prints the core
//       vertices per member. The manifest opens through every --index flag
//       below as the ordinary index.
//
//   hc2l query --index index.hc2l [--pairs pairs.txt] [--threads T] [--mmap]
//       Answer distance queries. The index format is sniffed by
//       Router::Open, so the same subcommand serves undirected and directed
//       indexes. Pairs come from --pairs (two 1-based vertex ids per line)
//       or stdin; "s t" -> prints d(s, t) or "inf". With --threads T (or
//       T = 0 for all cores) the pairs are answered by the parallel query
//       engine in input order; without it queries stream one at a time.
//       --mmap (also on route/stats/serve) opens the index with
//       OpenMode::kMmap: the label arenas are mapped in place instead of
//       deserialized.
//
//   hc2l route --index index.hc2l [--pairs pairs.txt] [--k K]
//       Unpack shortest paths. Pairs come from --pairs or stdin like query;
//       "s t" (1-based) -> one line "weight: v1 v2 ... vn" (1-based vertex
//       sequence) or "inf". With --k K >= 2 each pair prints up to K
//       alternative routes, best first. Needs an index with route hints
//       (every `hc2l build` index has them).
//
//   hc2l stats --index index.hc2l
//       Print construction and size statistics of a saved index (either
//       format).
//
//   hc2l serve --index index.hc2l [--port P] [--host H] [--threads T]
//       Serve the index over the hc2ld line-delimited-JSON TCP protocol
//       (docs/server.md). A smoke-test wrapper around the same QueryServer
//       the hc2ld daemon runs; prints the bound port and blocks.
//
//   hc2l client [--port P] [--host H] [--retry N]
//       Connect to a running hc2ld/serve instance, send each stdin line as
//       one request, print the matching response line. --retry N (default
//       50) retries the connect every 100 ms — handy right after starting
//       the server in the background. A matrix request with "stream":true
//       prints every frame of the chunked response, reassembles them
//       client-side, and reports the reassembled size on stderr (exit 1 on
//       an aborted or malformed stream).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "hc2l/hc2l.h"
#include "hc2l/server.h"
#include "server/wire.h"  // StreamReassembler: client-side stream frames
#include "shard/sharded_index.h"

namespace hc2l {
namespace {

/// Minimal flag parser: --name value or boolean --name.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  const char* Get(const char* name) const {
    for (int i = 2; i + 1 < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return argv_[i + 1];
    }
    return nullptr;
  }

  bool Has(const char* name) const {
    for (int i = 2; i < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return true;
    }
    return false;
  }

  double GetDouble(const char* name, double fallback) const {
    const char* v = Get(name);
    return v == nullptr ? fallback : std::atof(v);
  }

  long GetLong(const char* name, long fallback) const {
    const char* v = Get(name);
    return v == nullptr ? fallback : std::atol(v);
  }

 private:
  int argc_;
  char** argv_;
};

/// Validated --threads value: 0 = auto (all cores), else [1, 256]. Returns
/// false (with a message) for negative or absurd values instead of letting a
/// wrapped cast ask for ~4 billion threads.
bool GetThreads(const Args& args, uint32_t* threads) {
  const long value = args.GetLong("--threads", 0);
  if (value < 0 || value > 256) {
    std::fprintf(stderr, "error: --threads must be in [0, 256], got %ld\n",
                 value);
    return false;
  }
  *threads = static_cast<uint32_t>(value);
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Open for every --index consumer: --mmap selects OpenMode::kMmap.
Result<Router> OpenIndex(const Args& args, const char* index_path) {
  return Router::Open(index_path,
                      args.Has("--mmap") ? OpenMode::kMmap : OpenMode::kHeap);
}

int Usage() {
  std::fprintf(stderr,
               "usage: hc2l <generate|build|shard|query|route|stats|serve|"
               "client> [options]\n"
               "  generate --rows R --cols C --out FILE [--seed S] "
               "[--travel-time] [--pendant-frac F] [--oneway-frac F]\n"
               "  generate --model road --vertices N --out FILE [--seed S] "
               "[--travel-time] [--pendant-frac F] [--oneway-frac F]\n"
               "  build    --graph FILE --out FILE [--directed] [--beta B] "
               "[--leaf-size L] [--threads T] [--no-tail-pruning] "
               "[--no-contraction]\n"
               "  shard    --graph FILE --out FILE [--shards N] [--directed] "
               "[--beta B] [--leaf-size L] [--threads T]\n"
               "  query    --index FILE [--pairs FILE] [--threads T] "
               "[--mmap]\n"
               "  route    --index FILE [--pairs FILE] [--k K] [--mmap]\n"
               "  stats    --index FILE [--mmap]\n"
               "  serve    --index FILE [--port P] [--host H] [--threads T] "
               "[--mmap]\n"
               "  client   [--port P] [--host H] [--retry N]\n");
  return 2;
}

int RunGenerate(const Args& args) {
  const char* out = args.Get("--out");
  if (out == nullptr) return Usage();
  RoadNetworkOptions options;
  options.rows = static_cast<uint32_t>(args.GetLong("--rows", 64));
  options.cols = static_cast<uint32_t>(args.GetLong("--cols", 64));
  options.seed = static_cast<uint64_t>(args.GetLong("--seed", 1));
  options.pendant_frac = args.GetDouble("--pendant-frac", 0.3);
  options.weight_mode = args.Has("--travel-time") ? WeightMode::kTravelTime
                                                  : WeightMode::kDistance;
  if (const char* model = args.Get("--model"); model != nullptr) {
    if (std::strcmp(model, "road") != 0) {
      std::fprintf(stderr, "error: unknown --model \"%s\" (only: road)\n",
                   model);
      return 2;
    }
    const long vertices = args.GetLong("--vertices", 0);
    if (vertices < 4) {
      std::fprintf(stderr,
                   "error: --model road needs --vertices N (N >= 4)\n");
      return 2;
    }
    options = RoadNetworkOptionsForVertices(
        static_cast<uint64_t>(vertices), options);
  }
  const double oneway_frac = args.GetDouble("--oneway-frac", 0.0);
  if (oneway_frac < 0.0 || oneway_frac > 1.0) {
    std::fprintf(stderr, "error: --oneway-frac must be in [0, 1]\n");
    return 2;
  }
  if (oneway_frac > 0.0) {
    const Digraph g = GenerateDirectedRoadNetwork(options, oneway_frac);
    if (Status s = WriteDimacsDigraph(g, out); !s.ok()) return Fail(s);
    std::printf("wrote %s: %zu vertices, %zu arcs (directed)\n", out,
                g.NumVertices(), g.NumArcs());
    return 0;
  }
  const Graph g = GenerateRoadNetwork(options);
  if (Status s = WriteDimacsGraph(g, out); !s.ok()) return Fail(s);
  std::printf("wrote %s: %zu vertices, %zu edges\n", out, g.NumVertices(),
              g.NumEdges());
  return 0;
}

int RunBuild(const Args& args) {
  const char* graph_path = args.Get("--graph");
  const char* out = args.Get("--out");
  if (graph_path == nullptr || out == nullptr) return Usage();
  BuildOptions options;
  options.beta = args.GetDouble("--beta", 0.2);
  options.leaf_size = static_cast<uint32_t>(args.GetLong("--leaf-size", 8));
  // Same contract as query: 0 = all cores (the facade resolves it). The
  // default stays 1 thread.
  uint32_t threads = 1;
  if (args.Has("--threads") && !GetThreads(args, &threads)) return 2;
  options.num_threads = threads;
  options.tail_pruning = !args.Has("--no-tail-pruning");
  options.contract_degree_one = !args.Has("--no-contraction");

  Timer timer;
  Result<Router> router = [&]() -> Result<Router> {
    if (args.Has("--directed")) {
      Result<Digraph> graph = ReadDimacsDigraph(graph_path);
      if (!graph.ok()) return graph.status();
      return Router::Build(*graph, options);
    }
    Result<Graph> graph = ReadDimacsGraph(graph_path);
    if (!graph.ok()) return graph.status();
    return Router::Build(*graph, options);
  }();
  if (!router.ok()) return Fail(router.status());

  const IndexInfo info = router->Info();
  std::printf(
      "built %s index in %.2fs: core=%llu/%llu height=%u max_cut=%llu "
      "labels=%s\n",
      info.directed ? "directed" : "undirected", timer.Seconds(),
      static_cast<unsigned long long>(info.num_core_vertices),
      static_cast<unsigned long long>(info.num_vertices), info.tree_height,
      static_cast<unsigned long long>(info.max_cut_size),
      std::to_string(info.label_resident_bytes).c_str());
  if (Status s = router->Save(out); !s.ok()) return Fail(s);
  std::printf("saved %s\n", out);
  return 0;
}

int RunShard(const Args& args) {
  const char* graph_path = args.Get("--graph");
  const char* out = args.Get("--out");
  if (graph_path == nullptr || out == nullptr) return Usage();
  ShardOptions options;
  const long shards = args.GetLong("--shards", 2);
  if (shards < 1 || shards > 4096) {
    std::fprintf(stderr, "error: --shards must be in [1, 4096], got %ld\n",
                 shards);
    return 2;
  }
  options.num_shards = static_cast<uint32_t>(shards);
  options.build_beta = args.GetDouble("--beta", 0.2);
  options.leaf_size = static_cast<uint32_t>(args.GetLong("--leaf-size", 8));
  uint32_t threads = 1;
  if (args.Has("--threads") && !GetThreads(args, &threads)) return 2;
  options.num_threads = threads;

  Timer timer;
  Result<ShardedIndex> index = [&]() -> Result<ShardedIndex> {
    if (args.Has("--directed")) {
      Result<Digraph> graph = ReadDimacsDigraph(graph_path);
      if (!graph.ok()) return graph.status();
      return ShardedIndex::Build(*graph, options);
    }
    Result<Graph> graph = ReadDimacsGraph(graph_path);
    if (!graph.ok()) return graph.status();
    return ShardedIndex::Build(*graph, options);
  }();
  if (!index.ok()) return Fail(index.status());
  std::string members;
  for (const uint64_t count : index->MemberCoreVertices()) {
    if (!members.empty()) members += " ";
    members += std::to_string(count);
  }
  std::printf(
      "sharded %s index in %.2fs: %zu shards, %zu vertices, core vertices "
      "per member: %s\n",
      args.Has("--directed") ? "directed" : "undirected", timer.Seconds(),
      index->NumShards(), index->NumVertices(), members.c_str());
  if (Status s = index->Save(out); !s.ok()) return Fail(s);
  std::printf("saved %s (+ %zu member files)\n", out, index->NumShards());
  return 0;
}

int RunQuery(const Args& args) {
  const char* index_path = args.Get("--index");
  if (index_path == nullptr) return Usage();
  Result<Router> router = OpenIndex(args, index_path);
  if (!router.ok()) return Fail(router.status());
  std::FILE* in = stdin;
  const char* pairs_path = args.Get("--pairs");
  if (pairs_path != nullptr) {
    in = std::fopen(pairs_path, "r");
    if (in == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n", pairs_path);
      return 1;
    }
  }
  const unsigned long long n = router->NumVertices();
  const auto print_dist = [](Dist d) {
    if (d == kInfDist) {
      std::printf("inf\n");
    } else {
      std::printf("%llu\n", static_cast<unsigned long long>(d));
    }
  };

  unsigned long long s = 0;
  unsigned long long t = 0;
  if (!args.Has("--threads")) {
    // Streaming mode: answer each pair as it arrives (stdin-friendly).
    while (std::fscanf(in, "%llu %llu", &s, &t) == 2) {
      if (s < 1 || t < 1 || s > n || t > n) {
        std::printf("out-of-range\n");
        continue;
      }
      print_dist(router->DistanceUnchecked(static_cast<Vertex>(s - 1),
                                           static_cast<Vertex>(t - 1)));
    }
    if (in != stdin) std::fclose(in);
    return 0;
  }

  // Engine mode: read every pair, shard them across the pool, print in
  // input order. Out-of-range pairs keep their line position.
  ParallelOptions parallel_options;
  if (!GetThreads(args, &parallel_options.num_threads)) {
    if (in != stdin) std::fclose(in);
    return 2;
  }
  std::vector<Vertex> sources;
  std::vector<Vertex> targets;
  std::vector<uint8_t> in_range;
  while (std::fscanf(in, "%llu %llu", &s, &t) == 2) {
    const bool ok = s >= 1 && t >= 1 && s <= n && t <= n;
    in_range.push_back(ok ? 1 : 0);
    sources.push_back(ok ? static_cast<Vertex>(s - 1) : 0);
    targets.push_back(ok ? static_cast<Vertex>(t - 1) : 0);
  }
  if (in != stdin) std::fclose(in);

  Result<ThreadedRouter> engine = router->WithThreads(parallel_options);
  if (!engine.ok()) return Fail(engine.status());
  QueryRequest request;
  request.kind = QueryKind::kPointBatch;
  request.sources = sources;
  request.targets = targets;
  std::vector<Dist> dists(targets.size());
  Result<QueryResponse> response =
      engine->Execute(request, QueryOutput(dists));
  if (!response.ok()) return Fail(response.status());
  for (size_t i = 0; i < dists.size(); ++i) {
    if (in_range[i] == 0) {
      std::printf("out-of-range\n");
    } else {
      print_dist(dists[i]);
    }
  }
  return 0;
}

int RunRoute(const Args& args) {
  const char* index_path = args.Get("--index");
  if (index_path == nullptr) return Usage();
  const long k = args.GetLong("--k", 1);
  if (k < 1 || k > 64) {
    std::fprintf(stderr, "error: --k must be in [1, 64], got %ld\n", k);
    return 2;
  }
  Result<Router> router = OpenIndex(args, index_path);
  if (!router.ok()) return Fail(router.status());

  std::FILE* in = stdin;
  const char* pairs_path = args.Get("--pairs");
  if (pairs_path != nullptr) {
    in = std::fopen(pairs_path, "r");
    if (in == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n", pairs_path);
      return 1;
    }
  }
  const unsigned long long n = router->NumVertices();
  // "weight: v1 v2 ... vn" with the CLI's 1-based DIMACS ids, like query.
  const auto print_route = [](const RoutePath& route) {
    if (route.weight == kInfDist) {
      std::printf("inf\n");
      return;
    }
    std::printf("%llu:", static_cast<unsigned long long>(route.weight));
    for (const Vertex v : route.vertices) {
      std::printf(" %llu", static_cast<unsigned long long>(v) + 1);
    }
    std::printf("\n");
  };

  unsigned long long s = 0;
  unsigned long long t = 0;
  RoutePath route;
  int status = 0;
  while (std::fscanf(in, "%llu %llu", &s, &t) == 2) {
    if (s < 1 || t < 1 || s > n || t > n) {
      std::printf("out-of-range\n");
      continue;
    }
    const Vertex from = static_cast<Vertex>(s - 1);
    const Vertex to = static_cast<Vertex>(t - 1);
    if (k == 1) {
      if (const Status st = router->Route(from, to, &route); !st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        status = 1;
        break;
      }
      print_route(route);
      continue;
    }
    const Result<std::vector<RoutePath>> alts =
        router->Routes(from, to, static_cast<size_t>(k));
    if (!alts.ok()) {
      std::fprintf(stderr, "error: %s\n", alts.status().ToString().c_str());
      status = 1;
      break;
    }
    if (alts->empty()) {
      std::printf("inf\n");
      continue;
    }
    for (const RoutePath& alt : *alts) print_route(alt);
  }
  if (in != stdin) std::fclose(in);
  return status;
}

int RunStats(const Args& args) {
  const char* index_path = args.Get("--index");
  if (index_path == nullptr) return Usage();
  Result<Router> router = OpenIndex(args, index_path);
  if (!router.ok()) return Fail(router.status());
  const IndexInfo s = router->Info();
  std::printf("flavour:         %s\n", s.directed ? "directed" : "undirected");
  std::printf("vertices:        %llu\n",
              static_cast<unsigned long long>(s.num_vertices));
  std::printf("core vertices:   %llu (%llu contracted)\n",
              static_cast<unsigned long long>(s.num_core_vertices),
              static_cast<unsigned long long>(s.num_contracted));
  std::printf("tree height:     %u\n", s.tree_height);
  std::printf("tree nodes:      %llu\n",
              static_cast<unsigned long long>(s.num_tree_nodes));
  std::printf("max cut size:    %llu\n",
              static_cast<unsigned long long>(s.max_cut_size));
  std::printf("avg cut size:    %.2f\n", s.avg_cut_size);
  std::printf("shortcuts:       %llu\n",
              static_cast<unsigned long long>(s.num_shortcuts));
  std::printf("label entries:   %llu\n",
              static_cast<unsigned long long>(s.label_entries));
  // "label bytes" keeps its historical meaning (the paper-comparable
  // logical size); the padded in-memory footprint gets its own line.
  std::printf("label bytes:     %llu\n",
              static_cast<unsigned long long>(s.label_logical_bytes));
  std::printf("resident bytes:  %llu\n",
              static_cast<unsigned long long>(s.label_resident_bytes));
  std::printf("lca bytes:       %llu\n",
              static_cast<unsigned long long>(s.lca_bytes));
  std::printf("mapped bytes:    %llu\n",
              static_cast<unsigned long long>(s.mapped_bytes));
  std::printf("heap bytes:      %llu\n",
              static_cast<unsigned long long>(s.heap_bytes));
  if (s.num_shards > 0) {
    std::printf("shards:          %llu\n",
                static_cast<unsigned long long>(s.num_shards));
  }
  std::printf("build seconds:   %.3f\n", s.build_seconds);
  return 0;
}

int RunServe(const Args& args) {
  const char* index_path = args.Get("--index");
  if (index_path == nullptr) return Usage();
  ServerOptions options;
  if (const char* host = args.Get("--host"); host != nullptr) {
    options.host = host;
  }
  const long port = args.GetLong("--port", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "error: --port must be in [0, 65535]\n");
    return 2;
  }
  options.port = static_cast<uint16_t>(port);
  uint32_t threads = 0;
  if (args.Has("--threads") && !GetThreads(args, &threads)) return 2;
  options.num_threads = threads;

  Result<Router> router = OpenIndex(args, index_path);
  if (!router.ok()) return Fail(router.status());
  Result<QueryServer> server = QueryServer::Start(*router, options);
  if (!server.ok()) return Fail(server.status());
  std::printf("hc2l serve: listening on %s:%u (%s)\n", options.host.c_str(),
              server->port(), router->directed() ? "directed" : "undirected");
  std::fflush(stdout);
  server->Wait();  // until the process is killed
  return 0;
}

int RunClient(const Args& args) {
  const char* host = args.Get("--host");
  if (host == nullptr) host = "127.0.0.1";
  const long port = args.GetLong("--port", 0);
  if (port < 1 || port > 65535) {
    std::fprintf(stderr, "error: client needs --port in [1, 65535]\n");
    return 2;
  }
  const long retries = std::max(1L, args.GetLong("--retry", 50));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host, &addr.sin_addr) != 1) {
    std::fprintf(stderr, "error: cannot parse host \"%s\" (expected IPv4)\n",
                 host);
    return 2;
  }
  int fd = -1;
  for (long attempt = 0; attempt < retries; ++attempt) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      break;
    }
    close(fd);
    fd = -1;
    usleep(100'000);  // the server may still be starting up
  }
  if (fd < 0) {
    std::fprintf(stderr, "error: cannot connect to %s:%ld\n", host, port);
    return 1;
  }

  // One request line in, one response line out, in order.
  std::string response_buf;
  char line[1 << 16];
  int status = 0;
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    size_t len = std::strlen(line);
    // Skip lines the server will not answer (it ignores all-whitespace
    // lines, incl. CRLF blanks) — sending one would leave us waiting for a
    // response that never comes.
    if (std::strspn(line, " \t\r\n") == len) continue;
    if (line[len - 1] != '\n') {
      line[len] = '\n';  // fgets guarantees room: len < sizeof(line)
      ++len;
    }
    size_t sent = 0;
    while (sent < len) {
      const ssize_t n = send(fd, line + sent, len - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        std::fprintf(stderr, "error: connection closed while sending\n");
        close(fd);
        return 1;
      }
      sent += static_cast<size_t>(n);
    }
    const auto read_response_line = [&](std::string* out) {
      size_t nl;
      while ((nl = response_buf.find('\n')) == std::string::npos) {
        char buf[8192];
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        response_buf.append(buf, static_cast<size_t>(n));
      }
      out->assign(response_buf, 0, nl);
      response_buf.erase(0, nl + 1);
      return true;
    };
    // A streamed matrix request ("stream":true) answers with SEVERAL
    // response lines: header, chunk frames, trailer. Detect it on the
    // request side (whitespace-insensitively) and reassemble client-side;
    // every other request gets exactly one response line.
    std::string compact;
    for (size_t i = 0; i < len; ++i) {
      if (line[i] != ' ' && line[i] != '\t') compact.push_back(line[i]);
    }
    const bool streamed = compact.find("\"stream\":true") != std::string::npos;
    if (streamed) {
      StreamReassembler stream;
      std::string frame;
      for (;;) {
        if (!read_response_line(&frame)) {
          std::fprintf(stderr, "error: connection closed mid-stream\n");
          close(fd);
          return 1;
        }
        std::printf("%s\n", frame.c_str());
        std::fflush(stdout);
        const Status fed = stream.Feed(frame);
        if (!fed.ok()) {
          // Covers both malformed frames and a server-side mid-stream
          // abort ({"ok":false,...} instead of the trailer).
          std::fprintf(stderr, "error: stream aborted: %s\n",
                       fed.ToString().c_str());
          close(fd);
          return 1;
        }
        if (stream.done()) break;
      }
      std::fprintf(stderr,
                   "stream reassembled: %llu x %llu matrix, %llu chunks, "
                   "%zu entries\n",
                   static_cast<unsigned long long>(stream.rows()),
                   static_cast<unsigned long long>(stream.cols()),
                   static_cast<unsigned long long>(stream.chunks()),
                   stream.distances().size());
      continue;
    }
    std::string response;
    if (!read_response_line(&response)) {
      std::fprintf(stderr, "error: connection closed before a response\n");
      close(fd);
      return 1;
    }
    std::printf("%s\n", response.c_str());
    std::fflush(stdout);
    // Non-zero exit when any response reports failure, so scripts can
    // assert a whole session succeeded.
    if (response.compare(0, 11, "{\"ok\":false") == 0) status = 1;
  }
  close(fd);
  return status;
}

}  // namespace
}  // namespace hc2l

int main(int argc, char** argv) {
  if (argc < 2) return hc2l::Usage();
  const std::string command = argv[1];
  const hc2l::Args args(argc, argv);
  if (command == "generate") return hc2l::RunGenerate(args);
  if (command == "build") return hc2l::RunBuild(args);
  if (command == "shard") return hc2l::RunShard(args);
  if (command == "query") return hc2l::RunQuery(args);
  if (command == "route") return hc2l::RunRoute(args);
  if (command == "stats") return hc2l::RunStats(args);
  if (command == "serve") return hc2l::RunServe(args);
  if (command == "client") return hc2l::RunClient(args);
  return hc2l::Usage();
}
