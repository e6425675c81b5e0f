// k-nearest POI recommendation (Section 1: "providing recommendation on
// k-nearest POIs to their customers"): given a set of points of interest,
// answer "nearest k restaurants to this user" with exact road distances
// through a kNearest request to Router::Execute. Also demonstrates
// persistence through the
// facade: Save writes the flavour's format, Router::Open sniffs the magic
// and reloads the right index — the workflow a serving system uses to skip
// reconstruction at startup.
//
//   $ ./build/example_poi_recommendation

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "hc2l/hc2l.h"

int main() {
  using namespace hc2l;

  RoadNetworkOptions opt;
  opt.rows = 55;
  opt.cols = 55;
  opt.seed = 23;
  const Graph city = GenerateRoadNetwork(opt);
  Result<Router> built = Router::Build(city);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }

  // Persist and reload — a serving process would load at startup. Open
  // sniffs the format magic, so the caller never states the flavour.
  const std::string path = "/tmp/hc2l_poi_index.bin";
  if (Status s = built->Save(path); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  Timer load_timer;
  Result<Router> loaded = Router::Open(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const Router& index = *loaded;
  std::printf("Index persisted to %s and reloaded (%s) in %.1f ms\n",
              path.c_str(), index.directed() ? "directed" : "undirected",
              load_timer.Millis());

  // 200 POIs ("restaurants"), 5 query users.
  Rng rng(55);
  std::vector<Vertex> pois(200);
  for (Vertex& p : pois) p = static_cast<Vertex>(rng.Below(city.NumVertices()));

  constexpr size_t kNearest = 5;
  QueryRequest request;
  request.kind = QueryKind::kKNearest;
  request.targets = pois;
  request.k = kNearest;
  std::vector<Dist> dists(kNearest);
  std::vector<Vertex> nearest(kNearest);
  for (int user = 0; user < 5; ++user) {
    const Vertex location = static_cast<Vertex>(rng.Below(city.NumVertices()));
    request.sources = std::span<const Vertex>(&location, 1);
    const Result<QueryResponse> ranked =
        index.Execute(request, QueryOutput(dists, nearest));
    if (!ranked.ok()) {
      std::fprintf(stderr, "k-nearest failed: %s\n",
                   ranked.status().ToString().c_str());
      return 1;
    }
    std::printf("user at %u -> nearest POIs:", location);
    for (size_t i = 0; i < ranked->written; ++i) {
      std::printf(" %u (%llum)", nearest[i],
                  static_cast<unsigned long long>(dists[i]));
    }
    std::printf("\n");
  }
  std::remove(path.c_str());
  return 0;
}
