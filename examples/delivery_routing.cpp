// Delivery route optimisation: plan a multi-stop delivery tour (another
// motivating application from Section 1 — "optimizing delivery routes with
// multiple pick up and drop off points"). One kMatrix request to the
// hc2l::Router facade fills the full stop-to-stop distance matrix; a
// nearest-neighbour + 2-opt heuristic builds the tour.
//
//   $ ./build/example_delivery_routing

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "hc2l/hc2l.h"

int main() {
  using namespace hc2l;

  RoadNetworkOptions opt;
  opt.rows = 50;
  opt.cols = 50;
  opt.seed = 17;
  const Graph city = GenerateRoadNetwork(opt);
  Result<Router> built = Router::Build(city);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const Router& index = *built;

  // A depot and 30 delivery stops.
  Rng rng(4);
  const Vertex depot = static_cast<Vertex>(rng.Below(city.NumVertices()));
  std::vector<Vertex> stops{depot};
  for (int i = 0; i < 30; ++i) {
    stops.push_back(static_cast<Vertex>(rng.Below(city.NumVertices())));
  }
  const size_t k = stops.size();

  // Full distance matrix from the index — k^2 exact distances in one
  // request, written row-major into a buffer the caller owns.
  Timer timer;
  QueryRequest request;
  request.kind = QueryKind::kMatrix;
  request.sources = stops;
  request.targets = stops;
  std::vector<Dist> flat(k * k);
  const Result<QueryResponse> response =
      index.Execute(request, QueryOutput(flat));
  if (!response.ok()) {
    std::fprintf(stderr, "matrix failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  const auto matrix = [&](size_t from, size_t to) {
    return flat[from * k + to];
  };
  std::printf("Distance matrix (%zux%zu) in %.3f ms\n", k, k,
              timer.Millis());

  // Nearest-neighbour tour from the depot.
  std::vector<size_t> tour{0};
  std::vector<uint8_t> visited(k, 0);
  visited[0] = 1;
  while (tour.size() < k) {
    const size_t last = tour.back();
    size_t best = SIZE_MAX;
    for (size_t j = 0; j < k; ++j) {
      if (!visited[j] &&
          (best == SIZE_MAX || matrix(last, j) < matrix(last, best))) {
        best = j;
      }
    }
    visited[best] = 1;
    tour.push_back(best);
  }
  auto tour_length = [&](const std::vector<size_t>& t) {
    Dist total = 0;
    for (size_t i = 0; i + 1 < t.size(); ++i) total += matrix(t[i], t[i + 1]);
    total += matrix(t.back(), t.front());
    return total;
  };
  const Dist greedy = tour_length(tour);

  // 2-opt refinement: keep a reversal only if it shortens the tour.
  Dist current = greedy;
  bool improved = true;
  while (improved) {
    improved = false;
    for (size_t i = 1; i + 1 < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        std::reverse(tour.begin() + i, tour.begin() + j + 1);
        const Dist candidate = tour_length(tour);
        if (candidate < current) {
          current = candidate;
          improved = true;
        } else {
          std::reverse(tour.begin() + i, tour.begin() + j + 1);
        }
      }
    }
  }
  const Dist optimised = tour_length(tour);
  std::printf("Tour over %zu stops: greedy %llu m, after 2-opt %llu m "
              "(%.1f%% shorter)\n",
              k, static_cast<unsigned long long>(greedy),
              static_cast<unsigned long long>(optimised),
              100.0 * (1.0 - static_cast<double>(optimised) / greedy));
  return 0;
}
