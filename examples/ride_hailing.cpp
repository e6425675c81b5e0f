// Ride hailing: the paper's motivating workload (Section 1) — match each
// customer to their nearest cars, requiring millions of shortest-path
// distances per second. This example places cars and customers on a
// synthetic city, answers every car-customer distance with one kMatrix
// request to the facade's Execute, and contrasts the sequential throughput
// with the parallel query handle (Router::WithThreads), which shards the
// same request across all cores with bit-identical results.
//
//   $ ./build/example_ride_hailing

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "hc2l/hc2l.h"

int main() {
  using namespace hc2l;

  RoadNetworkOptions opt;
  opt.rows = 60;
  opt.cols = 60;
  opt.seed = 7;
  opt.weight_mode = WeightMode::kTravelTime;
  const Graph city = GenerateRoadNetwork(opt);
  std::printf("City: %zu intersections, %zu road segments\n",
              city.NumVertices(), city.NumEdges());

  Timer build_timer;
  Result<Router> built = Router::Build(city);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const Router& index = *built;
  std::printf("HC2L built in %.2fs (%llu label bytes)\n", build_timer.Seconds(),
              static_cast<unsigned long long>(
                  index.Info().label_resident_bytes));

  // 100 idle cars, 500 waiting customers.
  Rng rng(99);
  std::vector<Vertex> cars(100);
  std::vector<Vertex> customers(500);
  for (Vertex& v : cars) v = static_cast<Vertex>(rng.Below(city.NumVertices()));
  for (Vertex& v : customers) {
    v = static_cast<Vertex>(rng.Below(city.NumVertices()));
  }
  const uint64_t num_queries =
      static_cast<uint64_t>(cars.size()) * customers.size();

  // Nearest 3 cars per customer from the row-major car-customer matrix.
  constexpr size_t kNearest = 3;
  const auto match = [&](const std::vector<Dist>& car_to_customer) {
    uint64_t assignments = 0;
    std::vector<std::pair<Dist, Vertex>> ranked;
    for (size_t c = 0; c < customers.size(); ++c) {
      ranked.clear();
      for (size_t car = 0; car < cars.size(); ++car) {
        ranked.emplace_back(car_to_customer[car * customers.size() + c],
                            cars[car]);
      }
      std::partial_sort(ranked.begin(), ranked.begin() + kNearest,
                        ranked.end());
      assignments += kNearest;
    }
    return assignments;
  };

  QueryRequest request;
  request.kind = QueryKind::kMatrix;
  request.sources = cars;
  request.targets = customers;
  Timer seq_timer;
  std::vector<Dist> matrix(num_queries);
  if (Result<QueryResponse> r = index.Execute(request, QueryOutput(matrix));
      !r.ok()) {
    std::fprintf(stderr, "matrix failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  match(matrix);
  const double seq_seconds = seq_timer.Seconds();
  std::printf(
      "Sequential matching: %llu distance queries in %.3fs (%.2f M "
      "queries/s)\n",
      static_cast<unsigned long long>(num_queries), seq_seconds,
      num_queries / seq_seconds / 1e6);

  // The same workload through the parallel handle: every core shards the
  // matrix; results are bit-identical to the sequential call.
  Result<ThreadedRouter> engine = index.WithThreads(0);  // all cores
  if (!engine.ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  Timer par_timer;
  std::vector<Dist> par_matrix(num_queries);
  if (Result<QueryResponse> r =
          engine->Execute(request, QueryOutput(par_matrix));
      !r.ok()) {
    std::fprintf(stderr, "parallel matrix failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  match(par_matrix);
  const double par_seconds = par_timer.Seconds();
  const bool identical = par_matrix == matrix;
  std::printf(
      "Parallel matching (%u threads): %.3fs (%.2f M queries/s, %.2fx) — "
      "results %s\n",
      engine->NumThreads(), par_seconds, num_queries / par_seconds / 1e6,
      seq_seconds / par_seconds, identical ? "bit-identical" : "DIFFER!");
  return identical ? 0 : 1;
}
