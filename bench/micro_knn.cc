// Micro: the MIQP-NN K-nearest-actions optimizer. The paper reports Gurobi
// solving its MIQP-NN instances "within 10 ms on a regular desktop"; the
// separable exact solver here is orders of magnitude faster.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "miqp/knn_solver.h"

using namespace drlstream;

static void BM_KnnSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  Rng rng(42);
  std::vector<double> proto(static_cast<size_t>(n) * m);
  for (double& v : proto) v = rng.Uniform(-1.0, 1.0);
  miqp::KnnActionSolver solver(n, m);
  for (auto _ : state) {
    auto result = solver.Solve(proto, k);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel("N=" + std::to_string(n) + " M=" + std::to_string(m) +
                 " K=" + std::to_string(k));
}
BENCHMARK(BM_KnnSolver)
    ->Args({20, 10, 16})
    ->Args({50, 10, 16})
    ->Args({100, 10, 16})
    ->Args({100, 10, 32})
    ->Args({100, 10, 64})
    ->Args({500, 20, 32});

BENCHMARK_MAIN();
