// Micro: the multi-tenant decision pipeline — one scheduler brain (a
// single DDPG agent sized for the tenant shape) serving T tenants'
// decisions per control epoch through SelectActionBatch: per tenant the
// actor with its sparse first layer, the exact K-NN solve and the batched
// critic candidate scoring. The
// N=1000 x M=100 points pin the scale target: the whole pipeline must
// complete and stay allocation-free once the workspaces have warmed up.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/alloc_hooks.h"
#include "common/rng.h"
#include "rl/ddpg_agent.h"

using namespace drlstream;

namespace {

/// Per-iteration heap-allocation counters (counting operator new from
/// common/alloc_hooks.h, linked into this binary).
void ReportAllocs(benchmark::State& state, const AllocCounters& delta) {
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(delta.allocations),
      benchmark::Counter::kAvgIterations);
  state.counters["bytes/iter"] = benchmark::Counter(
      static_cast<double>(delta.bytes), benchmark::Counter::kAvgIterations);
}

}  // namespace

static void BM_MultiTenantDecision(benchmark::State& state) {
  const int tenants = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int m = static_cast<int>(state.range(2));
  const int num_spouts = 1;

  rl::StateEncoder encoder(n, m, num_spouts, /*rate_norm=*/1000.0);
  rl::DdpgConfig config;
  config.seed = 11;
  rl::DdpgAgent agent(encoder, config);

  // Per-tenant states on the shared cluster: every tenant runs the same
  // topology shape but from its own current deployment, all machines up.
  std::vector<rl::State> states(tenants);
  for (int t = 0; t < tenants; ++t) {
    states[t].tenant = t;
    states[t].assignments.resize(n);
    for (int i = 0; i < n; ++i) states[t].assignments[i] = (i + t) % m;
    states[t].spout_rates.assign(num_spouts, 800.0 + 25.0 * t);
    states[t].machine_up.assign(m, 1);
  }

  Rng rng(42);
  std::vector<rl::PolicyAction> actions(tenants);
  std::vector<rl::DecisionRequest> slots(tenants);
  for (int t = 0; t < tenants; ++t) {
    slots[t].state = &states[t];
    slots[t].epsilon = 0.0;  // greedy: the steady-state serving path
    slots[t].rng = &rng;
    slots[t].out = &actions[t];
  }

  // One warmup round sizes every workspace (batch tape, K-NN scratch,
  // critic score matrices, result schedules); the measured loop must then
  // run allocation-free.
  agent.SelectActionBatch(slots.data(), tenants);

  const AllocCounters before = ReadAllocCounters();
  for (auto _ : state) {
    agent.SelectActionBatch(slots.data(), tenants);
    benchmark::DoNotOptimize(actions.data());
  }
  ReportAllocs(state, AllocDelta(before));
  state.counters["decisions/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * tenants,
      benchmark::Counter::kIsRate);
  state.SetLabel("T=" + std::to_string(tenants) + " N=" + std::to_string(n) +
                 " M=" + std::to_string(m));
}
BENCHMARK(BM_MultiTenantDecision)
    ->Args({1, 100, 10})
    ->Args({4, 100, 10})
    ->Args({16, 100, 10})
    ->Args({16, 300, 30})
    ->Args({4, 1000, 100})
    ->Args({16, 1000, 100})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
