// Micro: cost of the DRL agents' training steps with the paper's network
// sizes (2 hidden layers of 64 and 32 tanh units) at the large topology's
// state dimensionality (N = 100 executors, M = 10 machines).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/alloc_hooks.h"
#include "common/flags.h"
#include "rl/ddpg_agent.h"
#include "rl/dqn_agent.h"

using namespace drlstream;

namespace {

/// Attaches per-iteration heap-allocation counters (counting operator new
/// from common/alloc_hooks.h, linked into this binary) to a bench.
void ReportAllocs(benchmark::State& state, const AllocCounters& delta) {
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(delta.allocations),
      benchmark::Counter::kAvgIterations);
  state.counters["bytes/iter"] = benchmark::Counter(
      static_cast<double>(delta.bytes), benchmark::Counter::kAvgIterations);
}

rl::Transition MakeTransition(const rl::StateEncoder& encoder, Rng* rng) {
  rl::Transition t;
  const int n = encoder.num_executors();
  const int m = encoder.num_machines();
  t.state.assignments.resize(n);
  t.next_state.assignments.resize(n);
  for (int i = 0; i < n; ++i) {
    t.state.assignments[i] = rng->UniformInt(0, m - 1);
    t.next_state.assignments[i] = rng->UniformInt(0, m - 1);
  }
  t.state.spout_rates.assign(encoder.num_spouts(), 900.0);
  t.next_state.spout_rates = t.state.spout_rates;
  t.action_assignments = t.next_state.assignments;
  t.move_index = rng->UniformInt(0, n * m - 1);
  t.reward = rng->Uniform(-3.0, 0.0);
  return t;
}

}  // namespace

static void BM_DdpgTrainStep(benchmark::State& state) {
  rl::StateEncoder encoder(100, 10, 10, 900.0);
  rl::DdpgConfig config;
  config.knn_k = static_cast<int>(state.range(0));
  rl::DdpgAgent agent(encoder, config);
  Rng rng(3);
  for (int i = 0; i < 256; ++i) agent.Observe(MakeTransition(encoder, &rng));
  const AllocCounters before = ReadAllocCounters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.TrainStep());
  }
  ReportAllocs(state, AllocDelta(before));
  state.SetLabel("K=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_DdpgTrainStep)->Arg(8)->Arg(16)->Arg(32)->Unit(
    benchmark::kMillisecond);

// Single-sample baseline for the batched path above; the ratio between the
// two is the speedup reported in DESIGN.md "Performance architecture".
static void BM_DdpgTrainStepReference(benchmark::State& state) {
  rl::StateEncoder encoder(100, 10, 10, 900.0);
  rl::DdpgConfig config;
  config.knn_k = static_cast<int>(state.range(0));
  rl::DdpgAgent agent(encoder, config);
  Rng rng(3);
  for (int i = 0; i < 256; ++i) agent.Observe(MakeTransition(encoder, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.TrainStepReference());
  }
  state.SetLabel("K=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_DdpgTrainStepReference)->Arg(32)->Unit(benchmark::kMillisecond);

static void BM_DqnTrainStep(benchmark::State& state) {
  rl::StateEncoder encoder(100, 10, 10, 900.0);
  rl::DqnAgent agent(encoder, rl::DqnConfig{});
  Rng rng(3);
  for (int i = 0; i < 256; ++i) agent.Observe(MakeTransition(encoder, &rng));
  const AllocCounters before = ReadAllocCounters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.TrainStep());
  }
  ReportAllocs(state, AllocDelta(before));
}
BENCHMARK(BM_DqnTrainStep)->Unit(benchmark::kMillisecond);

static void BM_DqnTrainStepReference(benchmark::State& state) {
  rl::StateEncoder encoder(100, 10, 10, 900.0);
  rl::DqnAgent agent(encoder, rl::DqnConfig{});
  Rng rng(3);
  for (int i = 0; i < 256; ++i) agent.Observe(MakeTransition(encoder, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.TrainStepReference());
  }
}
BENCHMARK(BM_DqnTrainStepReference)->Unit(benchmark::kMillisecond);

// The control loop's per-decision cost on the allocation-free path: after a
// one-call warmup populates the agent workspace and `action`'s storage,
// steady-state iterations must report allocs/iter == 0 (pinned by
// tests/alloc_test.cc).
static void BM_DdpgSelectAction(benchmark::State& state) {
  rl::StateEncoder encoder(100, 10, 10, 900.0);
  rl::DdpgConfig config;
  rl::DdpgAgent agent(encoder, config);
  Rng rng(3);
  rl::Transition t = MakeTransition(encoder, &rng);
  rl::PolicyAction action;
  benchmark::DoNotOptimize(
      agent.SelectActionInto(t.state, 0.1, &rng, &action));  // warmup
  const AllocCounters before = ReadAllocCounters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.SelectActionInto(t.state, 0.1, &rng, &action));
  }
  ReportAllocs(state, AllocDelta(before));
}
BENCHMARK(BM_DdpgSelectAction)->Unit(benchmark::kMicrosecond);

// Custom main: benchmark::Initialize consumes its own --benchmark_* flags,
// then whatever is left goes through the repo's flag parser, which accepts
// only the process flags (e.g. --threads=N sizes the pool as in repro).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  auto flags_or = Flags::Parse(argc, argv, {});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  ApplyProcessFlags(*flags_or);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
