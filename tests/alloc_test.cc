// Steady-state allocation regression tests for the decision path and the
// simulator. This binary links common/alloc_hooks.cc (counting operator
// new), so the thread-local counters observe every heap allocation the
// agents and the simulator make. After a warmup that sizes the per-agent
// workspaces, SelectActionInto and GreedyActionInto must allocate NOTHING —
// the control loop calls them once per scheduling decision and the paper's
// 20-minute runs make thousands. The simulator's event loop, which runs
// every offline sample and online epoch, must stay (almost) off the heap
// once its queues, pools and tables have grown to their working size. So
// must both agents' training steps, which offline pre-training and every
// online epoch run back to back.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/alloc_hooks.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "rl/ddpg_agent.h"
#include "rl/dqn_agent.h"
#include "rl/policy.h"
#include "rl/state.h"
#include "sched/scheduler.h"
#include "sim/cluster_sim.h"
#include "topo/apps.h"

namespace drlstream {
namespace {

rl::State MakeState(int n, int m, int spouts, Rng* rng) {
  rl::State state;
  state.assignments.resize(n);
  for (int i = 0; i < n; ++i) state.assignments[i] = rng->UniformInt(0, m - 1);
  state.spout_rates.assign(spouts, 900.0);
  return state;
}

/// Warmup then measure: returns the allocation count over `measure` calls
/// of `fn` after `warmup` unmeasured calls.
template <typename Fn>
size_t SteadyStateAllocs(int warmup, int measure, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  const AllocCounters before = ReadAllocCounters();
  for (int i = 0; i < measure; ++i) fn();
  return AllocDelta(before).allocations;
}

TEST(AllocTest, CountersObserveHeapAllocations) {
  const AllocCounters before = ReadAllocCounters();
  std::vector<double> v(1024);
  asm volatile("" : : "g"(v.data()) : "memory");  // keep the buffer alive
  const AllocCounters delta = AllocDelta(before);
  EXPECT_GE(delta.allocations, 1u);  // at least the vector's buffer
  EXPECT_GE(delta.bytes, 1024 * sizeof(double));
}

TEST(AllocTest, DdpgSelectActionIntoIsAllocationFreeAfterWarmup) {
  const int n = 20, m = 5;
  rl::StateEncoder encoder(n, m, 2, 900.0);
  rl::DdpgConfig config;
  config.knn_k = 8;
  rl::DdpgAgent agent(encoder, config);
  Rng state_rng(3);
  const rl::State state = MakeState(n, m, 2, &state_rng);
  Rng rng(17);
  rl::PolicyAction action;
  const size_t allocs = SteadyStateAllocs(64, 256, [&] {
    ASSERT_TRUE(agent.SelectActionInto(state, 0.2, &rng, &action).ok());
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocTest, DdpgClosedLoopDecisionsAreAllocationFreeAfterWarmup) {
  // CQ-large shape (N = 100, M = 10, K = 32), each next state the chosen
  // schedule, at serve_ddpg's epsilon: the candidate sets, and with them
  // the trie gather's checkpoints and deviation lists, change shape every
  // decision.
  const int n = 100, m = 10;
  rl::StateEncoder encoder(n, m, 10, 900.0);
  rl::DdpgConfig config;
  config.knn_k = 32;
  rl::DdpgAgent agent(encoder, config);
  Rng state_rng(6);
  rl::State state = MakeState(n, m, 10, &state_rng);
  Rng rng(21);
  rl::PolicyAction action;
  const size_t allocs = SteadyStateAllocs(16, 128, [&] {
    ASSERT_TRUE(agent.SelectActionInto(state, 0.5, &rng, &action).ok());
    std::copy(action.schedule.assignments().begin(),
              action.schedule.assignments().end(), state.assignments.begin());
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocTest, DdpgGreedyActionIntoIsAllocationFreeAfterWarmup) {
  const int n = 20, m = 5;
  rl::StateEncoder encoder(n, m, 2, 900.0);
  rl::DdpgAgent agent(encoder, rl::DdpgConfig{});
  Rng state_rng(4);
  const rl::State state = MakeState(n, m, 2, &state_rng);
  sched::Schedule out(1, 1);
  const size_t allocs = SteadyStateAllocs(4, 64, [&] {
    ASSERT_TRUE(agent.GreedyActionInto(state, &out).ok());
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocTest, DqnSelectActionIntoIsAllocationFreeAfterWarmup) {
  const int n = 20, m = 5;
  rl::StateEncoder encoder(n, m, 2, 900.0);
  rl::DqnAgent agent(encoder, rl::DqnConfig{});
  Rng state_rng(5);
  const rl::State state = MakeState(n, m, 2, &state_rng);
  Rng rng(19);
  rl::PolicyAction action;
  const size_t allocs = SteadyStateAllocs(64, 256, [&] {
    ASSERT_TRUE(agent.SelectActionInto(state, 0.2, &rng, &action).ok());
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocTest, DqnGreedyActionIntoIsAllocationFreeAfterWarmup) {
  const int n = 20, m = 5;
  rl::StateEncoder encoder(n, m, 2, 900.0);
  rl::DqnAgent agent(encoder, rl::DqnConfig{});
  Rng state_rng(6);
  const rl::State state = MakeState(n, m, 2, &state_rng);
  sched::Schedule out(1, 1);
  const size_t allocs = SteadyStateAllocs(4, 64, [&] {
    ASSERT_TRUE(agent.GreedyActionInto(state, &out).ok());
  });
  EXPECT_EQ(allocs, 0u);
}

/// A random transition between two random states, as replay holds them.
rl::Transition MakeTransition(int n, int m, int spouts, Rng* rng) {
  rl::Transition t;
  t.state = MakeState(n, m, spouts, rng);
  t.next_state = MakeState(n, m, spouts, rng);
  t.action_assignments = t.next_state.assignments;
  t.move_index = rng->UniformInt(0, n * m - 1);
  t.reward = rng->Uniform(-3.0, 0.0);
  return t;
}

/// Sets the global pool's size for one test and restores it after.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(int threads) : saved_(GlobalThreadCount()) {
    SetGlobalThreadCount(threads);
  }
  ~ScopedThreadCount() { SetGlobalThreadCount(saved_); }

 private:
  int saved_;
};

// The training steps, run back to back as offline pre-training runs them,
// sample into the trainer's reused minibatch and keep every pass's buffers,
// the first layers' nonzero lists included, in preallocated workspaces.
// The counters see the calling thread only. DDPG's target phase keeps one
// scratch per pool worker, grown on the worker's first task, and which
// worker runs which task depends on timing; at one thread the caller runs
// them all, so its scratch is warm after the first step. The pool's own
// share, ParallelFor, is pinned at four threads below.
TEST(AllocTest, DdpgTrainStepIsAllocationFreeAfterWarmup) {
  const ScopedThreadCount threads(1);
  const int n = 20, m = 5;
  rl::StateEncoder encoder(n, m, 2, 900.0);
  rl::DdpgConfig config;
  config.knn_k = 8;
  rl::DdpgAgent agent(encoder, config);
  Rng rng(8);
  for (int i = 0; i < 64; ++i) agent.Observe(MakeTransition(n, m, 2, &rng));
  const size_t allocs = SteadyStateAllocs(4, 16, [&] { agent.TrainStep(); });
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocTest, DqnTrainStepIsAllocationFreeAfterWarmup) {
  const int n = 20, m = 5;
  rl::StateEncoder encoder(n, m, 2, 900.0);
  rl::DqnAgent agent(encoder, rl::DqnConfig{});
  Rng rng(9);
  for (int i = 0; i < 64; ++i) agent.Observe(MakeTransition(n, m, 2, &rng));
  const size_t allocs = SteadyStateAllocs(4, 16, [&] { agent.TrainStep(); });
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocTest, ParallelForAllocatesNothing) {
  // A closure too large for std::function's inline buffer, on a pool with
  // background workers: the pool references the closure and reuses its
  // one job record.
  ThreadPool pool(4);
  std::vector<double> out(64);
  const double a = 1.5, b = 2.5, c = 3.5, d = 4.5;
  const auto body = [&out, a, b, c, d](int i, int) {
    out[i] = a * i + b + c + d;
  };
  static_assert(sizeof(body) > 2 * sizeof(void*));
  const auto fill = [&] {
    pool.ParallelFor(static_cast<int>(out.size()), body);
  };
  EXPECT_EQ(SteadyStateAllocs(2, 64, fill), 0u);
  EXPECT_EQ(out[10], 25.5);
}

/// Runs `app` (seed 7, round-robin) for two simulated seconds of warm-up;
/// the simulated second after that must make fewer than one allocation per
/// 1000 events processed. What remains is growth (the event heap or an
/// executor queue reaching a new peak depth), not per-event traffic.
void ExpectSteadySimSecondOffTheHeap(const topo::App& app,
                                     long long min_events) {
  topo::ClusterConfig cluster;
  sched::RoundRobinScheduler scheduler;
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = scheduler.ComputeSchedule(context);
  ASSERT_TRUE(schedule.ok());
  sim::SimOptions options;
  options.seed = 7;
  sim::ClusterSim simulator(cluster, options);
  ASSERT_TRUE(
      simulator.AddTenant(&app.topology, &app.workload, *schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(2000.0);
  const long long events_before = simulator.counters().events_processed;
  const AllocCounters before = ReadAllocCounters();
  simulator.RunFor(1000.0);
  const size_t allocations = AllocDelta(before).allocations;
  const long long events =
      simulator.counters().events_processed - events_before;
  EXPECT_GT(events, min_events);
  EXPECT_LT(static_cast<long long>(allocations) * 1000, events)
      << allocations << " allocations for " << events << " events";
}

TEST(AllocTest, SimulatorWordCountSteadyStateStaysOffTheHeap) {
  ExpectSteadySimSecondOffTheHeap(topo::BuildWordCount(), 100000);
}

TEST(AllocTest, SimulatorCqLargeSteadyStateStaysOffTheHeap) {
  ExpectSteadySimSecondOffTheHeap(
      topo::BuildContinuousQueries(topo::Scale::kLarge), 10000);
}

}  // namespace
}  // namespace drlstream
