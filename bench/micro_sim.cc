// Micro: simulator event throughput for the three applications — the cost
// of one simulated second of cluster time under the default deployment.

#include <benchmark/benchmark.h>

#include "common/alloc_hooks.h"
#include "sched/scheduler.h"
#include "sim/cluster_sim.h"
#include "sim/faults.h"
#include "topo/apps.h"

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

void RunSim(benchmark::State& state, topo::App app) {
  topo::ClusterConfig cluster;
  sched::RoundRobinScheduler scheduler;
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = scheduler.ComputeSchedule(context);

  long long events = 0;
  const AllocCounters before = ReadAllocCounters();
  for (auto _ : state) {
    sim::SimOptions options;
    options.seed = 7;
    sim::ClusterSim simulator(cluster, options);
    Status st = simulator.AddTenant(&app.topology, &app.workload, *schedule)
                    .status();
    if (st.ok()) st = simulator.Start();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    simulator.RunFor(1000.0);  // one simulated second
    events += simulator.counters().events_processed;
  }
  ReportAllocs(state, AllocDelta(before));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

}  // namespace

static void BM_SimContinuousQueriesLarge(benchmark::State& state) {
  RunSim(state, topo::BuildContinuousQueries(topo::Scale::kLarge));
}
BENCHMARK(BM_SimContinuousQueriesLarge)->Unit(benchmark::kMillisecond);

static void BM_SimLogProcessing(benchmark::State& state) {
  RunSim(state, topo::BuildLogProcessing());
}
BENCHMARK(BM_SimLogProcessing)->Unit(benchmark::kMillisecond);

static void BM_SimWordCount(benchmark::State& state) {
  RunSim(state, topo::BuildWordCount());
}
BENCHMARK(BM_SimWordCount)->Unit(benchmark::kMillisecond);

// Fault-injection overhead: the same one-second replay with a FaultPlan
// installed. Arg(0) is an *empty* plan — the fast path every healthy run
// takes; its cost against BM_SimWordCount is the injector's overhead
// (target: < 2%). Arg(1) runs an active crash/straggler/recover plan.
static void BM_SimFaultReplay(benchmark::State& state) {
  topo::App app = topo::BuildWordCount();
  topo::ClusterConfig cluster;
  sched::RoundRobinScheduler scheduler;
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = scheduler.ComputeSchedule(context);

  sim::FaultPlan plan;
  if (state.range(0) == 1) {
    plan.AddCrash(200.0, 1);
    plan.AddStraggler(300.0, 2, 3.0, 250.0);
    plan.AddRecover(700.0, 1);
  }

  long long events = 0;
  const AllocCounters before = ReadAllocCounters();
  for (auto _ : state) {
    sim::SimOptions options;
    options.seed = 7;
    sim::ClusterSim simulator(cluster, options);
    Status st = simulator.InstallFaultPlan(plan);
    if (st.ok()) {
      st = simulator.AddTenant(&app.topology, &app.workload, *schedule)
               .status();
    }
    if (st.ok()) st = simulator.Start();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    simulator.RunFor(1000.0);  // one simulated second
    events += simulator.counters().events_processed;
  }
  ReportAllocs(state, AllocDelta(before));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimFaultReplay)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

static void BM_SimWordCountFunctional(benchmark::State& state) {
  topo::AppOptions options;
  options.functional = true;
  RunSim(state, topo::BuildWordCount(options));
}
BENCHMARK(BM_SimWordCountFunctional)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
