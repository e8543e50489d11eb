#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "sched/schedule.h"
#include "sched/scheduler.h"
#include "sim/cluster_sim.h"
#include "topo/apps.h"
#include "workload/generator.h"

namespace drlstream::sim {
namespace {

/// A minimal 2-component chain: spout -> bolt, shuffle grouping.
topo::Topology ChainTopology(int spouts, int bolts, double bolt_service_ms,
                             double emit_factor = 1.0) {
  topo::Topology topology("chain");
  topo::Component spout;
  spout.name = "spout";
  spout.parallelism = spouts;
  spout.service_mean_ms = 0.01;
  spout.service_cv = 0.0;
  spout.tuple_bytes = 64;
  topo::Component bolt;
  bolt.name = "bolt";
  bolt.parallelism = bolts;
  bolt.service_mean_ms = bolt_service_ms;
  bolt.service_cv = 0.0;
  bolt.emit_factor = 0.0;
  bolt.tuple_bytes = 64;
  // The sink bolt emits nothing; set the spout's factor for its edge.
  spout.emit_factor = emit_factor;
  const int s = topology.AddSpout(spout);
  const int b = topology.AddBolt(bolt);
  EXPECT_TRUE(topology.Connect(s, b, topo::Grouping::kShuffle).ok());
  return topology;
}

topo::Workload ChainWorkload(double rate) {
  topo::Workload workload;
  workload.SetBaseRate(0, rate);
  return workload;
}

topo::ClusterConfig TestCluster() {
  topo::ClusterConfig cluster;
  cluster.num_machines = 4;
  cluster.cores_per_machine = 2;
  return cluster;
}

sched::Schedule AllOnMachine(const topo::Topology& topology, int machine,
                             int num_machines) {
  sched::Schedule schedule(topology.num_executors(), num_machines);
  for (int i = 0; i < topology.num_executors(); ++i) {
    schedule.Assign(i, machine);
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Basic lifecycle and bookkeeping
// ---------------------------------------------------------------------------

TEST(SimulatorTest, InitValidatesSchedule) {
  topo::Topology topology = ChainTopology(1, 1, 0.1);
  topo::Workload workload = ChainWorkload(100.0);
  topo::ClusterConfig cluster = TestCluster();
  ClusterSim simulator(cluster, SimOptions{});
  // Wrong machine count.
  sched::Schedule bad(topology.num_executors(), 7);
  EXPECT_FALSE(simulator.AddTenant(&topology, &workload, bad).ok());
  sched::Schedule good(topology.num_executors(), cluster.num_machines);
  EXPECT_TRUE(simulator.AddTenant(&topology, &workload, good).ok());
  EXPECT_TRUE(simulator.Start().ok());
  // Double start rejected.
  EXPECT_EQ(simulator.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(SimulatorTest, MigrateRequiresInit) {
  topo::Topology topology = ChainTopology(1, 1, 0.1);
  topo::Workload workload = ChainWorkload(100.0);
  ClusterSim simulator(TestCluster(), SimOptions{});
  sched::Schedule s(topology.num_executors(), 4);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, s).ok());
  EXPECT_EQ(simulator.Migrate(0, s).code(), StatusCode::kFailedPrecondition);
}

TEST(SimulatorTest, TuplesFlowAndComplete) {
  topo::Topology topology = ChainTopology(2, 3, 0.1);
  topo::Workload workload = ChainWorkload(500.0);
  ClusterSim simulator(TestCluster(), SimOptions{});
  ASSERT_TRUE(
      simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 0, 4))
          .ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(2000.0);
  const SimCounters& counters = simulator.counters();
  EXPECT_GT(counters.roots_emitted, 1500);  // ~1000/s for 2s.
  EXPECT_GT(counters.roots_completed, 1000);
  EXPECT_EQ(counters.roots_failed, 0);
  EXPECT_GT(counters.events_processed, counters.roots_emitted);
  EXPECT_GT(simulator.WindowAvgLatencyMs(), 0.0);
}

TEST(SimulatorTest, EmissionRateMatchesWorkload) {
  topo::Topology topology = ChainTopology(2, 2, 0.05);
  topo::Workload workload = ChainWorkload(400.0);  // 800/s total.
  ClusterSim simulator(TestCluster(), SimOptions{});
  ASSERT_TRUE(
      simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 0, 4))
          .ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(5000.0);
  const double rate =
      simulator.counters().roots_emitted / 5.0;  // per second
  EXPECT_NEAR(rate, 800.0, 60.0);
}

TEST(SimulatorTest, DeterministicForSameSeed) {
  topo::Topology topology = ChainTopology(2, 3, 0.1);
  topo::Workload workload = ChainWorkload(300.0);
  auto run = [&](uint64_t seed) {
    SimOptions options;
    options.seed = seed;
    ClusterSim simulator(TestCluster(), options);
    EXPECT_TRUE(
        simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 1, 4))
            .ok());
    EXPECT_TRUE(simulator.Start().ok());
    simulator.RunFor(1000.0);
    return std::make_pair(simulator.counters().roots_completed,
                          simulator.WindowAvgLatencyMs());
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
  EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------------
// Latency model properties
// ---------------------------------------------------------------------------

TEST(SimulatorTest, RemoteHopsCostMoreThanLocal) {
  topo::Topology topology = ChainTopology(1, 1, 0.05);
  topo::Workload workload = ChainWorkload(200.0);
  topo::ClusterConfig cluster = TestCluster();

  auto latency_for = [&](int bolt_machine) {
    SimOptions options;
    options.seed = 5;
    ClusterSim simulator(cluster, options);
    sched::Schedule schedule(2, 4);
    schedule.Assign(0, 0);
    schedule.Assign(1, bolt_machine);
    EXPECT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
    EXPECT_TRUE(simulator.Start().ok());
    simulator.RunFor(1000.0);
    simulator.ResetWindow();
    simulator.RunFor(3000.0);
    return simulator.WindowAvgLatencyMs();
  };
  const double local = latency_for(0);
  const double remote = latency_for(1);
  // The remote deployment pays base + NIC per hop.
  EXPECT_GT(remote, local + 0.8 * cluster.remote_base_ms);
}

TEST(SimulatorTest, InterProcessHopCostsBetweenLocalAndRemote) {
  topo::Topology topology = ChainTopology(1, 1, 0.05);
  topo::Workload workload = ChainWorkload(200.0);
  topo::ClusterConfig cluster = TestCluster();

  auto latency_for = [&](int machine, int process) {
    SimOptions options;
    options.seed = 6;
    ClusterSim simulator(cluster, options);
    sched::Schedule schedule(2, 4);
    schedule.Assign(1, machine);
    schedule.AssignProcess(1, process);
    EXPECT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
    EXPECT_TRUE(simulator.Start().ok());
    simulator.RunFor(1000.0);
    simulator.ResetWindow();
    simulator.RunFor(3000.0);
    return simulator.WindowAvgLatencyMs();
  };
  const double same_process = latency_for(0, 0);
  const double other_process = latency_for(0, 1);
  const double other_machine = latency_for(1, 0);
  EXPECT_LT(same_process, other_process);
  EXPECT_LT(other_process, other_machine);
}

TEST(SimulatorTest, QueueingDelayGrowsWithUtilization) {
  // Single bolt executor, deterministic service 0.5 ms => capacity 2000/s.
  topo::Topology topology = ChainTopology(1, 1, 0.5);
  auto latency_at = [&](double rate) {
    topo::Workload workload = ChainWorkload(rate);
    SimOptions options;
    options.seed = 7;
    ClusterSim simulator(TestCluster(), options);
    EXPECT_TRUE(
        simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 0, 4))
            .ok());
    EXPECT_TRUE(simulator.Start().ok());
    simulator.RunFor(2000.0);
    simulator.ResetWindow();
    simulator.RunFor(5000.0);
    return simulator.WindowAvgLatencyMs();
  };
  const double light = latency_at(200.0);   // 10% utilization
  const double heavy = latency_at(1700.0);  // 85% utilization
  EXPECT_GT(heavy, light * 1.5);
}

TEST(SimulatorTest, OverloadedExecutorBacklogsAndThrottles) {
  // Rate far above a single executor's capacity.
  topo::Topology topology = ChainTopology(1, 1, 1.0);  // capacity 1000/s
  topo::Workload workload = ChainWorkload(4000.0);
  SimOptions options;
  options.max_inflight_roots = 500;
  ClusterSim simulator(TestCluster(), options);
  ASSERT_TRUE(
      simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 0, 4))
          .ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(5000.0);
  EXPECT_GT(simulator.counters().roots_throttled, 0);
  EXPECT_LE(simulator.inflight_roots(), 500);
}

// Executor queues are IntFifo rings: growth must unroll a wrapped ring in
// FIFO order.
TEST(IntFifoTest, GrowingAWrappedRingKeepsFifoOrder) {
  IntFifo fifo;
  std::deque<int> reference;
  int next = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) {
      fifo.push_back(next);
      reference.push_back(next++);
    }
    ASSERT_EQ(fifo.front(), reference.front());
    fifo.pop_front();
    reference.pop_front();
    ASSERT_EQ(fifo.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(fifo[i], reference[i]) << "round " << round;
    }
  }
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  fifo.push_back(7);
  EXPECT_EQ(fifo.front(), 7);
}

TEST(SimulatorTest, ProcessorSharingConservesMachineCapacity) {
  // 4 executors of deterministic 1ms service on one 2-core machine, fed
  // 2800 tuples/s: combined throughput must approach the machine capacity
  // of 2000 tuples/s (cores / service time).
  topo::Topology topology = ChainTopology(1, 4, 1.0);
  topo::Workload workload = ChainWorkload(2800.0);
  SimOptions options;
  options.max_inflight_roots = 3000;
  ClusterSim simulator(TestCluster(), options);
  sched::Schedule schedule(5, 4);
  schedule.Assign(0, 1);  // Spout elsewhere so it does not use bolt cores.
  for (int i = 1; i <= 4; ++i) schedule.Assign(i, 0);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(6000.0);
  const double processed_per_s =
      simulator.counters().tuples_processed / 6.0;
  EXPECT_NEAR(processed_per_s, 2000.0, 220.0);
}

// ---------------------------------------------------------------------------
// Grouping policies
// ---------------------------------------------------------------------------

topo::Topology GroupedTopology(topo::Grouping grouping, int bolts,
                               double bolt_service_ms = 0.01) {
  topo::Topology topology("grouped");
  topo::Component spout;
  spout.name = "spout";
  spout.parallelism = 1;
  spout.service_mean_ms = 0.01;
  spout.service_cv = 0.0;
  topo::Component bolt;
  bolt.name = "bolt";
  bolt.parallelism = bolts;
  bolt.service_mean_ms = bolt_service_ms;
  bolt.service_cv = 0.0;
  bolt.emit_factor = 0.0;
  const int s = topology.AddSpout(spout);
  const int b = topology.AddBolt(bolt);
  EXPECT_TRUE(topology.Connect(s, b, grouping).ok());
  return topology;
}

TEST(SimulatorTest, GlobalGroupingSendsEverythingToFirstExecutor) {
  topo::Topology topology = GroupedTopology(topo::Grouping::kGlobal, 4);
  topo::Workload workload = ChainWorkload(500.0);
  ClusterSim simulator(TestCluster(), SimOptions{});
  // Spread bolts over machines; the designated target is executor 1
  // (first bolt executor), so all tuples land on its machine.
  sched::Schedule schedule(5, 4);
  for (int i = 0; i < 5; ++i) schedule.Assign(i, i % 4);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(2000.0);
  // Every emitted root was processed exactly once by the bolt.
  EXPECT_EQ(simulator.counters().tuples_processed,
            simulator.counters().roots_completed);
  EXPECT_GT(simulator.counters().roots_completed, 500);
}

TEST(SimulatorTest, AllGroupingBroadcastsToEveryExecutor) {
  // The bolt never finishes a tuple, so every copy a broadcast sends stays
  // queued at the executor it reached. All executors share one process, so
  // the copies of a root arrive together.
  topo::Topology topology =
      GroupedTopology(topo::Grouping::kAll, 4, /*bolt_service_ms=*/1e9);
  topo::Workload workload = ChainWorkload(200.0);
  ClusterSim simulator(TestCluster(), SimOptions{});
  ASSERT_TRUE(
      simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 0, 4))
          .ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(2000.0);
  EXPECT_EQ(simulator.counters().tuples_processed, 0);
  // Each root sends one copy to each of the 4 bolt executors: their queues
  // (the spout's is always empty) are equally deep.
  const std::vector<int> depths = simulator.TenantExecutorQueueDepths(0);
  ASSERT_EQ(depths.size(), 5u);
  EXPECT_GT(depths[1], 300);
  for (int e = 2; e < 5; ++e) EXPECT_EQ(depths[e], depths[1]) << e;
}

TEST(SimulatorTest, ShuffleSpillsWhenLocalTargetOverloaded) {
  // One local bolt with capacity below the spout rate: the load-aware
  // shuffle must divert part of the stream to remote executors.
  topo::Topology topology = ChainTopology(1, 3, 1.0);  // 1000/s per bolt
  topo::Workload workload = ChainWorkload(1500.0);
  SimOptions options;
  options.seed = 9;
  ClusterSim simulator(TestCluster(), options);
  sched::Schedule schedule(4, 4);
  schedule.Assign(0, 0);  // spout
  schedule.Assign(1, 0);  // one local bolt
  schedule.Assign(2, 1);
  schedule.Assign(3, 2);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(4000.0);
  // Remote transfers happen (spill) and the system keeps up overall.
  EXPECT_GT(simulator.counters().remote_transfers, 500);
  EXPECT_GT(simulator.counters().roots_completed,
            simulator.counters().roots_emitted * 0.8);
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

TEST(SimulatorTest, MigrationMovesOnlyChangedExecutorsAndSpikes) {
  topo::Topology topology = ChainTopology(2, 6, 0.2);
  topo::Workload workload = ChainWorkload(800.0);
  SimOptions options;
  options.seed = 11;
  topo::ClusterConfig cluster = TestCluster();
  cluster.migration_pause_ms = 500.0;
  ClusterSim simulator(cluster, options);
  sched::Schedule before(8, 4);
  for (int i = 0; i < 8; ++i) before.Assign(i, i % 4);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, before).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(2000.0);
  simulator.ResetWindow();
  simulator.RunFor(1000.0);
  const double baseline = simulator.WindowAvgLatencyMs();

  sched::Schedule after = before;
  after.Assign(2, 0);
  after.Assign(3, 0);
  ASSERT_TRUE(simulator.Migrate(0, after).ok());
  EXPECT_EQ(simulator.counters().migrations, 2);

  // During the pause the moved executors' queues back up: transient spike.
  simulator.ResetWindow();
  simulator.RunFor(800.0);
  const double during = simulator.WindowAvgLatencyMs();
  EXPECT_GT(during, baseline);

  // After re-stabilization the latency comes back down.
  simulator.RunFor(3000.0);
  simulator.ResetWindow();
  simulator.RunFor(2000.0);
  EXPECT_LT(simulator.WindowAvgLatencyMs(), during);
}

TEST(SimulatorTest, MigrateToSameScheduleIsNoOp) {
  topo::Topology topology = ChainTopology(1, 2, 0.1);
  topo::Workload workload = ChainWorkload(300.0);
  ClusterSim simulator(TestCluster(), SimOptions{});
  sched::Schedule schedule = AllOnMachine(topology, 2, 4);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(500.0);
  ASSERT_TRUE(simulator.Migrate(0, schedule).ok());
  EXPECT_EQ(simulator.counters().migrations, 0);
}

// ---------------------------------------------------------------------------
// Random streams
// ---------------------------------------------------------------------------

// Every spout draws its arrivals from its own stream, so for a fixed seed
// the arrival process does not depend on the schedule: two schedules see
// exactly the same roots emitted by every checkpoint, although their
// routing draws differ.
TEST(SimulatorTest, ArrivalsAreCommonRandomNumbersAcrossSchedules) {
  const topo::App app = topo::BuildWordCount();
  topo::ClusterConfig cluster;
  const int n = app.topology.num_executors();
  sched::Schedule spread(n, cluster.num_machines);
  sched::Schedule packed(n, cluster.num_machines);
  for (int i = 0; i < n; ++i) {
    spread.Assign(i, i % cluster.num_machines);
    packed.Assign(i, i % 3);
  }
  std::vector<std::vector<long long>> emitted;
  std::vector<long long> processed;
  for (const sched::Schedule* schedule : {&spread, &packed}) {
    SimOptions options;
    options.seed = 7;
    ClusterSim simulator(cluster, options);
    ASSERT_TRUE(
        simulator.AddTenant(&app.topology, &app.workload, *schedule).ok());
    ASSERT_TRUE(simulator.Start().ok());
    emitted.emplace_back();
    for (double checkpoint : {250.0, 500.0, 1000.0, 1500.0, 2000.0}) {
      simulator.RunUntil(checkpoint);
      emitted.back().push_back(simulator.TenantCounters(0).roots_emitted);
    }
    EXPECT_EQ(simulator.TenantCounters(0).roots_throttled, 0);
    processed.push_back(simulator.TenantCounters(0).tuples_processed);
  }
  EXPECT_EQ(emitted[0], emitted[1]);
  EXPECT_GT(emitted[0].back(), 1000);
  // The schedules really differ in what they do with those arrivals.
  EXPECT_NE(processed[0], processed[1]);
}

// One log-normal (cv 1) bolt alone in its machine's processor-sharing pool
// is an M/G/1 queue: Poisson arrivals from the spout, FIFO service at full
// speed. Its mean latency must match Pollaczek-Khinchine,
// W = lambda E[S^2] / (2 (1 - rho)), plus E[S], the spout's constant
// service time and the constant in-process hop. Over sim seeds 1-20 the
// relative error of this 500 s window is within +-2.3% (seed 7: +0.2%).
TEST(SimulatorTest, LogNormalBoltMatchesPollaczekKhinchine) {
  topo::Topology topology = ChainTopology(1, 1, 1.0);
  topology.mutable_component(1).service_cv = 1.0;
  topo::Workload workload = ChainWorkload(700.0);  // rho = 0.7
  topo::ClusterConfig cluster = TestCluster();
  SimOptions options;
  options.seed = 7;
  ClusterSim simulator(cluster, options);
  ASSERT_TRUE(
      simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 0, 4))
          .ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(2000.0);
  simulator.ResetWindow();
  simulator.RunFor(500000.0);

  const double lambda = 0.7;       // arrivals per ms
  const double mean_service = 1.0;  // ms
  const double second_moment = (1.0 + 1.0 * 1.0) * mean_service * mean_service;
  const double rho = lambda * mean_service;
  const double want = lambda * second_moment / (2.0 * (1.0 - rho)) +
                      mean_service + 0.01 + cluster.local_hop_ms;
  EXPECT_NEAR(simulator.WindowAvgLatencyMs(), want, 0.05 * want);
  EXPECT_GT(simulator.window_latency().count(), 300000);
}

// ---------------------------------------------------------------------------
// Ack timeout / replay
// ---------------------------------------------------------------------------

TEST(SimulatorTest, AckTimeoutFailsStuckTuples) {
  topo::Topology topology = ChainTopology(1, 1, 5.0);  // capacity 200/s
  topo::Workload workload = ChainWorkload(800.0);      // 4x overload
  topo::ClusterConfig cluster = TestCluster();
  cluster.ack_timeout_ms = 2000.0;
  SimOptions options;
  options.max_inflight_roots = 100000;
  ClusterSim simulator(cluster, options);
  ASSERT_TRUE(
      simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 0, 4))
          .ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(10000.0);
  EXPECT_GT(simulator.counters().roots_failed, 100);
  // Exact trajectory. Roots that time out still have children queued at
  // the bolt, and the processing of such a child looks up a root id whose
  // slot a newer root may hold by then: were the stale id to match it, that
  // root would complete early and every value below would move.
  const SimCounters& counters = simulator.counters();
  EXPECT_EQ(counters.roots_emitted, 7916);
  EXPECT_EQ(counters.roots_completed, 631);
  EXPECT_EQ(counters.roots_failed, 5753);
  EXPECT_EQ(counters.tuples_processed, 1999);
  EXPECT_EQ(simulator.inflight_roots(), 1532);
  EXPECT_EQ(simulator.WindowAvgLatencyMs(), 1183.0273942261238);
}

// ---------------------------------------------------------------------------
// Workload dynamics / warmup
// ---------------------------------------------------------------------------

TEST(SimulatorTest, RateChangeIncreasesThroughput) {
  topo::Topology topology = ChainTopology(2, 4, 0.05);
  topo::Workload workload = ChainWorkload(200.0);
  auto trace = workload::MakeTraceReplay({{3000.0, -1, 2.0}});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ClusterSim simulator(TestCluster(), SimOptions{});
  ASSERT_TRUE(
      simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 0, 4))
          .ok());
  ASSERT_TRUE(simulator.SetTenantWorkloadGenerator(0, trace->get()).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(3000.0);
  const long long before = simulator.counters().roots_emitted;
  simulator.RunFor(3000.0);
  const long long after = simulator.counters().roots_emitted - before;
  EXPECT_NEAR(static_cast<double>(after) / before, 2.0, 0.3);
}

// A spout silenced by a factor-0 generator, with no rate change ahead,
// polls: a generator installed later revives it.
TEST(SimulatorTest, SilencedSpoutWakesUnderALaterGenerator) {
  topo::Topology topology = ChainTopology(1, 1, 0.05);
  topo::Workload workload = ChainWorkload(100.0);
  auto silent = workload::MakeConstant(0.0);
  auto steady = workload::MakeConstant(1.0);
  ASSERT_TRUE(silent.ok() && steady.ok());
  ClusterSim simulator(TestCluster(), SimOptions{});
  ASSERT_TRUE(
      simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 0, 4))
          .ok());
  ASSERT_TRUE(simulator.SetTenantWorkloadGenerator(0, silent->get()).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(2000.0);
  EXPECT_EQ(simulator.counters().roots_emitted, 0);
  ASSERT_TRUE(simulator.SetTenantWorkloadGenerator(0, steady->get()).ok());
  simulator.RunFor(5000.0);
  // 100 roots/s for 5 s, less at most one poll interval of silence.
  EXPECT_GT(simulator.counters().roots_emitted, 300);
}

// A CQ-small tenant under a drift on a fractional grid: once the simulator
// reaches an op's time, the tenant's spouts run at that op's multiplier.
TEST(SimulatorTest, RateMultiplierFollowsAFractionalDrift) {
  const topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  sched::RoundRobinScheduler scheduler;
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = scheduler.ComputeSchedule(context);
  ASSERT_TRUE(schedule.ok());
  workload::DriftConfig config;
  config.start_ms = 1000.3;
  config.end_ms = 4000.9;
  config.step_ms = 100.7;
  auto drift = workload::MakeDrift(config);
  ASSERT_TRUE(drift.ok()) << drift.status().ToString();
  ClusterSim simulator(cluster, SimOptions{});
  ASSERT_TRUE(
      simulator.AddTenant(&app.topology, &app.workload, *schedule).ok());
  ASSERT_TRUE(simulator.SetTenantWorkloadGenerator(0, drift->get()).ok());
  ASSERT_TRUE(simulator.Start().ok());
  const int spout = app.topology.SpoutComponents()[0];
  int ops = 0;
  for (auto op = (*drift)->NextRateChange(0, 0.0); op.has_value();
       op = (*drift)->NextRateChange(0, op->time_ms)) {
    simulator.RunUntil(op->time_ms);
    EXPECT_EQ(simulator.TenantRateMultiplier(0, spout), op->multiplier)
        << "op " << ops << " at " << op->time_ms << " ms";
    ++ops;
  }
  EXPECT_EQ(ops, 31);
}

TEST(SimulatorTest, WarmupInflationDecaysOverTime) {
  topo::Topology topology = ChainTopology(1, 2, 0.2);
  topo::Workload workload = ChainWorkload(300.0);
  SimOptions options;
  options.seed = 13;
  options.warmup_extra = 1.0;       // Services start 2x slower...
  options.warmup_tau_ms = 2000.0;   // ...and relax quickly.
  ClusterSim simulator(TestCluster(), options);
  ASSERT_TRUE(
      simulator.AddTenant(&topology, &workload, AllOnMachine(topology, 0, 4))
          .ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.ResetWindow();
  simulator.RunFor(1000.0);
  const double early = simulator.WindowAvgLatencyMs();
  simulator.RunFor(9000.0);
  simulator.ResetWindow();
  simulator.RunFor(2000.0);
  const double late = simulator.WindowAvgLatencyMs();
  EXPECT_GT(early, late * 1.3);
}

TEST(SimulatorTest, WordCountProcessesOnlyLiveEvents) {
  // Word count, seed 7, round-robin (alloc_test's fixture), two simulated
  // seconds. Every rescheduled completion is the machine's one live lane
  // entry, never a queued event, so no superseded completion is popped
  // or counted.
  const topo::App app = topo::BuildWordCount();
  topo::ClusterConfig cluster;
  sched::RoundRobinScheduler scheduler;
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = scheduler.ComputeSchedule(context);
  ASSERT_TRUE(schedule.ok());
  SimOptions options;
  options.seed = 7;
  ClusterSim simulator(cluster, options);
  ASSERT_TRUE(
      simulator.AddTenant(&app.topology, &app.workload, *schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunUntil(2000.0);
  const SimCounters& counters = simulator.counters();
  EXPECT_EQ(counters.tuples_processed, 133122);
  EXPECT_EQ(counters.roots_completed, 6043);
  EXPECT_EQ(counters.events_processed, 272315);
}

// ---------------------------------------------------------------------------
// Functional mode end-to-end correctness
// ---------------------------------------------------------------------------

// The functional-mode tests below pin exact counters and sink contents:
// every payload is copied to each destination it is sent to, so a tuple
// sent over two edges (the log pipeline's rules bolt feeds both the
// indexer and the counter) must reach both with its text intact. Each test
// builds its app over a sink of its own, so the pins do not depend on
// which tests ran before it in the process.
TEST(SimulatorFunctionalTest, WordCountProducesRealCounts) {
  topo::AppOptions app_options;
  app_options.functional = true;
  app_options.sink = std::make_shared<topo::SinkCollector>();
  topo::App app = topo::BuildWordCount(app_options);
  topo::ClusterConfig cluster;
  SimOptions options;
  options.functional = true;
  options.seed = 21;
  // Modest rate for test speed.
  app.workload.ScaleAllRates(0.2);
  ClusterSim simulator(cluster, options);
  sched::RoundRobinScheduler scheduler(1);
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = scheduler.ComputeSchedule(context);
  ASSERT_TRUE(schedule.ok());
  ASSERT_TRUE(
      simulator.AddTenant(&app.topology, &app.workload, *schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(3000.0);
  // The word "alice" appears in the input text and must reach the database.
  EXPECT_GT(app.sink->Get("word_counts", "alice"), 0);
  EXPECT_GT(app.sink->Get("word_counts", "the"), 0);
  EXPECT_GT(app.sink->TotalRecords(), 1000);
  EXPECT_GT(simulator.counters().roots_completed, 100);
  const SimCounters& c = simulator.counters();
  EXPECT_EQ(c.events_processed, 81220);
  EXPECT_EQ(c.roots_completed, 1675);
  EXPECT_EQ(c.tuples_processed, 39771);
  EXPECT_EQ(c.remote_transfers, 17134);
  EXPECT_EQ(app.sink->TotalRecords(), 19048);
  EXPECT_EQ(app.sink->Get("word_counts", "alice"), 328);
  EXPECT_EQ(app.sink->Get("word_counts", "the"), 881);
  EXPECT_EQ(app.sink->Get("word_counts", "rabbit"), 323);
}

TEST(SimulatorFunctionalTest, LogPipelineStoresIndexAndCounts) {
  topo::AppOptions app_options;
  app_options.functional = true;
  app_options.sink = std::make_shared<topo::SinkCollector>();
  topo::App app = topo::BuildLogProcessing(app_options);
  topo::ClusterConfig cluster;
  SimOptions options;
  options.functional = true;
  options.seed = 22;
  app.workload.ScaleAllRates(0.3);
  ClusterSim simulator(cluster, options);
  sched::RoundRobinScheduler scheduler(1);
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = scheduler.ComputeSchedule(context);
  ASSERT_TRUE(schedule.ok());
  ASSERT_TRUE(
      simulator.AddTenant(&app.topology, &app.workload, *schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(3000.0);
  // Both database collections (via the indexer and the counter paths)
  // received records.
  EXPECT_GT(app.sink->Snapshot("index_records").size(), 0u);
  EXPECT_GT(app.sink->Snapshot("count_records").size(), 0u);
  const SimCounters& c = simulator.counters();
  EXPECT_EQ(c.events_processed, 18974);
  EXPECT_EQ(c.roots_completed, 1724);
  EXPECT_EQ(c.tuples_processed, 8622);
  EXPECT_EQ(c.remote_transfers, 3088);
  EXPECT_EQ(app.sink->Snapshot("index_records").size(), 1476u);
  // One record per counted line, keyed by its status code.
  const std::map<std::string, int64_t> want_counts = {
      {"cnt:200", 1455}, {"cnt:302", 140}, {"cnt:404", 70}, {"cnt:500", 59}};
  EXPECT_EQ(app.sink->Snapshot("count_records"), want_counts);
}

TEST(SimulatorFunctionalTest, ContinuousQueriesWriteMatches) {
  topo::AppOptions app_options;
  app_options.functional = true;
  app_options.sink = std::make_shared<topo::SinkCollector>();
  topo::App app =
      topo::BuildContinuousQueries(topo::Scale::kSmall, app_options);
  topo::ClusterConfig cluster;
  SimOptions options;
  options.functional = true;
  options.seed = 23;
  app.workload.ScaleAllRates(0.3);
  ClusterSim simulator(cluster, options);
  ASSERT_TRUE(simulator
                  .AddTenant(&app.topology, &app.workload,
                             AllOnMachine(app.topology, 0,
                                          cluster.num_machines))
                  .ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(3000.0);
  // Matching records were "written to the output file".
  EXPECT_GT(app.sink->TotalRecords(), 100);
  const SimCounters& c = simulator.counters();
  EXPECT_EQ(c.events_processed, 14465);
  EXPECT_EQ(c.roots_completed, 1628);
  EXPECT_EQ(c.tuples_processed, 6415);
  EXPECT_EQ(c.remote_transfers, 0);  // every executor on machine 0
  EXPECT_EQ(app.sink->TotalRecords(), 4786);
  EXPECT_EQ(app.sink->Snapshot("output_file").size(), 148u);
}

}  // namespace
}  // namespace drlstream::sim
