// Failure-injection and edge-case coverage: overload storms, migration
// storms, degenerate workloads, and invariant checks under abuse.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/environment.h"
#include "core/online.h"
#include "rl/policy_registry.h"
#include "sched/schedule.h"
#include "sim/cluster_sim.h"
#include "sim/faults.h"
#include "topo/apps.h"
#include "workload/generator.h"

namespace drlstream {
namespace {

topo::Topology SmallChain(double bolt_service_ms) {
  topo::Topology topology("chain");
  topo::Component spout;
  spout.name = "spout";
  spout.parallelism = 1;
  spout.service_mean_ms = 0.01;
  spout.service_cv = 0.0;
  topo::Component bolt;
  bolt.name = "bolt";
  bolt.parallelism = 2;
  bolt.service_mean_ms = bolt_service_ms;
  bolt.service_cv = 0.3;
  bolt.emit_factor = 0.0;
  const int s = topology.AddSpout(spout);
  const int b = topology.AddBolt(bolt);
  EXPECT_TRUE(topology.Connect(s, b, topo::Grouping::kShuffle).ok());
  return topology;
}

// ---------------------------------------------------------------------------
// Degenerate workloads
// ---------------------------------------------------------------------------

TEST(RobustnessTest, ZeroRateWorkloadProducesNothingAndSurvives) {
  topo::Topology topology = SmallChain(0.1);
  topo::Workload workload;
  workload.SetBaseRate(0, 0.0);
  topo::ClusterConfig cluster;
  sim::ClusterSim simulator(cluster, sim::SimOptions{});
  sched::Schedule schedule(3, cluster.num_machines);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(5000.0);
  EXPECT_EQ(simulator.counters().roots_emitted, 0);
  EXPECT_DOUBLE_EQ(simulator.WindowAvgLatencyMs(), 0.0);
}

TEST(RobustnessTest, RateTurnsOnMidRun) {
  topo::Topology topology = SmallChain(0.1);
  topo::Workload workload;
  workload.SetBaseRate(0, 200.0);
  // Rate drops to ~0 via the multiplier, then comes back.
  auto trace =
      workload::MakeTraceReplay({{1000.0, -1, 1e-9}, {3000.0, -1, 1.0}});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  topo::ClusterConfig cluster;
  sim::ClusterSim simulator(cluster, sim::SimOptions{});
  sched::Schedule schedule(3, cluster.num_machines);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.SetTenantWorkloadGenerator(0, trace->get()).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(2900.0);
  const long long quiet = simulator.counters().roots_emitted;
  simulator.RunFor(3000.0);
  EXPECT_GT(simulator.counters().roots_emitted, quiet + 300);
}

// ---------------------------------------------------------------------------
// Sustained overload: backpressure + ack timeouts keep memory bounded and
// the system recovers once the overload ends.
// ---------------------------------------------------------------------------

TEST(RobustnessTest, RecoversAfterOverloadBurst) {
  topo::Topology topology = SmallChain(1.0);  // Capacity ~2000/s (2 bolts).
  topo::Workload workload;
  workload.SetBaseRate(0, 6000.0);  // 3x overload, then 300/s from 3 s on.
  auto trace = workload::MakeTraceReplay({{3000.0, -1, 0.05}});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  topo::ClusterConfig cluster;
  cluster.ack_timeout_ms = 1500.0;
  sim::SimOptions options;
  options.max_inflight_roots = 2000;
  sim::ClusterSim simulator(cluster, options);
  sched::Schedule schedule(3, cluster.num_machines);
  for (int i = 0; i < 3; ++i) schedule.Assign(i, i % 2);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.SetTenantWorkloadGenerator(0, trace->get()).ok());
  ASSERT_TRUE(simulator.Start().ok());

  simulator.RunFor(3000.0);  // Overloaded phase.
  EXPECT_LE(simulator.inflight_roots(), options.max_inflight_roots);
  EXPECT_GT(simulator.counters().roots_throttled +
                simulator.counters().roots_failed,
            0);

  simulator.RunFor(8000.0);  // Recovery phase.
  simulator.ResetWindow();
  simulator.RunFor(3000.0);
  // Latency back to sane values and queues drained.
  EXPECT_LT(simulator.WindowAvgLatencyMs(), 20.0);
  EXPECT_LT(simulator.inflight_roots(), 100);
}

// ---------------------------------------------------------------------------
// Migration storms
// ---------------------------------------------------------------------------

TEST(RobustnessTest, SurvivesMigrationEveryFewHundredMs) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  app.workload.ScaleAllRates(0.4);
  topo::ClusterConfig cluster;
  cluster.migration_pause_ms = 200.0;
  sim::SimOptions options;
  options.seed = 77;
  sim::ClusterSim simulator(cluster, options);
  Rng rng(3);
  sched::Schedule schedule = sched::Schedule::RandomPacked(20, 10, 4, &rng);
  ASSERT_TRUE(simulator.AddTenant(&app.topology, &app.workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  for (int round = 0; round < 20; ++round) {
    simulator.RunFor(300.0);
    schedule = sched::Schedule::RandomPacked(20, 10, rng.UniformInt(3, 6),
                                             &rng);
    ASSERT_TRUE(simulator.Migrate(0, schedule).ok());
  }
  simulator.RunFor(5000.0);
  // Conservation still holds after the storm.
  const sim::SimCounters& counters = simulator.counters();
  EXPECT_EQ(counters.roots_emitted,
            counters.roots_completed + counters.roots_failed +
                simulator.inflight_roots());
  EXPECT_GT(counters.migrations, 50);
  EXPECT_GT(counters.roots_completed, 1000);
}

TEST(RobustnessTest, MigrationOfBusyExecutorFinishesItsTuple) {
  topo::Topology topology = SmallChain(50.0);  // Very slow bolt.
  topo::Workload workload;
  workload.SetBaseRate(0, 20.0);
  topo::ClusterConfig cluster;
  sim::SimOptions options;
  options.seed = 5;
  sim::ClusterSim simulator(cluster, options);
  sched::Schedule schedule(3, cluster.num_machines);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(60.0);  // A tuple is likely mid-service now.
  sched::Schedule moved = schedule;
  moved.Assign(1, 5);
  moved.Assign(2, 5);
  ASSERT_TRUE(simulator.Migrate(0, moved).ok());
  simulator.RunFor(10000.0);
  // Nothing deadlocks: tuples still complete after the move.
  EXPECT_GT(simulator.counters().roots_completed, 50);
}

// ---------------------------------------------------------------------------
// Environment misuse
// ---------------------------------------------------------------------------

TEST(RobustnessTest, EnvironmentRejectsWrongScheduleShape) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  core::SchedulingEnvironment env(&app.topology, app.workload, cluster,
                                  sim::SimOptions{},
                                  core::MeasurementConfig{});
  sched::Schedule wrong(5, cluster.num_machines);  // Wrong executor count.
  EXPECT_FALSE(env.Reset(wrong).ok());
}

TEST(RobustnessTest, PenaltyLatencyWhenNothingCompletes) {
  // A schedule so slow that no tuple completes within the measurement
  // window must yield the (finite) penalty latency, not a crash or zero.
  topo::Topology topology = SmallChain(100000.0);
  topo::Workload workload;
  workload.SetBaseRate(0, 50.0);
  topo::ClusterConfig cluster;
  core::MeasurementConfig measure;
  measure.stabilize_ms = 200.0;
  measure.num_measurements = 2;
  measure.measurement_interval_ms = 100.0;
  core::SchedulingEnvironment env(&topology, workload, cluster,
                                  sim::SimOptions{}, measure);
  sched::Schedule schedule(3, cluster.num_machines);
  ASSERT_TRUE(env.Reset(schedule).ok());
  auto latency = env.DeployAndMeasure(schedule);
  ASSERT_TRUE(latency.ok());
  EXPECT_GT(*latency, 100.0);
  EXPECT_LT(*latency, 1e6);
}

// ---------------------------------------------------------------------------
// Chaos: random fault plans over random topologies. The control loop must
// never abort, must never leave an executor on a dead machine once the
// reschedule settles, and must conserve tuples at every checkpoint
// (emitted = completed + failed + in-flight; drops surface as timeouts).
// ---------------------------------------------------------------------------

topo::Topology RandomChain(Rng* rng) {
  topo::Topology topology("chaos-chain");
  topo::Component spout;
  spout.name = "spout";
  spout.parallelism = rng->UniformInt(1, 2);
  spout.service_mean_ms = 0.01;
  spout.service_cv = 0.0;
  spout.emit_factor = 1.0;
  topo::Component bolt;
  bolt.name = "bolt";
  bolt.parallelism = rng->UniformInt(2, 5);
  bolt.service_mean_ms = rng->Uniform(0.2, 1.5);
  bolt.service_cv = rng->Uniform(0.0, 0.5);
  bolt.emit_factor = 0.0;
  const int s = topology.AddSpout(spout);
  const int b = topology.AddBolt(bolt);
  EXPECT_TRUE(topology.Connect(s, b, topo::Grouping::kShuffle).ok());
  return topology;
}

// A random but always-valid plan over a 4-machine cluster: machine 0 never
// crashes (so at least one machine stays up), crash/recover alternate per
// machine, and at most one straggler/spike window per machine.
sim::FaultPlan RandomFaultPlan(Rng* rng, double horizon_ms) {
  sim::FaultPlan plan;
  for (int machine = 1; machine <= 3; ++machine) {
    if (rng->Uniform(0.0, 1.0) < 0.6) {
      const double crash_ms = rng->Uniform(0.1, 0.5) * horizon_ms;
      plan.AddCrash(crash_ms, machine);
      if (rng->Uniform(0.0, 1.0) < 0.7) {
        plan.AddRecover(crash_ms + rng->Uniform(0.1, 0.4) * horizon_ms,
                        machine);
      }
    } else if (rng->Uniform(0.0, 1.0) < 0.5) {
      const double start_ms = rng->Uniform(0.05, 0.6) * horizon_ms;
      if (rng->Uniform(0.0, 1.0) < 0.5) {
        plan.AddStraggler(start_ms, machine, rng->Uniform(1.5, 5.0),
                          rng->Uniform(0.05, 0.3) * horizon_ms);
      } else {
        plan.AddLinkSpike(start_ms, machine, rng->Uniform(1.0, 20.0),
                          rng->Uniform(0.05, 0.3) * horizon_ms);
      }
    }
  }
  if (rng->Uniform(0.0, 1.0) < 0.5) {
    plan.AddSpoutShock(rng->Uniform(0.2, 0.8) * horizon_ms,
                       rng->Uniform(0.5, 2.0));
  }
  return plan;
}

TEST(RobustnessTest, ChaosRandomFaultPlansNeverAbortAndConserveTuples) {
  Rng rng(2024);
  for (int trial = 0; trial < 6; ++trial) {
    topo::Topology topology = RandomChain(&rng);
    topo::Workload workload;
    workload.SetBaseRate(0, rng.Uniform(100.0, 600.0));
    topo::ClusterConfig cluster;
    cluster.num_machines = 4;
    cluster.cores_per_machine = 2;
    cluster.ack_timeout_ms = 1000.0;

    const double horizon_ms = 8000.0;
    sim::FaultPlan plan = RandomFaultPlan(&rng, horizon_ms);
    ASSERT_TRUE(plan.Validate(cluster.num_machines).ok())
        << "trial " << trial << ":\n" << plan.ToCsv();

    core::MeasurementConfig measure;
    measure.stabilize_ms = 300.0;
    measure.num_measurements = 2;
    measure.measurement_interval_ms = 200.0;
    sim::SimOptions options;
    options.seed = 100 + trial;
    core::SchedulingEnvironment env(&topology, workload, cluster, options,
                                    measure);
    ASSERT_TRUE(env.InstallFaultPlan(plan).ok());
    Rng init_rng(7 + trial);
    ASSERT_TRUE(env.Reset(sched::Schedule::Random(topology.num_executors(),
                                                  cluster.num_machines,
                                                  &init_rng))
                    .ok());

    rl::PolicyContext context;
    context.topology = &topology;
    context.cluster = &cluster;
    auto round_robin =
        rl::PolicyRegistry::Get().Create("round-robin", context);
    ASSERT_TRUE(round_robin.ok());
    core::OnlineOptions online;
    online.epochs = 1;

    // Run one-epoch control loops until simulated time covers the whole
    // plan. Every call is a checkpoint: it must succeed, and the tuple
    // ledger must balance.
    while (env.simulator()->now_ms() < horizon_ms) {
      auto run = core::RunOnline(round_robin->get(), &env, online);
      ASSERT_TRUE(run.ok())
          << "trial " << trial << " aborted at "
          << env.simulator()->now_ms() << " ms: "
          << run.status().ToString() << "\nplan:\n" << plan.ToCsv();
      const sim::SimCounters& c = env.simulator()->counters();
      ASSERT_EQ(c.roots_emitted,
                c.roots_completed + c.roots_failed +
                    env.simulator()->inflight_roots())
          << "trial " << trial << " at " << env.simulator()->now_ms()
          << " ms\nplan:\n" << plan.ToCsv();
    }

    // One settling call after the last fault: whatever the plan left dead,
    // nothing may still be scheduled on it.
    auto settle = core::RunOnline(round_robin->get(), &env, online);
    ASSERT_TRUE(settle.ok()) << settle.status().ToString();
    EXPECT_EQ(env.simulator()->ExecutorsOnDeadMachines(), 0)
        << "trial " << trial << "\nplan:\n" << plan.ToCsv();
    const std::vector<uint8_t> mask = env.simulator()->MachineUpMask();
    for (int i = 0; i < env.current_schedule().num_executors(); ++i) {
      EXPECT_TRUE(mask[env.current_schedule().MachineOf(i)]);
    }
  }
}

// ---------------------------------------------------------------------------
// CHECK macros abort on programming errors (death tests).
// ---------------------------------------------------------------------------

TEST(RobustnessDeathTest, ScheduleOutOfRangeAborts) {
  sched::Schedule schedule(3, 2);
  EXPECT_DEATH(schedule.Assign(0, 5), "Check failed");
  EXPECT_DEATH(schedule.MachineOf(7), "Check failed");
}

TEST(RobustnessDeathTest, StatusOrBadAccessAborts) {
  StatusOr<int> err(Status::NotFound("nope"));
  EXPECT_DEATH({ [[maybe_unused]] int v = err.value(); },
               "error status");
}

}  // namespace
}  // namespace drlstream
