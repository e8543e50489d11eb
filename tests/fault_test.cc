// Fault-injection coverage: FaultPlan parsing/validation, the
// crash -> recover machine lifecycle, straggler window arithmetic, orphan
// repair, control-loop degradation, and bit-identical replay of a
// (seed, plan) pair at any thread-pool size.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/environment.h"
#include "core/experiment.h"
#include "core/online.h"
#include "obs/trace.h"
#include "rl/policy_registry.h"
#include "sched/schedule.h"
#include "sched/scheduler.h"
#include "sim/cluster_sim.h"
#include "sim/faults.h"
#include "topo/apps.h"

namespace drlstream {
namespace {

topo::Topology ChainTopology(int spouts, int bolts, double bolt_service_ms) {
  topo::Topology topology("chain");
  topo::Component spout;
  spout.name = "spout";
  spout.parallelism = spouts;
  spout.service_mean_ms = 0.01;
  spout.service_cv = 0.0;
  spout.tuple_bytes = 64;
  spout.emit_factor = 1.0;
  topo::Component bolt;
  bolt.name = "bolt";
  bolt.parallelism = bolts;
  bolt.service_mean_ms = bolt_service_ms;
  bolt.service_cv = 0.0;
  bolt.emit_factor = 0.0;
  bolt.tuple_bytes = 64;
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

// ---------------------------------------------------------------------------
// FaultPlan CSV parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesCsvWithHeaderCommentsAndBlanks) {
  const std::string text =
      "time_ms,type,machine,magnitude,duration_ms\n"
      "# the chaos script\n"
      "1000,crash,2,0,0\n"
      "\n"
      "4000,recover,2,0,0\n"
      "6000,straggler,1,3.0,2000\n"
      "9000,link_spike,-1,5.0,1500\n"
      "12000,spout_shock,-1,1.5,0\n";
  auto plan = sim::FaultPlan::ParseCsv(text);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->size(), 5u);
  EXPECT_TRUE(plan->Validate(4).ok());
  const std::vector<sim::FaultEvent>& events = plan->events();
  EXPECT_EQ(events[0].type, sim::FaultType::kMachineCrash);
  EXPECT_EQ(events[0].machine, 2);
  EXPECT_DOUBLE_EQ(events[2].magnitude, 3.0);
  EXPECT_DOUBLE_EQ(events[2].duration_ms, 2000.0);
  EXPECT_EQ(events[3].machine, -1);
}

TEST(FaultPlanTest, CsvRoundTrips) {
  sim::FaultPlan plan;
  plan.AddCrash(1000.0, 1);
  plan.AddStraggler(2000.0, 2, 2.5, 800.0);
  plan.AddRecover(4000.0, 1);
  plan.AddSpoutShock(5000.0, 0.5);
  auto parsed = sim::FaultPlan::ParseCsv(plan.ToCsv());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed->events()[i].time_ms, plan.events()[i].time_ms);
    EXPECT_EQ(parsed->events()[i].type, plan.events()[i].type);
    EXPECT_EQ(parsed->events()[i].machine, plan.events()[i].machine);
    EXPECT_DOUBLE_EQ(parsed->events()[i].magnitude,
                     plan.events()[i].magnitude);
  }
}

TEST(FaultPlanTest, RejectsMalformedCsv) {
  EXPECT_FALSE(sim::FaultPlan::ParseCsv("1000,explode,1,0,0").ok());
  EXPECT_FALSE(sim::FaultPlan::ParseCsv("1000,crash,1").ok());
  EXPECT_FALSE(sim::FaultPlan::ParseCsv("abc,crash,1,0,0").ok());
}

// A machine id outside int is an error; wrapped, 4294967297 would crash
// machine 1 and pass Validate.
TEST(FaultPlanTest, MachineOutsideIntIsRejected) {
  auto plan = sim::FaultPlan::ParseCsv("1000,crash,4294967297,0,0\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().ToString().find("bad machine '4294967297'"),
            std::string::npos)
      << plan.status().ToString();
}

TEST(FaultPlanTest, EventsSortedByTime) {
  sim::FaultPlan plan;
  plan.AddRecover(5000.0, 1);
  plan.AddCrash(1000.0, 1);
  plan.AddStraggler(3000.0, 2, 2.0, 500.0);
  EXPECT_DOUBLE_EQ(plan.events()[0].time_ms, 1000.0);
  EXPECT_DOUBLE_EQ(plan.events()[1].time_ms, 3000.0);
  EXPECT_DOUBLE_EQ(plan.events()[2].time_ms, 5000.0);
  EXPECT_TRUE(plan.Validate(4).ok());
}

// ---------------------------------------------------------------------------
// FaultPlan validation
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ValidateChecksMachineRange) {
  sim::FaultPlan plan;
  plan.AddCrash(100.0, 7);
  EXPECT_FALSE(plan.Validate(4).ok());
  EXPECT_TRUE(plan.Validate(8).ok());
}

TEST(FaultPlanTest, ValidateRejectsDoubleCrash) {
  sim::FaultPlan plan;
  plan.AddCrash(100.0, 1);
  plan.AddCrash(200.0, 1);
  EXPECT_FALSE(plan.Validate(4).ok());
}

TEST(FaultPlanTest, ValidateRejectsRecoverOfUpMachine) {
  sim::FaultPlan plan;
  plan.AddRecover(100.0, 1);
  EXPECT_FALSE(plan.Validate(4).ok());
}

TEST(FaultPlanTest, ValidateRejectsAllMachinesDown) {
  sim::FaultPlan plan;
  plan.AddCrash(100.0, 0);
  plan.AddCrash(200.0, 1);
  EXPECT_FALSE(plan.Validate(2).ok());
  // With a third machine alive the same plan is fine.
  EXPECT_TRUE(plan.Validate(3).ok());
}

TEST(FaultPlanTest, ValidateRejectsOverlappingWindowsOnSameMachine) {
  sim::FaultPlan plan;
  plan.AddStraggler(100.0, 1, 2.0, 500.0);
  plan.AddStraggler(400.0, 1, 3.0, 500.0);  // Overlaps [100, 600).
  EXPECT_FALSE(plan.Validate(4).ok());

  sim::FaultPlan disjoint;
  disjoint.AddStraggler(100.0, 1, 2.0, 500.0);
  disjoint.AddStraggler(700.0, 1, 3.0, 500.0);
  EXPECT_TRUE(disjoint.Validate(4).ok());

  sim::FaultPlan other_machine;
  other_machine.AddStraggler(100.0, 1, 2.0, 500.0);
  other_machine.AddStraggler(400.0, 2, 3.0, 500.0);
  EXPECT_TRUE(other_machine.Validate(4).ok());
}

TEST(FaultPlanTest, ValidateRejectsBadMagnitudes) {
  sim::FaultPlan straggler;
  straggler.AddStraggler(100.0, 1, 0.0, 500.0);  // Factor must be > 0.
  EXPECT_FALSE(straggler.Validate(4).ok());

  sim::FaultPlan no_duration;
  no_duration.AddStraggler(100.0, 1, 2.0, 0.0);  // Window must be > 0.
  EXPECT_FALSE(no_duration.Validate(4).ok());

  sim::FaultPlan negative_time;
  negative_time.AddCrash(-5.0, 1);
  EXPECT_FALSE(negative_time.Validate(4).ok());
}

// ---------------------------------------------------------------------------
// Simulator integration: crash -> recover lifecycle
// ---------------------------------------------------------------------------

TEST(FaultSimTest, InstallRejectsInvalidPlanAndLateInstall) {
  topo::Topology topology = ChainTopology(1, 2, 0.5);
  topo::Workload workload = ChainWorkload(200.0);
  topo::ClusterConfig cluster = TestCluster();
  sim::ClusterSim simulator(cluster, sim::SimOptions{});

  sim::FaultPlan bad;
  bad.AddCrash(100.0, 99);
  EXPECT_FALSE(simulator.InstallFaultPlan(bad).ok());

  sim::FaultPlan good;
  good.AddCrash(100.0, 1);
  EXPECT_TRUE(simulator.InstallFaultPlan(good).ok());

  sched::Schedule schedule(topology.num_executors(), cluster.num_machines);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  // Installing after Init is a precondition failure.
  EXPECT_EQ(simulator.InstallFaultPlan(good).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FaultSimTest, CrashStopsServiceRecoveryResumesIt) {
  topo::Topology topology = ChainTopology(1, 2, 0.5);
  topo::Workload workload = ChainWorkload(400.0);
  topo::ClusterConfig cluster = TestCluster();
  cluster.ack_timeout_ms = 800.0;

  sim::FaultPlan plan;
  plan.AddCrash(2000.0, 1);
  plan.AddRecover(5000.0, 1);

  sim::SimOptions options;
  options.seed = 11;
  sim::ClusterSim simulator(cluster, options);
  ASSERT_TRUE(simulator.InstallFaultPlan(plan).ok());
  // Spout on machine 0, both bolts on machine 1 (the one that crashes).
  sched::Schedule schedule(3, cluster.num_machines);
  schedule.Assign(0, 0);
  schedule.Assign(1, 1);
  schedule.Assign(2, 1);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());

  simulator.RunFor(1900.0);
  EXPECT_TRUE(simulator.MachineUp(1));
  EXPECT_EQ(simulator.ExecutorsOnDeadMachines(), 0);
  EXPECT_GT(simulator.counters().roots_completed, 300);
  simulator.RunFor(100.0);  // The crash event fires at exactly 2000 ms.
  const long long before_crash = simulator.counters().roots_completed;

  // During the outage: machine reported down, both bolts orphaned, every
  // tuple sent to them dropped, and no root can complete.
  simulator.RunFor(1900.0);  // now at 3900 ms
  EXPECT_FALSE(simulator.MachineUp(1));
  EXPECT_EQ(simulator.ExecutorsOnDeadMachines(), 2);
  EXPECT_EQ(simulator.MachineUpMask(),
            (std::vector<uint8_t>{1, 0, 1, 1}));
  const sim::SimCounters mid = simulator.counters();
  EXPECT_GT(mid.tuples_dropped, 0);
  EXPECT_GT(mid.faults_applied, 0);
  // Within ~1 ack timeout of the crash, dropped roots start failing.
  EXPECT_GT(mid.roots_failed, 0);
  // Nothing new completed since the crash (bolts are the only sinks).
  EXPECT_EQ(mid.roots_completed, before_crash);

  // After recovery: service resumes and throughput comes back.
  simulator.RunFor(3000.0);  // now at 6900 ms, recovered at 5000 ms
  EXPECT_TRUE(simulator.MachineUp(1));
  EXPECT_EQ(simulator.ExecutorsOnDeadMachines(), 0);
  const sim::SimCounters after = simulator.counters();
  EXPECT_GT(after.roots_completed, mid.roots_completed + 300);

  // Conservation: every emitted root is accounted for.
  simulator.RunFor(2000.0);
  const sim::SimCounters final_counters = simulator.counters();
  EXPECT_EQ(final_counters.roots_emitted,
            final_counters.roots_completed + final_counters.roots_failed +
                simulator.inflight_roots());
}

TEST(FaultSimTest, SpoutOnCrashedMachineStopsEmitting) {
  topo::Topology topology = ChainTopology(1, 1, 0.2);
  topo::Workload workload = ChainWorkload(500.0);
  topo::ClusterConfig cluster = TestCluster();

  sim::FaultPlan plan;
  plan.AddCrash(1000.0, 0);
  plan.AddRecover(3000.0, 0);

  sim::SimOptions options;
  options.seed = 3;
  sim::ClusterSim simulator(cluster, options);
  ASSERT_TRUE(simulator.InstallFaultPlan(plan).ok());
  // Spout on machine 0 (crashes), bolt on machine 1.
  sched::Schedule schedule(2, cluster.num_machines);
  schedule.Assign(0, 0);
  schedule.Assign(1, 1);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());

  simulator.RunFor(1000.0);  // Up to and including the crash.
  const long long emitted_before = simulator.counters().roots_emitted;
  EXPECT_GT(emitted_before, 300);
  simulator.RunFor(1800.0);  // Outage window.
  EXPECT_EQ(simulator.counters().roots_emitted, emitted_before);
  simulator.RunFor(2000.0);  // Past recovery.
  EXPECT_GT(simulator.counters().roots_emitted, emitted_before + 500);
}

// ---------------------------------------------------------------------------
// Straggler window arithmetic
// ---------------------------------------------------------------------------

TEST(FaultSimTest, StragglerSlowsServiceOnlyInsideWindow) {
  topo::Topology topology = ChainTopology(1, 1, 2.0);
  topo::Workload workload = ChainWorkload(50.0);  // Light load: no queueing.
  topo::ClusterConfig cluster = TestCluster();

  sim::FaultPlan plan;
  plan.AddStraggler(3000.0, 1, 4.0, 3000.0);  // 4x slower on [3000, 6000).

  sim::SimOptions options;
  options.seed = 21;
  sim::ClusterSim simulator(cluster, options);
  ASSERT_TRUE(simulator.InstallFaultPlan(plan).ok());
  sched::Schedule schedule(2, cluster.num_machines);
  schedule.Assign(0, 0);
  schedule.Assign(1, 1);  // The bolt lives on the straggling machine.
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());

  EXPECT_DOUBLE_EQ(simulator.MachineHealths()[1].speed_factor, 1.0);
  simulator.ResetWindow();
  simulator.RunFor(3000.0);
  const double healthy_latency = simulator.WindowAvgLatencyMs();
  // The window-start event fires at exactly 3000 ms, so the factor is
  // already applied at this boundary.
  EXPECT_DOUBLE_EQ(simulator.MachineHealths()[1].speed_factor, 4.0);

  simulator.ResetWindow();
  simulator.RunFor(3000.0);  // Exactly the straggler window.
  const double straggler_latency = simulator.WindowAvgLatencyMs();
  // Likewise the window-end event has fired at 6000 ms: speed restored.
  EXPECT_DOUBLE_EQ(simulator.MachineHealths()[1].speed_factor, 1.0);

  simulator.ResetWindow();
  simulator.RunFor(3000.0);  // Fully outside the window.
  const double recovered_latency = simulator.WindowAvgLatencyMs();
  EXPECT_DOUBLE_EQ(simulator.MachineHealths()[1].speed_factor, 1.0);

  // With deterministic 2 ms service and no queueing, the straggler window
  // multiplies the service part of the latency by ~4.
  EXPECT_GT(straggler_latency, 2.5 * healthy_latency);
  EXPECT_LT(recovered_latency, 1.5 * healthy_latency);
}

TEST(FaultSimTest, LinkSpikeAddsRemoteLatencyInsideWindow) {
  topo::Topology topology = ChainTopology(1, 1, 0.5);
  topo::Workload workload = ChainWorkload(50.0);
  topo::ClusterConfig cluster = TestCluster();

  sim::FaultPlan plan;
  plan.AddLinkSpike(2000.0, 0, 25.0, 2000.0);  // +25 ms off machine 0.

  sim::SimOptions options;
  options.seed = 9;
  sim::ClusterSim simulator(cluster, options);
  ASSERT_TRUE(simulator.InstallFaultPlan(plan).ok());
  sched::Schedule schedule(2, cluster.num_machines);
  schedule.Assign(0, 0);
  schedule.Assign(1, 1);  // Every spout->bolt hop crosses the spiked link.
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());

  simulator.ResetWindow();
  simulator.RunFor(2000.0);
  const double before = simulator.WindowAvgLatencyMs();
  simulator.ResetWindow();
  simulator.RunFor(2000.0);
  const double during = simulator.WindowAvgLatencyMs();
  simulator.ResetWindow();
  simulator.RunFor(2000.0);
  const double after = simulator.WindowAvgLatencyMs();

  EXPECT_GT(during, before + 15.0);
  EXPECT_LT(after, before + 5.0);
}

TEST(FaultSimTest, SpoutShockScalesArrivals) {
  topo::Topology topology = ChainTopology(1, 2, 0.2);
  topo::Workload workload = ChainWorkload(200.0);
  topo::ClusterConfig cluster = TestCluster();

  sim::FaultPlan plan;
  plan.AddSpoutShock(2000.0, 3.0);

  sim::SimOptions options;
  options.seed = 17;
  sim::ClusterSim simulator(cluster, options);
  ASSERT_TRUE(simulator.InstallFaultPlan(plan).ok());
  sched::Schedule schedule(3, cluster.num_machines);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());

  simulator.RunFor(2000.0);
  const long long before = simulator.counters().roots_emitted;
  simulator.RunFor(2000.0);
  const long long during = simulator.counters().roots_emitted - before;
  // ~3x the arrivals in an equal-length window (Poisson noise allowed).
  EXPECT_GT(during, static_cast<long long>(2.0 * before));
}

// A spout shock is a fault event like any other: it is counted and traced
// when it fires.
TEST(FaultSimTest, SpoutShockCountsAsAFault) {
  topo::Topology topology = ChainTopology(1, 2, 0.2);
  topo::Workload workload = ChainWorkload(200.0);
  topo::ClusterConfig cluster = TestCluster();
  sim::FaultPlan plan;
  plan.AddSpoutShock(1000.0, 2.0);

  obs::Tracer::Get().ResetForTest();
  obs::SetTraceEnabled(true);
  sim::ClusterSim simulator(cluster, sim::SimOptions{});
  ASSERT_TRUE(simulator.InstallFaultPlan(plan).ok());
  sched::Schedule schedule(3, cluster.num_machines);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(2000.0);
  obs::SetTraceEnabled(false);
  const std::string json = obs::Tracer::Get().ToJsonString();
  obs::Tracer::Get().ResetForTest();

  EXPECT_EQ(simulator.counters().faults_applied, 1);
  const std::string instant = "\"name\": \"fault:spout_shock\"";
  size_t instants = 0;
  for (size_t at = json.find(instant); at != std::string::npos;
       at = json.find(instant, at + 1)) {
    ++instants;
  }
  EXPECT_EQ(instants, 1u);
}

// A shock at t = 0 is in effect before the sources' first draw: a spout
// throttled to almost nothing from the start emits no root until the next
// shock restores its rate.
TEST(FaultSimTest, SpoutShockAtStartAppliesBeforeFirstDraw) {
  topo::Topology topology = ChainTopology(1, 2, 0.2);
  topo::Workload workload = ChainWorkload(200.0);
  topo::ClusterConfig cluster = TestCluster();
  sim::FaultPlan plan;
  plan.AddSpoutShock(0.0, 1e-6);
  plan.AddSpoutShock(1000.0, 1.0);

  sim::ClusterSim simulator(cluster, sim::SimOptions{});
  ASSERT_TRUE(simulator.InstallFaultPlan(plan).ok());
  sched::Schedule schedule(3, cluster.num_machines);
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(900.0);
  EXPECT_EQ(simulator.counters().roots_emitted, 0);
  EXPECT_EQ(simulator.counters().faults_applied, 1);
  simulator.RunFor(1100.0);
  EXPECT_GT(simulator.counters().roots_emitted, 100);
  EXPECT_EQ(simulator.counters().faults_applied, 2);
}

// ---------------------------------------------------------------------------
// Orphan repair
// ---------------------------------------------------------------------------

TEST(FaultSchedTest, RepairMovesOrphansToLeastLoadedAliveMachine) {
  sched::Schedule schedule(5, 4);
  schedule.Assign(0, 1);
  schedule.Assign(1, 1);
  schedule.Assign(2, 2);
  schedule.Assign(3, 3);
  schedule.Assign(4, 3);
  const std::vector<uint8_t> mask = {1, 0, 1, 1};  // Machine 1 is down.
  sched::Schedule repaired = sched::RepairToAliveMachines(schedule, mask);
  // The two orphans land on alive machines, least-loaded first: machine 0
  // (empty) takes the first, then machine 0 and 2 tie-break by index.
  EXPECT_EQ(repaired.MachineOf(0), 0);
  EXPECT_EQ(repaired.MachineOf(1), 0);
  // Everyone else is untouched.
  EXPECT_EQ(repaired.MachineOf(2), 2);
  EXPECT_EQ(repaired.MachineOf(3), 3);
  EXPECT_EQ(repaired.MachineOf(4), 3);
  for (int i = 0; i < repaired.num_executors(); ++i) {
    EXPECT_TRUE(mask[repaired.MachineOf(i)]);
  }
  // A fully-alive mask is the identity.
  const std::vector<uint8_t> all_up = {1, 1, 1, 1};
  EXPECT_EQ(sched::RepairToAliveMachines(schedule, all_up).DiffCount(schedule),
            0);
}

// ---------------------------------------------------------------------------
// Control-loop degradation: crash mid-run, the loop keeps stepping and no
// executor stays deployed on the dead machine.
// ---------------------------------------------------------------------------

TEST(FaultControlTest, ControllerReschedulesOrphansAfterCrash) {
  topo::Topology topology = ChainTopology(2, 4, 0.5);
  topo::Workload workload = ChainWorkload(300.0);
  topo::ClusterConfig cluster = TestCluster();

  sim::FaultPlan plan;
  plan.AddCrash(1500.0, 2);

  core::MeasurementConfig measure;
  measure.stabilize_ms = 400.0;
  measure.num_measurements = 2;
  measure.measurement_interval_ms = 200.0;
  sim::SimOptions options;
  options.seed = 13;
  core::SchedulingEnvironment env(&topology, workload, cluster, options,
                                  measure);
  ASSERT_TRUE(env.InstallFaultPlan(plan).ok());
  // Start with everything on the machine that will crash.
  sched::Schedule initial(topology.num_executors(), cluster.num_machines);
  for (int i = 0; i < topology.num_executors(); ++i) initial.Assign(i, 2);
  ASSERT_TRUE(env.Reset(initial).ok());

  rl::PolicyContext context;
  context.topology = &topology;
  context.cluster = &cluster;
  auto round_robin = rl::PolicyRegistry::Get().Create("round-robin", context);
  ASSERT_TRUE(round_robin.ok());
  core::OnlineOptions online;
  online.epochs = 4;

  // The crash hits while the early epochs measure; once an epoch observes
  // the dead machine it must repair without aborting, after which nothing
  // is ever deployed to machine 2 again.
  auto run = core::RunOnline(round_robin->get(), &env, online);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  bool saw_dead = false;
  for (const core::DisruptionRecord& record : run->disruptions) {
    saw_dead = saw_dead || record.dead_machines == 1;
  }
  EXPECT_TRUE(saw_dead);
  EXPECT_GT(env.simulator()->now_ms(), 1500.0);
  EXPECT_EQ(env.simulator()->ExecutorsOnDeadMachines(), 0);
  for (int i = 0; i < env.current_schedule().num_executors(); ++i) {
    EXPECT_NE(env.current_schedule().MachineOf(i), 2);
  }
}

// ---------------------------------------------------------------------------
// Bit-identical replay: the same (seed, plan) pair produces exactly the
// same run — twice in a row, and at every thread-pool size (the simulator
// is single-threaded by contract; the pool only serves the agents).
// ---------------------------------------------------------------------------

core::SeriesResult RunReplay() {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  core::SeriesSpec spec;
  spec.series.points = 4;
  spec.series.minute_ms = 1500.0;
  spec.series.measure_window_ms = spec.series.minute_ms;
  spec.series.pre_roll_ms = 500.0;
  spec.series.seed = 42;
  spec.plan.AddCrash(1200.0, 1);
  spec.plan.AddStraggler(2500.0, 2, 3.0, 1000.0);
  spec.plan.AddRecover(4200.0, 1);
  spec.plan.AddSpoutShock(5000.0, 1.3);
  sched::RoundRobinScheduler scheduler;
  auto result =
      core::RunSeries(app.topology, app.workload, cluster, &scheduler, spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

void ExpectIdenticalRuns(const core::SeriesResult& a,
                         const core::SeriesResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].avg_latency_ms, b.points[i].avg_latency_ms)
        << "series point " << i;
  }
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].label, b.phases[i].label);
    EXPECT_DOUBLE_EQ(a.phases[i].avg_latency_ms, b.phases[i].avg_latency_ms);
    EXPECT_EQ(a.phases[i].roots_completed, b.phases[i].roots_completed);
    EXPECT_EQ(a.phases[i].roots_failed, b.phases[i].roots_failed);
    EXPECT_EQ(a.phases[i].tuples_dropped, b.phases[i].tuples_dropped);
  }
  EXPECT_EQ(a.final_counters.events_processed,
            b.final_counters.events_processed);
  EXPECT_EQ(a.final_counters.roots_emitted, b.final_counters.roots_emitted);
  EXPECT_EQ(a.final_counters.roots_completed,
            b.final_counters.roots_completed);
  EXPECT_EQ(a.final_counters.tuples_dropped,
            b.final_counters.tuples_dropped);
  EXPECT_EQ(a.final_machine_up, b.final_machine_up);
  EXPECT_EQ(a.final_machine_executors, b.final_machine_executors);
  EXPECT_EQ(a.executors_on_dead_machines, 0);
  EXPECT_EQ(b.executors_on_dead_machines, 0);
}

/// One phase of a fault run, field for field.
struct PhaseGolden {
  const char* label;
  double start_ms;
  double end_ms;
  double avg_latency_ms;
  long long roots_completed;
  long long roots_failed;
  long long tuples_dropped;
  int executors_moved;
  int dead_machines;
};

TEST(FaultReplayTest, ReplayMatchesGolden) {
  const core::SeriesResult run = RunReplay();
  const std::vector<double> series = run.LatencySeries();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0], 3.5605905673684677);
  EXPECT_EQ(series[1], 709.18308340034025);
  EXPECT_EQ(series[2], 98.141187552735246);
  EXPECT_EQ(series[3], 600.97780915132398);

  // Round-robin re-spreads all but one executor whenever the set of live
  // machines changes, and the migration pauses stall the pipeline.
  const std::vector<PhaseGolden> phases = {
      {"healthy", 0, 1200, 3.702453599831121, 2130, 0, 0, 0, 0},
      {"crash(m1)", 1200, 2500, 6.1461796949920426, 3, 0, 0, 19, 1},
      {"straggler(m2)x3", 2500, 3500, 709.18308340034025, 4015, 0, 0, 0, 1},
      {"straggler(m2) end", 3500, 4200, 98.209329528932315, 1413, 0, 0, 0,
       1},
      {"recover(m1)", 4200, 5000, 1.8565751862706747, 1, 0, 0, 19, 0},
      {"spout_shock x1.3", 5000, 6500, 600.97780915132398, 4934, 0, 0, 0, 0},
  };
  ASSERT_EQ(run.phases.size(), phases.size());
  for (size_t i = 0; i < phases.size(); ++i) {
    SCOPED_TRACE(phases[i].label);
    EXPECT_EQ(run.phases[i].label, phases[i].label);
    EXPECT_EQ(run.phases[i].start_ms, phases[i].start_ms);
    EXPECT_EQ(run.phases[i].end_ms, phases[i].end_ms);
    EXPECT_EQ(run.phases[i].avg_latency_ms, phases[i].avg_latency_ms);
    EXPECT_EQ(run.phases[i].roots_completed, phases[i].roots_completed);
    EXPECT_EQ(run.phases[i].roots_failed, phases[i].roots_failed);
    EXPECT_EQ(run.phases[i].tuples_dropped, phases[i].tuples_dropped);
    EXPECT_EQ(run.phases[i].executors_moved, phases[i].executors_moved);
    EXPECT_EQ(run.phases[i].dead_machines, phases[i].dead_machines);
  }

  const sim::SimCounters& c = run.final_counters;
  EXPECT_EQ(c.events_processed, 57168);
  EXPECT_EQ(c.roots_emitted, 12503);
  EXPECT_EQ(c.roots_completed, 12496);
  EXPECT_EQ(c.roots_failed, 0);
  EXPECT_EQ(c.roots_throttled, 0);
  EXPECT_EQ(c.tuples_processed, 22304);
  EXPECT_EQ(c.local_transfers, 1978);
  EXPECT_EQ(c.remote_transfers, 20335);
  EXPECT_EQ(c.migrations, 38);
  EXPECT_EQ(c.tuples_dropped, 0);
  EXPECT_EQ(c.faults_applied, 5);  // The spout shock is one of them.
  // Settled at the run's end (the series reports joules).
  EXPECT_EQ(c.energy_joules, 7700.5767221865126);
  EXPECT_EQ(run.final_machine_up, std::vector<uint8_t>(10, 1));
  EXPECT_EQ(run.final_machine_executors, std::vector<int>(10, 2));
  EXPECT_EQ(run.executors_on_dead_machines, 0);
}

TEST(FaultReplayTest, SameSeedAndPlanReplayBitIdentically) {
  const core::SeriesResult first = RunReplay();
  const core::SeriesResult second = RunReplay();
  ExpectIdenticalRuns(first, second);
}

TEST(FaultReplayTest, ReplayIdenticalAtEveryThreadCount) {
  const int original = GlobalThreadCount();
  SetGlobalThreadCount(1);
  const core::SeriesResult one = RunReplay();
  SetGlobalThreadCount(2);
  const core::SeriesResult two = RunReplay();
  SetGlobalThreadCount(4);
  const core::SeriesResult four = RunReplay();
  SetGlobalThreadCount(original);
  ExpectIdenticalRuns(one, two);
  ExpectIdenticalRuns(one, four);
}

}  // namespace
}  // namespace drlstream
