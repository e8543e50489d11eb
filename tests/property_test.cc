// Property-style TEST_P sweeps across groupings, scales, schedules and
// solver sizes: invariants that must hold for every configuration.

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "core/online.h"
#include "knn_oracle.h"
#include "miqp/knn_solver.h"
#include "rl/policy_registry.h"
#include "sched/model_based.h"
#include "sched/scheduler.h"
#include "sim/cluster_sim.h"
#include "topo/apps.h"

namespace drlstream {
namespace {

// ---------------------------------------------------------------------------
// Tuple conservation across groupings: emitted = completed + failed +
// in flight, for every grouping policy.
// ---------------------------------------------------------------------------

class GroupingConservationTest
    : public testing::TestWithParam<topo::Grouping> {};

TEST_P(GroupingConservationTest, RootsAreConserved) {
  topo::Topology topology("conserve");
  topo::Component spout;
  spout.name = "spout";
  spout.parallelism = 2;
  spout.service_mean_ms = 0.01;
  topo::Component mid;
  mid.name = "mid";
  mid.parallelism = 3;
  mid.service_mean_ms = 0.05;
  mid.emit_factor = 1.0;
  topo::Component sink;
  sink.name = "sink";
  sink.parallelism = 3;
  sink.service_mean_ms = 0.05;
  sink.emit_factor = 0.0;
  const int s = topology.AddSpout(spout);
  const int m = topology.AddBolt(mid);
  const int k = topology.AddBolt(sink);
  ASSERT_TRUE(topology.Connect(s, m, GetParam()).ok());
  ASSERT_TRUE(topology.Connect(m, k, topo::Grouping::kShuffle).ok());
  ASSERT_TRUE(topology.Validate().ok());

  topo::Workload workload;
  workload.SetBaseRate(s, 300.0);
  topo::ClusterConfig cluster;
  cluster.num_machines = 4;
  sim::SimOptions options;
  options.seed = 17;
  sim::ClusterSim simulator(cluster, options);
  sched::Schedule schedule(topology.num_executors(), 4);
  for (int i = 0; i < topology.num_executors(); ++i) {
    schedule.Assign(i, i % 4);
  }
  ASSERT_TRUE(simulator.AddTenant(&topology, &workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(3000.0);

  const sim::SimCounters& counters = simulator.counters();
  EXPECT_EQ(counters.roots_emitted,
            counters.roots_completed + counters.roots_failed +
                simulator.inflight_roots());
  EXPECT_GT(counters.roots_completed, 0);
}

INSTANTIATE_TEST_SUITE_P(AllGroupings, GroupingConservationTest,
                         testing::Values(topo::Grouping::kShuffle,
                                         topo::Grouping::kFields,
                                         topo::Grouping::kAll,
                                         topo::Grouping::kGlobal));

// ---------------------------------------------------------------------------
// Every application builds, validates, runs, and completes tuples at every
// scale, in both timing and functional modes.
// ---------------------------------------------------------------------------

struct AppCase {
  std::string name;
  bool functional;
};

// Prints a case as "<app>_<mode>", which ctest uses as the test's name.
// Without it gtest dumps the struct's raw bytes, the string's heap pointer
// included, and the name changes with every build.
void PrintTo(const AppCase& app_case, std::ostream* os) {
  *os << app_case.name << (app_case.functional ? "_functional" : "_timing");
}

class ApplicationSmokeTest : public testing::TestWithParam<AppCase> {
 protected:
  topo::App Build() {
    topo::AppOptions options;
    options.functional = GetParam().functional;
    options.rate_scale = 0.3;  // Keep the sweep fast.
    if (GetParam().name == "cq_small") {
      return topo::BuildContinuousQueries(topo::Scale::kSmall, options);
    }
    if (GetParam().name == "cq_medium") {
      return topo::BuildContinuousQueries(topo::Scale::kMedium, options);
    }
    if (GetParam().name == "cq_large") {
      return topo::BuildContinuousQueries(topo::Scale::kLarge, options);
    }
    if (GetParam().name == "log") return topo::BuildLogProcessing(options);
    return topo::BuildWordCount(options);
  }
};

TEST_P(ApplicationSmokeTest, RunsAndCompletesTuples) {
  topo::App app = Build();
  ASSERT_TRUE(app.topology.Validate().ok());
  topo::ClusterConfig cluster;
  sim::SimOptions options;
  options.functional = GetParam().functional;
  options.seed = 29;
  sim::ClusterSim simulator(cluster, options);
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
  simulator.RunFor(2000.0);
  EXPECT_GT(simulator.counters().roots_completed, 50);
  EXPECT_GT(simulator.WindowAvgLatencyMs(), 0.0);
  if (GetParam().functional) {
    EXPECT_GT(app.sink->TotalRecords(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, ApplicationSmokeTest,
    testing::Values(AppCase{"cq_small", false}, AppCase{"cq_small", true},
                    AppCase{"cq_medium", false}, AppCase{"cq_large", false},
                    AppCase{"log", false}, AppCase{"log", true},
                    AppCase{"wc", false}, AppCase{"wc", true}));

// ---------------------------------------------------------------------------
// K-NN solver invariants across a size sweep.
// ---------------------------------------------------------------------------

struct KnnSweepCase {
  int n;
  int m;
  int k;
};

class KnnInvariantTest : public testing::TestWithParam<KnnSweepCase> {};

TEST_P(KnnInvariantTest, SortedDistinctFeasibleAndTightLowerBound) {
  const KnnSweepCase& param = GetParam();
  Rng rng(400 + param.n + param.m + param.k);
  std::vector<double> proto(static_cast<size_t>(param.n) * param.m);
  for (double& v : proto) v = rng.Uniform(-2.0, 2.0);
  miqp::KnnActionSolver solver(param.n, param.m);
  auto result = solver.Solve(proto, param.k);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->actions.empty());

  // (1) Sorted ascending; (2) all feasible; (3) no random feasible action
  // beats the k-th best unless it is one of the returned ones (spot-check
  // lower-bound property).
  std::vector<double> distances;
  for (const sched::Schedule& action : result->actions) {
    distances.push_back(miqp::ActionDistanceSquared(action, proto));
  }
  for (size_t i = 0; i < result->actions.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(distances[i], distances[i - 1] - 1e-12);
    }
    EXPECT_EQ(result->actions[i].num_executors(), param.n);
  }
  const double best = distances.front();
  for (int trial = 0; trial < 50; ++trial) {
    const sched::Schedule random =
        sched::Schedule::Random(param.n, param.m, &rng);
    EXPECT_GE(miqp::ActionDistanceSquared(random, proto), best - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, KnnInvariantTest,
    testing::Values(KnnSweepCase{5, 3, 4}, KnnSweepCase{20, 10, 16},
                    KnnSweepCase{50, 10, 32}, KnnSweepCase{100, 10, 32},
                    KnnSweepCase{100, 10, 64}, KnnSweepCase{7, 2, 128}));

// ---------------------------------------------------------------------------
// Remote fraction decreases as schedules concentrate (for every app).
// ---------------------------------------------------------------------------

class ConcentrationTest : public testing::TestWithParam<int> {};

TEST_P(ConcentrationTest, FewerMachinesMeansFewerRemoteTransfers) {
  const int k = GetParam();
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  app.workload.ScaleAllRates(0.3);
  topo::ClusterConfig cluster;
  auto remote_fraction = [&](int machines) {
    sim::SimOptions options;
    options.seed = 31;
    sim::ClusterSim simulator(cluster, options);
    sched::Schedule schedule(app.topology.num_executors(),
                             cluster.num_machines);
    for (int i = 0; i < app.topology.num_executors(); ++i) {
      schedule.Assign(i, i % machines);
    }
    EXPECT_TRUE(
        simulator.AddTenant(&app.topology, &app.workload, schedule).ok());
    EXPECT_TRUE(simulator.Start().ok());
    simulator.RunFor(2000.0);
    return simulator.RemoteTransferFraction();
  };
  EXPECT_LE(remote_fraction(k), remote_fraction(10) + 0.05);
}

INSTANTIATE_TEST_SUITE_P(MachineCounts, ConcentrationTest,
                         testing::Values(2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Delay model flow estimation is linear in the workload for every app.
// ---------------------------------------------------------------------------

class FlowLinearityTest : public testing::TestWithParam<int> {};

TEST_P(FlowLinearityTest, FlowsScaleLinearlyWithRates) {
  topo::App app = GetParam() == 0   ? topo::BuildContinuousQueries(
                                          topo::Scale::kLarge)
                  : GetParam() == 1 ? topo::BuildLogProcessing()
                                    : topo::BuildWordCount();
  std::vector<double> rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  const sched::FlowEstimate base = sched::EstimateFlows(app.topology, rates);
  for (double& r : rates) r *= 2.0;
  const sched::FlowEstimate doubled =
      sched::EstimateFlows(app.topology, rates);
  for (int c = 0; c < app.topology.num_components(); ++c) {
    EXPECT_NEAR(doubled.component_rate[c], 2.0 * base.component_rate[c],
                1e-6 * (1.0 + base.component_rate[c]));
  }
  for (size_t e = 0; e < app.topology.edges().size(); ++e) {
    EXPECT_NEAR(doubled.edge_rate[e], 2.0 * base.edge_rate[e],
                1e-6 * (1.0 + base.edge_rate[e]));
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, FlowLinearityTest, testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// The control loop (Fig. 1) with hot swapping: RunOnline drives a registry
// policy, and a second call on the live environment swaps in another one.
// ---------------------------------------------------------------------------

TEST(ControlLoopTest, RunsEpochsAndHotSwapsPolicies) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  app.workload.ScaleAllRates(0.5);
  topo::ClusterConfig cluster;
  sim::SimOptions sim_options;
  sim_options.seed = 37;
  core::MeasurementConfig measure;
  measure.stabilize_ms = 1700.0;
  measure.num_measurements = 2;
  measure.measurement_interval_ms = 250.0;
  core::SchedulingEnvironment env(&app.topology, app.workload, cluster,
                                  sim_options, measure);
  Rng rng(1);
  const sched::Schedule initial = sched::Schedule::Random(20, 10, &rng);
  ASSERT_TRUE(env.Reset(initial).ok());

  rl::PolicyContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  auto round_robin = rl::PolicyRegistry::Get().Create("round-robin", context);
  ASSERT_TRUE(round_robin.ok());
  EXPECT_EQ((*round_robin)->name(), "Default");

  core::OnlineOptions options;
  options.epochs = 0;
  EXPECT_EQ(core::RunOnline(round_robin->get(), &env, options).status().code(),
            StatusCode::kInvalidArgument);

  options.epochs = 3;
  auto first = core::RunOnline(round_robin->get(), &env, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->rewards.size(), 3u);
  EXPECT_LT(first->rewards[0], 0.0);  // -measured latency
  // After the first deployment the solution is stable: every later epoch
  // and the final deployment moved nothing.
  EXPECT_EQ(env.simulator()->counters().migrations,
            initial.DiffCount(first->final_schedule));
  EXPECT_EQ(env.current_schedule().DiffCount(first->final_schedule), 0);

  // Hot swap to another algorithm mid-run: the stream system keeps running.
  const double before_swap = env.simulator()->now_ms();
  const long long migrations_before = env.simulator()->counters().migrations;
  context.round_robin_workers_per_machine = 1;
  auto one_worker = rl::PolicyRegistry::Get().Create("round-robin", context);
  ASSERT_TRUE(one_worker.ok());
  options.epochs = 2;
  auto second = core::RunOnline(one_worker->get(), &env, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->rewards.size(), 2u);
  EXPECT_GT(env.simulator()->now_ms(), before_swap);
  // The new algorithm's first decision re-assigned executors (different
  // process layout) without restarting the simulator.
  EXPECT_GT(env.simulator()->counters().migrations, migrations_before);
}

// ---------------------------------------------------------------------------
// Simulator diagnostics.
// ---------------------------------------------------------------------------

TEST(DiagnosticsTest, MachineCountsMatchSchedule) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  sim::ClusterSim simulator(cluster, sim::SimOptions{});
  sched::Schedule schedule(20, 10);
  for (int i = 0; i < 20; ++i) schedule.Assign(i, i < 12 ? 0 : 5);
  ASSERT_TRUE(simulator.AddTenant(&app.topology, &app.workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  const std::vector<int> counts = simulator.MachineExecutorCounts();
  EXPECT_EQ(counts[0], 12);
  EXPECT_EQ(counts[5], 8);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 20);
  EXPECT_EQ(simulator.ExecutorQueueDepths().size(), 20u);
  EXPECT_DOUBLE_EQ(simulator.RemoteTransferFraction(), 0.0);
}

}  // namespace
}  // namespace drlstream
