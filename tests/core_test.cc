#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "core/artifacts.h"
#include "core/drl_scheduler.h"
#include "core/environment.h"
#include "core/experiment.h"
#include "core/offline.h"
#include "core/online.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"

namespace drlstream::core {
namespace {

/// Fast measurement protocol for tests.
MeasurementConfig FastMeasure() {
  MeasurementConfig config;
  config.stabilize_ms = 1800.0;
  config.num_measurements = 2;
  config.measurement_interval_ms = 300.0;
  return config;
}

class EnvironmentTest : public testing::Test {
 protected:
  void SetUp() override {
    app_ = topo::BuildContinuousQueries(topo::Scale::kSmall);
    sim_options_.seed = 3;
    env_ = std::make_unique<SchedulingEnvironment>(
        &app_.topology, app_.workload, cluster_, sim_options_, FastMeasure());
  }

  topo::App app_{topo::Topology(""), topo::Workload(), nullptr};
  topo::ClusterConfig cluster_;
  sim::SimOptions sim_options_;
  std::unique_ptr<SchedulingEnvironment> env_;
};

TEST_F(EnvironmentTest, RequiresResetBeforeMeasure) {
  sched::Schedule schedule(app_.topology.num_executors(),
                           cluster_.num_machines);
  EXPECT_EQ(env_->DeployAndMeasure(schedule).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EnvironmentTest, DeployAndMeasureReturnsPositiveLatency) {
  Rng rng(1);
  sched::Schedule initial = sched::Schedule::RandomPacked(
      app_.topology.num_executors(), cluster_.num_machines, 4, &rng);
  ASSERT_TRUE(env_->Reset(initial).ok());
  auto latency = env_->DeployAndMeasure(initial);
  ASSERT_TRUE(latency.ok());
  EXPECT_GT(*latency, 0.0);
  EXPECT_LT(*latency, 10000.0);
  // Detailed statistics were recorded for every component and edge.
  EXPECT_EQ(env_->last_component_proc_ms().size(),
            static_cast<size_t>(app_.topology.num_components()));
  EXPECT_EQ(env_->last_edge_transfer_ms().size(),
            app_.topology.edges().size());
}

TEST_F(EnvironmentTest, CurrentStateReflectsDeployedSchedule) {
  Rng rng(2);
  sched::Schedule initial = sched::Schedule::RandomPacked(
      app_.topology.num_executors(), cluster_.num_machines, 3, &rng);
  ASSERT_TRUE(env_->Reset(initial).ok());
  rl::State state = env_->CurrentState();
  EXPECT_EQ(state.assignments, initial.assignments());
  ASSERT_EQ(state.spout_rates.size(), 1u);
  EXPECT_GT(state.spout_rates[0], 0.0);
}

TEST_F(EnvironmentTest, WorkloadFactorChangesObservedRates) {
  Rng rng(3);
  ASSERT_TRUE(env_->Reset(sched::Schedule::RandomPacked(
                              app_.topology.num_executors(),
                              cluster_.num_machines, 3, &rng))
                  .ok());
  const double base = env_->CurrentState().spout_rates[0];
  env_->SetWorkloadFactor(1.5);
  EXPECT_NEAR(env_->CurrentState().spout_rates[0], 1.5 * base, 1e-9);
}

// ---------------------------------------------------------------------------
// Offline collection
// ---------------------------------------------------------------------------

TEST_F(EnvironmentTest, CollectsFullRandomSamples) {
  Rng rng(4);
  ASSERT_TRUE(env_->Reset(sched::Schedule::RandomPacked(
                              app_.topology.num_executors(),
                              cluster_.num_machines, 4, &rng))
                  .ok());
  CollectionOptions options;
  options.num_samples = 6;
  options.mode = CollectionMode::kFullRandom;
  options.collect_details = true;
  auto db = CollectOfflineSamples(env_.get(), options);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 6u);
  for (size_t i = 0; i < db->size(); ++i) {
    const auto& record = db->at(i);
    EXPECT_LT(record.transition.reward, 0.0);
    EXPECT_GE(record.transition.reward, -options.reward_cap_ms);
    EXPECT_EQ(record.transition.move_index, -1);
    EXPECT_FALSE(record.component_proc_ms.empty());
    // Transitions chain: next state of i == state of i+1 (assignments).
    if (i + 1 < db->size()) {
      EXPECT_EQ(record.transition.next_state.assignments,
                db->at(i + 1).transition.state.assignments);
    }
  }
}

TEST_F(EnvironmentTest, CollectsSingleMoveSamples) {
  Rng rng(5);
  ASSERT_TRUE(env_->Reset(sched::Schedule::RandomPacked(
                              app_.topology.num_executors(),
                              cluster_.num_machines, 4, &rng))
                  .ok());
  CollectionOptions options;
  options.num_samples = 5;
  options.mode = CollectionMode::kSingleMoveRandom;
  options.collect_details = false;
  auto db = CollectOfflineSamples(env_.get(), options);
  ASSERT_TRUE(db.ok());
  for (size_t i = 0; i < db->size(); ++i) {
    const auto& t = db->at(i).transition;
    EXPECT_GE(t.move_index, 0);
    // A single move changes at most one executor.
    int diff = 0;
    for (size_t e = 0; e < t.state.assignments.size(); ++e) {
      if (t.state.assignments[e] != t.action_assignments[e]) ++diff;
    }
    EXPECT_LE(diff, 1);
  }
}

TEST_F(EnvironmentTest, CollectionValidatesOptions) {
  CollectionOptions options;
  options.num_samples = 0;
  EXPECT_FALSE(CollectOfflineSamples(env_.get(), options).ok());
  options.num_samples = 1;
  options.workload_factor_min = 2.0;
  options.workload_factor_max = 1.0;
  EXPECT_FALSE(CollectOfflineSamples(env_.get(), options).ok());
}

// ---------------------------------------------------------------------------
// Scheduler adapters
// ---------------------------------------------------------------------------

TEST(DrlSchedulerTest, DdpgPolicyProducesFeasibleSolution) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  rl::StateEncoder encoder(app.topology.num_executors(),
                           cluster.num_machines, 1, 900.0);
  rl::PolicyContext policy_context;
  policy_context.encoder = &encoder;
  auto policy = rl::PolicyRegistry::Get().Create("ddpg", policy_context);
  ASSERT_TRUE(policy.ok());
  PolicyScheduler scheduler(policy->get());
  EXPECT_EQ(scheduler.name(), "Actor-critic-based DRL");

  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = scheduler.ComputeSchedule(context);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->num_executors(), app.topology.num_executors());
}

TEST(DrlSchedulerTest, DqnPolicyRollsOutMoves) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  rl::StateEncoder encoder(app.topology.num_executors(),
                           cluster.num_machines, 1, 900.0);
  rl::PolicyContext policy_context;
  policy_context.encoder = &encoder;
  policy_context.dqn.rollout_steps = 5;
  auto policy = rl::PolicyRegistry::Get().Create("dqn", policy_context);
  ASSERT_TRUE(policy.ok());
  PolicyScheduler scheduler(policy->get());
  EXPECT_EQ(scheduler.name(), "DQN-based DRL");

  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  sched::Schedule current(app.topology.num_executors(),
                          cluster.num_machines);
  context.current = &current;
  auto schedule = scheduler.ComputeSchedule(context);
  ASSERT_TRUE(schedule.ok());
  // At most 5 executors moved from the current solution.
  EXPECT_LE(schedule->DiffCount(current), 5);
}

// ---------------------------------------------------------------------------
// Online control loop
// ---------------------------------------------------------------------------

/// Explores one packing (every executor on machine 0) and ends with a
/// spread schedule (executor i on machine i % M).
class PackThenSpreadPolicy : public rl::Policy {
 public:
  PackThenSpreadPolicy(int num_executors, int num_machines)
      : packed_(num_executors, num_machines),
        spread_(num_executors, num_machines) {
    for (int i = 0; i < num_executors; ++i) {
      packed_.Assign(i, 0);
      spread_.Assign(i, i % num_machines);
    }
  }

  std::string name() const override { return "pack-then-spread"; }
  StatusOr<rl::PolicyAction> SelectAction(const rl::State& state,
                                          double epsilon,
                                          Rng* rng) const override {
    (void)state;
    (void)epsilon;
    (void)rng;
    return rl::PolicyAction(packed_);
  }
  StatusOr<sched::Schedule> GreedyAction(
      const rl::State& state) const override {
    (void)state;
    return spread_;
  }

  const sched::Schedule& packed() const { return packed_; }
  const sched::Schedule& spread() const { return spread_; }

 private:
  sched::Schedule packed_;
  sched::Schedule spread_;
};

/// FinalPick's measurement protocol: the default windows after a 2 s
/// stabilization (the default is 1.5 s).
MeasurementConfig FinalPickMeasure() {
  MeasurementConfig config;
  config.stabilize_ms = 2000.0;
  return config;
}

/// Latency of `schedule` deployed alone on a fresh environment.
double MeasureAlone(const topo::App& app, const topo::ClusterConfig& cluster,
                    const sched::Schedule& schedule) {
  sim::SimOptions sim_options;
  sim_options.seed = 3;
  SchedulingEnvironment env(&app.topology, app.workload, cluster,
                            sim_options, FinalPickMeasure());
  EXPECT_TRUE(env.Reset(schedule).ok());
  StatusOr<double> latency = env.DeployAndMeasure(schedule);
  EXPECT_TRUE(latency.ok());
  return latency.ok() ? *latency : 0.0;
}

// The reward cap must not leak into the final pick: when every epoch
// measured above the cap, the final schedule is kept if its measured
// latency beats the best epoch's, not the cap.
//
// The premise is that the final spread schedule measures above the cap but
// below every packed epoch. The packed epochs pile up a backlog on machine
// 0, so each measures over a second (about 1.2, 1.6 and 2.0 s here). The
// 2 s stabilization lets the spread schedule drain most, but not all, of
// that backlog before its windows open, so it measures a few hundred ms:
// 226 ms here, and 200-317 ms over sim seeds 1-8, against packed epochs of
// at least 1,211 ms and the 50 ms cap. With the default 1.5 s the drain
// has barely begun (the spread measures about as high as the first packed
// epoch); from 2.5 s it is complete (about 3 ms, under the cap). The
// replay at the end checks the premise on a twin environment.
TEST(OnlineTest, FinalPickComparesUncappedLatencies) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  PackThenSpreadPolicy policy(app.topology.num_executors(),
                              cluster.num_machines);
  sim::SimOptions sim_options;
  sim_options.seed = 3;
  SchedulingEnvironment env(&app.topology, app.workload, cluster,
                            sim_options, FinalPickMeasure());
  ASSERT_TRUE(env.Reset(policy.spread()).ok());

  OnlineOptions options;
  options.epochs = 3;
  auto result = RunOnline(&policy, &env, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every epoch measured the packing above the cap.
  for (double reward : result->rewards) {
    EXPECT_EQ(reward, -options.reward_cap_ms);
  }
  EXPECT_EQ(result->final_schedule.assignments(),
            policy.spread().assignments());
  // Measured alone, the kept schedule is the faster one by far.
  EXPECT_LT(MeasureAlone(app, cluster, policy.spread()) * 10.0,
            MeasureAlone(app, cluster, policy.packed()));

  // The premise, replayed: RunOnline's environment saw these same
  // deployments in this order from the same seed.
  SchedulingEnvironment twin(&app.topology, app.workload, cluster,
                             sim_options, FinalPickMeasure());
  ASSERT_TRUE(twin.Reset(policy.spread()).ok());
  double best_packed = std::numeric_limits<double>::infinity();
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    StatusOr<double> packed = twin.DeployAndMeasure(policy.packed());
    ASSERT_TRUE(packed.ok());
    best_packed = std::min(best_packed, *packed);
  }
  StatusOr<double> final_latency = twin.DeployAndMeasure(policy.spread());
  ASSERT_TRUE(final_latency.ok());
  EXPECT_GT(*final_latency, options.reward_cap_ms);
  EXPECT_LT(*final_latency, best_packed);
}

// ---------------------------------------------------------------------------
// Series measurement
// ---------------------------------------------------------------------------

TEST(SeriesTest, MeasureLatencySeriesShape) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  sched::Schedule schedule(app.topology.num_executors(),
                           cluster.num_machines);
  for (int i = 0; i < app.topology.num_executors(); ++i) {
    schedule.Assign(i, i % 3);
  }
  SeriesOptions options;
  options.points = 8;
  options.minute_ms = 2000.0;
  options.measure_window_ms = 1000.0;
  auto series = MeasureLatencySeries(app.topology, app.workload, cluster,
                                     schedule, options);
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 8u);
  for (double v : *series) EXPECT_GT(v, 0.0);
  // With cold-start inflation, the first minutes are slower than the last.
  EXPECT_GT((*series)[0], series->back());
}

TEST(SeriesTest, ValidatesOptions) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  sched::Schedule schedule(app.topology.num_executors(),
                           cluster.num_machines);
  SeriesOptions options;
  options.points = 0;
  EXPECT_FALSE(MeasureLatencySeries(app.topology, app.workload, cluster,
                                    schedule, options)
                   .ok());
  options.points = 5;
  options.measure_window_ms = options.minute_ms + 1;
  EXPECT_FALSE(MeasureLatencySeries(app.topology, app.workload, cluster,
                                    schedule, options)
                   .ok());
}

TEST(SeriesTest, AdaptiveSeriesReactsToSurge) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  // A static scheduler that always returns the same (good) packing.
  class StaticScheduler : public sched::Scheduler {
   public:
    std::string name() const override { return "static"; }
    StatusOr<sched::Schedule> ComputeSchedule(
        const sched::SchedulingContext& context) override {
      sched::Schedule s(context.topology->num_executors(),
                        context.cluster->num_machines);
      for (int i = 0; i < s.num_executors(); ++i) s.Assign(i, i % 3);
      return s;
    }
  };
  StaticScheduler scheduler;
  AdaptiveSeriesOptions options;
  options.series.points = 12;
  options.series.minute_ms = 2000.0;
  options.series.measure_window_ms = 1000.0;
  options.series.warmup_extra = 0.0;
  options.surge_at_point = 6;
  options.surge_factor = 1.5;
  auto series = MeasureAdaptiveSeries(app.topology, app.workload, cluster,
                                      &scheduler, options);
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 12u);
  // Higher load after the surge: the tail is slower than the pre-surge part.
  const double before = (*series)[4];
  const double after = series->back();
  EXPECT_GT(after, before * 0.9);
}

TEST(SeriesTest, NominalSpoutRate) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  EXPECT_GT(NominalSpoutRate(app.topology, app.workload), 0.0);
  topo::Workload empty;
  EXPECT_DOUBLE_EQ(NominalSpoutRate(app.topology, empty), 100.0);
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

TEST(ArtifactsTest, MissingArtifactsDetected) {
  EXPECT_FALSE(ArtifactsExist(testing::TempDir(), "nonexistent_key"));
}

}  // namespace
}  // namespace drlstream::core
