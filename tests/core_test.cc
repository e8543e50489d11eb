#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/artifacts.h"
#include "core/drl_scheduler.h"
#include "core/environment.h"
#include "core/experiment.h"
#include "core/offline.h"
#include "core/online.h"
#include "obs/metrics.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"
#include "workload/registry.h"

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
  ASSERT_TRUE(env_->SetWorkloadFactor(1.5).ok());
  EXPECT_NEAR(env_->CurrentState().spout_rates[0], 1.5 * base, 1e-9);
}

TEST_F(EnvironmentTest, WorkloadFactorRequiresReset) {
  EXPECT_EQ(env_->SetWorkloadFactor(1.5).code(),
            StatusCode::kFailedPrecondition);
}

// A factor belongs to the simulator it was set on: after a Reset the new
// simulator runs at base rates, also past the time the factor was set.
TEST_F(EnvironmentTest, WorkloadFactorDoesNotOutliveReset) {
  Rng rng(6);
  const sched::Schedule initial = sched::Schedule::RandomPacked(
      app_.topology.num_executors(), cluster_.num_machines, 3, &rng);
  ASSERT_TRUE(env_->Reset(initial).ok());
  const std::vector<double> base = env_->CurrentState().spout_rates;
  env_->simulator()->RunFor(2000.0);
  ASSERT_TRUE(env_->SetWorkloadFactor(1.5).ok());
  ASSERT_TRUE(env_->Reset(initial).ok());
  env_->simulator()->RunFor(3000.0);
  EXPECT_EQ(env_->CurrentState().spout_rates, base);
  EXPECT_EQ(env_->simulator()->TenantEffectiveSpoutRates(0), base);
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

/// One collection chain as the paper pipeline runs it on CQ small (the
/// default measurement protocol, a random initial schedule and the
/// pipeline's 0.8-1.7 workload factors, one per sample), but uncapped, so
/// every reward is a measured latency.
StatusOr<rl::TransitionDatabase> PaperChain(CollectionMode mode,
                                            uint64_t sim_seed,
                                            uint64_t seed) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  sim::SimOptions sim_options;
  sim_options.seed = sim_seed;
  SchedulingEnvironment env(&app.topology, app.workload, cluster,
                            sim_options, MeasurementConfig());
  Rng rng(seed);
  DRLSTREAM_RETURN_NOT_OK(env.Reset(sched::Schedule::Random(
      app.topology.num_executors(), cluster.num_machines, &rng)));
  CollectionOptions collect;
  collect.num_samples = 8;
  collect.mode = mode;
  collect.seed = seed + 1;
  collect.collect_details = mode == CollectionMode::kFullRandom;
  collect.workload_factor_min = 0.8;
  collect.workload_factor_max = 1.7;
  collect.reward_cap_ms = std::numeric_limits<double>::infinity();
  return CollectOfflineSamples(&env, collect);
}

/// One recorded sample: its reward and the spout rate (CQ small has one
/// spout component) of its state and next state.
struct SampleGolden {
  double reward;
  double state_rate;
  double next_rate;
};

void ExpectChainGolden(CollectionMode mode, uint64_t sim_seed, uint64_t seed,
                       const std::vector<SampleGolden>& samples) {
  auto db = PaperChain(mode, sim_seed, seed);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db->size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    const rl::Transition& t = db->at(i).transition;
    EXPECT_EQ(t.reward, samples[i].reward);
    EXPECT_EQ(t.state.spout_rates, std::vector<double>{samples[i].state_rate});
    EXPECT_EQ(t.next_state.spout_rates,
              std::vector<double>{samples[i].next_rate});
  }
}

// Pins both offline collection chains bit for bit, at the seeds
// TrainAllMethods gives them for seed 11: the rewards and the observed
// workload of every state, under a new factor per sample. Re-recorded once
// when Rng (the random schedules and factors) became a splitmix64 stream.
TEST(CollectionTest, PaperChainsGolden) {
  ExpectChainGolden(CollectionMode::kFullRandom, 11, 11,
                    {{-570.05361095318972, 900, 1502.8126005740385},
                     {-347.56101621022543, 1502.8126005740385,
                      779.81791526748248},
                     {-1062.9635212414933, 779.81791526748248,
                      1520.6100091435053},
                     {-1523.4561647140565, 1520.6100091435053,
                      1503.1163201431136},
                     {-909.63962868294345, 1503.1163201431136,
                      1158.100692014069},
                     {-450.51926001458736, 1158.100692014069,
                      853.94100733481264},
                     {-266.23909466940466, 853.94100733481264,
                      809.9444253628576},
                     {-541.32115492486412, 809.9444253628576,
                      1412.1327656246115}});
  ExpectChainGolden(CollectionMode::kSingleMoveRandom, 1011, 13,
                    {{-10.242054292947554, 900, 1483.6480963236947},
                     {-8.501456148301445, 1483.6480963236947,
                      1400.8843977877452},
                     {-3.6897415072898094, 1400.8843977877452,
                      956.86861641329665},
                     {-8.3101289985203373, 956.86861641329665,
                      1327.3822713514091},
                     {-7.1842205374466621, 1327.3822713514091,
                      1272.4115727688768},
                     {-8.1982011050089572, 1272.4115727688768,
                      1351.7329777246214},
                     {-5.6810699934984878, 1351.7329777246214,
                      907.82744706881613},
                     {-6.2070539984238282, 907.82744706881613,
                      852.76732682943828}});
}

// ---------------------------------------------------------------------------
// Reward normalization
// ---------------------------------------------------------------------------

/// A pipeline budget small enough for a unit test: a few offline samples,
/// a handful of pretraining steps and epochs, no DQN baseline.
PipelineConfig RewardProbeConfig(int offline_samples) {
  PipelineConfig config;
  config.offline_samples = offline_samples;
  config.pretrain_steps = 4;
  config.online.epochs = 2;
  config.online.train_steps_per_epoch = 1;
  config.train_dqn = false;
  return config;
}

/// What TrainAllMethods must report, recomputed from the database it
/// returns: the median reward, the IQR / 1.35 floored at kMinRewardScale,
/// and the samples at the collection's latency cap.
void ExpectRewardNormalizationOf(const TrainedMethods& trained) {
  std::vector<double> rewards;
  int at_cap = 0;
  for (const rl::TransitionDatabase::Record& record :
       trained.full_random_db.records()) {
    rewards.push_back(record.transition.reward);
    if (record.transition.reward <= -CollectionOptions().reward_cap_ms) {
      ++at_cap;
    }
  }
  EXPECT_EQ(trained.reward_shift, Percentile(rewards, 50.0));
  EXPECT_EQ(trained.reward_scale,
            std::max((Percentile(rewards, 75.0) - Percentile(rewards, 25.0)) /
                         1.35,
                     kMinRewardScale));
  EXPECT_EQ(trained.samples_at_cap, at_cap);
}

TEST(RewardNormalizationTest, CqSmallReportsShiftScaleAndSamplesAtCap) {
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const int64_t at_cap_before =
      registry.Snapshot().counters["core.samples_at_cap"];
  const topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  const topo::ClusterConfig cluster;
  auto trained = TrainAllMethods(&app.topology, app.workload, cluster,
                                 RewardProbeConfig(12));
  ASSERT_TRUE(trained.ok()) << trained.status();
  ASSERT_EQ(trained->full_random_db.size(), 12u);
  ExpectRewardNormalizationOf(*trained);
  EXPECT_EQ(trained->samples_at_cap, 4);
  EXPECT_EQ(trained->reward_shift, -26.700853081643835);
  EXPECT_EQ(trained->reward_scale, 34.92113410983373);
  // The same three values reach the metrics registry.
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.gauges.at("rl.reward_shift"), trained->reward_shift);
  EXPECT_EQ(snapshot.gauges.at("rl.reward_scale"), trained->reward_scale);
  EXPECT_EQ(snapshot.counters.at("core.samples_at_cap") - at_cap_before,
            trained->samples_at_cap);
  obs::SetMetricsEnabled(metrics_were_on);
}

// Random schedules overload CQ large, so most full-random samples sit at
// the cap, the IQR is 0 and the scale falls to its floor.
TEST(RewardNormalizationTest, CqLargeScaleReachesItsFloor) {
  const topo::App app = topo::BuildContinuousQueries(topo::Scale::kLarge);
  const topo::ClusterConfig cluster;
  auto trained = TrainAllMethods(&app.topology, app.workload, cluster,
                                 RewardProbeConfig(8));
  ASSERT_TRUE(trained.ok()) << trained.status();
  ExpectRewardNormalizationOf(*trained);
  EXPECT_EQ(trained->reward_scale, kMinRewardScale);
  EXPECT_EQ(trained->reward_shift, -CollectionOptions().reward_cap_ms);
  EXPECT_GE(trained->samples_at_cap, 6);
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

/// Fails every decision with one status code, counting the attempts.
class FailingPolicy : public rl::Policy {
 public:
  explicit FailingPolicy(StatusCode code) : code_(code) {}

  std::string name() const override { return "failing"; }
  StatusOr<rl::PolicyAction> SelectAction(const rl::State& state,
                                          double epsilon,
                                          Rng* rng) const override {
    (void)state;
    (void)epsilon;
    (void)rng;
    ++calls_;
    return Status(code_, "stub policy refuses");
  }
  StatusOr<sched::Schedule> GreedyAction(
      const rl::State& state) const override {
    (void)state;
    return Status(code_, "stub policy refuses");
  }

  int calls() const { return calls_; }

 private:
  StatusCode code_;
  mutable int calls_ = 0;
};

struct FailingRun {
  OnlineResult result;
  double start_ms = 0.0;  // simulated time when the loop began
  int calls = 0;          // SelectAction attempts
};

/// Two epochs of RunOnline on CQ small with a policy that always fails
/// with `code`.
FailingRun RunFailingPolicy(StatusCode code) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  sim::SimOptions sim_options;
  sim_options.seed = 3;
  MeasurementConfig measure;
  measure.stabilize_ms = 200.0;
  measure.num_measurements = 1;
  measure.measurement_interval_ms = 100.0;
  SchedulingEnvironment env(&app.topology, app.workload, cluster,
                            sim_options, measure);
  Rng rng(5);
  EXPECT_TRUE(env.Reset(sched::Schedule::Random(
                            app.topology.num_executors(),
                            cluster.num_machines, &rng))
                  .ok());
  FailingPolicy policy(code);
  OnlineOptions options;
  options.epochs = 2;
  FailingRun run;
  run.start_ms = env.simulator()->now_ms();
  auto result = RunOnline(&policy, &env, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) run.result = *std::move(result);
  run.calls = policy.calls();
  return run;
}

// A malformed request or a policy in the wrong state fails identically on
// every retry, so the loop keeps the current schedule at once: no retry,
// no backoff, one attempt per epoch.
TEST(OnlineTest, UnfixableSelectionErrorsFallBackWithoutRetrying) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kFailedPrecondition}) {
    const FailingRun run = RunFailingPolicy(code);
    const std::string what = StatusCodeToString(code);
    ASSERT_EQ(run.result.disruptions.size(), 2u) << what;
    for (const DisruptionRecord& record : run.result.disruptions) {
      EXPECT_EQ(record.retries, 0) << what;
      EXPECT_TRUE(record.used_fallback) << what;
    }
    // The first decision is made when the loop starts: no 0.5 + 1 + 1.5 s
    // of backoff ran before it.
    EXPECT_EQ(run.result.disruptions[0].time_ms, run.start_ms) << what;
    EXPECT_EQ(run.calls, 2) << what;
  }
}

// Any other error may pass, so it keeps the bounded retries with backoff.
TEST(OnlineTest, TransientSelectionErrorsRetryWithBackoff) {
  const FailingRun run = RunFailingPolicy(StatusCode::kUnavailable);
  ASSERT_EQ(run.result.disruptions.size(), 2u);
  for (const DisruptionRecord& record : run.result.disruptions) {
    EXPECT_EQ(record.retries, 3);
    EXPECT_TRUE(record.used_fallback);
  }
  EXPECT_EQ(run.result.disruptions[0].time_ms, run.start_ms + 3000.0);
  EXPECT_EQ(run.calls, 8);
}

// ---------------------------------------------------------------------------
// Series measurement
// ---------------------------------------------------------------------------

/// Places executor i on machine i % 3: a good packing for CQ small.
class ModuloThreeScheduler : public sched::Scheduler {
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

/// The modulo-three packing of CQ small measured for 8 two-second minutes.
StatusOr<std::vector<double>> ShapeSeries() {
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
  return MeasureLatencySeries(app.topology, app.workload, cluster, schedule,
                              options);
}

/// The modulo-three scheduler through a +50% step at minute 6 of 12 (the
/// Fig. 12 protocol: a zero-width drift).
StatusOr<std::vector<double>> SurgeSeries() {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  ModuloThreeScheduler scheduler;
  SeriesSpec spec;
  spec.series.points = 12;
  spec.series.minute_ms = 2000.0;
  spec.series.measure_window_ms = 1000.0;
  spec.series.warmup_extra = 0.0;
  workload::DriftConfig drift;
  drift.to = 1.5;
  drift.start_ms = spec.series.pre_roll_ms + 6 * spec.series.minute_ms;
  drift.end_ms = drift.start_ms;
  DRLSTREAM_ASSIGN_OR_RETURN(
      const std::unique_ptr<workload::WorkloadGenerator> generator,
      workload::MakeDrift(drift));
  spec.generator = generator.get();
  DRLSTREAM_ASSIGN_OR_RETURN(
      const SeriesResult result,
      RunSeries(app.topology, app.workload, cluster, &scheduler, spec));
  return result.LatencySeries();
}

/// Registry policy `key` through a diurnal day (period 24 s, amplitude 0.4)
/// on CQ small, with machines that sleep after 5 s without executors.
StatusOr<SeriesResult> DiurnalRun(const std::string& key) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  cluster.machine.sleep_after_idle_ms = 5000.0;
  DRLSTREAM_ASSIGN_OR_RETURN(
      const std::unique_ptr<workload::WorkloadGenerator> generator,
      workload::ParseWorkloadSpec("diurnal:period_ms=24000,amplitude=0.4",
                                  7));
  rl::PolicyContext policy_context;
  policy_context.topology = &app.topology;
  policy_context.cluster = &cluster;
  DRLSTREAM_ASSIGN_OR_RETURN(
      const std::unique_ptr<rl::Policy> policy,
      rl::PolicyRegistry::Get().Create(key, policy_context));
  PolicyScheduler scheduler(policy.get());
  SeriesSpec spec;
  spec.generator = generator.get();
  spec.series.points = 6;
  spec.series.minute_ms = 3000.0;
  spec.series.measure_window_ms = 1500.0;
  spec.series.seed = 107;
  return RunSeries(app.topology, app.workload, cluster, &scheduler, spec);
}

TEST(SeriesTest, MeasureLatencySeriesShape) {
  auto series = ShapeSeries();
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 8u);
  for (double v : *series) EXPECT_GT(v, 0.0);
  // With cold-start inflation, the first minutes are slower than the last.
  EXPECT_GT((*series)[0], series->back());
}

TEST(SeriesTest, LatencySeriesGolden) {
  auto series = ShapeSeries();
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 8u);
  EXPECT_EQ((*series)[0], 1040.7084182489998);
  EXPECT_EQ((*series)[1], 3.5930487233448711);
  EXPECT_EQ((*series)[2], 2.5431487699727842);
  EXPECT_EQ((*series)[3], 2.5061106284301635);
  EXPECT_EQ((*series)[4], 2.1860409198559663);
  EXPECT_EQ((*series)[5], 2.0923056477854018);
  EXPECT_EQ((*series)[6], 1.9847510791939973);
  EXPECT_EQ((*series)[7], 1.8425049359342958);
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
  options.measure_window_ms = 1000.0;
  sched::Schedule too_long(app.topology.num_executors() + 1,
                           cluster.num_machines);
  EXPECT_FALSE(MeasureLatencySeries(app.topology, app.workload, cluster,
                                    too_long, options)
                   .ok());
}

TEST(SeriesTest, AdaptiveSeriesReactsToSurge) {
  auto series = SurgeSeries();
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 12u);
  // Higher load after the surge: the tail is slower than the pre-surge part.
  const double before = (*series)[4];
  const double after = series->back();
  EXPECT_GT(after, before * 0.9);
}

TEST(SeriesTest, SurgeSeriesGolden) {
  auto series = SurgeSeries();
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 12u);
  EXPECT_EQ((*series)[0], 890.41035049558275);
  EXPECT_EQ((*series)[1], 1.9399475228182186);
  EXPECT_EQ((*series)[2], 1.8174948089392173);
  EXPECT_EQ((*series)[3], 1.9771911162813105);
  EXPECT_EQ((*series)[4], 1.8701678280724041);
  EXPECT_EQ((*series)[5], 1.8574659588947497);
  EXPECT_EQ((*series)[6], 3.3941443124119908);
  EXPECT_EQ((*series)[7], 3.4088725448450501);
  EXPECT_EQ((*series)[8], 3.4016314419456597);
  EXPECT_EQ((*series)[9], 2.5089801501517779);
  EXPECT_EQ((*series)[10], 3.4796045359077095);
  EXPECT_EQ((*series)[11], 3.1823306223912291);
}

/// One reported minute of a scenario run, field for field.
struct PointGolden {
  double time_ms;
  double avg_latency_ms;
  double rate_multiplier;
  double joules;
  double avg_power_watts;
  int machines_asleep;
  int executors_moved;
};

void ExpectScenarioGolden(const std::string& key,
                          const std::vector<PointGolden>& points,
                          double total_joules, double avg_power_watts,
                          const sim::SimCounters& counters) {
  SCOPED_TRACE(key);
  auto run = DiurnalRun(key);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->points.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("minute " + std::to_string(i));
    EXPECT_EQ(run->points[i].time_ms, points[i].time_ms);
    EXPECT_EQ(run->points[i].avg_latency_ms, points[i].avg_latency_ms);
    EXPECT_EQ(run->points[i].rate_multiplier, points[i].rate_multiplier);
    EXPECT_EQ(run->points[i].joules, points[i].joules);
    EXPECT_EQ(run->points[i].avg_power_watts, points[i].avg_power_watts);
    EXPECT_EQ(run->points[i].machines_asleep, points[i].machines_asleep);
    EXPECT_EQ(run->points[i].executors_moved, points[i].executors_moved);
  }
  EXPECT_EQ(run->total_joules, total_joules);
  EXPECT_EQ(run->avg_power_watts, avg_power_watts);
  const sim::SimCounters& c = run->final_counters;
  EXPECT_EQ(c.events_processed, counters.events_processed);
  EXPECT_EQ(c.roots_emitted, counters.roots_emitted);
  EXPECT_EQ(c.roots_completed, counters.roots_completed);
  EXPECT_EQ(c.roots_failed, counters.roots_failed);
  EXPECT_EQ(c.roots_throttled, counters.roots_throttled);
  EXPECT_EQ(c.tuples_processed, counters.tuples_processed);
  EXPECT_EQ(c.local_transfers, counters.local_transfers);
  EXPECT_EQ(c.remote_transfers, counters.remote_transfers);
  EXPECT_EQ(c.migrations, counters.migrations);
  EXPECT_EQ(c.tuples_dropped, counters.tuples_dropped);
  EXPECT_EQ(c.faults_applied, counters.faults_applied);
  EXPECT_EQ(c.energy_joules, counters.energy_joules);
}

TEST(SeriesTest, ScenarioSeriesGolden) {
  ExpectScenarioGolden(
      "round-robin",
      {{5000, 3.4784472360045711, 1.3863703305156274, 4021.0213013990501,
        1340.3404337996833, 0, 0},
       {8000, 3.1602400113988036, 1.3464101615137756, 3990.4988674050901,
        1330.16628913503, 0, 0},
       {11000, 2.8915780439568786, 1.1035276180410083, 3803.7182739137406,
        1267.9060913045803, 0, 0},
       {14000, 2.7375857943256241, 0.80000000000000004, 3552.2239613911734,
        1184.0746537970579, 0, 0},
       {17000, 2.5571835598335557, 0.61362966948437259, 3349.9764759506543,
        1116.6588253168848, 0, 0},
       {20000, 2.5590705116581547, 0.65358983848622454, 3252.1787076654509,
        1084.0595692218169, 0, 0}},
      24617.983101622754, 1230.8991550811377,
      {.events_processed = 171836,
       .roots_emitted = 37471,
       .roots_completed = 37466,
       .tuples_processed = 67142,
       .local_transfers = 4987,
       .remote_transfers = 62160,
       .energy_joules = 24617.983101622754});
  // Energy-aware packing overloads the two machines it keeps (latencies in
  // seconds) and lets the other eight sleep from the second minute on.
  ExpectScenarioGolden(
      "energy-aware",
      {{5000, 1443.6932115370278, 1.3863703305156274, 3135.0544877259622,
        1045.0181625753207, 0, 19},
       {8000, 1844.382747621795, 1.3464101615137756, 2725.2647074015003,
        908.42156913383349, 8, 0},
       {11000, 2447.7819346685869, 1.1035276180410083, 1302.8494344082919,
        434.28314480276396, 8, 0},
       {14000, 2909.3727311702983, 0.80000000000000004, 1272.7729488537298,
        424.25764961790992, 8, 0},
       {17000, 2659.616802627083, 0.61362966948437259, 1240.7119628677156,
        413.57065428923852, 8, 0},
       {20000, 614.20571319214207, 0.65358983848622454, 1212.8684780728108,
        404.28949269093692, 8, 0}},
      13537.887533227606, 676.89437666138031,
      {.events_processed = 171926,
       .roots_emitted = 37471,
       .roots_completed = 37465,
       .tuples_processed = 67176,
       .local_transfers = 32860,
       .remote_transfers = 34322,
       .migrations = 19,
       .energy_joules = 13537.887533227606});
}

/// Proposes `first` on its first call, fails on its second and proposes
/// `later` from then on.
class FailsSecondCallScheduler : public sched::Scheduler {
 public:
  FailsSecondCallScheduler(sched::Schedule first, sched::Schedule later)
      : first_(std::move(first)), later_(std::move(later)) {}
  std::string name() const override { return "fails_second_call"; }
  StatusOr<sched::Schedule> ComputeSchedule(
      const sched::SchedulingContext& /*context*/) override {
    ++calls_;
    if (calls_ == 2) return Status::Internal("solver failed");
    return calls_ == 1 ? first_ : later_;
  }
  int calls() const { return calls_; }

 private:
  sched::Schedule first_;
  sched::Schedule later_;
  int calls_ = 0;
};

/// Executor i on machine i % k.
sched::Schedule ModuloSchedule(int executors, int machines, int k) {
  sched::Schedule s(executors, machines);
  for (int i = 0; i < executors; ++i) s.Assign(i, i % k);
  return s;
}

/// The modulo-k schedule of CQ small on the default cluster.
sched::Schedule FailingSchedulerProposal(int k) {
  return ModuloSchedule(
      topo::BuildContinuousQueries(topo::Scale::kSmall)
          .topology.num_executors(),
      topo::ClusterConfig().num_machines, k);
}

/// Three two-second minutes of CQ small under a FailsSecondCallScheduler
/// that moves from modulo-3 to modulo-5; `plan` may be empty.
StatusOr<SeriesResult> FailingSchedulerRun(const sim::FaultPlan& plan,
                                           int* calls) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  FailsSecondCallScheduler scheduler(FailingSchedulerProposal(3),
                                     FailingSchedulerProposal(5));
  SeriesSpec spec;
  spec.series.points = 3;
  spec.series.minute_ms = 2000.0;
  spec.series.measure_window_ms = 1000.0;
  spec.plan = plan;
  auto result =
      RunSeries(app.topology, app.workload, cluster, &scheduler, spec);
  *calls = scheduler.calls();
  return result;
}

TEST(SeriesTest, FailingSchedulerKeepsTheDeployedSchedule) {
  // Calls: the pre-roll end (modulo-3), minute 2's start (fails), minute
  // 3's start (modulo-5). Nothing reacts after the last minute.
  int calls = 0;
  auto run = FailingSchedulerRun(sim::FaultPlan(), &calls);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(run->points.size(), 3u);
  const sched::Schedule first = FailingSchedulerProposal(3);
  const sched::Schedule later = FailingSchedulerProposal(5);
  EXPECT_GT(run->points[0].executors_moved, 0);
  EXPECT_EQ(run->points[1].executors_moved, 0);  // modulo-3 stays
  EXPECT_EQ(run->points[2].executors_moved, first.DiffCount(later));
  EXPECT_EQ(run->final_counters.migrations,
            run->points[0].executors_moved + run->points[2].executors_moved);
  EXPECT_EQ(run->final_machine_executors, later.MachineLoads());
  EXPECT_TRUE(run->phases.empty());
}

TEST(SeriesTest, FailingSchedulerKeepsTheDeployedScheduleUnderFaults) {
  // Calls: the pre-roll end (modulo-3), the spout shock half a second into
  // minute 1 (fails), minute 2's start (modulo-5), minute 3's start.
  sim::FaultPlan plan;
  plan.AddSpoutShock(2500.0, 1.2);
  int calls = 0;
  auto run = FailingSchedulerRun(plan, &calls);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(calls, 4);
  ASSERT_EQ(run->points.size(), 3u);
  const sched::Schedule first = FailingSchedulerProposal(3);
  const sched::Schedule later = FailingSchedulerProposal(5);
  ASSERT_EQ(run->phases.size(), 2u);
  EXPECT_EQ(run->phases[1].label, "spout_shock x1.2");
  EXPECT_EQ(run->phases[1].start_ms, 2500.0);
  EXPECT_EQ(run->phases[1].executors_moved, 0);  // modulo-3 stays
  EXPECT_EQ(run->points[1].executors_moved, first.DiffCount(later));
  EXPECT_EQ(run->points[2].executors_moved, 0);
  EXPECT_EQ(run->final_counters.migrations,
            run->points[0].executors_moved + run->points[1].executors_moved);
  EXPECT_EQ(run->final_machine_executors, later.MachineLoads());
  ASSERT_EQ(run->timeline.size(), 1u);
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
