// The generic control loop (core::RunOnline over rl::Policy) must be
// bit-identical to the per-agent loops it replaced. The goldens below were
// captured from the pre-refactor RunDdpgOnline/RunDqnOnline on this exact
// configuration and verified thread-invariant; every reward is compared
// with EXPECT_EQ (no tolerance), at thread-pool sizes 1, 2 and 4. The
// rewards were re-recorded once, when the simulator moved to per-executor
// SplitMix64 streams (its measured latencies changed; the final
// assignments did not), and rewards and assignments once more when Rng
// (the initial schedule, weights, exploration and minibatches) became a
// splitmix64 stream.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/environment.h"
#include "core/experiment.h"
#include "core/online.h"
#include "obs/metrics.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"

namespace drlstream::core {
namespace {

MeasurementConfig GoldenMeasure() {
  MeasurementConfig config;
  config.stabilize_ms = 800.0;
  config.num_measurements = 1;
  config.measurement_interval_ms = 200.0;
  return config;
}

struct GoldenRun {
  std::vector<double> rewards;
  std::vector<int> final_assignments;
};

GoldenRun RunPolicy(const std::string& key) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  const int n = app.topology.num_executors();
  const int m = cluster.num_machines;
  rl::StateEncoder encoder(n, m, app.topology.num_spouts(),
                           NominalSpoutRate(app.topology, app.workload));

  rl::PolicyContext policy_context;
  policy_context.encoder = &encoder;
  rl::DdpgConfig& ddpg = policy_context.ddpg;
  ddpg.minibatch_size = 8;
  ddpg.replay_capacity = 64;
  ddpg.knn_k = 6;
  ddpg.reward_shift = -8.0;
  ddpg.reward_scale = 2.0;
  rl::DqnConfig& dqn = policy_context.dqn;
  dqn.minibatch_size = 8;
  dqn.replay_capacity = 64;
  dqn.reward_shift = -8.0;
  dqn.reward_scale = 2.0;
  auto policy = rl::PolicyRegistry::Get().Create(key, policy_context);
  EXPECT_TRUE(policy.ok());

  const bool is_ddpg = key == "ddpg";
  sim::SimOptions sim_options;
  sim_options.seed = is_ddpg ? 71 : 72;
  SchedulingEnvironment env(&app.topology, app.workload, cluster,
                            sim_options, GoldenMeasure());
  Rng rng(is_ddpg ? 13 : 14);
  EXPECT_TRUE(
      env.Reset(sched::Schedule::RandomPacked(n, m, 4, &rng)).ok());

  OnlineOptions options;
  options.epochs = 6;
  options.train_steps_per_epoch = 1;
  options.seed = is_ddpg ? 17 : 18;
  if (is_ddpg) options.reward_cap_ms = 100000.0;
  auto result = RunOnline(policy->get(), &env, options);
  EXPECT_TRUE(result.ok());

  GoldenRun run;
  run.rewards = result->rewards;
  run.final_assignments = result->final_schedule.assignments();
  return run;
}

void ExpectGolden(const GoldenRun& run,
                  const std::vector<double>& want_rewards,
                  const std::vector<int>& want_final, int threads) {
  ASSERT_EQ(run.rewards.size(), want_rewards.size()) << "threads=" << threads;
  for (size_t i = 0; i < want_rewards.size(); ++i) {
    EXPECT_EQ(run.rewards[i], want_rewards[i])
        << "epoch " << i << " threads=" << threads;
  }
  EXPECT_EQ(run.final_assignments, want_final) << "threads=" << threads;
}

class PolicyEquivalenceTest : public testing::Test {
 protected:
  void TearDown() override { SetGlobalThreadCount(0); }
};

TEST_F(PolicyEquivalenceTest, DdpgMatchesPreRefactorGoldensAtAnyThreadCount) {
  const std::vector<double> want_rewards = {
      -2.2002324102230246, -76.779111821380283,
      -1.9517464960742843, -1000,
      -2692.8585360343641, -1000};
  const std::vector<int> want_final = {4, 2, 3, 9, 9, 3, 0, 3, 7, 3,
                                       2, 5, 4, 5, 1, 8, 1, 3, 2, 2};
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    ExpectGolden(RunPolicy("ddpg"), want_rewards, want_final, threads);
  }
}

TEST_F(PolicyEquivalenceTest, DqnMatchesPreRefactorGoldensAtAnyThreadCount) {
  const std::vector<double> want_rewards = {
      -2.3489683133713024, -2.1224398891643057,
      -2.146504903123378,  -2.1165492062266869,
      -2.2106668357743393, -2.1660088265695872};
  const std::vector<int> want_final = {0, 8, 2, 9, 1, 2, 3, 2, 8, 8,
                                       9, 3, 9, 0, 2, 8, 2, 9, 9, 3};
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    ExpectGolden(RunPolicy("dqn"), want_rewards, want_final, threads);
  }
}

// Learning-health metrics at the argmax: the chosen candidate's rank in
// K-NN distance order, the spread of the K critic values, the loss each
// TrainStep returns and the epoch's exploration rate are deterministic
// values, so they must export identically at every thread count. The
// golden run makes 6 epoch decisions plus the final greedy one and one
// training step per epoch.
void ExpectSameHistogram(const obs::HistogramSnapshot& got,
                         const obs::HistogramSnapshot& want,
                         const std::string& what) {
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.sum, want.sum) << what;
  EXPECT_EQ(got.min, want.min) << what;
  EXPECT_EQ(got.max, want.max) << what;
  EXPECT_EQ(got.buckets, want.buckets) << what;
}

TEST_F(PolicyEquivalenceTest, DdpgLearningHealthMetricsAreThreadInvariant) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  std::vector<obs::HistogramSnapshot> ranks;
  std::vector<obs::HistogramSnapshot> spreads;
  std::vector<obs::HistogramSnapshot> losses;
  std::vector<double> epsilons;
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    registry.ResetValues();
    RunPolicy("ddpg");
    obs::MetricsSnapshot snapshot = registry.Snapshot();
    EXPECT_EQ(snapshot.counters["online.action_retries"], 0);
    ranks.push_back(snapshot.histograms["rl.ddpg.chosen_rank"]);
    spreads.push_back(snapshot.histograms["rl.ddpg.q_spread"]);
    losses.push_back(snapshot.histograms["online.train_loss"]);
    epsilons.push_back(snapshot.gauges["online.epsilon"]);
  }
  obs::SetMetricsEnabled(metrics_were_enabled);
  registry.ResetValues();

  EXPECT_EQ(ranks[0].count, 7);
  EXPECT_EQ(spreads[0].count, 7);
  EXPECT_GT(spreads[0].max, 0.0);
  EXPECT_EQ(losses[0].count, 6);
  EXPECT_GT(losses[0].sum, 0.0);
  // Six epochs decay epsilon over the first four; the last epoch explores
  // at the floor.
  EXPECT_EQ(epsilons[0], 0.05);
  for (size_t i = 1; i < ranks.size(); ++i) {
    const std::string run = "run " + std::to_string(i);
    ExpectSameHistogram(ranks[i], ranks[0], "chosen_rank " + run);
    ExpectSameHistogram(spreads[i], spreads[0], "q_spread " + run);
    ExpectSameHistogram(losses[i], losses[0], "train_loss " + run);
    EXPECT_EQ(epsilons[i], epsilons[0]) << run;
  }
}

}  // namespace
}  // namespace drlstream::core
