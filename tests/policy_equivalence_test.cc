// The generic control loop (core::RunOnline over rl::Policy) must be
// bit-identical to the per-agent loops it replaced. The goldens below were
// captured from the pre-refactor RunDdpgOnline/RunDqnOnline on this exact
// configuration and verified thread-invariant; every reward is compared
// with EXPECT_EQ (no tolerance), at thread-pool sizes 1, 2 and 4. The
// rewards were re-recorded once, when the simulator moved to per-executor
// SplitMix64 streams (its measured latencies changed; the final
// assignments did not).

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
      -4.141759757343527,  -1000,
      -356.39132444834706, -1001.8756929998892,
      -2427.2681933381773, -2695.3201717605866};
  const std::vector<int> want_final = {8, 5, 2, 1, 1, 7, 9, 7, 5, 3,
                                       4, 2, 7, 6, 6, 6, 8, 8, 6, 8};
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    ExpectGolden(RunPolicy("ddpg"), want_rewards, want_final, threads);
  }
}

TEST_F(PolicyEquivalenceTest, DqnMatchesPreRefactorGoldensAtAnyThreadCount) {
  const std::vector<double> want_rewards = {
      -4.2232800060680109, -3.9797863792909043,
      -4.170963071501177,  -3.9621891067165502,
      -4.1779862172330997, -4.1373214071291606};
  const std::vector<int> want_final = {2, 2, 0, 2, 1, 6, 0, 0, 6, 6,
                                       1, 0, 2, 0, 1, 4, 2, 1, 0, 1};
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    ExpectGolden(RunPolicy("dqn"), want_rewards, want_final, threads);
  }
}

// Learning-health metrics at the argmax: the chosen candidate's rank in
// K-NN distance order and the loss each TrainStep returns are deterministic
// values, so their histograms must export identically at every thread
// count. The golden run makes 6 epoch decisions plus the final greedy one
// and one training step per epoch.
TEST_F(PolicyEquivalenceTest, DdpgLearningHealthMetricsAreThreadInvariant) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  std::vector<obs::HistogramSnapshot> ranks;
  std::vector<obs::HistogramSnapshot> losses;
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    registry.ResetValues();
    RunPolicy("ddpg");
    obs::MetricsSnapshot snapshot = registry.Snapshot();
    EXPECT_EQ(snapshot.counters["online.action_retries"], 0);
    ranks.push_back(snapshot.histograms["rl.ddpg.chosen_rank"]);
    losses.push_back(snapshot.histograms["online.train_loss"]);
  }
  obs::SetMetricsEnabled(metrics_were_enabled);
  registry.ResetValues();

  EXPECT_EQ(ranks[0].count, 7);
  EXPECT_EQ(losses[0].count, 6);
  EXPECT_GT(losses[0].sum, 0.0);
  for (size_t i = 1; i < ranks.size(); ++i) {
    EXPECT_EQ(ranks[i].count, ranks[0].count) << "run " << i;
    EXPECT_EQ(ranks[i].sum, ranks[0].sum) << "run " << i;
    EXPECT_EQ(ranks[i].max, ranks[0].max) << "run " << i;
    EXPECT_EQ(ranks[i].buckets, ranks[0].buckets) << "run " << i;
    EXPECT_EQ(losses[i].count, losses[0].count) << "run " << i;
    EXPECT_EQ(losses[i].sum, losses[0].sum) << "run " << i;
    EXPECT_EQ(losses[i].min, losses[0].min) << "run " << i;
    EXPECT_EQ(losses[i].max, losses[0].max) << "run " << i;
    EXPECT_EQ(losses[i].buckets, losses[0].buckets) << "run " << i;
  }
}

}  // namespace
}  // namespace drlstream::core
