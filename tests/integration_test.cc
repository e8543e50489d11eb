// End-to-end integration tests: the full framework pipeline (offline
// collection -> model fitting -> pre-training -> online learning ->
// deployment) on a miniature problem, plus artifact persistence.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/artifacts.h"
#include "core/experiment.h"
#include "core/offline.h"
#include "core/online.h"
#include "topo/apps.h"

namespace drlstream::core {
namespace {

/// A tiny pipeline budget so the whole flow runs in a few seconds.
PipelineConfig TinyConfig() {
  PipelineConfig config;
  config.offline_samples = 25;
  config.pretrain_steps = 40;
  config.online.epochs = 12;
  config.online.train_steps_per_epoch = 1;
  config.measure.stabilize_ms = 1700.0;
  config.measure.num_measurements = 2;
  config.measure.measurement_interval_ms = 250.0;
  config.ddpg.knn_k = 8;
  // The agents' own (paper) discount rather than the pipeline's 0.9.
  config.ddpg.gamma = 0.99;
  config.dqn.gamma = 0.99;
  config.seed = 99;
  return config;
}

TEST(IntegrationTest, FullPipelineProducesAllMethods) {
  topo::AppOptions app_options;
  app_options.rate_scale = 0.6;  // Lighter load for test speed.
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall,
                                               app_options);
  topo::ClusterConfig cluster;
  auto trained =
      TrainAllMethods(&app.topology, app.workload, cluster, TinyConfig());
  ASSERT_TRUE(trained.ok()) << trained.status();

  EXPECT_EQ(trained->default_schedule.num_executors(), 20);
  EXPECT_TRUE(trained->default_schedule.UsesMultipleProcesses());
  EXPECT_FALSE(trained->model_based_schedule.UsesMultipleProcesses());
  EXPECT_EQ(trained->ddpg_online.rewards.size(), 12u);
  EXPECT_EQ(trained->dqn_online.rewards.size(), 12u);
  EXPECT_TRUE(trained->delay_model->fitted());
  EXPECT_EQ(trained->full_random_db.size(), 25u);
  EXPECT_EQ(trained->single_move_db.size(), 25u);
  for (double r : trained->ddpg_online.rewards) {
    EXPECT_LT(r, 0.0);  // Rewards are negated latencies.
  }
}

TEST(IntegrationTest, ArtifactRoundTripPreservesBehavior) {
  topo::AppOptions app_options;
  app_options.rate_scale = 0.6;
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall,
                                               app_options);
  topo::ClusterConfig cluster;
  const PipelineConfig config = TinyConfig();
  auto trained =
      TrainAllMethods(&app.topology, app.workload, cluster, config);
  ASSERT_TRUE(trained.ok()) << trained.status();

  const std::string dir = testing::TempDir() + "/artifacts";
  ASSERT_TRUE(SaveTrainedMethods(dir, "tiny", *trained).ok());
  EXPECT_TRUE(ArtifactsExist(dir, "tiny"));

  auto loaded =
      LoadTrainedMethods(dir, "tiny", &app.topology, app.workload, cluster,
                         config);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->default_schedule.assignments(),
            trained->default_schedule.assignments());
  EXPECT_EQ(loaded->ddpg_online.final_schedule.assignments(),
            trained->ddpg_online.final_schedule.assignments());
  EXPECT_EQ(loaded->ddpg_online.rewards, trained->ddpg_online.rewards);

  // The restored agent behaves identically.
  rl::State state;
  state.assignments = trained->default_schedule.assignments();
  state.spout_rates = app.workload.RatesVector(
      app.topology.SpoutComponents(), 0.0);
  auto a = trained->ddpg->GreedyAction(state);
  auto b = loaded->ddpg->GreedyAction(state);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments(), b->assignments());

  // The restored delay model predicts identically.
  EXPECT_NEAR(loaded->delay_model->PredictEndToEnd(trained->default_schedule,
                                                   state.spout_rates),
              trained->delay_model->PredictEndToEnd(
                  trained->default_schedule, state.spout_rates),
              1e-9);

  // TrainAllMethodsCached must hit the cache (instant).
  auto cached = TrainAllMethodsCached(dir, "tiny", &app.topology,
                                      app.workload, cluster, config);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->ddpg_online.rewards, trained->ddpg_online.rewards);
}

TEST(IntegrationTest, OnlineLearningImprovesOverRandomActions) {
  // Statistical sanity: after offline pre-training + online learning on the
  // small topology, the greedy solution should be no worse than the average
  // random solution from the offline database.
  topo::AppOptions app_options;
  app_options.rate_scale = 0.8;
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall,
                                               app_options);
  topo::ClusterConfig cluster;
  PipelineConfig config = TinyConfig();
  config.offline_samples = 60;
  config.pretrain_steps = 250;
  config.online.epochs = 60;
  config.online.train_steps_per_epoch = 2;
  config.collect_dqn_db = false;
  auto trained =
      TrainAllMethods(&app.topology, app.workload, cluster, config);
  ASSERT_TRUE(trained.ok()) << trained.status();

  double random_latency = 0.0;
  for (const auto& record : trained->full_random_db.records()) {
    random_latency += -record.transition.reward;
  }
  random_latency /= trained->full_random_db.size();

  SeriesOptions series_options;
  series_options.points = 4;
  series_options.minute_ms = 3000.0;
  series_options.measure_window_ms = 1500.0;
  series_options.warmup_extra = 0.0;
  auto series = MeasureLatencySeries(app.topology, app.workload, cluster,
                                     trained->ddpg_online.final_schedule,
                                     series_options);
  ASSERT_TRUE(series.ok());
  const double learned_latency = series->back();
  EXPECT_LT(learned_latency, random_latency * 1.25);
}

TEST(IntegrationTest, OnlineOptionsValidated) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  sim::SimOptions sim_options;
  SchedulingEnvironment env(&app.topology, app.workload, cluster,
                            sim_options, MeasurementConfig{});
  rl::StateEncoder encoder(20, 10, 1, 900.0);
  rl::PolicyContext policy_context;
  policy_context.encoder = &encoder;
  auto policy = rl::PolicyRegistry::Get().Create("ddpg", policy_context);
  ASSERT_TRUE(policy.ok());
  OnlineOptions options;
  options.epochs = 0;
  EXPECT_FALSE(RunOnline(policy->get(), &env, options).ok());
}

}  // namespace
}  // namespace drlstream::core
