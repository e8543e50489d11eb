#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "sched/model_based.h"
#include "sched/ridge.h"
#include "sched/schedule.h"
#include "sched/scheduler.h"
#include "topo/apps.h"

namespace drlstream::sched {
namespace {

// ---------------------------------------------------------------------------
// Schedule
// ---------------------------------------------------------------------------

TEST(ScheduleTest, DefaultsToMachineZeroProcessZero) {
  Schedule s(4, 3);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(s.MachineOf(i), 0);
    EXPECT_EQ(s.ProcessOf(i), 0);
  }
  EXPECT_FALSE(s.UsesMultipleProcesses());
}

TEST(ScheduleTest, AssignAndLoads) {
  Schedule s(5, 3);
  s.Assign(0, 1);
  s.Assign(1, 1);
  s.Assign(2, 2);
  EXPECT_EQ(s.MachineLoads(), (std::vector<int>{2, 2, 1}));
  EXPECT_EQ(s.UsedMachines(), 3);
}

TEST(ScheduleTest, FromAssignmentsValidates) {
  EXPECT_TRUE(Schedule::FromAssignments({0, 1, 2}, 3).ok());
  EXPECT_FALSE(Schedule::FromAssignments({0, 3}, 3).ok());
  EXPECT_FALSE(Schedule::FromAssignments({-1}, 3).ok());
  EXPECT_FALSE(Schedule::FromAssignments({}, 3).ok());
}

TEST(ScheduleTest, OneHotRoundTrip) {
  auto s = Schedule::FromAssignments({2, 0, 1}, 3);
  ASSERT_TRUE(s.ok());
  const std::vector<double> flat = s->ToOneHot();
  ASSERT_EQ(flat.size(), 9u);
  EXPECT_DOUBLE_EQ(flat[2], 1.0);
  EXPECT_DOUBLE_EQ(flat[3], 1.0);
  EXPECT_DOUBLE_EQ(flat[7], 1.0);
}

TEST(ScheduleTest, DiffTracksMachinesAndProcesses) {
  Schedule a(3, 2), b(3, 2);
  EXPECT_EQ(a.DiffCount(b), 0);
  b.Assign(1, 1);
  EXPECT_EQ(a.ChangedExecutors(b), (std::vector<int>{1}));
  b.AssignProcess(2, 1);
  EXPECT_EQ(a.DiffCount(b), 2);
}

TEST(ScheduleTest, RandomIsFeasibleAndVaried) {
  Rng rng(3);
  Schedule s = Schedule::Random(50, 10, &rng);
  std::set<int> machines;
  for (int i = 0; i < 50; ++i) {
    EXPECT_GE(s.MachineOf(i), 0);
    EXPECT_LT(s.MachineOf(i), 10);
    machines.insert(s.MachineOf(i));
  }
  EXPECT_GT(machines.size(), 3u);
}

TEST(ScheduleTest, RandomPackedUsesExactlyKMachines) {
  Rng rng(4);
  for (int k = 1; k <= 10; ++k) {
    Schedule s = Schedule::RandomPacked(40, 10, k, &rng);
    EXPECT_EQ(s.UsedMachines(), k) << "k=" << k;
    // Balanced: loads differ by at most one.
    int lo = 1000, hi = 0;
    for (int load : s.MachineLoads()) {
      if (load == 0) continue;
      lo = std::min(lo, load);
      hi = std::max(hi, load);
    }
    EXPECT_LE(hi - lo, 1);
  }
}

// ---------------------------------------------------------------------------
// Round robin (Storm default)
// ---------------------------------------------------------------------------

class RoundRobinTest : public testing::Test {
 protected:
  void SetUp() override {
    app_ = topo::BuildContinuousQueries(topo::Scale::kSmall);
    context_.topology = &app_.topology;
    context_.cluster = &cluster_;
    context_.spout_rates =
        app_.workload.RatesVector(app_.topology.SpoutComponents(), 0.0);
  }

  topo::App app_{topo::Topology(""), topo::Workload(), nullptr};
  topo::ClusterConfig cluster_;
  SchedulingContext context_;
};

TEST_F(RoundRobinTest, SpreadsEvenlyOverMachines) {
  RoundRobinScheduler scheduler;
  auto schedule = scheduler.ComputeSchedule(context_);
  ASSERT_TRUE(schedule.ok());
  const std::vector<int> loads = schedule->MachineLoads();
  const int lo = *std::min_element(loads.begin(), loads.end());
  const int hi = *std::max_element(loads.begin(), loads.end());
  EXPECT_LE(hi - lo, 1);
}

TEST_F(RoundRobinTest, UsesPreConfiguredProcesses) {
  RoundRobinScheduler scheduler(/*workers_per_machine=*/4);
  auto schedule = scheduler.ComputeSchedule(context_);
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->UsesMultipleProcesses());
  for (int i = 0; i < schedule->num_executors(); ++i) {
    EXPECT_LT(schedule->ProcessOf(i), 4);
  }
}

TEST_F(RoundRobinTest, SingleWorkerPerMachineStaysProcessZero) {
  RoundRobinScheduler scheduler(/*workers_per_machine=*/1);
  auto schedule = scheduler.ComputeSchedule(context_);
  ASSERT_TRUE(schedule.ok());
  EXPECT_FALSE(schedule->UsesMultipleProcesses());
}

TEST_F(RoundRobinTest, RejectsBadConfig) {
  RoundRobinScheduler scheduler(/*workers_per_machine=*/99);
  EXPECT_FALSE(scheduler.ComputeSchedule(context_).ok());
  SchedulingContext empty;
  RoundRobinScheduler ok_scheduler;
  EXPECT_FALSE(ok_scheduler.ComputeSchedule(empty).ok());
}

// ---------------------------------------------------------------------------
// Ridge regression
// ---------------------------------------------------------------------------

TEST(RidgeTest, RecoversLinearModel) {
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    x.push_back({1.0, a, b});
    y.push_back(2.0 + 3.0 * a - 0.5 * b + rng.Gaussian(0, 0.01));
  }
  RidgeRegression ridge;
  ASSERT_TRUE(ridge.Fit(x, y, 1e-4).ok());
  EXPECT_NEAR(ridge.weights()[0], 2.0, 0.05);
  EXPECT_NEAR(ridge.weights()[1], 3.0, 0.05);
  EXPECT_NEAR(ridge.weights()[2], -0.5, 0.05);
  EXPECT_NEAR(ridge.Predict({1.0, 0.5, 0.5}), 2.0 + 1.5 - 0.25, 0.05);
}

TEST(RidgeTest, RegularizationShrinksWeights) {
  std::vector<std::vector<double>> x = {{1, 1}, {1, 2}, {1, 3}};
  std::vector<double> y = {2, 4, 6};
  RidgeRegression weak, strong;
  ASSERT_TRUE(weak.Fit(x, y, 1e-6).ok());
  ASSERT_TRUE(strong.Fit(x, y, 100.0).ok());
  EXPECT_LT(std::abs(strong.weights()[1]), std::abs(weak.weights()[1]));
}

TEST(RidgeTest, RejectsBadInput) {
  RidgeRegression ridge;
  EXPECT_FALSE(ridge.Fit({}, {}, 1.0).ok());
  EXPECT_FALSE(ridge.Fit({{1.0}}, {1.0, 2.0}, 1.0).ok());
  EXPECT_FALSE(ridge.Fit({{1.0}, {1.0, 2.0}}, {1.0, 2.0}, 1.0).ok());
  EXPECT_FALSE(ridge.Fit({{1.0}}, {1.0}, -1.0).ok());
  EXPECT_FALSE(ridge.SetWeights({}));
}

TEST(LinearSystemTest, SolvesAndDetectsSingular) {
  std::vector<double> x;
  ASSERT_TRUE(
      SolveLinearSystem({{2, 1}, {1, 3}}, {5, 10}, &x).ok());
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
  EXPECT_FALSE(SolveLinearSystem({{1, 1}, {2, 2}}, {1, 2}, &x).ok());
  EXPECT_FALSE(SolveLinearSystem({}, {}, &x).ok());
}

// ---------------------------------------------------------------------------
// Flow estimation / delay model features
// ---------------------------------------------------------------------------

TEST(FlowEstimateTest, PropagatesThroughDag) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  const std::vector<double> rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  const FlowEstimate flows = EstimateFlows(app.topology, rates);
  // Spout total = rate * parallelism.
  const double spout_total = rates[0] * app.topology.component(0).parallelism;
  EXPECT_DOUBLE_EQ(flows.component_rate[0], spout_total);
  EXPECT_DOUBLE_EQ(flows.component_rate[1], spout_total);
  // Query emits with factor 0.8.
  EXPECT_NEAR(flows.component_rate[2], spout_total * 0.8, 1e-9);
}

TEST(FlowEstimateTest, FanOutOnLogTopology) {
  topo::App app = topo::BuildLogProcessing();
  const std::vector<double> rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  const FlowEstimate flows = EstimateFlows(app.topology, rates);
  const double roots = rates[0] * 10;
  // LogRules feeds both indexer and counter with the full stream.
  EXPECT_NEAR(flows.component_rate[2], roots, 1e-9);
  EXPECT_NEAR(flows.component_rate[3], roots, 1e-9);
}

class DelayModelTest : public testing::Test {
 protected:
  void SetUp() override {
    app_ = topo::BuildContinuousQueries(topo::Scale::kSmall);
    model_ = std::make_unique<DelayModel>(&app_.topology, &cluster_);
    rates_ = app_.workload.RatesVector(app_.topology.SpoutComponents(), 0.0);
  }

  /// Builds synthetic training samples whose latency follows a known
  /// structural rule: proportional to the schedule's remote traffic.
  std::vector<PerfSample> SyntheticSamples(int count) {
    Rng rng(9);
    std::vector<PerfSample> samples;
    for (int i = 0; i < count; ++i) {
      Schedule schedule =
          Schedule::Random(app_.topology.num_executors(), 10, &rng);
      PerfSample sample;
      sample.assignments = schedule.assignments();
      sample.spout_rates = rates_;
      const FlowEstimate flows = EstimateFlows(app_.topology, rates_);
      sample.component_proc_ms.resize(app_.topology.num_components());
      sample.edge_transfer_ms.resize(app_.topology.edges().size());
      double total = 0.3;
      for (int c = 0; c < app_.topology.num_components(); ++c) {
        sample.component_proc_ms[c] =
            app_.topology.component(c).service_mean_ms;
        total += sample.component_proc_ms[c];
      }
      for (size_t e = 0; e < app_.topology.edges().size(); ++e) {
        // Transfer delay grows with the edge's remote fraction under this
        // schedule (captured by the model's features).
        const auto features = model_->EdgeFeatures(
            static_cast<int>(e), schedule, flows);
        sample.edge_transfer_ms[e] = 0.05 + 0.9 * features[1];
        total += sample.edge_transfer_ms[e];
      }
      sample.avg_latency_ms = total + rng.Gaussian(0, 0.01);
      samples.push_back(std::move(sample));
    }
    return samples;
  }

  topo::App app_{topo::Topology(""), topo::Workload(), nullptr};
  topo::ClusterConfig cluster_;
  std::unique_ptr<DelayModel> model_;
  std::vector<double> rates_;
};

TEST_F(DelayModelTest, RequiresEnoughSamples) {
  EXPECT_EQ(model_->Fit({}).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(model_->fitted());
}

TEST_F(DelayModelTest, RejectsSamplesWithoutDetails) {
  std::vector<PerfSample> samples(10);
  for (PerfSample& s : samples) {
    s.assignments.assign(app_.topology.num_executors(), 0);
    s.spout_rates = rates_;
    s.avg_latency_ms = 1.0;
  }
  EXPECT_EQ(model_->Fit(samples).code(), StatusCode::kInvalidArgument);
}

TEST_F(DelayModelTest, LearnsRemoteFractionEffect) {
  ASSERT_TRUE(model_->Fit(SyntheticSamples(200)).ok());
  // A mostly-local (3 balanced machines, below the capacity guard) schedule
  // must be predicted faster than the fully spread one.
  Schedule packed(app_.topology.num_executors(), 10);
  Schedule spread(app_.topology.num_executors(), 10);
  for (int i = 0; i < app_.topology.num_executors(); ++i) {
    packed.Assign(i, i % 3);
    spread.Assign(i, i % 10);
  }
  EXPECT_LT(model_->PredictEndToEnd(packed, rates_),
            model_->PredictEndToEnd(spread, rates_));
}

TEST_F(DelayModelTest, SaveLoadRoundTrip) {
  ASSERT_TRUE(model_->Fit(SyntheticSamples(100)).ok());
  const std::string path = testing::TempDir() + "/delay_model.txt";
  ASSERT_TRUE(model_->Save(path).ok());
  DelayModel loaded(&app_.topology, &cluster_);
  ASSERT_TRUE(loaded.LoadFrom(path).ok());
  Rng rng(11);
  for (int i = 0; i < 5; ++i) {
    Schedule s = Schedule::Random(app_.topology.num_executors(), 10, &rng);
    EXPECT_NEAR(loaded.PredictEndToEnd(s, rates_),
                model_->PredictEndToEnd(s, rates_), 1e-9);
  }
}

TEST_F(DelayModelTest, ModelBasedSchedulerImprovesOnPrediction) {
  ASSERT_TRUE(model_->Fit(SyntheticSamples(200)).ok());
  ModelBasedOptions options;
  options.max_passes = 4;
  ModelBasedScheduler scheduler(model_.get(), options);
  SchedulingContext context;
  context.topology = &app_.topology;
  context.cluster = &cluster_;
  context.spout_rates = rates_;
  auto best = scheduler.ComputeSchedule(context);
  ASSERT_TRUE(best.ok());
  // The searched solution must predict no worse than round robin.
  RoundRobinScheduler round_robin(1);
  auto rr = round_robin.ComputeSchedule(context);
  ASSERT_TRUE(rr.ok());
  EXPECT_LE(model_->PredictEndToEnd(*best, rates_),
            model_->PredictEndToEnd(*rr, rates_) + 1e-9);
}

TEST_F(DelayModelTest, SchedulerRequiresFittedModel) {
  ModelBasedScheduler scheduler(model_.get());
  SchedulingContext context;
  context.topology = &app_.topology;
  context.cluster = &cluster_;
  context.spout_rates = rates_;
  EXPECT_EQ(scheduler.ComputeSchedule(context).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace drlstream::sched
