// Ablation (Section 3.2 design claim): including the workload w in the
// state s = (X, w) "achieves better adaptivity and sensitivity to the
// incoming workload". Trains the actor-critic agent with and without w in
// the state and compares the greedy solutions' latency at the nominal
// workload and after a +50% surge.

#include <cstdio>

#include "bench_util.h"
#include "core/drl_scheduler.h"

using namespace drlstream;
using namespace drlstream::bench;

namespace {

StatusOr<double> SurgedLatency(const topo::App& app,
                               const topo::ClusterConfig& cluster,
                               rl::Policy* policy, uint64_t seed) {
  core::SeriesOptions options;
  options.points = 30;
  options.seed = seed;
  core::PolicyScheduler scheduler(policy);
  DRLSTREAM_ASSIGN_OR_RETURN(
      std::vector<double> series,
      MeasureSurgeSeries(app, cluster, &scheduler, options,
                         /*surge_at_point=*/10, /*factor=*/1.5));
  return StabilizedValue(series, 5);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  BenchOptions options = BenchOptions::FromFlags(*flags_or);
  // Ablations train several agents from scratch (no artifact cache); use a
  // lighter default budget than the figure benches.
  if (!flags_or->Has("samples")) options.samples = 350;
  if (!flags_or->Has("epochs")) options.epochs = 350;
  if (!flags_or->Has("pretrain")) options.pretrain = 1200;
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;

  std::printf("# Ablation: workload w in the DRL state (continuous queries, "
              "small)\n");
  std::printf("%-28s %26s\n", "state design",
              "post-surge stabilized (ms)");
  for (const bool include_w : {true, false}) {
    core::PipelineConfig config = options.ToPipelineConfig();
    config.include_workload_in_state = include_w;
    config.collect_dqn_db = false;
    config.train_dqn = false;  // Only the actor-critic agent matters.
    auto trained = core::TrainAllMethods(&app.topology, app.workload,
                                         cluster, config);
    if (!trained.ok()) {
      std::fprintf(stderr, "%s\n", trained.status().ToString().c_str());
      return 1;
    }
    auto latency =
        SurgedLatency(app, cluster, trained->ddpg.get(), options.seed + 5);
    if (!latency.ok()) {
      std::fprintf(stderr, "%s\n", latency.status().ToString().c_str());
      return 1;
    }
    std::printf("%-28s %26.3f\n",
                include_w ? "s = (X, w)  [paper]" : "s = (X)  [ablated]",
                *latency);
  }
  return 0;
}
