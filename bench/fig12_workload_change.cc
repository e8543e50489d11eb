// Figure 12: average tuple processing time of the model-based and
// actor-critic methods over 3 topologies (large scale) under a significant
// workload change: all spout rates increase by 50% at minute 20 of a
// 50-minute run. Both schedulers observe the new rates and may re-schedule
// (the adjustment causes the transient spikes the paper shows), then the
// system re-stabilizes.

#include <cstdio>

#include "bench_util.h"
#include "core/drl_scheduler.h"
#include "sched/model_based.h"

using namespace drlstream;
using namespace drlstream::bench;

namespace {

int RunApp(const std::string& key, const std::string& label,
           const topo::App& app, const BenchOptions& options,
           const std::map<std::string, double>& paper) {
  topo::ClusterConfig cluster;
  auto trained = TrainApp(key, app, cluster, options);
  if (!trained.ok()) {
    std::fprintf(stderr, "%s\n", trained.status().ToString().c_str());
    return 1;
  }

  core::SeriesOptions series_options;
  series_options.points = 50;
  series_options.seed = options.seed + 99;
  const int surge_at_point = 20;
  const double surge_factor = 1.5;

  sched::ModelBasedScheduler model_sched(trained->delay_model.get());
  core::PolicyScheduler ddpg_sched(trained->ddpg.get());

  std::map<std::string, std::vector<double>> series;
  auto model_series =
      MeasureSurgeSeries(app, cluster, &model_sched, series_options,
                         surge_at_point, surge_factor);
  if (!model_series.ok()) {
    std::fprintf(stderr, "%s\n", model_series.status().ToString().c_str());
    return 1;
  }
  series[kMethodModelBased] = std::move(*model_series);
  auto ddpg_series =
      MeasureSurgeSeries(app, cluster, &ddpg_sched, series_options,
                         surge_at_point, surge_factor);
  if (!ddpg_series.ok()) {
    std::fprintf(stderr, "%s\n", ddpg_series.status().ToString().c_str());
    return 1;
  }
  series[kMethodActorCritic] = std::move(*ddpg_series);

  const std::string title = "Fig 12 (" + label +
                            "): latency under +50% workload at minute 20";
  PrintSeriesCsv(title, series);
  PrintStabilized(title, series, paper);
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const BenchOptions options = BenchOptions::FromFlags(*flags_or);

  // Post-surge stabilized values reported in Section 4.2 (continuous
  // queries; the other topologies' exact numbers are only plotted).
  if (int rc = RunApp("cq_large", "continuous queries",
                      topo::BuildContinuousQueries(topo::Scale::kLarge),
                      options,
                      {{kMethodModelBased, 2.17}, {kMethodActorCritic, 1.76}})) {
    return rc;
  }
  if (int rc = RunApp("log_large", "log stream processing",
                      topo::BuildLogProcessing(), options, {})) {
    return rc;
  }
  return RunApp("wc_large", "word count", topo::BuildWordCount(), options,
                {});
}
