#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common/stats.h"
#include "workload/generator.h"

namespace drlstream::bench {

const char* const kMethodDefault = "Default";
const char* const kMethodModelBased = "Model-based";
const char* const kMethodDqn = "DQN-based DRL";
const char* const kMethodActorCritic = "Actor-critic-based DRL";

BenchOptions BenchOptions::FromFlags(const Flags& flags) {
  ApplyProcessFlags(flags);
  BenchOptions options;
  options.samples = flags.GetInt("samples", options.samples);
  options.epochs = flags.GetInt("epochs", options.epochs);
  options.pretrain = flags.GetInt("pretrain", options.pretrain);
  options.knn_k = flags.GetInt("knn_k", options.knn_k);
  options.gamma = flags.GetDouble("gamma", options.gamma);
  options.train_steps_per_epoch =
      flags.GetInt("tsp", options.train_steps_per_epoch);
  options.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int>(options.seed)));
  options.cache_dir = flags.GetString("cache_dir", options.cache_dir);
  return options;
}

core::PipelineConfig BenchOptions::ToPipelineConfig() const {
  core::PipelineConfig config;
  config.offline_samples = samples;
  config.pretrain_steps = pretrain;
  config.online.epochs = epochs;
  config.online.train_steps_per_epoch = train_steps_per_epoch;
  config.ddpg.knn_k = knn_k;
  config.ddpg.gamma = gamma;
  config.dqn.gamma = gamma;
  config.seed = seed;
  return config;
}

std::string BenchOptions::Key(const std::string& app_name) const {
  std::ostringstream key;
  key << app_name << "_s" << samples << "_e" << epochs << "_p" << pretrain
      << "_k" << knn_k << "_g" << gamma << "_t" << train_steps_per_epoch
      << "_r" << seed;
  return key.str();
}

StatusOr<core::TrainedMethods> TrainApp(const std::string& app_name,
                                        const topo::App& app,
                                        const topo::ClusterConfig& cluster,
                                        const BenchOptions& options) {
  std::fprintf(stderr, "[bench] training methods for %s (cached under %s)\n",
               app_name.c_str(), options.cache_dir.c_str());
  return core::TrainAllMethodsCached(options.cache_dir,
                                     options.Key(app_name), &app.topology,
                                     app.workload, cluster,
                                     options.ToPipelineConfig());
}

StatusOr<std::map<std::string, std::vector<double>>> MeasureAllMethodSeries(
    const topo::App& app, const topo::ClusterConfig& cluster,
    const core::TrainedMethods& methods, const core::SeriesOptions& options) {
  std::map<std::string, std::vector<double>> series;
  struct Entry {
    const char* name;
    const sched::Schedule* schedule;
  };
  const Entry entries[] = {
      {kMethodDefault, &methods.default_schedule},
      {kMethodModelBased, &methods.model_based_schedule},
      {kMethodDqn, &methods.dqn_online.final_schedule},
      {kMethodActorCritic, &methods.ddpg_online.final_schedule},
  };
  for (const Entry& entry : entries) {
    DRLSTREAM_ASSIGN_OR_RETURN(
        std::vector<double> values,
        core::MeasureLatencySeries(app.topology, app.workload, cluster,
                                   *entry.schedule, options));
    series[entry.name] = std::move(values);
  }
  return series;
}

StatusOr<std::vector<double>> MeasureSurgeSeries(
    const topo::App& app, const topo::ClusterConfig& cluster,
    sched::Scheduler* scheduler, const core::SeriesOptions& options,
    int surge_at_point, double factor) {
  const double surge_ms =
      options.pre_roll_ms + surge_at_point * options.minute_ms;
  workload::DriftConfig drift;
  drift.to = factor;
  drift.start_ms = surge_ms;
  drift.end_ms = surge_ms;
  DRLSTREAM_ASSIGN_OR_RETURN(
      const std::unique_ptr<workload::WorkloadGenerator> generator,
      workload::MakeDrift(drift));
  core::SeriesSpec spec;
  spec.series = options;
  spec.generator = generator.get();
  DRLSTREAM_ASSIGN_OR_RETURN(
      const core::SeriesResult result,
      core::RunSeries(app.topology, app.workload, cluster, scheduler, spec));
  return result.LatencySeries();
}

void PrintSeriesCsv(const std::string& title,
                    const std::map<std::string, std::vector<double>>& series) {
  std::printf("# %s\n", title.c_str());
  std::printf("minute");
  size_t points = 0;
  for (const auto& [name, values] : series) {
    std::printf(",%s", name.c_str());
    points = std::max(points, values.size());
  }
  std::printf("\n");
  for (size_t p = 0; p < points; ++p) {
    std::printf("%zu", p + 1);
    for (const auto& [name, values] : series) {
      if (p < values.size()) {
        std::printf(",%.3f", values[p]);
      } else {
        std::printf(",");
      }
    }
    std::printf("\n");
  }
}

double StabilizedValue(const std::vector<double>& series, int tail) {
  if (series.empty()) return 0.0;
  const size_t take = std::min<size_t>(tail, series.size());
  double sum = 0.0;
  for (size_t i = series.size() - take; i < series.size(); ++i) {
    sum += series[i];
  }
  return sum / static_cast<double>(take);
}

void PrintStabilized(const std::string& title,
                     const std::map<std::string, std::vector<double>>& series,
                     const std::map<std::string, double>& paper_values,
                     int tail) {
  std::printf("# %s: stabilized average tuple processing time (ms)\n",
              title.c_str());
  std::printf("%-24s %12s %12s\n", "method", "measured", "paper");
  // Figure order, not map order.
  for (const char* name : {kMethodDefault, kMethodModelBased, kMethodDqn,
                           kMethodActorCritic}) {
    auto it = series.find(name);
    if (it == series.end()) continue;
    std::printf("%-24s %12.3f", name, StabilizedValue(it->second, tail));
    auto paper = paper_values.find(name);
    if (paper != paper_values.end()) {
      std::printf(" %12.2f", paper->second);
    } else {
      std::printf(" %12s", "-");
    }
    std::printf("\n");
  }
}

std::vector<double> NormalizeAndSmoothRewards(const std::vector<double>& raw) {
  return FiltFilt(NormalizeMinMax(raw), 0.08);
}

void PrintRewardCurvesCsv(const std::string& title,
                          const std::vector<double>& ddpg,
                          const std::vector<double>& dqn, int max_rows) {
  const std::vector<double> ddpg_smooth = NormalizeAndSmoothRewards(ddpg);
  const std::vector<double> dqn_smooth = NormalizeAndSmoothRewards(dqn);
  const size_t points = std::max(ddpg_smooth.size(), dqn_smooth.size());
  const size_t stride =
      std::max<size_t>(1, points / static_cast<size_t>(max_rows));
  std::printf("# %s\n", title.c_str());
  std::printf("epoch,Actor-critic-based DRL,DQN-based DRL\n");
  for (size_t e = 0; e < points; e += stride) {
    std::printf("%zu", e);
    if (e < ddpg_smooth.size()) {
      std::printf(",%.4f", ddpg_smooth[e]);
    } else {
      std::printf(",");
    }
    if (e < dqn_smooth.size()) {
      std::printf(",%.4f", dqn_smooth[e]);
    } else {
      std::printf(",");
    }
    std::printf("\n");
  }
}

}  // namespace drlstream::bench
