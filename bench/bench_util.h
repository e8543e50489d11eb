#ifndef DRLSTREAM_BENCH_BENCH_UTIL_H_
#define DRLSTREAM_BENCH_BENCH_UTIL_H_

#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "core/artifacts.h"
#include "core/experiment.h"
#include "topo/apps.h"

namespace drlstream::bench {

/// Shared knobs for the figure benches. Defaults are sized so the whole
/// suite runs in minutes; pass --samples/--epochs/... to approach the
/// paper's full budgets (10,000 offline samples, 1,500-2,000 epochs).
struct BenchOptions {
  int samples = 600;
  int epochs = 800;
  int pretrain = 2500;
  int knn_k = 32;
  double gamma = 0.9;
  int train_steps_per_epoch = 2;
  uint64_t seed = 11;
  std::string cache_dir = "bench_artifacts";

  static BenchOptions FromFlags(const Flags& flags);

  core::PipelineConfig ToPipelineConfig() const;

  /// Cache key encoding the application and the budget.
  std::string Key(const std::string& app_name) const;
};

/// Trains all four methods on an application (or loads them from the
/// artifact cache).
StatusOr<core::TrainedMethods> TrainApp(const std::string& app_name,
                                        const topo::App& app,
                                        const topo::ClusterConfig& cluster,
                                        const BenchOptions& options);

/// Measures the paper-style 20-minute deployment series for each method's
/// final solution. Keys are the paper's method labels, in figure order.
StatusOr<std::map<std::string, std::vector<double>>> MeasureAllMethodSeries(
    const topo::App& app, const topo::ClusterConfig& cluster,
    const core::TrainedMethods& methods, const core::SeriesOptions& options);

/// Runs `scheduler` through the Fig. 12 workload change: every spout rate
/// steps up by `factor` at the start of minute `surge_at_point` (a
/// zero-width `drift`). Returns the per-minute latency series.
StatusOr<std::vector<double>> MeasureSurgeSeries(
    const topo::App& app, const topo::ClusterConfig& cluster,
    sched::Scheduler* scheduler, const core::SeriesOptions& options,
    int surge_at_point, double factor);

/// Prints a CSV latency-series block: header then one row per minute.
void PrintSeriesCsv(const std::string& title,
                    const std::map<std::string, std::vector<double>>& series);

/// Prints the stabilized value (mean of the last `tail` points) per method,
/// next to the paper's reported value when provided.
void PrintStabilized(const std::string& title,
                     const std::map<std::string, std::vector<double>>& series,
                     const std::map<std::string, double>& paper_values,
                     int tail = 5);

/// Mean of the last `tail` points of a series.
double StabilizedValue(const std::vector<double>& series, int tail = 5);

/// Normalizes and smooths a reward curve the way the paper's Figs. 7/9/11
/// do: min-max normalization then forward-backward filtering.
std::vector<double> NormalizeAndSmoothRewards(const std::vector<double>& raw);

/// Prints a normalized-reward CSV (epoch, actor-critic, dqn), decimated to
/// at most `max_rows` rows.
void PrintRewardCurvesCsv(const std::string& title,
                          const std::vector<double>& ddpg,
                          const std::vector<double>& dqn, int max_rows = 100);

/// The four method labels in the paper's figure order.
extern const char* const kMethodDefault;
extern const char* const kMethodModelBased;
extern const char* const kMethodDqn;
extern const char* const kMethodActorCritic;

}  // namespace drlstream::bench

#endif  // DRLSTREAM_BENCH_BENCH_UTIL_H_
