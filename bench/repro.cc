// Reproduces the paper's evaluation (Section 4) from one table: five
// experimental setups, four methods each, read as the headline summary
// (Sections 1 and 6), the latency series of Figs. 6/8/10, the reward curves
// of Figs. 7/9/11, the Fig. 12 workload surge and the two Section 3.2
// ablations.
//
//   ./repro [--figures=NAME[,NAME...]] [--samples=600] [--epochs=800]
//           [--pretrain=2500] [--knn_k=32] [--gamma=0.9] [--tsp=2]
//           [--seed=11] [--cache_dir=bench_artifacts]
//
// --figures picks from summary, fig6 ... fig12, ablation_state and
// ablation_knn_k, run in the order given; the default runs all of them in
// table order. The budget and method flags default to core::PipelineConfig;
// the paper's full budgets are 10,000 offline samples and 1,500-2,000
// epochs. Each setup is trained at most once per run (or loaded from the
// artifact cache under --cache_dir), and each method's deployment series is
// measured at most once, so the summary and Figs. 6/8/10 read the same
// series. The ablations train their own agents and skip the cache.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/strutil.h"
#include "core/artifacts.h"
#include "core/drl_scheduler.h"
#include "core/experiment.h"
#include "sched/model_based.h"
#include "topo/apps.h"
#include "workload/generator.h"

using namespace drlstream;

namespace {

// The four method labels, in the paper's figure order.
constexpr const char* kMethodDefault = "Default";
constexpr const char* kMethodModelBased = "Model-based";
constexpr const char* kMethodDqn = "DQN-based DRL";
constexpr const char* kMethodActorCritic = "Actor-critic-based DRL";
constexpr const char* kMethods[] = {kMethodDefault, kMethodModelBased,
                                    kMethodDqn, kMethodActorCritic};

/// The paper's surge (Fig. 12, state ablation): every spout rate +50%.
constexpr double kSurgeFactor = 1.5;

/// One experimental setup of Section 4.
struct Setup {
  const char* key;    // artifact cache key prefix
  const char* label;  // summary row
  topo::App (*build)();
  /// The paper's stabilized latencies, ms, in kMethods order (Section 4.2).
  double paper[4];
};

const Setup kSetups[] = {
    {"cq_small", "Continuous queries (small)",
     [] { return topo::BuildContinuousQueries(topo::Scale::kSmall); },
     {1.96, 1.46, 1.54, 1.33}},
    {"cq_medium", "Continuous queries (medium)",
     [] { return topo::BuildContinuousQueries(topo::Scale::kMedium); },
     {2.08, 1.61, 1.59, 1.43}},
    {"cq_large", "Continuous queries (large)",
     [] { return topo::BuildContinuousQueries(topo::Scale::kLarge); },
     {2.64, 2.12, 2.45, 1.72}},
    {"log_large", "Log stream processing (large)",
     [] { return topo::BuildLogProcessing(); }, {9.61, 7.91, 8.19, 7.20}},
    {"wc_large", "Word count (large)", [] { return topo::BuildWordCount(); },
     {3.10, 2.16, 2.29, 1.70}},
};

enum class Kind {
  kSummary,        // one stabilized row per setup, then the headline means
  kLatency,        // per-minute series of the four methods (Figs. 6/8/10)
  kRewards,        // normalized online reward curves (Figs. 7/9/11)
  kSurge,          // model-based vs actor-critic under the surge (Fig. 12)
  kAblationState,  // actor-critic with and without w in the state
  kAblationKnnK,   // actor-critic at several K of the K-NN optimizer
};

/// One block of a figure's output.
struct Panel {
  const char* setup;  // a kSetups key
  const char* title = nullptr;
  /// What the paper reports for this panel beyond the setup's stabilized
  /// latencies (Fig. 7's final DQN reward, Fig. 12's post-surge
  /// latencies), by method label.
  std::map<std::string, double> paper = {};
};

struct Figure {
  const char* name;  // --figures key
  Kind kind;
  /// The table's heading (summary, ablations); the other kinds title each
  /// panel.
  const char* title;
  std::vector<Panel> panels;  // in print order
  uint64_t series_seed_offset = 0;  // series seed = --seed + offset
  int points = 0;                   // reported minutes per series
  int surge_minute = 0;             // the surge starts this minute
};

const Figure kFigures[] = {
    {"summary", Kind::kSummary,
     "Summary: stabilized avg tuple processing time per method (ms)",
     {{"cq_small"}, {"cq_medium"}, {"cq_large"}, {"log_large"}, {"wc_large"}},
     77, 20},
    {"fig6", Kind::kLatency, nullptr,
     {{"cq_small", "Fig 6 (small): continuous queries, avg tuple processing "
                   "time (ms) vs minute"},
      {"cq_medium", "Fig 6 (medium): continuous queries, avg tuple "
                    "processing time (ms) vs minute"},
      {"cq_large", "Fig 6 (large): continuous queries, avg tuple processing "
                   "time (ms) vs minute"}},
     77, 20},
    {"fig7", Kind::kRewards, nullptr,
     {{"cq_large",
       "Fig 7: normalized reward over online learning, continuous queries "
       "(large)",
       {{kMethodDqn, 0.44}}}}},
    {"fig8", Kind::kLatency, nullptr,
     {{"log_large", "Fig 8: log stream processing (large), avg tuple "
                    "processing time (ms) vs minute"}},
     77, 20},
    {"fig9", Kind::kRewards, nullptr,
     {{"log_large", "Fig 9: normalized reward over online learning, log "
                    "stream processing (large)"}}},
    {"fig10", Kind::kLatency, nullptr,
     {{"wc_large", "Fig 10: word count (large), avg tuple processing time "
                   "(ms) vs minute"}},
     77, 20},
    {"fig11", Kind::kRewards, nullptr,
     {{"wc_large", "Fig 11: normalized reward over online learning, word "
                   "count (large)"}}},
    {"fig12", Kind::kSurge, nullptr,
     {{"cq_large",
       "Fig 12 (continuous queries): latency under +50% workload at minute "
       "20",
       {{kMethodModelBased, 2.17}, {kMethodActorCritic, 1.76}}},
      {"log_large", "Fig 12 (log stream processing): latency under +50% "
                    "workload at minute 20"},
      {"wc_large",
       "Fig 12 (word count): latency under +50% workload at minute 20"}},
     99, 50, 20},
    {"ablation_state", Kind::kAblationState,
     "Ablation: workload w in the DRL state (continuous queries, small)",
     {{"cq_small"}}, 5, 30, 10},
    {"ablation_knn_k", Kind::kAblationKnnK,
     "Ablation: K of the MIQP-NN K-nearest-actions optimizer (continuous "
     "queries, small)",
     {{"cq_small"}}, 7, 20},
};

const Setup& FindSetup(const std::string& key) {
  const Setup* const setup =
      std::find_if(std::begin(kSetups), std::end(kSetups),
                   [&key](const Setup& s) { return key == s.key; });
  DRLSTREAM_CHECK(setup != std::end(kSetups)) << "no setup '" << key << "'";
  return *setup;
}

/// The figures --figures names, in the order given; all of them by default.
StatusOr<std::vector<const Figure*>> SelectFigures(const Flags& flags) {
  std::vector<std::string> names;
  for (const Figure& figure : kFigures) names.push_back(figure.name);
  if (!flags.Has("figures")) {
    std::vector<const Figure*> all;
    for (const Figure& figure : kFigures) all.push_back(&figure);
    return all;
  }
  std::vector<const Figure*> selected;
  std::istringstream list(flags.GetString("figures", ""));
  for (std::string name; std::getline(list, name, ',');) {
    const auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) return UnknownNameError("figure", name, names);
    selected.push_back(&kFigures[it - names.begin()]);
  }
  if (selected.empty()) return Status::InvalidArgument("--figures is empty");
  return selected;
}

core::PipelineConfig ConfigFromFlags(const Flags& flags) {
  core::PipelineConfig config;
  config.offline_samples = flags.GetInt("samples", config.offline_samples);
  config.online.epochs = flags.GetInt("epochs", config.online.epochs);
  config.pretrain_steps = flags.GetInt("pretrain", config.pretrain_steps);
  config.ddpg.knn_k = flags.GetInt("knn_k", config.ddpg.knn_k);
  config.ddpg.gamma = flags.GetDouble("gamma", config.ddpg.gamma);
  config.dqn.gamma = config.ddpg.gamma;
  config.online.train_steps_per_epoch =
      flags.GetInt("tsp", config.online.train_steps_per_epoch);
  config.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int>(config.seed)));
  return config;
}

void PrintUsage() {
  const core::PipelineConfig defaults;
  std::string names;
  for (const Figure& figure : kFigures) {
    if (!names.empty()) names += ", ";
    names += figure.name;
  }
  std::printf(
      "usage: repro [--figures=NAME[,NAME...]] [--samples=%d] [--epochs=%d]\n"
      "             [--pretrain=%d] [--knn_k=%d] [--gamma=%g] [--tsp=%d]\n"
      "             [--seed=%llu] [--cache_dir=bench_artifacts]\n"
      "figures (default: all, in this order): %s\n",
      defaults.offline_samples, defaults.online.epochs,
      defaults.pretrain_steps, defaults.ddpg.knn_k, defaults.ddpg.gamma,
      defaults.online.train_steps_per_epoch,
      static_cast<unsigned long long>(defaults.seed), names.c_str());
}

/// The artifact cache key: the setup plus every setting a flag changes.
std::string CacheKey(const Setup& setup, const core::PipelineConfig& config) {
  std::ostringstream key;
  key << setup.key << "_s" << config.offline_samples << "_e"
      << config.online.epochs << "_p" << config.pretrain_steps << "_k"
      << config.ddpg.knn_k << "_g" << config.ddpg.gamma << "_t"
      << config.online.train_steps_per_epoch << "_r" << config.seed;
  return key.str();
}

using SeriesMap = std::map<std::string, std::vector<double>>;

/// Mean of the last `tail` values (of all of them when fewer).
double TailMean(const std::vector<double>& values, size_t tail) {
  return Mean({values.end() - std::min(tail, values.size()), values.end()});
}

/// The stabilized value: the mean of a series' last five minutes.
double StabilizedValue(const std::vector<double>& series) {
  return TailMean(series, 5);
}

/// Prints a CSV latency-series block: header then one row per minute.
void PrintSeriesCsv(const std::string& title, const SeriesMap& series) {
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

/// Prints the stabilized value per method, next to the paper's value when
/// it reports one.
void PrintStabilized(const std::string& title, const SeriesMap& series,
                     const std::map<std::string, double>& paper) {
  std::printf("# %s: stabilized average tuple processing time (ms)\n",
              title.c_str());
  std::printf("%-24s %12s %12s\n", "method", "measured", "paper");
  for (const char* name : kMethods) {
    const auto it = series.find(name);
    if (it == series.end()) continue;
    std::printf("%-24s %12.3f", name, StabilizedValue(it->second));
    const auto reported = paper.find(name);
    if (reported != paper.end()) {
      std::printf(" %12.2f", reported->second);
    } else {
      std::printf(" %12s", "-");
    }
    std::printf("\n");
  }
}

/// Normalizes and smooths a reward curve the way Figs. 7/9/11 do: min-max
/// normalization then forward-backward filtering.
std::vector<double> NormalizeAndSmoothRewards(const std::vector<double>& raw) {
  return FiltFilt(NormalizeMinMax(raw), 0.08);
}

/// Prints a normalized-reward CSV (epoch, actor-critic, dqn), decimated to
/// at most 100 rows.
void PrintRewardCurvesCsv(const std::string& title,
                          const std::vector<double>& ddpg_smooth,
                          const std::vector<double>& dqn_smooth) {
  const size_t points = std::max(ddpg_smooth.size(), dqn_smooth.size());
  const size_t stride = std::max<size_t>(1, points / 100);
  std::printf("# %s\n", title.c_str());
  std::printf("epoch,%s,%s\n", kMethodActorCritic, kMethodDqn);
  for (size_t e = 0; e < points; e += stride) {
    std::printf("%zu", e);
    for (const std::vector<double>* curve : {&ddpg_smooth, &dqn_smooth}) {
      if (e < curve->size()) {
        std::printf(",%.4f", (*curve)[e]);
      } else {
        std::printf(",");
      }
    }
    std::printf("\n");
  }
}

/// Runs `scheduler` through the surge: every spout rate steps up by
/// kSurgeFactor at the start of minute `surge_minute` (a zero-width
/// `drift`). Returns the per-minute latency series.
StatusOr<std::vector<double>> MeasureSurgeSeries(
    const topo::App& app, const topo::ClusterConfig& cluster,
    sched::Scheduler* scheduler, const core::SeriesOptions& options,
    int surge_minute) {
  const double surge_ms =
      options.pre_roll_ms + surge_minute * options.minute_ms;
  workload::DriftConfig drift;
  drift.to = kSurgeFactor;
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

/// Runs figures over the setups, training each setup and measuring each
/// method's series at most once.
class Repro {
 public:
  Repro(const core::PipelineConfig& config, std::string cache_dir)
      : config_(config), cache_dir_(std::move(cache_dir)) {}

  Status Run(const Figure& figure) {
    switch (figure.kind) {
      case Kind::kSummary:
        return Summary(figure);
      case Kind::kLatency:
        return Latency(figure);
      case Kind::kRewards:
        return Rewards(figure);
      case Kind::kSurge:
        return Surge(figure);
      case Kind::kAblationState:
        return AblationState(figure);
      case Kind::kAblationKnnK:
        return AblationKnnK(figure);
    }
    return Status::Internal("unhandled figure kind");
  }

 private:
  /// A setup's application and its trained methods. The agents point into
  /// `app`, so an entry never moves once trained.
  struct Trained {
    topo::App app;
    core::TrainedMethods methods;
  };

  StatusOr<const Trained*> Train(const Setup& setup) {
    auto it = trained_.find(setup.key);
    if (it != trained_.end()) return &it->second;
    it = trained_.emplace(setup.key, Trained{setup.build(), {}}).first;
    std::fprintf(stderr, "[repro] training methods for %s (cached under %s)\n",
                 setup.key, cache_dir_.c_str());
    auto methods = core::TrainAllMethodsCached(
        cache_dir_, CacheKey(setup, config_), &it->second.app.topology,
        it->second.app.workload, cluster_, config_);
    if (!methods.ok()) {
      trained_.erase(it);
      return methods.status();
    }
    it->second.methods = std::move(*methods);
    return &it->second;
  }

  core::SeriesOptions SeriesOptionsFor(const Figure& figure) const {
    core::SeriesOptions options;
    options.points = figure.points;
    options.seed = config_.seed + figure.series_seed_offset;
    return options;
  }

  /// The deployment series of the setup's four final schedules under the
  /// figure's series protocol, keyed by method label.
  StatusOr<const SeriesMap*> MethodSeries(const Setup& setup,
                                          const Figure& figure) {
    const auto key =
        std::make_tuple(std::string(setup.key), figure.series_seed_offset,
                        figure.points);
    const auto cached = series_.find(key);
    if (cached != series_.end()) return &cached->second;
    DRLSTREAM_ASSIGN_OR_RETURN(const Trained* trained, Train(setup));
    const core::TrainedMethods& methods = trained->methods;
    const sched::Schedule* const schedules[] = {
        &methods.default_schedule, &methods.model_based_schedule,
        &methods.dqn_online.final_schedule,
        &methods.ddpg_online.final_schedule};
    SeriesMap series;
    for (int i = 0; i < 4; ++i) {
      DRLSTREAM_ASSIGN_OR_RETURN(
          series[kMethods[i]],
          core::MeasureLatencySeries(trained->app.topology,
                                     trained->app.workload, cluster_,
                                     *schedules[i], SeriesOptionsFor(figure)));
    }
    return &series_.emplace(key, std::move(series)).first->second;
  }

  Status Summary(const Figure& figure) {
    std::printf("# %s\n", figure.title);
    std::printf("%-32s %10s %12s %10s %14s\n", "experiment", "Default",
                "Model-based", "DQN", "Actor-critic");
    double sum_vs_default = 0.0;
    double sum_vs_model = 0.0;
    int count = 0;
    for (const Panel& panel : figure.panels) {
      const Setup& setup = FindSetup(panel.setup);
      DRLSTREAM_ASSIGN_OR_RETURN(const SeriesMap* series,
                                 MethodSeries(setup, figure));
      const double def = StabilizedValue(series->at(kMethodDefault));
      const double model = StabilizedValue(series->at(kMethodModelBased));
      const double dqn = StabilizedValue(series->at(kMethodDqn));
      const double ac = StabilizedValue(series->at(kMethodActorCritic));
      std::printf("%-32s %10.3f %12.3f %10.3f %14.3f\n", setup.label, def,
                  model, dqn, ac);
      if (def > 0.0 && model > 0.0) {
        sum_vs_default += 100.0 * (def - ac) / def;
        sum_vs_model += 100.0 * (model - ac) / model;
        ++count;
      }
    }
    if (count > 0) {
      std::printf("\n# Average reduction in avg tuple processing time by the "
                  "actor-critic method\n");
      std::printf("%-44s %10s %10s\n", "", "measured", "paper");
      std::printf("%-44s %9.1f%% %9.1f%%\n", "vs Storm default scheduler",
                  sum_vs_default / count, 33.5);
      std::printf("%-44s %9.1f%% %9.1f%%\n",
                  "vs state-of-the-art model-based method [25]",
                  sum_vs_model / count, 14.0);
    }
    return Status::OK();
  }

  Status Latency(const Figure& figure) {
    for (const Panel& panel : figure.panels) {
      const Setup& setup = FindSetup(panel.setup);
      DRLSTREAM_ASSIGN_OR_RETURN(const SeriesMap* series,
                                 MethodSeries(setup, figure));
      std::map<std::string, double> paper;
      for (int i = 0; i < 4; ++i) paper[kMethods[i]] = setup.paper[i];
      PrintSeriesCsv(panel.title, *series);
      PrintStabilized(panel.title, *series, paper);
      EndPanel(figure);
    }
    return Status::OK();
  }

  Status Rewards(const Figure& figure) {
    for (const Panel& panel : figure.panels) {
      DRLSTREAM_ASSIGN_OR_RETURN(const Trained* trained,
                                 Train(FindSetup(panel.setup)));
      const std::vector<double> ddpg =
          NormalizeAndSmoothRewards(trained->methods.ddpg_online.rewards);
      const std::vector<double> dqn =
          NormalizeAndSmoothRewards(trained->methods.dqn_online.rewards);
      PrintRewardCurvesCsv(panel.title, ddpg, dqn);
      const auto reported = panel.paper.find(kMethodDqn);
      if (reported != panel.paper.end()) {
        // The paper reports the DQN method ending at this mean normalized
        // reward over the last 200 epochs while actor-critic climbs higher.
        std::printf("\n# final normalized reward (mean of last 200 epochs)\n");
        std::printf("%s,%.3f\n", kMethodActorCritic, TailMean(ddpg, 200));
        std::printf("%s,%.3f   (paper: %.2f)\n", kMethodDqn, TailMean(dqn, 200),
                    reported->second);
      }
      EndPanel(figure);
    }
    return Status::OK();
  }

  Status Surge(const Figure& figure) {
    for (const Panel& panel : figure.panels) {
      DRLSTREAM_ASSIGN_OR_RETURN(const Trained* trained,
                                 Train(FindSetup(panel.setup)));
      sched::ModelBasedScheduler model_sched(
          trained->methods.delay_model.get());
      core::PolicyScheduler ddpg_sched(trained->methods.ddpg.get());
      SeriesMap series;
      DRLSTREAM_ASSIGN_OR_RETURN(
          series[kMethodModelBased],
          MeasureSurgeSeries(trained->app, cluster_, &model_sched,
                             SeriesOptionsFor(figure), figure.surge_minute));
      DRLSTREAM_ASSIGN_OR_RETURN(
          series[kMethodActorCritic],
          MeasureSurgeSeries(trained->app, cluster_, &ddpg_sched,
                             SeriesOptionsFor(figure), figure.surge_minute));
      PrintSeriesCsv(panel.title, series);
      PrintStabilized(panel.title, series, panel.paper);
      EndPanel(figure);
    }
    return Status::OK();
  }

  /// Section 3.2: including the workload w in the state s = (X, w)
  /// "achieves better adaptivity and sensitivity to the incoming
  /// workload". Trains the actor-critic agent with and without w and
  /// compares the greedy policies' latency after the surge.
  Status AblationState(const Figure& figure) {
    const topo::App app = FindSetup(figure.panels[0].setup).build();
    std::printf("# %s\n", figure.title);
    std::printf("%-28s %26s\n", "state design", "post-surge stabilized (ms)");
    for (const bool include_w : {true, false}) {
      core::PipelineConfig config = ActorCriticOnly();
      config.include_workload_in_state = include_w;
      DRLSTREAM_ASSIGN_OR_RETURN(
          const core::TrainedMethods trained,
          core::TrainAllMethods(&app.topology, app.workload, cluster_,
                                config));
      core::PolicyScheduler scheduler(trained.ddpg.get());
      DRLSTREAM_ASSIGN_OR_RETURN(
          const std::vector<double> series,
          MeasureSurgeSeries(app, cluster_, &scheduler,
                             SeriesOptionsFor(figure), figure.surge_minute));
      std::printf("%-28s %26.3f\n",
                  include_w ? "s = (X, w)  [paper]" : "s = (X)  [ablated]",
                  StabilizedValue(series));
    }
    return Status::OK();
  }

  /// Section 3.2.1: the K of the MIQP-NN K-nearest-actions optimizer
  /// trades action-space exploration against per-epoch cost. Trains the
  /// actor-critic agent at several K and reports its final solution.
  Status AblationKnnK(const Figure& figure) {
    const topo::App app = FindSetup(figure.panels[0].setup).build();
    std::printf("# %s\n", figure.title);
    std::printf("%6s %28s\n", "K", "final solution latency (ms)");
    for (const int k : {1, 4, 16, 32}) {
      core::PipelineConfig config = ActorCriticOnly();
      config.ddpg.knn_k = k;
      DRLSTREAM_ASSIGN_OR_RETURN(
          const core::TrainedMethods trained,
          core::TrainAllMethods(&app.topology, app.workload, cluster_,
                                config));
      DRLSTREAM_ASSIGN_OR_RETURN(
          const std::vector<double> series,
          core::MeasureLatencySeries(app.topology, app.workload, cluster_,
                                     trained.ddpg_online.final_schedule,
                                     SeriesOptionsFor(figure)));
      std::printf("%6d %28.3f\n", k, StabilizedValue(series));
    }
    return Status::OK();
  }

  /// The run's config without the DQN baseline, which the ablations do not
  /// study.
  core::PipelineConfig ActorCriticOnly() const {
    core::PipelineConfig config = config_;
    config.train_dqn = false;
    return config;
  }

  /// A figure of several panels separates them with a blank line.
  static void EndPanel(const Figure& figure) {
    if (figure.panels.size() > 1) std::printf("\n");
  }

  const core::PipelineConfig config_;
  const std::string cache_dir_;
  const topo::ClusterConfig cluster_;
  std::map<std::string, Trained> trained_;
  std::map<std::tuple<std::string, uint64_t, int>, SeriesMap> series_;
};

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv,
                            {"figures", "samples", "epochs", "pretrain",
                             "knn_k", "gamma", "tsp", "seed", "cache_dir",
                             "help"});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  if (flags->GetBool("help", false)) {
    PrintUsage();
    return 0;
  }
  ApplyProcessFlags(*flags);
  const auto figures = SelectFigures(*flags);
  if (!figures.ok()) {
    std::fprintf(stderr, "%s\n", figures.status().ToString().c_str());
    return 1;
  }
  Repro repro(ConfigFromFlags(*flags),
              flags->GetString("cache_dir", "bench_artifacts"));
  for (const Figure* figure : *figures) {
    const Status status = repro.Run(*figure);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", figure->name,
                   status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
