// Workload adaptivity demo (the Fig. 12 scenario in miniature): train the
// actor-critic agent with workload-randomized samples, then run it through a
// pluggable workload scenario and watch the agent re-schedule — the
// adjustment spike followed by re-stabilization at a low latency.
//
// The scenario is any spec the workload registry accepts; the default is the
// paper's step surge expressed as a zero-width drift:
//
//   ./workload_adaptation [--samples=300] [--epochs=250] [--seed=11]
//       [--workload=drift:from=1,to=1.5,start_ms=26000,end_ms=26000]
//       [--points=30]
//
// Try --workload=diurnal:period_ms=20000,amplitude=0.4 or
// --workload=flash_crowd:at_ms=20000,peak=3 for time-varying load.

#include <cstdio>
#include <memory>
#include <string>

#include "common/flags.h"
#include "core/drl_scheduler.h"
#include "core/experiment.h"
#include "topo/apps.h"
#include "workload/registry.h"

using namespace drlstream;

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(
      argc, argv,
      {"samples", "epochs", "pretrain", "seed", "workload", "points",
       "surge-at", "surge-factor"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  ApplyProcessFlags(flags);

  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;

  core::PipelineConfig config;
  config.offline_samples = flags.GetInt("samples", 300);
  config.online.epochs = flags.GetInt("epochs", 250);
  config.pretrain_steps = flags.GetInt("pretrain", 1000);
  // Only the actor-critic agent runs the scenario.
  config.train_dqn = false;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));

  core::SeriesSpec spec;
  spec.series.points = flags.GetInt("points", 30);
  spec.series.seed = config.seed + 3;
  // Default scenario: the Fig. 12 +50% step at minute 13, as a zero-width
  // drift ramp (series pre-roll 2000 ms + 12 minutes of 6000 ms).
  const int surge_at = flags.GetInt("surge-at", 12);
  const double surge_ms =
      spec.series.pre_roll_ms + surge_at * spec.series.minute_ms;
  char default_spec[128];
  std::snprintf(default_spec, sizeof(default_spec),
                "drift:from=1,to=%g,start_ms=%g,end_ms=%g",
                flags.GetDouble("surge-factor", 1.5), surge_ms, surge_ms);
  // Parse (and so validate) the spec before spending minutes on training.
  auto generator = workload::ParseWorkloadSpec(
      flags.GetString("workload", default_spec), config.seed + 7);
  if (!generator.ok()) {
    std::fprintf(stderr, "--workload: %s\n",
                 generator.status().ToString().c_str());
    std::fprintf(stderr, "registered scenarios: %s\n",
                 workload::WorkloadRegistry::Get().KeysLine().c_str());
    return 1;
  }
  std::printf("scenario: %s\n", (*generator)->Describe().c_str());
  spec.generator = generator->get();

  std::printf("training the actor-critic agent (%d offline samples, %d "
              "online epochs)...\n",
              config.offline_samples, config.online.epochs);
  auto trained =
      core::TrainAllMethods(&app.topology, app.workload, cluster, config);
  if (!trained.ok()) {
    std::fprintf(stderr, "%s\n", trained.status().ToString().c_str());
    return 1;
  }

  core::PolicyScheduler scheduler(trained->ddpg.get());
  auto run =
      core::RunSeries(app.topology, app.workload, cluster, &scheduler, spec);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  std::printf("\nper-minute latency under '%s':\n", run->workload.c_str());
  std::printf("  minute   latency_ms   load   moved\n");
  for (size_t p = 0; p < run->points.size(); ++p) {
    const core::SeriesPoint& point = run->points[p];
    std::printf("  %6zu  %10.3f   %5.2fx  %5d\n", p + 1,
                point.avg_latency_ms, point.rate_multiplier,
                point.executors_moved);
  }

  const size_t n = run->points.size();
  if (n >= 10) {
    double head = 0.0, tail = 0.0;
    for (size_t p = 0; p < 5; ++p) head += run->points[p].avg_latency_ms / 5.0;
    for (size_t p = n - 5; p < n; ++p) {
      tail += run->points[p].avg_latency_ms / 5.0;
    }
    std::printf("\nstabilized early: %.3f ms, late: %.3f ms\n", head, tail);
  }
  std::printf("total energy: %.1f J (avg %.1f W)\n", run->total_joules,
              run->avg_power_watts);
  std::printf("the agent observes the modulated arrival rates in its state "
              "(X, w) and re-schedules;\nafter each adjustment spike the "
              "latency re-stabilizes.\n");
  return 0;
}
