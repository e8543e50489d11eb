// The paper's log stream processing topology (Fig. 4) in functional mode:
// IIS-style log lines flow through the LogRules bolt into the Indexer and
// Counter branches, whose Database bolts store results in separate
// collections — and the example compares the measured latency of the
// default deployment against a model-based one trained on the fly.
//
//   ./log_stream_processing [--seconds=4] [--samples=150] [--seed=3]

#include <cstdio>

#include "common/flags.h"
#include "core/environment.h"
#include "core/offline.h"
#include "sched/model_based.h"
#include "sched/scheduler.h"
#include "sim/cluster_sim.h"
#include "topo/apps.h"

using namespace drlstream;

namespace {

/// Measures a schedule on a fresh functional simulator.
double Measure(const topo::App& app, const topo::ClusterConfig& cluster,
               const sched::Schedule& schedule, double seconds,
               uint64_t seed, const char* label) {
  sim::SimOptions options;
  options.functional = true;
  options.seed = seed;
  sim::ClusterSim simulator(cluster, options);
  Status st = simulator.AddTenant(&app.topology, &app.workload, schedule)
                  .status();
  if (st.ok()) st = simulator.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return -1.0;
  }
  // Let the pipeline warm up, then measure the stabilized window.
  simulator.RunFor(2000.0);
  simulator.ResetWindow();
  simulator.RunFor(seconds * 1000.0);
  const double latency = simulator.WindowAvgLatencyMs();
  std::printf("  %-22s %8.3f ms   (%lld log lines processed)\n", label,
              latency, simulator.counters().roots_completed);
  return latency;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or =
      Flags::Parse(argc, argv, {"help", "samples", "seconds", "seed"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  if (flags.GetBool("help", false)) {
    std::printf(
        "usage: log_stream_processing [--seconds=4] [--samples=150] "
        "[--seed=3]\n");
    return 0;
  }
  ApplyProcessFlags(flags);
  const double seconds = flags.GetDouble("seconds", 4.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 3));

  topo::AppOptions app_options;
  app_options.functional = true;
  topo::App app = topo::BuildLogProcessing(app_options);
  topo::ClusterConfig cluster;

  std::printf("log stream processing: %d executors over %d machines\n",
              app.topology.num_executors(), cluster.num_machines);

  // 1. Collect training samples (random deployments) with detailed stats.
  sim::SimOptions train_sim;
  train_sim.seed = seed;
  core::MeasurementConfig measure;
  measure.stabilize_ms = 2200.0;
  measure.num_measurements = 2;
  measure.measurement_interval_ms = 400.0;
  core::SchedulingEnvironment env(&app.topology, app.workload, cluster,
                                  train_sim, measure);
  Rng rng(seed);
  if (auto st = env.Reset(sched::Schedule::Random(
          app.topology.num_executors(), cluster.num_machines, &rng));
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  core::CollectionOptions collect;
  collect.num_samples = flags.GetInt("samples", 150);
  collect.seed = seed + 1;
  std::printf("collecting %d random-deployment samples...\n",
              collect.num_samples);
  auto db = core::CollectOfflineSamples(&env, collect);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }

  // 2. Fit the [25]-style delay model and search a schedule with it.
  sched::DelayModel model(&app.topology, &cluster);
  if (auto st = model.Fit(db->ToPerfSamples()); !st.ok()) {
    std::fprintf(stderr, "model fit failed: %s\n", st.ToString().c_str());
    return 1;
  }
  sched::ModelBasedScheduler model_scheduler(&model);
  sched::RoundRobinScheduler default_scheduler;
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto default_schedule = default_scheduler.ComputeSchedule(context);
  auto model_schedule = model_scheduler.ComputeSchedule(context);
  if (!default_schedule.ok() || !model_schedule.ok()) {
    std::fprintf(stderr, "scheduling failed\n");
    return 1;
  }

  // 3. Compare deployments on the real (functional) pipeline.
  std::printf("\nmeasured average tuple processing time:\n");
  const double def =
      Measure(app, cluster, *default_schedule, seconds, seed + 7, "Default");
  const double mod = Measure(app, cluster, *model_schedule, seconds,
                             seed + 7, "Model-based");
  if (def > 0 && mod > 0) {
    std::printf("\nmodel-based reduces latency by %.1f%%\n",
                100.0 * (def - mod) / def);
  }

  // 4. Show the database contents the pipeline produced.
  std::printf("\nindexed URIs: %zu, status-code counters: %zu\n",
              app.sink->Snapshot("index_records").size(),
              app.sink->Snapshot("count_records").size());
  for (const auto& [key, count] : app.sink->Snapshot("count_records")) {
    std::printf("  %-12s %8lld stored updates\n", key.c_str(),
                static_cast<long long>(count));
  }
  return 0;
}
