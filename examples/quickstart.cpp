// Quickstart: build a Storm-like topology, run it on the simulated cluster
// under two schedules, and print the measured average tuple processing time.
//
//   ./quickstart [--seed=7] [--rate_scale=1.0]
//
// This demonstrates the core loop every scheduler in this library optimizes:
// deploy a scheduling solution, let the system stabilize, measure latency.

#include <cstdio>

#include "common/flags.h"
#include "core/environment.h"
#include "sched/scheduler.h"
#include "topo/apps.h"

using namespace drlstream;

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv, {"help", "rate_scale", "seed"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  if (flags.GetBool("help", false)) {
    std::printf("usage: quickstart [--seed=7] [--rate_scale=1.0]\n");
    return 0;
  }
  ApplyProcessFlags(flags);

  // The paper's small-scale continuous-queries application: 20 executors
  // (2 spouts, 9 query bolts, 9 file bolts) on a 10-machine cluster.
  topo::AppOptions app_options;
  app_options.rate_scale = flags.GetDouble("rate_scale", 1.0);
  topo::App app =
      topo::BuildContinuousQueries(topo::Scale::kSmall, app_options);
  topo::ClusterConfig cluster;

  sim::SimOptions sim_options;
  sim_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  core::MeasurementConfig measure;
  measure.stabilize_ms = 3000.0;
  measure.num_measurements = 5;
  measure.measurement_interval_ms = 1000.0;

  core::SchedulingEnvironment env(&app.topology, app.workload, cluster,
                                  sim_options, measure);

  // Schedule 1: Storm's default round-robin spread over all 10 machines.
  sched::RoundRobinScheduler round_robin;
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto rr = round_robin.ComputeSchedule(context);
  if (!rr.ok()) {
    std::fprintf(stderr, "%s\n", rr.status().ToString().c_str());
    return 1;
  }

  // Schedule 2: a locality-aware packing onto 3 machines.
  sched::Schedule packed(app.topology.num_executors(), cluster.num_machines);
  for (int i = 0; i < app.topology.num_executors(); ++i) {
    packed.Assign(i, i % 3);
  }

  std::printf("topology: %s (%d executors, %d machines)\n",
              app.topology.name().c_str(), app.topology.num_executors(),
              cluster.num_machines);

  struct Case {
    const char* name;
    const sched::Schedule* schedule;
  };
  const Case cases[] = {{"default round-robin", &*rr},
                        {"packed on 3 machines", &packed}};
  for (const Case& c : cases) {
    if (auto st = env.Reset(*c.schedule); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    auto latency = env.DeployAndMeasure(*c.schedule);
    if (!latency.ok()) {
      std::fprintf(stderr, "%s\n", latency.status().ToString().c_str());
      return 1;
    }
    const sim::SimCounters& counters = env.simulator()->counters();
    std::printf(
        "  %-22s avg tuple processing time %6.3f ms   "
        "(%lld tuples, %.1f%% remote hops, %lld events)\n",
        c.name, *latency, counters.roots_completed,
        100.0 * counters.remote_transfers /
            std::max(1LL, counters.remote_transfers +
                              counters.local_transfers),
        counters.events_processed);
  }
  std::printf(
      "\nThe gap between these two numbers is what the paper's DRL agent "
      "learns to exploit.\nSee examples/online_learning.cpp for the full "
      "actor-critic loop.\n");
  return 0;
}
