// The paper's continuous-queries topology (Fig. 3) in functional mode:
// randomly generated "owners of speeding vehicles" queries scan an
// in-memory vehicle table; matches are written to the output file (sink).
// Demonstrates building a topology scale-by-scale and inspecting per-
// component delays.
//
//   ./continuous_queries [--scale=small|medium|large] [--seconds=4]

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "sched/scheduler.h"
#include "sim/cluster_sim.h"
#include "topo/apps.h"

using namespace drlstream;

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(
      argc, argv, {"help", "scale", "seconds", "seed", "table_rows"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  if (flags.GetBool("help", false)) {
    std::printf(
        "usage: continuous_queries [--scale=small|medium|large] "
        "[--seconds=4]\n"
        "                          [--seed=5] [--table_rows=500]\n");
    return 0;
  }
  ApplyProcessFlags(flags);
  const std::string scale_name = flags.GetString("scale", "small");
  topo::Scale scale = topo::Scale::kSmall;
  if (scale_name == "medium") scale = topo::Scale::kMedium;
  if (scale_name == "large") scale = topo::Scale::kLarge;

  topo::AppOptions app_options;
  app_options.functional = true;
  app_options.table_rows = flags.GetInt("table_rows", 500);
  topo::App app = topo::BuildContinuousQueries(scale, app_options);
  topo::ClusterConfig cluster;

  std::printf("continuous queries (%s): %d executors\n",
              topo::ScaleToString(scale), app.topology.num_executors());
  for (int c = 0; c < app.topology.num_components(); ++c) {
    const topo::Component& comp = app.topology.component(c);
    std::printf("  %-8s x%-3d service %.2f ms %s\n", comp.name.c_str(),
                comp.parallelism, comp.service_mean_ms,
                comp.is_spout ? "(spout)" : "");
  }

  sim::SimOptions sim_options;
  sim_options.functional = true;
  sim_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 5));
  sim::ClusterSim simulator(cluster, sim_options);
  sched::RoundRobinScheduler scheduler(/*workers_per_machine=*/1);
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = scheduler.ComputeSchedule(context);
  if (!schedule.ok()) {
    std::fprintf(stderr, "%s\n", schedule.status().ToString().c_str());
    return 1;
  }
  Status st = simulator.AddTenant(&app.topology, &app.workload, *schedule)
                  .status();
  if (st.ok()) st = simulator.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  const double seconds = flags.GetDouble("seconds", 4.0);
  simulator.RunFor(seconds * 1000.0);

  std::printf("\nafter %.1f simulated seconds:\n", seconds);
  std::printf("  queries executed:   %lld\n",
              simulator.counters().roots_completed);
  std::printf("  matches written:    %lld\n",
              static_cast<long long>(app.sink->TotalRecords()));
  std::printf("  avg tuple time:     %.3f ms\n",
              simulator.WindowAvgLatencyMs());

  std::printf("\nper-component mean processing delay (queue + service):\n");
  const std::vector<double> proc = simulator.TenantWindowComponentProcMs(0);
  for (int c = 0; c < app.topology.num_components(); ++c) {
    std::printf("  %-8s %.3f ms\n", app.topology.component(c).name.c_str(),
                proc[c]);
  }
  std::printf("\nper-edge mean transfer delay:\n");
  const std::vector<double> transfer = simulator.TenantWindowEdgeTransferMs(0);
  for (size_t e = 0; e < app.topology.edges().size(); ++e) {
    const topo::StreamEdge& edge = app.topology.edges()[e];
    std::printf("  %s -> %s: %.3f ms\n",
                app.topology.component(edge.from).name.c_str(),
                app.topology.component(edge.to).name.c_str(), transfer[e]);
  }
  return 0;
}
