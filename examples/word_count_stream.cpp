// The paper's word count topology (stream version, Fig. 5), run in
// functional mode: LogStash-style lines from "Alice's Adventures in
// Wonderland" are split into words, counted with fields grouping, and the
// running counts stored into the (in-memory) Mongo database — while the
// discrete-event engine measures real end-to-end tuple processing times.
//
//   ./word_count_stream [--seconds=5] [--seed=7] [--top=10]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "sched/scheduler.h"
#include "sim/cluster_sim.h"
#include "topo/apps.h"

using namespace drlstream;

int main(int argc, char** argv) {
  auto flags_or =
      Flags::Parse(argc, argv, {"help", "seconds", "seed", "top"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  if (flags.GetBool("help", false)) {
    std::printf(
        "usage: word_count_stream [--seconds=5] [--seed=7] [--top=10]\n");
    return 0;
  }
  ApplyProcessFlags(flags);
  const double seconds = flags.GetDouble("seconds", 5.0);
  const int top = flags.GetInt("top", 10);

  topo::AppOptions app_options;
  app_options.functional = true;
  topo::App app = topo::BuildWordCount(app_options);
  topo::ClusterConfig cluster;

  sim::SimOptions sim_options;
  sim_options.functional = true;
  sim_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  sim::ClusterSim simulator(cluster, sim_options);

  // Deploy with one worker process per machine (the paper's constraint).
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

  simulator.RunFor(seconds * 1000.0);

  const sim::SimCounters& counters = simulator.counters();
  std::printf("processed %lld lines (%lld tuples) in %.1f simulated "
              "seconds\n",
              counters.roots_completed, counters.tuples_processed, seconds);
  std::printf("avg end-to-end tuple processing time: %.3f ms\n",
              simulator.WindowAvgLatencyMs());

  // Top words stored in the database (each Record call = one stored update;
  // the stored count equals the word's number of occurrences processed).
  std::vector<std::pair<std::string, int64_t>> counts;
  for (const auto& [word, count] : app.sink->Snapshot("word_counts")) {
    counts.emplace_back(word, count);
  }
  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("\ntop %d words:\n", top);
  for (int i = 0; i < top && i < static_cast<int>(counts.size()); ++i) {
    std::printf("  %-12s %6lld\n", counts[i].first.c_str(),
                static_cast<long long>(counts[i].second));
  }
  return 0;
}
