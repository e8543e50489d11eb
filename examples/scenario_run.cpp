// Workload-scenario comparison: run registry policies through a pluggable
// load scenario and compare them on latency AND energy. Machines with no
// hosted executors drop to deep sleep after --sleep-after-ms, so the
// energy-aware consolidation baseline saves joules the spread-everything
// round-robin baseline cannot.
//
//   ./scenario_run [--workload=diurnal:period_ms=24000,amplitude=0.4]
//       [--policies=round-robin,energy-aware] [--points=20]
//       [--minute-ms=6000] [--sleep-after-ms=5000] [--seed=7]
//       [--json-out=scenario]          # writes scenario.<policy>.json
//
// Scenario specs: constant | diurnal | flash_crowd | drift | trace_replay
// | compose (see src/workload/registry.cc for parameters).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/artifacts.h"
#include "core/drl_scheduler.h"
#include "core/experiment.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"
#include "workload/registry.h"

using namespace drlstream;

namespace {

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(
      argc, argv,
      {"json-out", "measure-ms", "minute-ms", "points", "policies", "seed",
       "sleep-after-ms", "workload"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  ApplyProcessFlags(flags);

  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  // Opt into machine deep sleep so consolidation pays off in joules.
  cluster.machine.sleep_after_idle_ms = flags.GetDouble("sleep-after-ms", 5000.0);

  const std::string workload_spec =
      flags.GetString("workload", "diurnal:period_ms=24000,amplitude=0.4");
  const uint64_t workload_seed =
      static_cast<uint64_t>(flags.GetInt("seed", 7));
  auto generator = workload::ParseWorkloadSpec(workload_spec, workload_seed);
  if (!generator.ok()) {
    std::fprintf(stderr, "--workload: %s\n",
                 generator.status().ToString().c_str());
    std::fprintf(stderr, "registered scenarios: %s\n",
                 workload::WorkloadRegistry::Get().KeysLine().c_str());
    return 1;
  }
  std::printf("scenario: %s\n", (*generator)->Describe().c_str());

  core::SeriesSpec spec;
  spec.generator = generator->get();
  spec.series.points = flags.GetInt("points", 20);
  spec.series.minute_ms = flags.GetDouble("minute-ms", 6000.0);
  spec.series.measure_window_ms =
      flags.GetDouble("measure-ms", spec.series.minute_ms / 2.0);
  spec.series.seed = workload_seed + 100;

  const std::vector<std::string> policies =
      SplitCommas(flags.GetString("policies", "round-robin,energy-aware"));
  if (policies.empty()) {
    std::fprintf(stderr, "--policies must name at least one of: %s\n",
                 rl::PolicyRegistry::Get().KeysLine().c_str());
    return 1;
  }
  rl::PolicyContext policy_context;
  policy_context.topology = &app.topology;
  policy_context.cluster = &cluster;

  const std::string json_prefix = flags.GetString("json-out", "");
  struct Row {
    std::string policy;
    double avg_latency_ms = 0.0;
    double joules = 0.0;
    double watts = 0.0;
    int asleep_final = 0;
  };
  std::vector<Row> rows;

  for (const std::string& key : policies) {
    auto policy_or = rl::PolicyRegistry::Get().Create(key, policy_context);
    if (!policy_or.ok()) {
      std::fprintf(stderr, "policy '%s': %s\n", key.c_str(),
                   policy_or.status().ToString().c_str());
      return 1;
    }
    core::PolicyScheduler scheduler(policy_or->get());
    auto run_or = core::RunSeries(app.topology, app.workload, cluster,
                                  &scheduler, spec);
    if (!run_or.ok()) {
      std::fprintf(stderr, "scenario run (%s): %s\n", key.c_str(),
                   run_or.status().ToString().c_str());
      return 1;
    }
    const core::SeriesResult& run = *run_or;

    std::printf("\n== %s ==\n", key.c_str());
    std::printf("  minute   latency_ms   load   watts  asleep  moved\n");
    double latency_sum = 0.0;
    for (size_t p = 0; p < run.points.size(); ++p) {
      const core::SeriesPoint& point = run.points[p];
      std::printf("  %6zu  %10.3f  %5.2fx  %6.1f  %6d  %5d\n", p + 1,
                  point.avg_latency_ms, point.rate_multiplier,
                  point.avg_power_watts, point.machines_asleep,
                  point.executors_moved);
      latency_sum += point.avg_latency_ms;
    }
    Row row;
    row.policy = key;
    row.avg_latency_ms =
        run.points.empty() ? 0.0 : latency_sum / run.points.size();
    row.joules = run.total_joules;
    row.watts = run.avg_power_watts;
    row.asleep_final =
        run.points.empty() ? 0 : run.points.back().machines_asleep;
    rows.push_back(row);

    if (!json_prefix.empty()) {
      const std::string path = json_prefix + "." + key + ".json";
      Status saved = core::SaveSeriesJson(path, run);
      if (!saved.ok()) {
        std::fprintf(stderr, "%s\n", saved.ToString().c_str());
        return 1;
      }
      std::printf("  wrote %s\n", path.c_str());
    }
  }

  std::printf("\nsummary (%d minutes of %s):\n", spec.series.points,
              workload_spec.c_str());
  std::printf("  %-16s %12s %12s %8s %8s\n", "policy", "avg_latency",
              "joules", "watts", "asleep");
  for (const Row& row : rows) {
    std::printf("  %-16s %9.3f ms %10.1f J %7.1f %8d\n", row.policy.c_str(),
                row.avg_latency_ms, row.joules, row.watts, row.asleep_final);
  }
  std::printf("\nthe energy-aware baseline packs executors onto few machines "
              "and lets the rest\nsleep — fewer joules at a latency cost.\n");
  return 0;
}
