#include "core/scenario.h"

#include <fstream>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "workload/registry.h"

namespace drlstream::core {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

StatusOr<ScenarioRunResult> MeasureScenarioSeries(
    const topo::Topology& topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, sched::Scheduler* scheduler,
    const ScenarioOptions& options) {
  DRLSTREAM_CHECK(scheduler != nullptr);
  const SeriesOptions& series_opts = options.series;
  if (series_opts.points <= 0) {
    return Status::InvalidArgument("points must be positive");
  }
  if (series_opts.measure_window_ms > series_opts.minute_ms) {
    return Status::InvalidArgument("measure window exceeds the minute");
  }

  std::unique_ptr<workload::WorkloadGenerator> owned;
  const workload::WorkloadGenerator* generator = options.generator;
  if (generator == nullptr && !options.workload_spec.empty()) {
    DRLSTREAM_ASSIGN_OR_RETURN(
        owned, workload::ParseWorkloadSpec(options.workload_spec,
                                           options.workload_seed));
    generator = owned.get();
  }

  // The scheduler under test takes over at reported time 0.
  DRLSTREAM_ASSIGN_OR_RETURN(
      const std::unique_ptr<sim::ClusterSim> simulator,
      StartSeriesSimulator(topology, workload, cluster, series_opts,
                           sim::FaultPlan(), generator));
  simulator->RunFor(series_opts.pre_roll_ms);

  ScenarioRunResult result;
  result.scheduler = scheduler->name();
  result.workload = generator != nullptr ? generator->Describe() : "none";
  result.points.reserve(series_opts.points);
  result.series.reserve(series_opts.points);
  const std::vector<int> spouts = topology.SpoutComponents();
  double joules_at_point = simulator->TotalJoules();

  for (int p = 0; p < series_opts.points; ++p) {
    // The scheduler observes the generator-modulated rates and may adjust
    // its solution once per reported minute.
    sched::SchedulingContext context;
    context.topology = &topology;
    context.cluster = &cluster;
    context.spout_rates = simulator->TenantEffectiveSpoutRates(0);
    const sched::Schedule current = simulator->TenantSchedule(0);
    context.current = &current;
    DRLSTREAM_ASSIGN_OR_RETURN(sched::Schedule next,
                               scheduler->ComputeSchedule(context));
    ScenarioPointStats point;
    point.executors_moved = next.DiffCount(current);
    if (point.executors_moved > 0) {
      DRLSTREAM_RETURN_NOT_OK(simulator->Migrate(0, next));
    }
    simulator->RunFor(series_opts.minute_ms - series_opts.measure_window_ms);
    simulator->ResetWindow();
    simulator->RunFor(series_opts.measure_window_ms);

    point.time_ms = simulator->now_ms();
    point.avg_latency_ms = simulator->WindowAvgLatencyMs();
    if (generator != nullptr && !spouts.empty()) {
      double sum = 0.0;
      for (int component : spouts) {
        sum += simulator->TenantRateMultiplier(0, component);
      }
      point.rate_multiplier = sum / static_cast<double>(spouts.size());
    }
    const double joules_now = simulator->TotalJoules();
    point.joules = joules_now - joules_at_point;
    point.avg_power_watts = point.joules / (series_opts.minute_ms / 1000.0);
    joules_at_point = joules_now;
    for (int m = 0; m < cluster.num_machines; ++m) {
      if (simulator->MachineAsleep(m)) ++point.machines_asleep;
    }
    result.series.push_back(point.avg_latency_ms);
    result.points.push_back(point);
  }

  result.total_joules = simulator->TotalJoules();
  const double total_ms = simulator->now_ms();
  result.avg_power_watts =
      total_ms > 0.0 ? result.total_joules / (total_ms / 1000.0) : 0.0;
  result.final_counters = simulator->counters();
  return result;
}

Status SaveScenarioRunJson(const std::string& path,
                           const ScenarioRunResult& result) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out.precision(17);
  out << "{\n";
  out << "  \"scheduler\": \"" << JsonEscape(result.scheduler) << "\",\n";
  out << "  \"workload\": \"" << JsonEscape(result.workload) << "\",\n";
  out << "  \"total_joules\": " << result.total_joules << ",\n";
  out << "  \"avg_power_watts\": " << result.avg_power_watts << ",\n";
  out << "  \"points\": [\n";
  for (size_t i = 0; i < result.points.size(); ++i) {
    const ScenarioPointStats& point = result.points[i];
    out << "    {\"time_ms\": " << point.time_ms << ", "
        << "\"avg_latency_ms\": " << point.avg_latency_ms << ", "
        << "\"rate_multiplier\": " << point.rate_multiplier << ", "
        << "\"joules\": " << point.joules << ", "
        << "\"avg_power_watts\": " << point.avg_power_watts << ", "
        << "\"machines_asleep\": " << point.machines_asleep << ", "
        << "\"executors_moved\": " << point.executors_moved << "}"
        << (i + 1 < result.points.size() ? "," : "") << '\n';
  }
  const sim::SimCounters& c = result.final_counters;
  out << "  ],\n  \"counters\": {"
      << "\"roots_emitted\": " << c.roots_emitted << ", "
      << "\"roots_completed\": " << c.roots_completed << ", "
      << "\"roots_failed\": " << c.roots_failed << ", "
      << "\"tuples_processed\": " << c.tuples_processed << ", "
      << "\"migrations\": " << c.migrations << ", "
      << "\"energy_joules\": " << c.energy_joules << "}\n";
  out << "}\n";
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace drlstream::core
