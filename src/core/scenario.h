#ifndef DRLSTREAM_CORE_SCENARIO_H_
#define DRLSTREAM_CORE_SCENARIO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/experiment.h"
#include "workload/generator.h"

namespace drlstream::core {

/// Options for a workload-scenario run: the adaptive per-minute control loop
/// of MeasureAdaptiveSeries driven by a pluggable generator from
/// workload/registry.h instead of a single hard-coded surge.
struct ScenarioOptions {
  SeriesOptions series;
  /// Scenario spec parsed through the WorkloadRegistry, e.g.
  /// "diurnal:period_ms=60000,amplitude=0.4" or
  /// "compose:diurnal+flash_crowd:at_ms=30000". Empty runs the base
  /// workload unmodulated (and `generator` below, if set, wins).
  std::string workload_spec;
  uint64_t workload_seed = 1;
  /// Pre-built generator (not owned; must outlive the run). Overrides
  /// `workload_spec` when non-null.
  const workload::WorkloadGenerator* generator = nullptr;
};

/// Per-reported-minute statistics of a scenario run: the latency the
/// scheduler delivered, the load the generator applied, and the energy the
/// cluster drew while doing it.
struct ScenarioPointStats {
  double time_ms = 0.0;          // simulated time at the end of the minute
  double avg_latency_ms = 0.0;   // completion-weighted, measured window
  /// Mean generator multiplier over the spout components at time_ms.
  double rate_multiplier = 1.0;
  double joules = 0.0;           // energy drawn during this minute
  double avg_power_watts = 0.0;  // joules / minute wall time
  int machines_asleep = 0;       // deep-sleep machines at time_ms
  int executors_moved = 0;       // migrations the scheduler triggered
};

/// Everything a scenario run produces. `series` repeats the per-point
/// latencies in the MeasureLatencySeries shape so existing plotting keeps
/// working.
struct ScenarioRunResult {
  std::string scheduler;
  std::string workload;  // generator Describe(), "none" when unmodulated
  std::vector<ScenarioPointStats> points;
  std::vector<double> series;
  double total_joules = 0.0;
  double avg_power_watts = 0.0;  // whole run, pre-roll included
  sim::SimCounters final_counters;
};

/// Runs `scheduler` adaptively (re-computing its solution each reported
/// minute, observing the generator-modulated rates) under the scenario and
/// returns the latency *and* energy series. Deterministic for a fixed
/// (seed, spec) pair at any thread count.
StatusOr<ScenarioRunResult> MeasureScenarioSeries(
    const topo::Topology& topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, sched::Scheduler* scheduler,
    const ScenarioOptions& options);

/// Writes a scenario run to `path` as a single JSON document (same
/// no-JSON-library style as SaveFaultRunJson).
Status SaveScenarioRunJson(const std::string& path,
                           const ScenarioRunResult& result);

}  // namespace drlstream::core

#endif  // DRLSTREAM_CORE_SCENARIO_H_
