#ifndef DRLSTREAM_CORE_ARTIFACTS_H_
#define DRLSTREAM_CORE_ARTIFACTS_H_

#include <string>

#include "common/status.h"
#include "core/experiment.h"

namespace drlstream::core {

/// Persistence for trained pipelines so the per-figure benchmark binaries
/// can share one training run: the first bench to need an application
/// trains and saves; later benches load.
///
/// Artifacts are keyed by (application, budget) and stored as small text
/// files under `dir`.

/// True when a complete artifact set exists for the key.
bool ArtifactsExist(const std::string& dir, const std::string& key);

/// Saves the trained methods (schedules, learning curves, network weights,
/// delay model) under `dir`/`key`.*
Status SaveTrainedMethods(const std::string& dir, const std::string& key,
                          const TrainedMethods& methods);

/// Restores a trained-methods bundle. The topology/workload/cluster must be
/// the same as when the bundle was saved. Replay buffers and transition
/// databases are not persisted (they are not needed to deploy solutions or
/// plot learning curves).
StatusOr<TrainedMethods> LoadTrainedMethods(
    const std::string& dir, const std::string& key,
    const topo::Topology* topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, const PipelineConfig& config);

/// Trains (or loads, when cached) all methods for an application. `key`
/// should encode the application and budget, e.g. "cq_large_s500_e400".
StatusOr<TrainedMethods> TrainAllMethodsCached(
    const std::string& dir, const std::string& key,
    const topo::Topology* topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, const PipelineConfig& config);

/// Writes a series run to `path` as one JSON document (no JSON library in
/// the repo): "scheduler", "workload", "total_joules", "avg_power_watts",
/// "series_ms" (per-minute latency), "points" (one object per minute with
/// the SeriesPoint fields), "phases" and "timeline" (empty without a fault
/// plan), "counters" (final roots emitted/completed/failed, tuples
/// processed/dropped, migrations, faults applied, energy_joules),
/// "final_machine_up", "final_machine_executors",
/// "executors_on_dead_machines", and "metrics" when the obs registry was
/// enabled.
Status SaveSeriesJson(const std::string& path, const SeriesResult& result);

}  // namespace drlstream::core

#endif  // DRLSTREAM_CORE_ARTIFACTS_H_
