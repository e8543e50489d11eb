#ifndef DRLSTREAM_SCHED_MODEL_BASED_H_
#define DRLSTREAM_SCHED_MODEL_BASED_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sched/ridge.h"
#include "sched/schedule.h"
#include "sched/scheduler.h"
#include "topo/cluster.h"
#include "topo/topology.h"

namespace drlstream::sched {

/// One observation used to train the model-based approach of Li et al. [25]:
/// a deployed schedule, the workload, and the *detailed* runtime statistics
/// that method requires (per-component processing delays and per-edge
/// transfer delays) along with the measured end-to-end latency.
struct PerfSample {
  std::vector<int> assignments;       // machine of each executor
  std::vector<double> spout_rates;    // per spout component
  double avg_latency_ms = 0.0;        // measured end-to-end
  std::vector<double> component_proc_ms;  // per component (queue + service)
  std::vector<double> edge_transfer_ms;   // per stream edge
};

/// Steady-state tuple flow per component/edge implied by the topology's emit
/// factors and the spout rates — shared by the delay model's features.
struct FlowEstimate {
  std::vector<double> component_rate;  // total tuples/s entering component
  std::vector<double> edge_rate;       // total tuples/s on each edge
};

FlowEstimate EstimateFlows(const topo::Topology& topology,
                           const std::vector<double>& spout_rates);

/// The [25]-style performance model: a supervised regression per component
/// (processing delay from load/contention features) and per edge (transfer
/// delay from placement locality and NIC traffic features), composed along
/// the topology into an end-to-end tuple processing time estimate, with a
/// final linear calibration against measured end-to-end latencies.
class DelayModel {
 public:
  DelayModel(const topo::Topology* topology,
             const topo::ClusterConfig* cluster);

  /// Fits all per-component/per-edge regressions plus the end-to-end
  /// calibration. Requires samples with detailed statistics.
  Status Fit(const std::vector<PerfSample>& samples, double ridge_lambda = 1.0);

  bool fitted() const { return fitted_; }

  /// Predicted average end-to-end tuple processing time for a candidate
  /// schedule under the given workload, in ms.
  double PredictEndToEnd(const Schedule& schedule,
                         const std::vector<double>& spout_rates) const;

  /// Predicted processing delay at one component (ms/tuple).
  double PredictComponent(int component, const Schedule& schedule,
                          const FlowEstimate& flows) const;
  /// Predicted transfer delay on one edge (ms/tuple).
  double PredictEdge(int edge, const Schedule& schedule,
                     const FlowEstimate& flows) const;

  /// Serializes the fitted model (ridge weights, service estimates,
  /// calibration) to a text file / restores it. The topology and cluster
  /// passed at construction must match the saved model's shapes.
  Status Save(const std::string& path) const;
  Status LoadFrom(const std::string& path);

  /// Feature vectors (exposed for tests).
  std::vector<double> ComponentFeatures(int component,
                                        const Schedule& schedule,
                                        const FlowEstimate& flows) const;
  std::vector<double> EdgeFeatures(int edge, const Schedule& schedule,
                                   const FlowEstimate& flows) const;

 private:
  /// Uncalibrated estimate: critical (max-delay) root-to-sink path through
  /// the component/edge delay predictions.
  double RawEndToEnd(const Schedule& schedule,
                     const std::vector<double>& spout_rates) const;

  /// Capacity guard: penalty (ms) for machines whose estimated utilization
  /// (from flows and the per-component service-time estimates measured
  /// during training) exceeds ~90% — the predictive scheduler of [25]
  /// respects machine capacity when assigning threads.
  double OverloadPenalty(const Schedule& schedule,
                         const FlowEstimate& flows) const;

  const topo::Topology* topology_;
  const topo::ClusterConfig* cluster_;
  std::vector<RidgeRegression> component_models_;
  std::vector<RidgeRegression> edge_models_;
  /// Per-component uncontended service-time estimate (ms), from the fastest
  /// windows observed during training.
  std::vector<double> service_estimate_ms_;
  double calibration_scale_ = 1.0;
  double calibration_bias_ = 0.0;
  bool fitted_ = false;
};

/// Options controlling the model-guided assignment search.
struct ModelBasedOptions {
  /// Full passes of best-improvement local search over all (executor,
  /// machine) moves; each pass moves at most one executor.
  int max_passes = 10;
};

/// The state-of-the-art baseline ("Model-based" in the paper's figures):
/// greedy + local-search assignment under the guidance of the fitted
/// prediction model, mirroring [25]'s predictive scheduling algorithm. Like
/// [25] it refines balanced assignments only (the round-robin spread and
/// the deployed schedule): far-from-balanced starts land where the fitted
/// model extrapolates poorly.
class ModelBasedScheduler : public Scheduler {
 public:
  ModelBasedScheduler(const DelayModel* model, ModelBasedOptions options = {});

  std::string name() const override { return "Model-based"; }

  StatusOr<Schedule> ComputeSchedule(const SchedulingContext& context) override;

 private:
  /// Best-improvement local search from `start`; returns the locally optimal
  /// schedule and its predicted latency.
  std::pair<Schedule, double> LocalSearch(
      Schedule start, const std::vector<double>& spout_rates) const;

  const DelayModel* model_;
  ModelBasedOptions options_;
};

}  // namespace drlstream::sched

#endif  // DRLSTREAM_SCHED_MODEL_BASED_H_
