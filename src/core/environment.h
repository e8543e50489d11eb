#ifndef DRLSTREAM_CORE_ENVIRONMENT_H_
#define DRLSTREAM_CORE_ENVIRONMENT_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "rl/state.h"
#include "sched/schedule.h"
#include "sim/cluster_sim.h"
#include "sim/faults.h"
#include "topo/apps.h"
#include "topo/cluster.h"
#include "topo/topology.h"
#include "topo/workload.h"
#include "workload/generator.h"

namespace drlstream::core {

/// The framework's data-collection protocol (Section 3.1): after deploying a
/// scheduling solution, wait until the system re-stabilizes, then average
/// several consecutive measurements of the average tuple processing time.
/// The paper waits a few minutes and averages 5 measurements at 10-second
/// intervals; training runs shrink these windows (the simulator is
/// stationary, so shorter windows preserve ordering).
struct MeasurementConfig {
  double stabilize_ms = 1500.0;
  int num_measurements = 5;
  double measurement_interval_ms = 400.0;
};

/// The RL environment: wraps the DSDPS simulator behind the exact interface
/// the paper's DRL agent has to Storm — deploy a scheduling solution, wait,
/// and read back the measured average tuple processing time (negated as the
/// reward). Also exposes the detailed per-component statistics the
/// model-based baseline trains on. The topology runs as tenant 0 of a
/// private ClusterSim.
class SchedulingEnvironment {
 public:
  SchedulingEnvironment(const topo::Topology* topology,
                        const topo::Workload& workload,
                        const topo::ClusterConfig& cluster,
                        sim::SimOptions sim_options,
                        MeasurementConfig measurement);

  /// Installs a fault plan applied to every subsequently Reset() simulator
  /// (validated against the cluster). Pass an empty plan to clear.
  Status InstallFaultPlan(const sim::FaultPlan& plan);

  /// Starts a fresh simulator with `initial` deployed (and the installed
  /// fault plan, if any). On failure the environment is left un-reset.
  Status Reset(const sched::Schedule& initial);

  /// Deploys `schedule` (incremental migration), waits for stabilization,
  /// and returns the averaged measured latency in ms.
  StatusOr<double> DeployAndMeasure(const sched::Schedule& schedule);

  /// The DRL state s = (X, w) right now, w being the tenant's effective
  /// spout rates (plus the machine-up mask when a fault plan is active, so
  /// agents mask dead machines out of the feasible action set).
  rl::State CurrentState() const;

  /// Per-machine up flags from the live simulator (all 1 before Reset).
  std::vector<uint8_t> MachineUpMask() const;

  /// Multiplies the base spout rates by `factor` from the current
  /// simulated time on, replacing any earlier factor (sample collection
  /// randomizes the workload this way): installs a `constant` generator on
  /// the live simulator's tenant 0. The factor ends with that simulator; a
  /// Reset starts at base rates. FailedPrecondition before Reset.
  Status SetWorkloadFactor(double factor);

  /// Detailed statistics from the last DeployAndMeasure (averaged over its
  /// measurement windows).
  const std::vector<double>& last_component_proc_ms() const {
    return last_component_proc_;
  }
  const std::vector<double>& last_edge_transfer_ms() const {
    return last_edge_transfer_;
  }

  /// The live simulator (null before a successful Reset); the topology is
  /// its tenant 0.
  sim::ClusterSim* simulator() { return simulator_.get(); }
  const topo::Topology& topology() const { return *topology_; }
  const topo::ClusterConfig& cluster() const { return cluster_; }
  const sched::Schedule& current_schedule() const;
  int num_executors() const { return topology_->num_executors(); }
  int num_machines() const { return cluster_.num_machines; }

 private:
  const topo::Topology* topology_;
  const topo::Workload workload_;  // owned copy: the simulators read it
  topo::ClusterConfig cluster_;
  sim::SimOptions sim_options_;
  MeasurementConfig measurement_;
  sim::FaultPlan fault_plan_;
  std::unique_ptr<sim::ClusterSim> simulator_;
  /// The generator SetWorkloadFactor installed on `simulator_`, if any.
  std::unique_ptr<workload::WorkloadGenerator> factor_generator_;
  std::vector<double> last_component_proc_;
  std::vector<double> last_edge_transfer_;
  uint64_t next_sim_seed_;
};

}  // namespace drlstream::core

#endif  // DRLSTREAM_CORE_ENVIRONMENT_H_
