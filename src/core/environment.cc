#include "core/environment.h"

#include <utility>

#include "common/logging.h"

namespace drlstream::core {

SchedulingEnvironment::SchedulingEnvironment(
    const topo::Topology* topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, sim::SimOptions sim_options,
    MeasurementConfig measurement)
    : topology_(topology), workload_(workload), cluster_(cluster),
      sim_options_(sim_options), measurement_(measurement),
      next_sim_seed_(sim_options.seed) {
  DRLSTREAM_CHECK(topology != nullptr);
  DRLSTREAM_CHECK_GT(measurement.num_measurements, 0);
}

Status SchedulingEnvironment::InstallFaultPlan(const sim::FaultPlan& plan) {
  DRLSTREAM_RETURN_NOT_OK(plan.Validate(cluster_.num_machines));
  fault_plan_ = plan;
  return Status::OK();
}

Status SchedulingEnvironment::Reset(const sched::Schedule& initial) {
  sim::SimOptions options = sim_options_;
  options.seed = next_sim_seed_++;
  simulator_.reset();
  factor_generator_.reset();
  auto simulator = std::make_unique<sim::ClusterSim>(cluster_, options);
  if (!fault_plan_.empty()) {
    DRLSTREAM_RETURN_NOT_OK(simulator->InstallFaultPlan(fault_plan_));
  }
  DRLSTREAM_RETURN_NOT_OK(
      simulator->AddTenant(topology_, &workload_, initial).status());
  DRLSTREAM_RETURN_NOT_OK(simulator->Start());
  simulator_ = std::move(simulator);
  return Status::OK();
}

StatusOr<double> SchedulingEnvironment::DeployAndMeasure(
    const sched::Schedule& schedule) {
  if (simulator_ == nullptr) {
    return Status::FailedPrecondition("environment not reset");
  }
  DRLSTREAM_RETURN_NOT_OK(simulator_->Migrate(0, schedule));
  simulator_->RunFor(measurement_.stabilize_ms);

  double weighted_sum = 0.0;
  double total_count = 0.0;
  std::vector<double> proc_acc(topology_->num_components(), 0.0);
  std::vector<double> edge_acc(topology_->edges().size(), 0.0);
  for (int k = 0; k < measurement_.num_measurements; ++k) {
    simulator_->ResetWindow();
    simulator_->RunFor(measurement_.measurement_interval_ms);
    const double count =
        static_cast<double>(simulator_->window_latency().count());
    weighted_sum += simulator_->WindowAvgLatencyMs() * count;
    total_count += count;
    const std::vector<double> proc =
        simulator_->TenantWindowComponentProcMs(0);
    const std::vector<double> edges =
        simulator_->TenantWindowEdgeTransferMs(0);
    for (size_t i = 0; i < proc.size(); ++i) proc_acc[i] += proc[i];
    for (size_t i = 0; i < edges.size(); ++i) edge_acc[i] += edges[i];
  }
  for (double& v : proc_acc) v /= measurement_.num_measurements;
  for (double& v : edge_acc) v /= measurement_.num_measurements;
  last_component_proc_ = std::move(proc_acc);
  last_edge_transfer_ = std::move(edge_acc);

  if (total_count == 0.0) {
    // Nothing completed in the window: the system is hopelessly backlogged
    // under this schedule. Report a penalty latency proportional to the
    // measurement horizon so learning can still rank it.
    return measurement_.stabilize_ms +
           measurement_.num_measurements * measurement_.measurement_interval_ms;
  }
  return weighted_sum / total_count;
}

rl::State SchedulingEnvironment::CurrentState() const {
  DRLSTREAM_CHECK(simulator_ != nullptr);
  rl::State state;
  state.assignments = simulator_->TenantSchedule(0).assignments();
  state.spout_rates = simulator_->TenantEffectiveSpoutRates(0);
  if (!fault_plan_.empty()) {
    state.machine_up = simulator_->MachineUpMask();
  }
  return state;
}

std::vector<uint8_t> SchedulingEnvironment::MachineUpMask() const {
  if (simulator_ == nullptr) {
    return std::vector<uint8_t>(cluster_.num_machines, 1);
  }
  return simulator_->MachineUpMask();
}

Status SchedulingEnvironment::SetWorkloadFactor(double factor) {
  if (simulator_ == nullptr) {
    return Status::FailedPrecondition("environment not reset");
  }
  DRLSTREAM_ASSIGN_OR_RETURN(std::unique_ptr<workload::WorkloadGenerator> gen,
                             workload::MakeConstant(factor));
  // The simulator lets go of the old generator before it is freed.
  DRLSTREAM_RETURN_NOT_OK(simulator_->SetTenantWorkloadGenerator(0, gen.get()));
  factor_generator_ = std::move(gen);
  return Status::OK();
}

const sched::Schedule& SchedulingEnvironment::current_schedule() const {
  DRLSTREAM_CHECK(simulator_ != nullptr);
  return simulator_->TenantSchedule(0);
}

}  // namespace drlstream::core
