#include "sched/energy_aware.h"

namespace drlstream::sched {

StatusOr<Schedule> EnergyAwareScheduler::ComputeSchedule(
    const SchedulingContext& context) {
  if (context.topology == nullptr || context.cluster == nullptr) {
    return Status::InvalidArgument("energy-aware requires topology + cluster");
  }
  const int n = context.topology->num_executors();
  const int m = context.cluster->num_machines;
  if (n <= 0 || m <= 0) {
    return Status::InvalidArgument("empty topology or cluster");
  }
  std::vector<int> alive;
  alive.reserve(m);
  topo::AliveMachineList(context.machine_up, m, &alive);
  if (alive.empty()) {
    return Status::FailedPrecondition("no machine is up to schedule onto");
  }
  const int live = static_cast<int>(alive.size());
  int cap = context.cluster->slots_per_machine;
  // Too many executors for the packing cap: spread evenly instead of
  // failing, still leaving no machine fractionally used below the others.
  if (n > cap * live) cap = (n + live - 1) / live;
  Schedule schedule(n, m);
  schedule.set_tenant(context.tenant);
  for (int i = 0; i < n; ++i) {
    schedule.Assign(i, alive[i / cap]);
    schedule.AssignProcess(i, 0);
  }
  return schedule;
}

}  // namespace drlstream::sched
