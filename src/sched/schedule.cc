#include "sched/schedule.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace drlstream::sched {

Schedule::Schedule(int num_executors, int num_machines)
    : num_machines_(num_machines), machine_of_(num_executors, 0),
      process_of_(num_executors, 0) {
  DRLSTREAM_CHECK_GT(num_executors, 0);
  DRLSTREAM_CHECK_GT(num_machines, 0);
}

void Schedule::Reset(int num_executors, int num_machines) {
  DRLSTREAM_CHECK_GT(num_executors, 0);
  DRLSTREAM_CHECK_GT(num_machines, 0);
  num_machines_ = num_machines;
  machine_of_.assign(num_executors, 0);
  process_of_.assign(num_executors, 0);
}

StatusOr<Schedule> Schedule::FromAssignments(std::vector<int> machine_of,
                                             int num_machines) {
  if (machine_of.empty()) {
    return Status::InvalidArgument("empty assignment vector");
  }
  if (num_machines <= 0) {
    return Status::InvalidArgument("num_machines must be positive");
  }
  for (int m : machine_of) {
    if (m < 0 || m >= num_machines) {
      return Status::OutOfRange("machine index " + std::to_string(m) +
                                " out of [0, " +
                                std::to_string(num_machines) + ")");
    }
  }
  Schedule schedule(static_cast<int>(machine_of.size()), num_machines);
  schedule.machine_of_ = std::move(machine_of);
  return schedule;
}

Schedule Schedule::Random(int num_executors, int num_machines, Rng* rng) {
  Schedule schedule(num_executors, num_machines);
  for (int i = 0; i < num_executors; ++i) {
    schedule.machine_of_[i] = rng->UniformInt(0, num_machines - 1);
  }
  return schedule;
}

Schedule Schedule::RandomPacked(int num_executors, int num_machines, int k,
                                Rng* rng) {
  DRLSTREAM_CHECK(k >= 1 && k <= num_machines);
  const std::vector<int> machines =
      rng->SampleWithoutReplacement(num_machines, k);
  std::vector<int> order(num_executors);
  for (int i = 0; i < num_executors; ++i) order[i] = i;
  rng->Shuffle(&order);
  Schedule schedule(num_executors, num_machines);
  for (int i = 0; i < num_executors; ++i) {
    schedule.machine_of_[order[i]] = machines[i % k];
  }
  return schedule;
}

int Schedule::MachineOf(int executor) const {
  DRLSTREAM_CHECK(executor >= 0 && executor < num_executors());
  return machine_of_[executor];
}

int Schedule::ProcessOf(int executor) const {
  DRLSTREAM_CHECK(executor >= 0 && executor < num_executors());
  return process_of_[executor];
}

void Schedule::AssignProcess(int executor, int process) {
  DRLSTREAM_CHECK(executor >= 0 && executor < num_executors());
  DRLSTREAM_CHECK_GE(process, 0);
  process_of_[executor] = process;
}

bool Schedule::UsesMultipleProcesses() const {
  for (int p : process_of_) {
    if (p != 0) return true;
  }
  return false;
}

void Schedule::Assign(int executor, int machine) {
  DRLSTREAM_CHECK(executor >= 0 && executor < num_executors());
  DRLSTREAM_CHECK(machine >= 0 && machine < num_machines_);
  machine_of_[executor] = machine;
}

std::vector<double> Schedule::ToOneHot() const {
  std::vector<double> flat(
      static_cast<size_t>(num_executors()) * num_machines_, 0.0);
  for (int i = 0; i < num_executors(); ++i) {
    flat[static_cast<size_t>(i) * num_machines_ + machine_of_[i]] = 1.0;
  }
  return flat;
}

std::vector<int> Schedule::ChangedExecutors(const Schedule& other) const {
  DRLSTREAM_CHECK_EQ(num_executors(), other.num_executors());
  std::vector<int> changed;
  for (int i = 0; i < num_executors(); ++i) {
    if (machine_of_[i] != other.machine_of_[i] ||
        process_of_[i] != other.process_of_[i]) {
      changed.push_back(i);
    }
  }
  return changed;
}

int Schedule::DiffCount(const Schedule& other) const {
  return static_cast<int>(ChangedExecutors(other).size());
}

std::vector<int> Schedule::MachineLoads() const {
  std::vector<int> loads(num_machines_, 0);
  for (int m : machine_of_) ++loads[m];
  return loads;
}

int Schedule::UsedMachines() const {
  const std::vector<int> loads = MachineLoads();
  return static_cast<int>(
      std::count_if(loads.begin(), loads.end(), [](int l) { return l > 0; }));
}

std::string Schedule::ToString() const {
  std::ostringstream ss;
  ss << "[";
  for (int i = 0; i < num_executors(); ++i) {
    if (i > 0) ss << " ";
    ss << machine_of_[i];
  }
  ss << "]";
  return ss.str();
}

Schedule RepairToAliveMachines(const Schedule& schedule,
                               const std::vector<uint8_t>& machine_up) {
  DRLSTREAM_CHECK_EQ(static_cast<int>(machine_up.size()),
                     schedule.num_machines());
  Schedule repaired = schedule;
  std::vector<int> loads = schedule.MachineLoads();
  for (int i = 0; i < repaired.num_executors(); ++i) {
    const int machine = repaired.MachineOf(i);
    if (machine_up[machine]) continue;
    int best = -1;
    for (int m = 0; m < repaired.num_machines(); ++m) {
      if (!machine_up[m]) continue;
      if (best < 0 || loads[m] < loads[best]) best = m;
    }
    DRLSTREAM_CHECK_GE(best, 0);  // Validated plans never kill every machine.
    --loads[machine];
    ++loads[best];
    repaired.Assign(i, best);
    repaired.AssignProcess(i, 0);
  }
  return repaired;
}

}  // namespace drlstream::sched
