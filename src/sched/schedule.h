#ifndef DRLSTREAM_SCHED_SCHEDULE_H_
#define DRLSTREAM_SCHED_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace drlstream::sched {

/// A scheduling solution X = <x_ij>: the assignment of each of N executors
/// (threads) to one of M machines (paper Section 3.2). Per the paper's
/// design, all executors of the topology placed on a machine share the one
/// worker process of that machine, so N -> M fully determines the placement.
class Schedule {
 public:
  /// All executors initially on machine 0.
  Schedule(int num_executors, int num_machines);

  /// Builds from an assignment vector: machine_of[i] = machine of executor i.
  static StatusOr<Schedule> FromAssignments(std::vector<int> machine_of,
                                            int num_machines);

  /// Uniformly random assignment (used to collect offline training samples).
  static Schedule Random(int num_executors, int num_machines, Rng* rng);

  /// Balanced random packing: executors are dealt round-robin, in random
  /// order, over `k` randomly chosen machines. Offline collection mixes
  /// these with uniform assignments so the training data covers the
  /// concentrated region of the solution space where good schedules live.
  static Schedule RandomPacked(int num_executors, int num_machines, int k,
                               Rng* rng);

  int num_executors() const { return static_cast<int>(machine_of_.size()); }
  int num_machines() const { return num_machines_; }

  /// Re-initializes in place to the constructed state (all executors on
  /// machine 0, process 0), reusing the existing storage: callers that hold
  /// a Schedule across solves (e.g. the K-NN solver's reusable result) get
  /// a fresh schedule without reallocating.
  void Reset(int num_executors, int num_machines);

  int MachineOf(int executor) const;
  void Assign(int executor, int machine);

  /// Worker process of the executor on its machine. The paper's schedulers
  /// keep one process per machine (process 0, the default); Storm's default
  /// scheduler spreads executors over multiple pre-configured processes.
  int ProcessOf(int executor) const;
  void AssignProcess(int executor, int process);
  /// True if any executor is outside process 0.
  bool UsesMultipleProcesses() const;

  const std::vector<int>& assignments() const { return machine_of_; }

  /// Flattened N x M one-hot encoding (the X part of the DRL state).
  std::vector<double> ToOneHot() const;

  /// Executors whose machine differs from `other` (same N required) — the
  /// set the custom scheduler actually migrates on deployment.
  std::vector<int> ChangedExecutors(const Schedule& other) const;
  int DiffCount(const Schedule& other) const;

  /// Number of executors per machine.
  std::vector<int> MachineLoads() const;
  /// Number of machines hosting at least one executor.
  int UsedMachines() const;

  /// Tenant this solution belongs to on a shared cluster (tenant-scoped
  /// executor ids: executor i is the i-th executor of *this tenant's*
  /// topology). 0 — the only tenant — in single-topology runs. Carried as
  /// routing metadata; deliberately not part of equality or distance, which
  /// compare the placements themselves.
  int tenant() const { return tenant_; }
  void set_tenant(int tenant) { tenant_ = tenant; }

  bool operator==(const Schedule& other) const {
    return num_machines_ == other.num_machines_ &&
           machine_of_ == other.machine_of_ &&
           process_of_ == other.process_of_;
  }

  std::string ToString() const;

 private:
  int num_machines_;
  int tenant_ = 0;
  std::vector<int> machine_of_;
  std::vector<int> process_of_;
};

/// Emergency repair: every executor assigned to a dead machine (mask 0) is
/// moved to the least-loaded live machine (ties -> lowest index), into
/// process 0 — the deterministic fallback placement the control loop
/// deploys when a scheduler cannot produce a feasible solution after a
/// crash. `machine_up` must match the schedule's machine count and allow at
/// least one machine; executors already on live machines are untouched.
Schedule RepairToAliveMachines(const Schedule& schedule,
                               const std::vector<uint8_t>& machine_up);

}  // namespace drlstream::sched

#endif  // DRLSTREAM_SCHED_SCHEDULE_H_
