#ifndef DRLSTREAM_SCHED_ENERGY_AWARE_H_
#define DRLSTREAM_SCHED_ENERGY_AWARE_H_

#include "sched/scheduler.h"

namespace drlstream::sched {

/// Consolidation baseline for the energy experiments: packs executors onto
/// as few machines as possible (slots_per_machine each, in machine-index
/// order, all in one worker process) so the remaining machines go hostless
/// and — once the power model's idle window elapses — drop to deep sleep,
/// trading latency (CPU contention) for joules.
class EnergyAwareScheduler : public Scheduler {
 public:
  std::string name() const override { return "EnergyAware"; }

  StatusOr<Schedule> ComputeSchedule(const SchedulingContext& context) override;
};

}  // namespace drlstream::sched

#endif  // DRLSTREAM_SCHED_ENERGY_AWARE_H_
