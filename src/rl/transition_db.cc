#include "rl/transition_db.h"

namespace drlstream::rl {

std::vector<sched::PerfSample> TransitionDatabase::ToPerfSamples() const {
  std::vector<sched::PerfSample> samples;
  for (const Record& record : records_) {
    if (record.component_proc_ms.empty()) continue;
    sched::PerfSample sample;
    // The statistics were measured while the *action's* schedule was
    // deployed (the next state), under the next state's workload.
    sample.assignments = record.transition.action_assignments;
    sample.spout_rates = record.transition.next_state.spout_rates;
    sample.avg_latency_ms = -record.transition.reward;
    sample.component_proc_ms = record.component_proc_ms;
    sample.edge_transfer_ms = record.edge_transfer_ms;
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace drlstream::rl
