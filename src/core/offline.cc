#include "core/offline.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace drlstream::core {
namespace {

obs::Counter* SamplesCollected() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Get().counter("offline.samples");
  return counter;
}

obs::Histogram* CollectSampleUs() {
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Get().histogram("offline.collect_sample_us");
  return histogram;
}

}  // namespace

StatusOr<rl::TransitionDatabase> CollectOfflineSamples(
    SchedulingEnvironment* env, const CollectionOptions& options) {
  if (options.num_samples <= 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  if (options.workload_factor_min > options.workload_factor_max ||
      options.workload_factor_min <= 0.0) {
    return Status::InvalidArgument("bad workload factor range");
  }
  Rng rng(options.seed);
  rl::TransitionDatabase db;
  const int n = env->num_executors();
  const int m = env->num_machines();

  for (int i = 0; i < options.num_samples; ++i) {
    obs::ScopedPhase phase(CollectSampleUs(), "collect_sample");
    SamplesCollected()->Add(1);
    rl::State state = env->CurrentState();

    if (options.workload_factor_max > options.workload_factor_min) {
      DRLSTREAM_RETURN_NOT_OK(env->SetWorkloadFactor(rng.Uniform(
          options.workload_factor_min, options.workload_factor_max)));
    }

    sched::Schedule action(n, m);
    int move_index = -1;
    if (options.mode == CollectionMode::kFullRandom) {
      if (rng.Bernoulli(0.5)) {
        action = sched::Schedule::Random(n, m, &rng);
      } else {
        // Balanced random packing over a random machine count, so the
        // database covers concentrated solutions too.
        action = sched::Schedule::RandomPacked(
            n, m, rng.UniformInt(2, m), &rng);
      }
    } else {
      auto current_or =
          sched::Schedule::FromAssignments(state.assignments, m);
      DRLSTREAM_CHECK(current_or.ok());
      action = std::move(*current_or);
      const int executor = rng.UniformInt(0, n - 1);
      const int machine = rng.UniformInt(0, m - 1);
      action.Assign(executor, machine);
      move_index = executor * m + machine;
    }

    DRLSTREAM_ASSIGN_OR_RETURN(const double latency,
                               env->DeployAndMeasure(action));

    rl::TransitionDatabase::Record record;
    record.transition.state = std::move(state);
    record.transition.action_assignments = action.assignments();
    record.transition.move_index = move_index;
    record.transition.reward = -std::min(latency, options.reward_cap_ms);
    record.transition.next_state = env->CurrentState();
    if (options.collect_details) {
      record.component_proc_ms = env->last_component_proc_ms();
      record.edge_transfer_ms = env->last_edge_transfer_ms();
    }
    db.Add(std::move(record));
  }
  return db;
}

}  // namespace drlstream::core
