#ifndef DRLSTREAM_CORE_OFFLINE_H_
#define DRLSTREAM_CORE_OFFLINE_H_

#include "common/status.h"
#include "core/environment.h"
#include "rl/transition_db.h"

namespace drlstream::core {

/// How offline training samples are generated (Section 3.2: "a model-free
/// method that deploys a randomly-generated scheduling solution and collects
/// the corresponding average tuple processing time").
enum class CollectionMode {
  /// Each step deploys a fresh uniformly random full schedule — the action
  /// space of the actor-critic method.
  kFullRandom,
  /// Each step moves one random executor to one random machine — the
  /// restricted action space of the DQN-based method.
  kSingleMoveRandom,
};

struct CollectionOptions {
  int num_samples = 500;
  CollectionMode mode = CollectionMode::kFullRandom;
  uint64_t seed = 2024;
  /// Record detailed per-component statistics (needed by the model-based
  /// baseline; mirrors that method's higher collection overhead).
  bool collect_details = true;
  /// Randomize the workload factor per sample within [min, max] so the
  /// agents observe the `w` part of the state varying.
  double workload_factor_min = 1.0;
  double workload_factor_max = 1.0;
  /// Latencies are clamped to this cap before negation into the reward, so
  /// pathological (backlogged) schedules do not blow up the critic targets.
  double reward_cap_ms = 50.0;
};

/// Deploys random solutions on the environment and records the resulting
/// transition samples into a database. The environment must have been
/// Reset(). Transitions chain: s_{t+1} of one sample is s_t of the next.
StatusOr<rl::TransitionDatabase> CollectOfflineSamples(
    SchedulingEnvironment* env, const CollectionOptions& options);

}  // namespace drlstream::core

#endif  // DRLSTREAM_CORE_OFFLINE_H_
