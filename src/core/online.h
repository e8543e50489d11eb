#ifndef DRLSTREAM_CORE_ONLINE_H_
#define DRLSTREAM_CORE_ONLINE_H_

#include <vector>

#include "common/status.h"
#include "core/environment.h"
#include "rl/policy.h"
#include "sched/schedule.h"

namespace drlstream::core {

/// One disruption the online loop absorbed instead of aborting: a decision
/// epoch that ran with machines down, rescheduled orphaned executors, or
/// fell back to the repaired current schedule after the policy failed.
struct DisruptionRecord {
  int epoch = 0;
  double time_ms = 0.0;          // simulated time of the decision
  int dead_machines = 0;
  /// Executors the proposed action placed on dead machines, moved to live
  /// ones by the emergency repair before deployment.
  int orphans_rescheduled = 0;
  /// Action-selection retries consumed (bounded backoff).
  int retries = 0;
  /// The policy never produced an action; the current schedule (repaired
  /// onto live machines) was deployed instead.
  bool used_fallback = false;
};

/// Outcome of an online learning run: the per-epoch rewards (the series of
/// Figs. 7/9/11), the trained policy's final solution, and the disruptions
/// absorbed along the way (empty on a healthy run).
struct OnlineResult {
  std::vector<double> rewards;
  sched::Schedule final_schedule;
  std::vector<DisruptionRecord> disruptions;

  OnlineResult() : final_schedule(1, 1) {}
};

struct OnlineOptions {
  int epochs = 500;
  /// Latency clamp applied before negation into the reward (see
  /// CollectionOptions::reward_cap_ms).
  double reward_cap_ms = 50.0;
  /// Gradient updates per decision epoch (the paper performs one; more
  /// updates per epoch speed up convergence on the freshly collected data).
  int train_steps_per_epoch = 1;
  uint64_t seed = 31;
};

/// The online deep learning control loop (Algorithm 1 lines 5-19), generic
/// over the policy: per decision epoch, select an action with exploration
/// (epsilon decays linearly from 0.8 to 0.05 over the first 70% of the
/// epochs), deploy it, observe the reward, store the transition, and train
/// on a minibatch. Action-selection failures degrade (up to 3 retries, retry k
/// after k * 500 ms of simulated time, then fall back to the current
/// schedule) and proposed actions are repaired off dead machines before
/// deployment, so the run survives machine failures; every such event is
/// tallied in OnlineResult::disruptions. The run ends by deploying the
/// policy's FinalSchedule and keeping it only if its measured latency does
/// not regress against the best schedule measured during learning. The run
/// continues on `env`'s live simulator, so calling RunOnline again with
/// another policy hot-swaps the scheduling algorithm without restarting the
/// stream system (design feature 4 of Section 3.1).
StatusOr<OnlineResult> RunOnline(rl::Policy* policy,
                                 SchedulingEnvironment* env,
                                 const OnlineOptions& options);

}  // namespace drlstream::core

#endif  // DRLSTREAM_CORE_ONLINE_H_
