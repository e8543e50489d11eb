#include "core/online.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/off_policy_trainer.h"

namespace drlstream::core {
namespace {

/// Registry handles for the online control loop. The counters mirror the
/// DisruptionRecord tallies accumulated in OnlineResult::disruptions (the
/// vector stays the source of truth for callers).
struct OnlineMetrics {
  obs::Histogram* epoch_latency_ms;
  obs::Histogram* deploy_us;
  obs::Histogram* train_loss;  // TrainStep()'s critic / Q minibatch loss
  obs::Gauge* epsilon;         // the exploration rate of the latest epoch
  obs::Counter* epochs;
  obs::Counter* disruptions;
  obs::Counter* action_retries;
  obs::Counter* fallbacks;
  obs::Counter* orphans_rescheduled;
};

const OnlineMetrics& Metrics() {
  static const OnlineMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
    return OnlineMetrics{
        reg.histogram("online.epoch_latency_ms"),
        reg.histogram("phase.deploy_us"),
        reg.histogram("online.train_loss"),
        reg.gauge("online.epsilon"),
        reg.counter("online.epochs"),
        reg.counter("online.disruptions"),
        reg.counter("online.action_retries"),
        reg.counter("online.fallbacks"),
        reg.counter("online.orphans_rescheduled"),
    };
  }();
  return metrics;
}

/// Degradation bounds for failed action selection: up to kMaxActionRetries
/// re-attempts, retry k after a simulated-time backoff of
/// k * kActionRetryBackoffMs, then fall back to the current schedule.
constexpr int kMaxActionRetries = 3;
constexpr double kActionRetryBackoffMs = 500.0;

/// A malformed request or a policy that cannot act in its current state
/// fails the same way however long the loop waits, so those errors fall
/// back at once instead of retrying.
bool Retryable(const Status& status) {
  return status.code() != StatusCode::kInvalidArgument &&
         status.code() != StatusCode::kFailedPrecondition;
}

/// Exploration schedule: epsilon decays linearly from kEpsilonStart to
/// kEpsilonEnd over the first kEpsilonDecayFraction of the epochs.
constexpr double kEpsilonStart = 0.8;
constexpr double kEpsilonEnd = 0.05;
constexpr double kEpsilonDecayFraction = 0.7;

/// Counts the executors `action` places on dead machines and, when there
/// are any, repairs the action onto live machines. Returns the number of
/// orphans repaired (0 leaves the action untouched).
int RepairActionForMask(sched::Schedule* action,
                        const std::vector<uint8_t>& mask) {
  int orphans = 0;
  for (int i = 0; i < action->num_executors(); ++i) {
    if (!mask[action->MachineOf(i)]) ++orphans;
  }
  if (orphans > 0) *action = sched::RepairToAliveMachines(*action, mask);
  return orphans;
}

}  // namespace

StatusOr<OnlineResult> RunOnline(rl::Policy* policy,
                                 SchedulingEnvironment* env,
                                 const OnlineOptions& options) {
  if (options.epochs <= 0) {
    return Status::InvalidArgument("epochs must be positive");
  }
  Rng rng(options.seed);
  const rl::EpsilonSchedule epsilon =
      rl::OffPolicyTrainer::LinearEpsilonSchedule(
          kEpsilonStart, kEpsilonEnd, options.epochs, kEpsilonDecayFraction);
  OnlineResult result;
  result.rewards.reserve(options.epochs);

  // Best solution measured during learning, ranked by measured (uncapped)
  // latency; a practical controller deploys the policy's final solution
  // only if it does not regress against this.
  sched::Schedule best_seen(env->num_executors(), env->num_machines());
  double best_seen_latency = std::numeric_limits<double>::infinity();

  for (int t = 0; t < options.epochs; ++t) {
    rl::State state = env->CurrentState();
    const double epsilon_t = epsilon.Value(t);
    Metrics().epsilon->Set(epsilon_t);
    // Action selection degrades instead of aborting: bounded retries with
    // linear backoff (simulated time advances and the state is
    // re-observed), then fall back to keeping the current schedule. An
    // error no retry can fix falls back at once.
    StatusOr<rl::PolicyAction> action_or =
        policy->SelectAction(state, epsilon_t, &rng);
    int retries = 0;
    while (!action_or.ok() && Retryable(action_or.status()) &&
           retries < kMaxActionRetries) {
      ++retries;
      DRLSTREAM_LOG(kWarning)
          << policy->name() << " action selection failed ("
          << action_or.status().ToString() << "); retry " << retries << "/"
          << kMaxActionRetries << " after backoff";
      env->simulator()->RunFor(kActionRetryBackoffMs * retries);
      state = env->CurrentState();
      action_or = policy->SelectAction(state, epsilon_t, &rng);
    }
    if (!action_or.ok() && !Retryable(action_or.status())) {
      DRLSTREAM_LOG(kWarning)
          << policy->name() << " action selection failed ("
          << action_or.status().ToString()
          << "); no retry can fix it, keeping the current schedule";
    }
    const bool used_fallback = !action_or.ok();
    const int move_index = used_fallback ? -1 : action_or->move_index;
    sched::Schedule action = used_fallback
                                 ? env->current_schedule()
                                 : std::move(action_or->schedule);

    // Emergency repair: never deploy onto a dead machine, whatever the
    // policy proposed (covers crashes between observation and deployment).
    const std::vector<uint8_t> mask = env->MachineUpMask();
    const int dead = env->num_machines() - topo::AliveCount(mask);
    const int orphans = dead > 0 ? RepairActionForMask(&action, mask) : 0;
    if (dead > 0 || retries > 0 || used_fallback) {
      result.disruptions.push_back(DisruptionRecord{
          t, env->simulator()->now_ms(), dead, orphans, retries,
          used_fallback});
      Metrics().disruptions->Add(1);
      Metrics().action_retries->Add(retries);
      Metrics().orphans_rescheduled->Add(orphans);
      if (used_fallback) Metrics().fallbacks->Add(1);
    }

    double latency;
    {
      obs::ScopedPhase phase(Metrics().deploy_us, "deploy");
      DRLSTREAM_ASSIGN_OR_RETURN(latency, env->DeployAndMeasure(action));
    }
    Metrics().epochs->Add(1);
    Metrics().epoch_latency_ms->Record(latency);
    if (latency < best_seen_latency) {
      best_seen_latency = latency;
      best_seen = action;
    }
    // The cap bounds the reward only.
    const double reward = -std::min(latency, options.reward_cap_ms);
    rl::Transition transition;
    transition.state = std::move(state);
    transition.action_assignments = action.assignments();
    transition.move_index = move_index;
    transition.reward = reward;
    transition.next_state = env->CurrentState();
    policy->Observe(std::move(transition));
    for (int u = 0; u < options.train_steps_per_epoch; ++u) {
      const double loss = policy->TrainStep();
      if (policy->trainable()) Metrics().train_loss->Record(loss);
    }
    result.rewards.push_back(reward);
  }
  const std::vector<uint8_t> final_mask = env->MachineUpMask();
  const bool final_dead =
      topo::AliveCount(final_mask) < env->num_machines();
  if (final_dead) {
    best_seen = sched::RepairToAliveMachines(best_seen, final_mask);
  }
  StatusOr<sched::Schedule> final_or =
      policy->FinalSchedule(env->CurrentState());
  sched::Schedule final_schedule = final_or.ok() ? *final_or : best_seen;
  if (!final_or.ok()) {
    DRLSTREAM_LOG(kWarning)
        << "final schedule failed (" << final_or.status().ToString()
        << "); deploying the best schedule measured during learning";
  }
  if (final_dead) {
    final_schedule = sched::RepairToAliveMachines(final_schedule, final_mask);
  }
  DRLSTREAM_ASSIGN_OR_RETURN(const double final_latency,
                             env->DeployAndMeasure(final_schedule));
  result.final_schedule =
      final_latency <= best_seen_latency ? final_schedule : best_seen;
  return result;
}

}  // namespace drlstream::core
