#ifndef DRLSTREAM_RL_POLICY_H_
#define DRLSTREAM_RL_POLICY_H_

#include <string>
#include <utility>

#include "common/rng.h"
#include "common/status.h"
#include "rl/replay_buffer.h"
#include "rl/state.h"
#include "rl/transition_db.h"
#include "sched/schedule.h"

namespace drlstream::rl {

/// A full scheduling solution proposed by a policy plus, for policies whose
/// native action space is a single (executor, machine) move, the move index
/// a = executor * M + machine that produced it (-1 otherwise). The control
/// loop copies the move index into the stored transition so single-move
/// policies can train on it.
struct PolicyAction {
  sched::Schedule schedule;
  int move_index = -1;

  PolicyAction() : schedule(1, 1) {}
  explicit PolicyAction(sched::Schedule s, int move = -1)
      : schedule(std::move(s)), move_index(move) {}
};

/// One slot of a batched decision (Policy::SelectActionBatch): the inputs
/// of one SelectActionInto call plus a per-slot result status. `rng` must
/// be non-null (pass a throwaway Rng for greedy slots, mirroring
/// GreedyActionInto); each slot owns its RNG, so slots draw independent
/// streams no matter how the batch is fused.
struct DecisionRequest {
  const State* state = nullptr;
  double epsilon = 0.0;
  Rng* rng = nullptr;
  PolicyAction* out = nullptr;
  Status status;
};

/// A scheduling policy: the pluggable component behind the custom Nimbus
/// scheduler (design feature 4 in Section 3.1 of the paper). Everything the
/// generic control loop (core::RunOnline), the scheduler adapter
/// (core::PolicyScheduler) and the artifact store need goes through this
/// interface; concrete DRL agents and classical baseline schedulers both
/// implement it, and the registry (rl/policy_registry.h) constructs them by
/// name. Adding a new method means one new file implementing Policy plus a
/// one-line factory registration.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Display name used in figures, tables and series JSON (e.g.
  /// "Actor-critic-based DRL"). Stable across releases.
  virtual std::string name() const = 0;

  /// Key under which the registry constructs this policy ("" for policies
  /// created outside the registry; such policies cannot be saved as
  /// artifacts).
  virtual std::string registry_key() const { return ""; }

  /// One-line human description (configuration summary) for --help output
  /// and artifact headers.
  virtual std::string Describe() const { return name(); }

  /// Proposes the next schedule to deploy. `epsilon` drives exploration
  /// (0 = greedy); `rng` is the control loop's exploration RNG. Errors
  /// degrade in the control loop (bounded retries, then fallback to the
  /// current schedule; InvalidArgument and FailedPrecondition fall back
  /// without retrying) instead of aborting the run.
  virtual StatusOr<PolicyAction> SelectAction(const State& state,
                                              double epsilon,
                                              Rng* rng) const = 0;

  /// Writes the next action into *out, reusing its storage. Policies with
  /// an allocation-free decision path override this as the primary (and
  /// implement SelectAction on top of it); the default wraps SelectAction,
  /// so callers can always use this form. On error *out is unspecified and
  /// callers degrade exactly as for SelectAction.
  virtual Status SelectActionInto(const State& state, double epsilon,
                                  Rng* rng, PolicyAction* out) const {
    DRLSTREAM_ASSIGN_OR_RETURN(PolicyAction action,
                               SelectAction(state, epsilon, rng));
    *out = std::move(action);
    return Status::OK();
  }

  /// Decides a whole batch of independent requests, filling each slot's
  /// `out` and `status`. Contract: bit-identical to calling
  /// SelectActionInto on the slots in index order — same actions, same
  /// per-slot RNG consumption — which is what this default does. Policies
  /// with a batchable network pass override it to fuse the forward passes
  /// of all slots into one GEMM (Mlp::ForwardBatch matches per-row
  /// Forward() bitwise, so the fused path keeps the contract); everything
  /// after the network pass stays per-slot and sequential. The multi-
  /// session AgentServer uses this to serve GetSchedule requests arriving
  /// in one event-loop iteration with one inference pass. Non-reentrant,
  /// like SelectActionInto.
  virtual void SelectActionBatch(DecisionRequest* slots, int count) const {
    for (int i = 0; i < count; ++i) {
      slots[i].status = SelectActionInto(*slots[i].state, slots[i].epsilon,
                                         slots[i].rng, slots[i].out);
    }
  }

  /// Greedy solution at `state` (no exploration): what the policy deploys
  /// when hot-swapped in as the scheduling algorithm.
  virtual StatusOr<sched::Schedule> GreedyAction(const State& state) const = 0;

  /// In-place variant of GreedyAction, mirroring SelectActionInto.
  virtual Status GreedyActionInto(const State& state,
                                  sched::Schedule* out) const {
    DRLSTREAM_ASSIGN_OR_RETURN(sched::Schedule schedule, GreedyAction(state));
    *out = std::move(schedule);
    return Status::OK();
  }

  /// The solution deployed at the end of an online learning run. Defaults
  /// to the greedy action; single-move policies instead return the schedule
  /// their (by then almost greedy) move sequence converged to, because
  /// unrolling further moves without measurement feedback compounds value
  /// errors.
  virtual StatusOr<sched::Schedule> FinalSchedule(const State& state) const {
    return GreedyAction(state);
  }

  /// Whether Observe/TrainStep do anything (false for classical baselines).
  virtual bool trainable() const { return false; }

  /// Stores an observed transition. No-op for untrainable policies.
  virtual void Observe(Transition transition) { (void)transition; }

  /// One training update; returns the minibatch loss (0 when skipped).
  virtual double TrainStep() { return 0.0; }

  /// The unbatched single-sample training step where one exists (the
  /// equivalence oracle and benchmark baseline); defaults to TrainStep.
  virtual double TrainStepReference() { return TrainStep(); }

  /// Offline pre-training from a transition database (line 4 of
  /// Algorithm 1). No-op for untrainable policies.
  virtual void PretrainOffline(const TransitionDatabase& db, int steps) {
    (void)db;
    (void)steps;
  }

  /// Persists / restores the policy's parameters under a path prefix
  /// (concrete policies append their own suffixes). Baselines with no
  /// parameters succeed trivially.
  virtual Status Save(const std::string& prefix) const {
    (void)prefix;
    return Status::OK();
  }
  virtual Status Load(const std::string& prefix) {
    (void)prefix;
    return Status::OK();
  }
};

}  // namespace drlstream::rl

#endif  // DRLSTREAM_RL_POLICY_H_
