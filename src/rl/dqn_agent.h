#ifndef DRLSTREAM_RL_DQN_AGENT_H_
#define DRLSTREAM_RL_DQN_AGENT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "rl/off_policy_trainer.h"
#include "rl/policy.h"
#include "rl/replay_buffer.h"
#include "rl/state.h"
#include "rl/transition_db.h"

namespace drlstream::rl {

/// Hyperparameters for the straightforward DQN-based method of Section 3.2.
struct DqnConfig {
  std::vector<int> hidden_sizes = {64, 32};
  double learning_rate = 1e-3;
  double gamma = 0.99;          // discount factor
  int target_sync_epochs = 50;  // C: epochs between target network copies
  size_t replay_capacity = 1000;
  int minibatch_size = 32;      // H
  double grad_clip = 5.0;
  /// Reward normalization/clipping; see OffPolicyTrainer::Options.
  double reward_shift = 0.0;
  double reward_scale = 1.0;
  double reward_clip = 3.0;
  /// Greedy single-executor moves unrolled by GreedyAction when the agent
  /// is used as a scheduler (0 = one move per executor).
  int rollout_steps = 0;
  uint64_t seed = 99;
};

/// The baseline DQN-based DRL method: to keep the action space
/// polynomial-time searchable, each action moves exactly one executor to one
/// machine (|A| = N*M). The Q network maps the state to one Q value per
/// (executor, machine) pair. The paper shows this restriction limits
/// exploration and underperforms in large cases. Implements rl::Policy;
/// registered in the policy registry as "dqn".
class DqnAgent : public Policy {
 public:
  DqnAgent(const StateEncoder& encoder, DqnConfig config);

  std::string name() const override { return "DQN-based DRL"; }
  std::string registry_key() const override { return "dqn"; }
  std::string Describe() const override;

  /// Epsilon-greedy move: index a = executor * M + machine. `q_row`, when
  /// given, is the state's precomputed Q row (SelectActionBatch's fused
  /// forward pass); otherwise the exploit arm runs the Q network. Either
  /// way the move and the RNG consumption are the same. Like every
  /// decision entry point it reuses the agent's workspace (no steady-state
  /// allocations; one decision at a time per agent).
  int SelectMove(const State& state, double epsilon, Rng* rng,
                 const double* q_row = nullptr) const;

  /// Greedy move (no exploration): the best Q among deployable moves.
  int GreedyMove(const State& state) const;

  /// The epsilon-greedy move applied to the state's assignments, as a full
  /// schedule with the move index attached.
  StatusOr<PolicyAction> SelectAction(const State& state, double epsilon,
                                      Rng* rng) const override;

  /// Allocation-free primary of SelectAction: the Q forward pass, the
  /// alive-machine list and the result schedule all reuse per-agent
  /// workspace storage. Bit-identical to SelectAction; non-reentrant (one
  /// decision at a time per agent, the control loop's calling pattern).
  Status SelectActionInto(const State& state, double epsilon, Rng* rng,
                          PolicyAction* out) const override;

  /// Batched SelectActionInto: one Q-network ForwardBatch GEMM over all
  /// slot states, then per-slot epsilon-greedy move selection in slot
  /// order (each slot's RNG consumed exactly as in SelectActionInto).
  /// Bit-identical to per-slot calls: ForwardBatch rows match Forward()
  /// bitwise, and an exploring slot never reads its Q row at all.
  void SelectActionBatch(DecisionRequest* slots, int count) const override;

  /// A greedy rollout of single-executor moves from the state's current
  /// assignments (rollout_steps moves; 0 = one per executor).
  StatusOr<sched::Schedule> GreedyAction(const State& state) const override;

  /// Allocation-free variant of GreedyAction (same rollout, workspace
  /// buffers).
  Status GreedyActionInto(const State& state,
                          sched::Schedule* out) const override;

  /// The schedule the (by then almost greedy) online move sequence
  /// converged to: unrolling further Q-greedy moves without measurement
  /// feedback compounds value errors N times over.
  StatusOr<sched::Schedule> FinalSchedule(const State& state) const override;

  /// Splits an action index into (executor, machine).
  std::pair<int, int> DecodeAction(int action_index) const;

  /// Applies an action index to an assignment vector.
  std::vector<int> ApplyAction(const std::vector<int>& assignments,
                               int action_index) const;

  bool trainable() const override { return true; }

  /// Stores a transition (must carry move_index >= 0).
  void Observe(Transition transition) override;

  /// One minibatch update; periodically syncs the target network. No-op on
  /// an empty buffer. Returns the minibatch TD loss (0 when skipped).
  ///
  /// Batched hot path: target and online networks each process the whole
  /// minibatch with one GEMM per layer through preallocated BatchTape
  /// workspaces. Matches TrainStepReference() bit for bit.
  double TrainStep() override;

  /// The original single-sample training step (one Forward/Backward per
  /// transition). Kept as the equivalence oracle for TrainStep() in tests
  /// and as the benchmark baseline; both paths consume identical RNG
  /// state, so interleaving them is valid.
  double TrainStepReference() override;

  /// Offline pre-training: loads single-move transitions from the database
  /// into the replay buffer and performs `steps` updates.
  void PretrainOffline(const TransitionDatabase& db, int steps) override;

  /// Highest Q estimate at a state (diagnostics).
  double MaxQ(const State& state) const;

  /// Persists / restores the Q network under `prefix` (.qnet suffix; the
  /// target network is synced on load).
  Status Save(const std::string& prefix) const override;
  Status Load(const std::string& prefix) override;

  const ReplayBuffer& replay() const { return trainer_.replay(); }
  const nn::Mlp& network() const { return *q_net_; }
  const DqnConfig& config() const { return config_; }

 private:
  /// Reusable buffers for the decision path (SelectActionInto /
  /// GreedyActionInto); mutable because decisions are logically const and
  /// the decision path is single-threaded (control loop).
  struct DecisionWorkspace {
    std::vector<double> state_enc;
    std::vector<double> fwd_x;  // Q forward scratch; holds the Q row
    std::vector<double> fwd_z;
    std::vector<int> alive;
    State rollout;
  };

  /// SelectMove's explore arm: a uniform random *deployable* move under
  /// the state's machine mask.
  int ExploreMove(const State& state, Rng* rng) const;

  /// Writes `assignments` (with executor `moved_to_executor` reassigned to
  /// `machine` when >= 0) into *out, validating like
  /// Schedule::FromAssignments but reusing out's storage.
  Status AssignmentsInto(const std::vector<int>& assignments, int executor,
                         int machine, sched::Schedule* out) const;

  StateEncoder encoder_;
  DqnConfig config_;
  /// Shared off-policy core: RNG (network init + replay sampling order),
  /// replay buffer, reward normalization, target-sync bookkeeping. Must
  /// precede the networks so the RNG exists when they initialize.
  OffPolicyTrainer trainer_;
  std::unique_ptr<nn::Mlp> q_net_;
  std::unique_ptr<nn::Mlp> target_net_;
  std::unique_ptr<nn::Adam> optimizer_;

  // Preallocated batched-training workspaces, sized on first TrainStep and
  // reused so steady-state steps allocate nothing.
  nn::BatchTape target_tape_;
  nn::BatchTape q_tape_;
  nn::Matrix grad_out_;

  mutable DecisionWorkspace decide_ws_;
  /// Input/activation workspace for SelectActionBatch's fused Q pass,
  /// sized on first use (grows to the largest batch seen).
  mutable nn::BatchTape decide_batch_tape_;
};

}  // namespace drlstream::rl

#endif  // DRLSTREAM_RL_DQN_AGENT_H_
