#ifndef DRLSTREAM_RL_DDPG_AGENT_H_
#define DRLSTREAM_RL_DDPG_AGENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "miqp/knn_solver.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "rl/off_policy_trainer.h"
#include "rl/policy.h"
#include "rl/replay_buffer.h"
#include "rl/state.h"
#include "rl/transition_db.h"
#include "sched/schedule.h"

namespace drlstream::rl {

/// Hyperparameters for the actor-critic method (Algorithm 1). Defaults
/// follow the paper: 2 hidden layers of 64 and 32 tanh units, tau = 0.01,
/// gamma = 0.99, |B| = 1000, H = 32.
struct DdpgConfig {
  std::vector<int> hidden_sizes = {64, 32};
  double actor_learning_rate = 1e-4;
  double critic_learning_rate = 1e-3;
  double gamma = 0.99;
  double tau = 0.01;
  size_t replay_capacity = 1000;
  int minibatch_size = 32;  // H
  int knn_k = 16;           // K nearest feasible actions of the proto-action
  double grad_clip = 5.0;
  /// Reward normalization/clipping; see OffPolicyTrainer::Options.
  double reward_shift = 0.0;
  double reward_scale = 1.0;
  double reward_clip = 3.0;
  uint64_t seed = 7;
};

/// The paper's actor-critic-based scheduling method (Section 3.2.1,
/// Algorithm 1): an actor network maps the state to a continuous
/// proto-action a_hat in R^{N*M}; the MIQP-NN optimizer finds its K nearest
/// feasible actions; the critic scores each candidate and the best is
/// executed. Trained with experience replay, target networks (soft updates)
/// and the deterministic policy gradient. Implements rl::Policy; registered
/// in the policy registry as "ddpg".
class DdpgAgent : public Policy {
 public:
  DdpgAgent(const StateEncoder& encoder, DdpgConfig config);

  std::string name() const override { return "Actor-critic-based DRL"; }
  std::string registry_key() const override { return "ddpg"; }
  std::string Describe() const override;

  /// Line 8-11 of Algorithm 1: proto-action from the actor, exploration
  /// noise R(a_hat) = a_hat + eps*I (noise added with probability `epsilon`,
  /// I uniform in [0,1]^{N*M}), K-NN via MIQP-NN, critic argmax.
  StatusOr<PolicyAction> SelectAction(const State& state, double epsilon,
                                      Rng* rng) const override;

  /// The allocation-free primary of SelectAction: every intermediate
  /// (encoded state, actor buffers, K-NN candidates, critic scoring
  /// scratch) lives in a reusable per-agent workspace, so steady-state
  /// decisions perform zero heap allocations. Bit-identical to
  /// SelectAction. The workspace makes this non-reentrant: one decision at
  /// a time per agent (the control loop's calling pattern). The actor's
  /// first layer and the critic's state part fold only the weight columns
  /// the one-hot state selects (nn::kernels::FoldColumns), so Policy's
  /// per-slot SelectActionBatch is the batched form.
  Status SelectActionInto(const State& state, double epsilon, Rng* rng,
                          PolicyAction* out) const override;

  /// Greedy action (no exploration): used to deploy the final solution of a
  /// well-trained agent.
  StatusOr<sched::Schedule> GreedyAction(const State& state) const override;

  /// Allocation-free greedy action (SelectActionInto at epsilon = 0).
  Status GreedyActionInto(const State& state,
                          sched::Schedule* out) const override;

  /// Raw proto-action for a state (diagnostics/tests).
  std::vector<double> ProtoAction(const State& state) const;

  /// Critic's Q value for (state, action): the dense forward pass.
  double QValue(const State& state, const sched::Schedule& action) const;

  /// The critic's Q(state, a) for every candidate a, scored as decisions
  /// score the K-NN set (CandidateQValuesFromZ). Equals QValue up to the
  /// rounding of the first layer's sum, which adds the state part and then
  /// the action columns where QValue folds one dot product: bitwise when
  /// that sum is exact.
  std::vector<double> CandidateQValues(
      const State& state, const std::vector<sched::Schedule>& actions) const;

  bool trainable() const override { return true; }

  /// Stores a transition, normalizing its reward per the config.
  void Observe(Transition transition) override;

  /// Lines 14-18 of Algorithm 1: one minibatch update of critic and actor
  /// plus soft target updates. No-op on an empty buffer. Returns the critic
  /// minibatch loss (0 when skipped).
  ///
  /// This is the batched hot path: the per-transition target computation
  /// (target-actor forward, K-NN solve, target-critic candidate scoring)
  /// runs in parallel on the global thread pool with one result slot per
  /// transition and one scratch per pool worker, and the critic/actor passes process the whole minibatch
  /// with one GEMM per layer through preallocated BatchTape workspaces.
  /// Results are bit-reproducible for a fixed seed at any thread count and
  /// match TrainStepReference() to the last bit.
  double TrainStep() override;

  /// The original single-sample training step (one Forward/Backward per
  /// transition, serial target computation). Kept as the equivalence
  /// oracle for TrainStep() in tests and as the benchmark baseline; both
  /// paths consume identical RNG state, so interleaving them is valid.
  double TrainStepReference() override;

  /// Number of minibatch samples dropped because the K-NN solver failed on
  /// the target proto-action (e.g. a diverged actor emitting non-finite
  /// values). Such samples are skipped with a warning instead of aborting.
  /// Per-agent view; the same increments also feed the process-wide
  /// `rl.ddpg.knn_failures` registry counter (obs/metrics.h) when --metrics
  /// is on.
  long knn_failure_count() const { return knn_failures_; }

  /// Offline pre-training (line 4): fills the replay buffer from the
  /// transition database and performs `steps` updates.
  void PretrainOffline(const TransitionDatabase& db, int steps) override;

  /// Persists both networks next to each other under `prefix` (.actor /
  /// .critic suffixes).
  Status Save(const std::string& prefix) const override;
  Status Load(const std::string& prefix) override;

  const ReplayBuffer& replay() const { return trainer_.replay(); }
  const nn::Mlp& actor() const { return *actor_; }
  const nn::Mlp& critic() const { return *critic_; }
  const DdpgConfig& config() const { return config_; }

 private:
  /// Reusable buffers for scoring one candidate set (CandidateQValuesFromZ):
  /// batch_x holds one first-layer activation row per candidate, batch_y
  /// the alternating upper-layer outputs (the two ping-pong through the
  /// tiny GEMMs). The rest serves the trie-shared first-layer gather:
  /// checkpoints holds partial sums along the current candidate's path,
  /// and the index vectors order the candidates. Matrix::Resize and the
  /// vectors only reallocate on growth, and each is sized to its bound for
  /// the candidate count, so a scratch that has scored the largest
  /// candidate set never allocates again. One scratch per concurrent
  /// scorer.
  struct ScoreScratch {
    nn::Matrix batch_x;
    nn::Matrix batch_y;
    nn::Matrix checkpoints;  // K x h: partial sums, by increasing depth
    std::vector<const double*> columns;  // N: weight columns still to add
    std::vector<int> order;   // candidates in lexicographic order
    std::vector<int> shared;  // executors order[j] shares with order[j - 1]
    std::vector<int> checkpoint_depth;  // executors summed in checkpoint i
    std::vector<int> resume_depths;     // scratch of one candidate's walk
  };

  /// Everything one decision (SelectActionInto / GreedyActionInto) needs,
  /// reused across calls so the steady-state decision path allocates
  /// nothing. Mutable because decisions are logically const; the decision
  /// path is single-threaded (control loop), so no synchronization.
  struct DecisionWorkspace {
    std::vector<double> state_enc;
    std::vector<double> fwd_x;  // actor forward scratch; holds the proto
    std::vector<double> fwd_z;
    miqp::KnnWorkspace knn_ws;
    miqp::KnnResult candidates;
    std::vector<double> z_state;
    ScoreScratch score;
    std::vector<double> q_values;
    PolicyAction action;  // GreedyActionInto's reusable landing spot
  };

  /// z = the critic's first-layer pre-activation for an encoded state with
  /// an all-zero action part: W0's state columns folded over the state
  /// (FoldColumns over `cols`, the critic's W0^T), plus the bias.
  void StatePreactivation(const nn::Mlp& critic, const nn::Matrix& cols,
                          const double* state_encoded, double* z) const;

  /// Q(state, a) under `critic` for every candidate a (the state part of
  /// the first layer computed once, then CandidateQValuesFromZ).
  std::vector<double> ScoreCandidates(const nn::Mlp& critic,
                                      const nn::Matrix& cols,
                                      const std::vector<double>& state_encoded,
                                      const miqp::KnnResult& candidates) const;

  /// Candidate scoring given the first-layer state-part pre-activation
  /// z_state (h entries, bias included): a one-hot action adds one weight
  /// column of `cols` (the critic's W0^T) per executor. Appends one Q per
  /// candidate action to q_out, assembling the candidates in *scratch; the
  /// candidates' deviation rows order the shared gather. Thread-safe for
  /// distinct scratches: touches only its arguments and read-only weights.
  void CandidateQValuesFromZ(const nn::Mlp& critic, const nn::Matrix& cols,
                             const double* z_state,
                             const miqp::KnnResult& candidates,
                             ScoreScratch* scratch,
                             std::vector<double>* q_out) const;

  /// Rebuilds all four W0^T copies from the networks' weights (after
  /// construction and Load).
  void TransposeFirstLayers();

  /// Re-transposes the online actor's and critic's W0 if a training step
  /// changed them since (the readers of actor_cols_ / critic_cols_ call
  /// this first), so steps without a decision in between, as in offline
  /// pre-training, transpose nothing.
  void RefreshOnlineCols() const;

  /// Line 18 of Algorithm 1 after the optimizer steps: soft-updates both
  /// target networks and their W0^T copies (SoftUpdateTransposed, which
  /// keeps each copy the transpose of its network's W0 bit for bit), and
  /// marks the online copies stale.
  void SoftUpdateTargets();

  /// Computes the TD target y_i for every sampled transition into
  /// target_values_ (one slot per transition, parallel over the global
  /// thread pool) and marks K-NN failures in target_valid_.
  void ComputeTargetsParallel(const std::vector<const Transition*>& batch);

  StateEncoder encoder_;
  DdpgConfig config_;
  /// Shared off-policy core: RNG (network init + replay sampling order),
  /// replay buffer, reward normalization. Must precede the networks so the
  /// RNG exists when they initialize.
  OffPolicyTrainer trainer_;
  miqp::KnnActionSolver knn_;
  std::unique_ptr<nn::Mlp> actor_;
  std::unique_ptr<nn::Mlp> actor_target_;
  std::unique_ptr<nn::Mlp> critic_;
  std::unique_ptr<nn::Mlp> critic_target_;
  std::unique_ptr<nn::Adam> actor_opt_;
  std::unique_ptr<nn::Adam> critic_opt_;

  /// W0^T of each network's first layer (state_dim x h for the actors,
  /// (state_dim + action_dim) x h for the critics): row i is the weight
  /// column input i selects, contiguous, so FoldColumns and the candidate
  /// gather read one row per nonzero input. The online copies are caches
  /// that decisions refresh (RefreshOnlineCols).
  mutable nn::Matrix actor_cols_;
  mutable nn::Matrix critic_cols_;
  mutable bool online_cols_stale_ = false;
  nn::Matrix actor_target_cols_;
  nn::Matrix critic_target_cols_;
  long knn_failures_ = 0;

  // Preallocated batched-training workspaces, sized on first TrainStep and
  // reused so steady-state steps allocate nothing.
  nn::BatchTape target_actor_tape_;  // target-actor pass over next states
  nn::BatchTape critic_update_tape_;
  nn::BatchTape actor_update_tape_;
  nn::BatchTape critic_through_tape_;  // critic pass inside the actor update
  nn::Matrix z_state_next_;            // H x h: target-critic state preacts
  nn::Matrix critic_grad_out_;
  nn::Matrix critic_grad_in_;
  nn::Matrix actor_grad_out_;
  std::vector<double> target_values_;
  std::vector<unsigned char> target_valid_;
  std::vector<int> valid_rows_;

  // Per-worker solver/scoring workspaces for the parallel target phase,
  // indexed by ThreadPool worker: no two concurrent tasks share a worker,
  // so any thread count is race-free. They grow to the pool's thread count
  // and never shrink, so steady-state target computation allocates nothing.
  std::vector<std::vector<double>> proto_scratch_;  // K-NN inputs
  std::vector<miqp::KnnWorkspace> target_knn_ws_;
  std::vector<miqp::KnnResult> target_candidates_;
  std::vector<ScoreScratch> target_score_;
  std::vector<std::vector<double>> target_q_;

  mutable DecisionWorkspace decide_ws_;
};

}  // namespace drlstream::rl

#endif  // DRLSTREAM_RL_DDPG_AGENT_H_
