#ifndef DRLSTREAM_RL_DDPG_AGENT_H_
#define DRLSTREAM_RL_DDPG_AGENT_H_

#include <memory>
#include <string>
#include <utility>
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
  /// a time per agent (the control loop's calling pattern).
  Status SelectActionInto(const State& state, double epsilon, Rng* rng,
                          PolicyAction* out) const override;

  /// Batched SelectActionInto: all slot states are encoded into one input
  /// matrix and the actor runs a single ForwardBatch GEMM; the per-slot
  /// tail (exploration noise from the slot's own RNG, K-NN solve, critic
  /// argmax) then runs sequentially in slot order through the shared
  /// decision workspace. Bit-identical to calling SelectActionInto per
  /// slot because ForwardBatch rows match Forward() bitwise.
  void SelectActionBatch(DecisionRequest* slots, int count) const override;

  /// Greedy action (no exploration): used to deploy the final solution of a
  /// well-trained agent.
  StatusOr<sched::Schedule> GreedyAction(const State& state) const override;

  /// Allocation-free greedy action (SelectActionInto at epsilon = 0).
  Status GreedyActionInto(const State& state,
                          sched::Schedule* out) const override;

  /// Raw proto-action for a state (diagnostics/tests).
  std::vector<double> ProtoAction(const State& state) const;

  /// Critic's Q value for (state, action).
  double QValue(const State& state, const sched::Schedule& action) const;

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
  /// Cache-friendly split of a critic's first layer, rebuilt whenever the
  /// critic's weights change (RefreshCriticCaches): the state part as its
  /// own contiguous matrix, and the action part *transposed* so that the
  /// column a one-hot action entry selects is a contiguous row — the
  /// candidate-scoring inner loop gathers rows instead of reading a
  /// cache-line per element through a stride-(state+action) column.
  struct CriticCache {
    nn::Matrix state_weights;  // h x state_dim: leading columns of W0
    nn::Matrix action_cols;    // action_dim x h: trailing columns of W0^T
  };

  /// Reusable buffers for scoring one candidate set (CandidateQValuesFromZ):
  /// batch_x holds one first-layer activation row per candidate, batch_y
  /// the alternating upper-layer outputs (the two ping-pong through the
  /// tiny GEMMs). prefix, columns and order serve the prefix-shared
  /// first-layer gather: O(h + N + K) in all. Matrix::Resize and the vectors only
  /// reallocate on growth, so a scratch sized once for the largest
  /// candidate set never allocates again. One scratch per concurrent
  /// scorer.
  struct ScoreScratch {
    nn::Matrix batch_x;
    nn::Matrix batch_y;
    std::vector<double> prefix;  // h: candidate 0's running first-layer sum
    std::vector<const double*> columns;  // N: weight columns still to add
    /// (first executor where the candidate leaves candidate 0, candidate).
    std::vector<std::pair<int, int>> order;
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

  /// The tail of one decision, after decide_ws_.state_enc and
  /// decide_ws_.fwd_x (the proto-action) have been filled: exploration
  /// noise, K-NN solve, critic argmax. Shared by the single and batched
  /// entry points so they stay bit-identical by construction.
  Status DecideFromProto(const State& state, double epsilon, Rng* rng,
                         PolicyAction* out) const;

  /// Critic argmax over the K-NN set of a proto-action (shared by action
  /// selection and target computation). Returns index into result.actions.
  int BestByCritic(const nn::Mlp& critic, const CriticCache& cache,
                   const State& state, const miqp::KnnResult& candidates,
                   double* best_q = nullptr) const;

  /// Q(state, a) for every candidate. Exploits the critic's structure: the
  /// first-layer contribution of the (fixed) state part is computed once,
  /// and each one-hot action only adds N weight columns.
  std::vector<double> CandidateQValues(
      const nn::Mlp& critic, const CriticCache& cache,
      const std::vector<double>& state_encoded,
      const std::vector<sched::Schedule>& actions) const;

  /// Candidate scoring given the precomputed first-layer state-part
  /// pre-activation z_state (h entries, bias included); appends one Q per
  /// action to q_out, assembling each candidate in *scratch. Thread-safe
  /// for distinct scratches: touches only its arguments and read-only
  /// weights/caches.
  void CandidateQValuesFromZ(const nn::Mlp& critic, const CriticCache& cache,
                             const double* z_state,
                             const std::vector<sched::Schedule>& actions,
                             ScoreScratch* scratch,
                             std::vector<double>* q_out) const;

  /// Rebuilds critic_cache_ / critic_target_cache_ from the current
  /// weights. Must be called after every weight mutation (training step,
  /// load); the parallel target phase reads the target cache concurrently.
  void RefreshCriticCaches();

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

  CriticCache critic_cache_;
  CriticCache critic_target_cache_;
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
  /// Input/activation workspace for SelectActionBatch's fused actor pass,
  /// sized on first use (grows to the largest batch seen).
  mutable nn::BatchTape decide_batch_tape_;
};

}  // namespace drlstream::rl

#endif  // DRLSTREAM_RL_DDPG_AGENT_H_
