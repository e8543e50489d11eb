#ifndef DRLSTREAM_RL_OFF_POLICY_TRAINER_H_
#define DRLSTREAM_RL_OFF_POLICY_TRAINER_H_

#include <vector>

#include "common/rng.h"
#include "nn/mlp.h"
#include "rl/exploration.h"
#include "rl/replay_buffer.h"
#include "rl/state.h"

namespace drlstream::rl {

/// The off-policy training core shared by the DRL agents: replay buffer
/// wiring, reward normalization/clipping, minibatch sampling, target-network
/// update bookkeeping, and the batched-workspace state encoding. Agents
/// compose one trainer; the trainer owns the agent's RNG so that network
/// initialization and replay sampling consume the exact same random
/// sequence as the pre-refactor per-agent members (bit-identical learning
/// curves at fixed seeds).
class OffPolicyTrainer {
 public:
  struct Options {
    double gamma = 0.99;
    size_t replay_capacity = 1000;
    int minibatch_size = 32;
    double grad_clip = 5.0;
    /// Rewards are normalized to r' = (r - reward_shift) / reward_scale
    /// when stored; raw latency rewards sit on a large constant offset that
    /// the discounted value amplifies, drowning the small differences
    /// between schedules that actually matter.
    double reward_shift = 0.0;
    double reward_scale = 1.0;
    /// Normalized rewards are clipped to [-reward_clip, +reward_clip] (0 =
    /// off): catastrophic (overloaded) schedules should read as "very
    /// bad", not dominate the regression loss by orders of magnitude.
    double reward_clip = 3.0;
    uint64_t seed = 0;
  };

  OffPolicyTrainer(const StateEncoder& encoder, const Options& options);

  /// Normalizes and clips a raw reward per the options.
  double NormalizeReward(double reward) const;

  /// Stores a transition with its reward normalized and clipped. Records
  /// the stored reward in the `rl.reward_normalized` histogram, and counts
  /// rewards at +-reward_clip in `rl.reward_clipped`.
  void Observe(Transition transition);

  /// Samples one minibatch (uniform with replacement) using the trainer's
  /// RNG. Requires a non-empty buffer.
  std::vector<const Transition*> SampleBatch();

  /// Counts one training step; true when the target network is due for a
  /// hard sync (every `period` steps).
  bool TickTargetSync(int period);

  /// Encodes the batch's states (next states when `next_states`) into the
  /// rows of `tape`'s input prepared for `net`, and returns the input
  /// matrix (batched-workspace management shared by the agents' TrainStep).
  nn::Matrix* PrepareStateBatch(const nn::Mlp& net, nn::BatchTape* tape,
                                const std::vector<const Transition*>& batch,
                                bool next_states) const;

  /// Layer-size / activation vectors for the agents' MLPs: `hidden` tanh
  /// layers between `in` and a linear `out` head.
  static std::vector<int> MlpSizes(int in, const std::vector<int>& hidden,
                                   int out);
  static std::vector<nn::Activation> MlpActivations(size_t hidden_count);

  /// The exploration schedule of the online control loop: epsilon decays
  /// linearly from `start` to `end` over the first `decay_fraction` of
  /// `epochs` decision epochs.
  static EpsilonSchedule LinearEpsilonSchedule(double start, double end,
                                               int epochs,
                                               double decay_fraction);

  /// The agent's RNG: network initialization and exploration draws must go
  /// through this to keep runs bit-reproducible for a fixed seed.
  Rng* rng() { return &rng_; }

  const ReplayBuffer& replay() const { return replay_; }
  bool empty() const { return replay_.empty(); }
  const Options& options() const { return options_; }

 private:
  const StateEncoder* encoder_;
  Options options_;
  Rng rng_;
  ReplayBuffer replay_;
  long train_steps_ = 0;
};

}  // namespace drlstream::rl

#endif  // DRLSTREAM_RL_OFF_POLICY_TRAINER_H_
