#ifndef DRLSTREAM_RL_REPLAY_BUFFER_H_
#define DRLSTREAM_RL_REPLAY_BUFFER_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "rl/state.h"

namespace drlstream::rl {

/// One state transition sample (s_t, a_t, r_t, s_{t+1}). The action is a
/// full scheduling solution for the actor-critic method; the DQN method
/// additionally records the single (executor, machine) move in `move_index`
/// (-1 when not applicable).
struct Transition {
  State state;
  std::vector<int> action_assignments;
  int move_index = -1;  // executor * M + machine, for the DQN action space
  double reward = 0.0;
  State next_state;
};

/// Fixed-capacity experience replay buffer B (Section 2.3): the oldest
/// sample is discarded when full; minibatches are sampled uniformly to break
/// the correlation between sequentially generated samples.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity);

  void Add(Transition transition);

  /// Uniformly samples `count` transitions (with replacement, like the
  /// paper's minibatch sampling) into *out, replacing its contents; a
  /// reused *out allocates nothing. Requires a non-empty buffer.
  void Sample(size_t count, Rng* rng,
              std::vector<const Transition*>* out) const;

  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return buffer_.empty(); }
  const Transition& at(size_t i) const { return buffer_[i]; }

 private:
  size_t capacity_;
  size_t next_ = 0;  // ring cursor
  std::vector<Transition> buffer_;
};

}  // namespace drlstream::rl

#endif  // DRLSTREAM_RL_REPLAY_BUFFER_H_
