#include "rl/replay_buffer.h"

#include "common/logging.h"

namespace drlstream::rl {

ReplayBuffer::ReplayBuffer(size_t capacity) : capacity_(capacity) {
  DRLSTREAM_CHECK_GT(capacity, 0u);
  buffer_.reserve(capacity);
}

void ReplayBuffer::Add(Transition transition) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(transition));
  } else {
    buffer_[next_] = std::move(transition);
  }
  next_ = (next_ + 1) % capacity_;
}

void ReplayBuffer::Sample(size_t count, Rng* rng,
                          std::vector<const Transition*>* out) const {
  DRLSTREAM_CHECK(!buffer_.empty());
  out->clear();
  for (size_t i = 0; i < count; ++i) {
    out->push_back(&buffer_[rng->UniformInt(
        0, static_cast<int>(buffer_.size()) - 1)]);
  }
}

}  // namespace drlstream::rl
