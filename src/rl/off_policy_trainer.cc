#include "rl/off_policy_trainer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"

namespace drlstream::rl {
namespace {

/// The stored-reward distribution: a normalization whose shift and scale
/// put every online reward at the clip shows up here as a count at
/// +-reward_clip.
struct TrainerMetrics {
  obs::Histogram* reward_normalized;
  obs::Counter* reward_clipped;
};

const TrainerMetrics& Metrics() {
  static const TrainerMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
    return TrainerMetrics{reg.histogram("rl.reward_normalized"),
                          reg.counter("rl.reward_clipped")};
  }();
  return metrics;
}

}  // namespace

OffPolicyTrainer::OffPolicyTrainer(const StateEncoder& encoder,
                                   const Options& options)
    : encoder_(&encoder), options_(options), rng_(options.seed),
      replay_(options.replay_capacity) {}

double OffPolicyTrainer::NormalizeReward(double reward) const {
  DRLSTREAM_CHECK_GT(options_.reward_scale, 0.0);
  double normalized = (reward - options_.reward_shift) / options_.reward_scale;
  if (options_.reward_clip > 0.0) {
    normalized = std::clamp(normalized, -options_.reward_clip,
                            options_.reward_clip);
  }
  return normalized;
}

void OffPolicyTrainer::Observe(Transition transition) {
  transition.reward = NormalizeReward(transition.reward);
  Metrics().reward_normalized->Record(transition.reward);
  if (options_.reward_clip > 0.0 &&
      std::abs(transition.reward) == options_.reward_clip) {
    Metrics().reward_clipped->Add(1);
  }
  replay_.Add(std::move(transition));
}

const std::vector<const Transition*>& OffPolicyTrainer::SampleBatch() {
  replay_.Sample(options_.minibatch_size, &rng_, &batch_);
  return batch_;
}

bool OffPolicyTrainer::TickTargetSync(int period) {
  ++train_steps_;
  return period > 0 && train_steps_ % period == 0;
}

nn::Matrix* OffPolicyTrainer::PrepareStateBatch(
    const nn::Mlp& net, nn::BatchTape* tape,
    const std::vector<const Transition*>& batch, bool next_states) const {
  const int h = static_cast<int>(batch.size());
  nn::Matrix* x = tape->Prepare(net, h);
  for (int i = 0; i < h; ++i) {
    const State& state =
        next_states ? batch[i]->next_state : batch[i]->state;
    encoder_->EncodeStateInto(state, x->row(i));
  }
  return x;
}

std::vector<int> OffPolicyTrainer::MlpSizes(int in,
                                            const std::vector<int>& hidden,
                                            int out) {
  std::vector<int> sizes = {in};
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

std::vector<nn::Activation> OffPolicyTrainer::MlpActivations(
    size_t hidden_count) {
  std::vector<nn::Activation> acts(hidden_count, nn::Activation::kTanh);
  acts.push_back(nn::Activation::kIdentity);  // linear head
  return acts;
}

EpsilonSchedule OffPolicyTrainer::LinearEpsilonSchedule(
    double start, double end, int epochs, double decay_fraction) {
  const int decay =
      std::max(1, static_cast<int>(epochs * decay_fraction));
  return EpsilonSchedule(start, end, decay);
}

}  // namespace drlstream::rl
