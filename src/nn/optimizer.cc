#include "nn/optimizer.h"

#include <cmath>

#include "nn/kernels.h"

namespace drlstream::nn {
namespace {

/// Lazily sizes slot buffers to match the network's layers.
void EnsureSlots(const Mlp& net, std::vector<Matrix>* slot_weights,
                 std::vector<std::vector<double>>* slot_bias) {
  if (static_cast<int>(slot_weights->size()) == net.num_layers()) return;
  slot_weights->clear();
  slot_bias->clear();
  for (int i = 0; i < net.num_layers(); ++i) {
    const Linear& layer = net.layer(i);
    slot_weights->emplace_back(layer.out_dim(), layer.in_dim());
    slot_bias->emplace_back(layer.bias.size(), 0.0);
  }
}

}  // namespace

void Adam::Step(Mlp* net) {
  EnsureSlots(*net, &m_weights_, &m_bias_);
  EnsureSlots(*net, &v_weights_, &v_bias_);
  ++step_count_;
  const kernels::AdamCoefficients coefficients = {
      learning_rate_,
      beta1_,
      beta2_,
      epsilon_,
      1.0 - std::pow(beta1_, static_cast<double>(step_count_)),
      1.0 - std::pow(beta2_, static_cast<double>(step_count_))};
  const kernels::AdamStepFn adam_step = kernels::ResolveAdamStep();
  for (int i = 0; i < net->num_layers(); ++i) {
    Linear& layer = net->layer(i);  // layer 0: marks the column copy stale
    DRLSTREAM_CHECK(layer.grad_weights.SameShape(layer.weights));
    adam_step(layer.weights.data(), m_weights_[i].data(),
              v_weights_[i].data(), layer.grad_weights.data(),
              static_cast<int>(layer.weights.size()), coefficients);
    adam_step(layer.bias.data(), m_bias_[i].data(), v_bias_[i].data(),
              layer.grad_bias.data(), static_cast<int>(layer.bias.size()),
              coefficients);
  }
}

}  // namespace drlstream::nn
