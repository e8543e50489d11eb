#include "nn/optimizer.h"

#include <cmath>

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
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  for (int i = 0; i < net->num_layers(); ++i) {
    Linear& layer = net->layer(i);
    DRLSTREAM_CHECK(layer.grad_weights.SameShape(layer.weights));
    Matrix& m_w = m_weights_[i];
    Matrix& v_w = v_weights_[i];
    for (size_t k = 0; k < layer.weights.size(); ++k) {
      const double g = layer.grad_weights.data()[k];
      double& m = m_w.data()[k];
      double& v = v_w.data()[k];
      m = beta1_ * m + (1.0 - beta1_) * g;
      v = beta2_ * v + (1.0 - beta2_) * g * g;
      layer.weights.data()[k] -=
          learning_rate_ * (m / bc1) / (std::sqrt(v / bc2) + epsilon_);
    }
    std::vector<double>& m_b = m_bias_[i];
    std::vector<double>& v_b = v_bias_[i];
    for (size_t k = 0; k < layer.bias.size(); ++k) {
      const double g = layer.grad_bias[k];
      double& m = m_b[k];
      double& v = v_b[k];
      m = beta1_ * m + (1.0 - beta1_) * g;
      v = beta2_ * v + (1.0 - beta2_) * g * g;
      layer.bias[k] -=
          learning_rate_ * (m / bc1) / (std::sqrt(v / bc2) + epsilon_);
    }
  }
}

}  // namespace drlstream::nn
