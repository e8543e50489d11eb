#ifndef DRLSTREAM_NN_OPTIMIZER_H_
#define DRLSTREAM_NN_OPTIMIZER_H_

#include <vector>

#include "nn/mlp.h"

namespace drlstream::nn {

/// Adam (Kingma & Ba) with standard bias correction. It keeps per-network
/// moment buffers, keyed by layer index, so each instance must be used with
/// a single network.
class Adam {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8)
      : learning_rate_(learning_rate), beta1_(beta1), beta2_(beta2),
        epsilon_(epsilon) {}

  /// Performs one update step using the gradients currently accumulated in
  /// `net` (does not zero them). The net must have backpropagated or
  /// zeroed its gradients at least once, so that they exist.
  void Step(Mlp* net);

 private:
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  long step_count_ = 0;
  std::vector<Matrix> m_weights_, v_weights_;
  std::vector<std::vector<double>> m_bias_, v_bias_;
};

}  // namespace drlstream::nn

#endif  // DRLSTREAM_NN_OPTIMIZER_H_
