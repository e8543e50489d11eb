#include "gradient_check.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace drlstream::nn {
namespace {

double RelError(double analytic, double numeric) {
  const double denom =
      std::max({std::abs(analytic), std::abs(numeric), 1e-8});
  return std::abs(analytic - numeric) / denom;
}

}  // namespace

double MseLoss(const std::vector<double>& prediction,
               const std::vector<double>& target) {
  DRLSTREAM_CHECK_EQ(prediction.size(), target.size());
  DRLSTREAM_CHECK(!prediction.empty());
  double sum = 0.0;
  for (size_t i = 0; i < prediction.size(); ++i) {
    const double d = prediction[i] - target[i];
    sum += d * d;
  }
  return sum / static_cast<double>(prediction.size());
}

std::vector<double> MseLossGrad(const std::vector<double>& prediction,
                                const std::vector<double>& target) {
  DRLSTREAM_CHECK_EQ(prediction.size(), target.size());
  std::vector<double> grad(prediction.size());
  const double n = static_cast<double>(prediction.size());
  for (size_t i = 0; i < prediction.size(); ++i) {
    grad[i] = 2.0 * (prediction[i] - target[i]) / n;
  }
  return grad;
}

double MaxParamGradRelError(
    Mlp* net, const std::function<double(const Mlp&)>& loss_fn,
    const std::function<void(Mlp*)>& compute_grads, double epsilon) {
  net->ZeroGrad();
  compute_grads(net);
  double max_err = 0.0;
  for (int li = 0; li < net->num_layers(); ++li) {
    Linear& layer = net->layer(li);
    for (size_t k = 0; k < layer.weights.size(); ++k) {
      double& w = layer.weights.data()[k];
      const double saved = w;
      w = saved + epsilon;
      const double up = loss_fn(*net);
      w = saved - epsilon;
      const double down = loss_fn(*net);
      w = saved;
      const double numeric = (up - down) / (2.0 * epsilon);
      max_err = std::max(max_err,
                         RelError(layer.grad_weights.data()[k], numeric));
    }
    for (size_t k = 0; k < layer.bias.size(); ++k) {
      double& b = layer.bias[k];
      const double saved = b;
      b = saved + epsilon;
      const double up = loss_fn(*net);
      b = saved - epsilon;
      const double down = loss_fn(*net);
      b = saved;
      const double numeric = (up - down) / (2.0 * epsilon);
      max_err = std::max(max_err, RelError(layer.grad_bias[k], numeric));
    }
  }
  return max_err;
}

double MaxInputGradRelError(const Mlp& net, const std::vector<double>& input,
                            const std::vector<double>& target,
                            double epsilon) {
  Mlp copy = net;
  Tape tape;
  const std::vector<double> out = copy.Forward(input, &tape);
  copy.ZeroGrad();
  const std::vector<double> grad_in =
      copy.Backward(tape, MseLossGrad(out, target));

  double max_err = 0.0;
  for (size_t i = 0; i < input.size(); ++i) {
    std::vector<double> x = input;
    x[i] = input[i] + epsilon;
    const double up = MseLoss(net.Forward(x), target);
    x[i] = input[i] - epsilon;
    const double down = MseLoss(net.Forward(x), target);
    const double numeric = (up - down) / (2.0 * epsilon);
    max_err = std::max(max_err, RelError(grad_in[i], numeric));
  }
  return max_err;
}

}  // namespace drlstream::nn
