#ifndef DRLSTREAM_TESTS_GRADIENT_CHECK_H_
#define DRLSTREAM_TESTS_GRADIENT_CHECK_H_

#include <functional>
#include <vector>

#include "nn/mlp.h"

namespace drlstream::nn {

/// Mean squared error over one output vector: L = mean((y - t)^2).
double MseLoss(const std::vector<double>& prediction,
               const std::vector<double>& target);

/// dL/dy for MseLoss: 2 (y - t) / n.
std::vector<double> MseLossGrad(const std::vector<double>& prediction,
                                const std::vector<double>& target);

/// Compares the analytic parameter gradients produced by Mlp::Backward with
/// central finite differences of `loss_fn(net)` and returns the maximum
/// relative error. `loss_fn` must be deterministic in the parameters.
/// nn_test validates backprop with it.
double MaxParamGradRelError(
    Mlp* net, const std::function<double(const Mlp&)>& loss_fn,
    const std::function<void(Mlp*)>& compute_grads, double epsilon = 1e-6);

/// Checks dL/dInput: compares the input gradient returned by Backward with
/// finite differences of the MseLoss in the input.
double MaxInputGradRelError(const Mlp& net, const std::vector<double>& input,
                            const std::vector<double>& target,
                            double epsilon = 1e-6);

}  // namespace drlstream::nn

#endif  // DRLSTREAM_TESTS_GRADIENT_CHECK_H_
