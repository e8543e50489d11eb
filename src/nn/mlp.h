#ifndef DRLSTREAM_NN_MLP_H_
#define DRLSTREAM_NN_MLP_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/matrix.h"

namespace drlstream::nn {

/// Per-layer nonlinearity. The paper's actor and critic use tanh.
enum class Activation { kIdentity = 0, kTanh = 1, kRelu = 2 };

/// Applies an activation function to a scalar pre-activation. kTanh is
/// nn::kernels::TanhElement, the element every row below reproduces.
double ApplyActivation(Activation a, double z);
/// d(activation)/dz given the pre-activation z and output y = act(z).
double ActivationGradient(Activation a, double z, double y);

/// y[r] = act(z[r]) for r < n; y may alias z. Tanh rows run through the
/// dispatched nn::kernels::Tanh, whose scalar and AVX2 paths agree bitwise.
void ActivateRow(Activation a, const double* z, double* y, int n);
/// One layer's epilogue on a row: z[r] += bias[r], then y = act(z) as in
/// ActivateRow. The per-sample and batched forward passes and candidate
/// scoring's upper layers all go through it, so a row's bits never depend
/// on the path.
void BiasActivateRow(Activation a, const double* bias, double* z, double* y,
                     int n);

/// One fully-connected layer: y = act(W x + b), with gradient buffers.
struct Linear {
  Matrix weights;            // out x in
  std::vector<double> bias;  // out
  /// Accumulated dL/dW and dL/db: empty until the network first
  /// backpropagates (Backward, BackwardBatch or ZeroGrad), so a network
  /// that never trains (a target network, a serving agent) holds none.
  Matrix grad_weights;
  std::vector<double> grad_bias;
  Activation activation = Activation::kIdentity;

  int in_dim() const { return weights.cols(); }
  int out_dim() const { return weights.rows(); }
};

/// Records the intermediate values of one forward pass so the matching
/// backward pass can compute gradients. One tape per concurrent sample.
struct Tape {
  std::vector<double> input;
  // For each layer: pre-activation z and post-activation y.
  std::vector<std::vector<double>> pre;
  std::vector<std::vector<double>> post;
};

class Mlp;

/// Workspace + tape for the batched (whole-minibatch) forward/backward
/// passes: all buffers are preallocated on first use and reused, so
/// steady-state training steps perform zero heap allocations. One tape per
/// concurrent minibatch.
struct BatchTape {
  Matrix input;              // batch x in_dim, filled by the caller
  std::vector<Matrix> pre;   // per layer: batch x out_dim, z = Wx + b
  std::vector<Matrix> post;  // per layer: batch x out_dim, y = act(z)
  std::vector<Matrix> dz;    // backward scratch, same shapes as post

  /// Sizes every buffer for `net` at `batch` rows (reallocates only when
  /// the shape grows) and returns the input matrix to fill, one sample
  /// per row.
  Matrix* Prepare(const Mlp& net, int batch);
};

/// A multilayer perceptron with explicit backpropagation, sized after the
/// paper's networks (2 hidden layers of 64 and 32 tanh units). Supports
/// gradient accumulation across a minibatch, soft target-network updates
/// (theta' := tau*theta + (1-tau)*theta'), and file serialization.
class Mlp {
 public:
  /// Builds an MLP with `sizes` = {in, h1, ..., out} and one activation per
  /// weight layer (sizes.size() - 1 of them). Weights use Xavier/Glorot
  /// uniform initialization drawn from `rng`.
  Mlp(const std::vector<int>& sizes, const std::vector<Activation>& activations,
      Rng* rng);

  /// Inference without recording a tape.
  std::vector<double> Forward(const std::vector<double>& input) const;

  /// Allocation-free inference: `x` and `z` are caller-owned scratch
  /// buffers that are resized on first use and reused after (layers swap
  /// them instead of copying; `input` must be neither). Returns a
  /// reference to the output, which lives in *x until the next call.
  /// Bit-identical to Forward().
  const std::vector<double>& Forward(const std::vector<double>& input,
                                     std::vector<double>* x,
                                     std::vector<double>* z) const;

  /// The rest of the allocation-free Forward once the first layer's product
  /// is known: *z holds W0 * input (say, from kernels::FoldColumns over a
  /// transposed copy of W0). Adds layer 0's bias, activates, and runs the
  /// layers above; returns the output, which lives in *x. Forward(input,
  /// x, z) is MatVec into *z followed by this.
  const std::vector<double>& FinishForward(std::vector<double>* x,
                                           std::vector<double>* z) const;

  /// Forward pass recording intermediates into `tape` for Backward.
  std::vector<double> Forward(const std::vector<double>& input,
                              Tape* tape) const;

  /// Backpropagates dL/dOutput through the tape, accumulating parameter
  /// gradients (+=) and returning dL/dInput. Call ZeroGrad() between
  /// minibatches.
  std::vector<double> Backward(const Tape& tape,
                               const std::vector<double>& grad_output);

  /// Batched forward pass over tape->input (one sample per row, filled by
  /// the caller after tape->Prepare(*this, batch)): one GEMM per layer
  /// instead of `batch` MatVecs. Returns the output matrix (batch x
  /// out_dim), which lives in the tape. Matches per-row Forward() results
  /// bitwise (identical accumulation order).
  const Matrix& ForwardBatch(BatchTape* tape) const;

  /// ForwardBatch once the first layer's product is known: tape->pre[0]
  /// holds W0 * x for every input row x (batch x out_dim of layer 0), as
  /// FinishForward's *z does for one sample.
  const Matrix& FinishForwardBatch(BatchTape* tape) const;

  /// Batched backward pass for the whole minibatch recorded in `tape`:
  /// `grad_output` holds dL/dOutput, one sample per row. When
  /// `accumulate_param_grads` is true, parameter gradients accumulate (+=)
  /// exactly as `batch` successive Backward() calls in row order. When
  /// `grad_input` is non-null it receives dL/dInput (batch x in_dim);
  /// pass accumulate_param_grads = false for input-gradient-only passes
  /// (e.g. the DDPG actor update through the critic).
  void BackwardBatch(BatchTape* tape, const Matrix& grad_output,
                     bool accumulate_param_grads = true,
                     Matrix* grad_input = nullptr);

  /// Zeroes the accumulated gradients, allocating them on first use.
  void ZeroGrad();
  /// Multiplies all accumulated gradients by `scale` (e.g. 1/batch_size).
  void ScaleGrad(double scale);
  /// Clips the global L2 norm of all accumulated gradients to `max_norm`.
  void ClipGradNorm(double max_norm);

  /// theta := tau * source.theta + (1 - tau) * theta. Shapes must match.
  void SoftUpdateFrom(const Mlp& source, double tau);
  /// theta := source.theta, assigned, so whatever theta held before (NaN
  /// or Inf included) is gone. Shapes must match.
  void CopyFrom(const Mlp& source);

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Linear& layer(int i) { return layers_[i]; }
  const Linear& layer(int i) const { return layers_[i]; }

  int input_dim() const { return layers_.front().in_dim(); }
  int output_dim() const { return layers_.back().out_dim(); }
  size_t ParameterCount() const;

  /// Serializes the architecture and weights to a small text format.
  Status Save(const std::string& path) const;
  static StatusOr<Mlp> Load(const std::string& path);

 private:
  Mlp() = default;  // For Load().

  /// Sizes every layer's gradient buffers (zeroed) if they are not yet.
  void AllocateGrads();

  std::vector<Linear> layers_;
};

}  // namespace drlstream::nn

#endif  // DRLSTREAM_NN_MLP_H_
