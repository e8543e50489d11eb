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
/// passes. Every buffer is sized on first use and only ever grows, so once
/// a tape has run the largest batch it sees (the matrices in Prepare, the
/// nonzero index lists in the first parameter-gradient BackwardBatch),
/// reusing it allocates nothing. One tape per concurrent minibatch.
struct BatchTape {
  Matrix input;              // batch x in_dim, filled by the caller
  std::vector<Matrix> pre;   // per layer: batch x out_dim, z = Wx + b
  std::vector<Matrix> post;  // per layer: batch x out_dim, y = act(z)
  std::vector<Matrix> dz;    // backward scratch, same shapes as post
  /// BackwardBatch's first-layer scratch: the columns of input row b that
  /// are nonzero are nonzero[nonzero_begin[b] .. nonzero_begin[b + 1]).
  std::vector<int> nonzero;
  std::vector<int> nonzero_begin;

  /// Sizes every buffer for `net` at `batch` rows (reallocates only when
  /// the shape grows) and returns the input matrix to fill, one sample
  /// per row.
  Matrix* Prepare(const Mlp& net, int batch);
};

/// A multilayer perceptron with explicit backpropagation, sized after the
/// paper's networks (2 hidden layers of 64 and 32 tanh units). Supports
/// gradient accumulation across a minibatch, soft target-network updates
/// (theta' := tau*theta + (1-tau)*theta'), and file serialization.
///
/// The network keeps a column-major copy of its first layer, W0^T
/// (first_layer_columns), for the sparse first-layer products of the
/// batched passes and the decision paths: the agents' inputs are one-hot
/// assignment matrices, mostly zeros. Construction and Load build it,
/// CopyFrom copies it and SoftUpdateFrom updates it with the weights' own
/// elementwise steps, so it stays W0^T bit for bit. Every other write
/// (Adam::Step, or anything through the non-const layer(0)) marks it
/// stale, and the next reader transposes W0 again. A reference from the
/// non-const layer(0) must therefore not be written through after a read
/// of the copy; take it again. That refresh writes the copy from a const
/// method, so the first read after such a write must not race another read
/// of the same network; a network written only through construction, Load,
/// CopyFrom and SoftUpdateFrom is never stale.
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
  /// is known: *z holds W0 * input (say, from kernels::FoldColumns over
  /// first_layer_columns()). Adds layer 0's bias, activates, and runs the
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
  /// the caller after tape->Prepare(*this, batch)). Layer 0 folds, per
  /// row, the columns of first_layer_columns() whose inputs are nonzero
  /// (kernels::FoldColumns); each layer above is one GEMM. Returns the
  /// output matrix (batch x out_dim), which lives in the tape. Matches
  /// per-row Forward() bitwise, except that a NaN or +-Inf first-layer
  /// weight whose input is 0 does not reach the output (FoldColumns'
  /// non-finite rule).
  const Matrix& ForwardBatch(BatchTape* tape) const;

  /// Batched backward pass for the whole minibatch recorded in `tape`:
  /// `grad_output` holds dL/dOutput, one sample per row. When
  /// `accumulate_param_grads` is true, parameter gradients accumulate (+=)
  /// as `batch` successive Backward() calls in row order; layer 0's weight
  /// gradient receives x[b][c] * dz[b][r] only where both are nonzero,
  /// which adds what Backward adds except the +-0 products of zero inputs
  /// (and the NaN of a zero input times a non-finite dz). When `grad_input`
  /// is non-null it receives dL/dInput for the inputs from `input_begin`
  /// on (batch x (in_dim - input_begin)), each element Backward's bits;
  /// pass accumulate_param_grads = false for input-gradient-only passes
  /// (e.g. the DDPG actor update through the critic, which reads only the
  /// action inputs).
  void BackwardBatch(BatchTape* tape, const Matrix& grad_output,
                     bool accumulate_param_grads = true,
                     Matrix* grad_input = nullptr, int input_begin = 0);

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
  /// Mutable access; layer 0's marks first_layer_columns() stale, so read
  /// through a const Mlp& where nothing is written.
  Linear& layer(int i) {
    if (i == 0) cols_stale_ = true;
    return layers_[i];
  }
  const Linear& layer(int i) const { return layers_[i]; }

  /// W0^T (input_dim x layer 0's out_dim): row i is the weight column
  /// input i selects, contiguous, as kernels::FoldColumns reads it.
  /// Transposes W0 first if a write left the copy stale.
  const Matrix& first_layer_columns() const;

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
  /// first_layer_columns()'s copy, and whether a write has outdated it.
  mutable Matrix cols_;
  mutable bool cols_stale_ = false;
};

}  // namespace drlstream::nn

#endif  // DRLSTREAM_NN_MLP_H_
