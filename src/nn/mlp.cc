#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "nn/kernels.h"

namespace drlstream::nn {

Mlp::Mlp(const std::vector<int>& sizes,
         const std::vector<Activation>& activations, Rng* rng) {
  DRLSTREAM_CHECK_GE(sizes.size(), 2u);
  DRLSTREAM_CHECK_EQ(activations.size(), sizes.size() - 1);
  layers_.resize(sizes.size() - 1);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    Linear& layer = layers_[i];
    const int in = sizes[i];
    const int out = sizes[i + 1];
    DRLSTREAM_CHECK_GT(in, 0);
    DRLSTREAM_CHECK_GT(out, 0);
    layer.weights = Matrix(out, in);
    layer.bias.assign(out, 0.0);
    layer.activation = activations[i];
    // Xavier/Glorot uniform.
    const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
    for (int r = 0; r < out; ++r) {
      for (int c = 0; c < in; ++c) {
        layer.weights.At(r, c) = rng->Uniform(-bound, bound);
      }
    }
  }
  Transpose(layers_.front().weights, &cols_);
}

const Matrix& Mlp::first_layer_columns() const {
  if (cols_stale_) {
    Transpose(layers_.front().weights, &cols_);
    cols_stale_ = false;
  }
  return cols_;
}

double ApplyActivation(Activation a, double z) {
  switch (a) {
    case Activation::kIdentity:
      return z;
    case Activation::kTanh:
      return kernels::TanhElement(z);
    case Activation::kRelu:
      return z > 0.0 ? z : 0.0;
  }
  return z;
}

double ActivationGradient(Activation a, double z, double y) {
  switch (a) {
    case Activation::kIdentity:
      return 1.0;
    case Activation::kTanh:
      return 1.0 - y * y;
    case Activation::kRelu:
      return z > 0.0 ? 1.0 : 0.0;
  }
  return 1.0;
}

void ActivateRow(Activation a, const double* z, double* y, int n) {
  switch (a) {
    case Activation::kIdentity:
      if (y != z) std::copy(z, z + n, y);
      return;
    case Activation::kTanh:
      kernels::Tanh(z, y, n);
      return;
    case Activation::kRelu:
      for (int r = 0; r < n; ++r) y[r] = z[r] > 0.0 ? z[r] : 0.0;
      return;
  }
}

void BiasActivateRow(Activation a, const double* bias, double* z, double* y,
                     int n) {
  for (int r = 0; r < n; ++r) z[r] += bias[r];
  ActivateRow(a, z, y, n);
}

std::vector<double> Mlp::Forward(const std::vector<double>& input) const {
  std::vector<double> x = input;
  std::vector<double> z;
  for (const Linear& layer : layers_) {
    layer.weights.MatVec(x, &z);
    BiasActivateRow(layer.activation, layer.bias.data(), z.data(), z.data(),
                    layer.out_dim());
    x = z;
  }
  return x;
}

const std::vector<double>& Mlp::Forward(const std::vector<double>& input,
                                        std::vector<double>* x,
                                        std::vector<double>* z) const {
  layers_.front().weights.MatVec(input, z);
  return FinishForward(x, z);
}

const std::vector<double>& Mlp::FinishForward(std::vector<double>* x,
                                              std::vector<double>* z) const {
  DRLSTREAM_CHECK_EQ(static_cast<int>(z->size()), layers_.front().out_dim());
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Linear& layer = layers_[i];
    if (i > 0) layer.weights.MatVec(*x, z);
    BiasActivateRow(layer.activation, layer.bias.data(), z->data(),
                    z->data(), layer.out_dim());
    std::swap(*x, *z);  // Same values as the copying path, no allocation.
  }
  return *x;
}

std::vector<double> Mlp::Forward(const std::vector<double>& input,
                                 Tape* tape) const {
  DRLSTREAM_CHECK(tape != nullptr);
  tape->input = input;
  tape->pre.assign(layers_.size(), {});
  tape->post.assign(layers_.size(), {});
  std::vector<double> x = input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Linear& layer = layers_[i];
    std::vector<double>& z = tape->pre[i];
    layer.weights.MatVec(x, &z);
    std::vector<double>& y = tape->post[i];
    y.resize(layer.out_dim());
    BiasActivateRow(layer.activation, layer.bias.data(), z.data(), y.data(),
                    layer.out_dim());
    x = y;
  }
  return x;
}

std::vector<double> Mlp::Backward(const Tape& tape,
                                  const std::vector<double>& grad_output) {
  DRLSTREAM_CHECK_EQ(tape.pre.size(), layers_.size());
  DRLSTREAM_CHECK_EQ(static_cast<int>(grad_output.size()), output_dim());
  AllocateGrads();
  std::vector<double> grad = grad_output;  // dL/d(post-activation).
  std::vector<double> grad_in;
  for (int i = num_layers() - 1; i >= 0; --i) {
    Linear& layer = layers_[i];
    // dL/dz = dL/dy * act'(z).
    for (int r = 0; r < layer.out_dim(); ++r) {
      grad[r] *= ActivationGradient(layer.activation, tape.pre[i][r],
                                    tape.post[i][r]);
    }
    const std::vector<double>& layer_input =
        (i == 0) ? tape.input : tape.post[i - 1];
    layer.grad_weights.AddOuter(grad, layer_input);
    for (int r = 0; r < layer.out_dim(); ++r) layer.grad_bias[r] += grad[r];
    layer.weights.MatTVec(grad, &grad_in);
    grad = grad_in;
  }
  return grad;
}

Matrix* BatchTape::Prepare(const Mlp& net, int batch) {
  DRLSTREAM_CHECK_GE(batch, 0);
  const int layers = net.num_layers();
  input.Resize(batch, net.input_dim());
  pre.resize(layers);
  post.resize(layers);
  dz.resize(layers);
  for (int i = 0; i < layers; ++i) {
    const int out = net.layer(i).out_dim();
    pre[i].Resize(batch, out);
    post[i].Resize(batch, out);
    dz[i].Resize(batch, out);
  }
  return &input;
}

const Matrix& Mlp::ForwardBatch(BatchTape* tape) const {
  DRLSTREAM_CHECK(tape != nullptr);
  DRLSTREAM_CHECK_EQ(tape->input.cols(), input_dim());
  DRLSTREAM_CHECK_EQ(tape->pre.size(), layers_.size());
  const int batch = tape->input.rows();
  DRLSTREAM_CHECK_EQ(tape->pre[0].rows(), batch);
  // Layer 0 adds only the weight columns of each row's nonzero inputs.
  const Matrix& cols = first_layer_columns();
  const kernels::FoldColumnsFn fold = kernels::ResolveFoldColumns();
  for (int b = 0; b < batch; ++b) {
    fold(cols.data(), tape->input.row(b), cols.rows(), cols.cols(),
         tape->pre[0].row(b));
  }
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Linear& layer = layers_[i];
    Matrix& z = tape->pre[i];
    Matrix& y = tape->post[i];
    if (i > 0) MatTMul(tape->post[i - 1], layer.weights, &z);
    for (int b = 0; b < batch; ++b) {
      BiasActivateRow(layer.activation, layer.bias.data(), z.row(b), y.row(b),
                      layer.out_dim());
    }
  }
  return tape->post.back();
}

namespace {

/// grad += dz^T * x over the nonzero entries of x and dz only: grad(r, c)
/// receives dz(b, r) * x(b, c) in ascending b, as in AddScaledOuterBatch
/// at scale 1, which skips the zero dz entries too. x's nonzero columns
/// are listed in `nonzero`/`begin` (BatchTape's scratch) first, so each
/// row of grad then takes its products from a short list.
void AddOuterBatchOverNonzeros(const Matrix& dz, const Matrix& x,
                               std::vector<int>* nonzero,
                               std::vector<int>* begin, Matrix* grad) {
  const int batch = x.rows(), in = x.cols(), out = dz.cols();
  nonzero->clear();
  nonzero->reserve(static_cast<size_t>(batch) * in);
  begin->resize(batch + 1);
  for (int b = 0; b < batch; ++b) {
    (*begin)[b] = static_cast<int>(nonzero->size());
    const double* x_row = x.row(b);
    for (int c = 0; c < in; ++c) {
      if (x_row[c] != 0.0) nonzero->push_back(c);  // a NaN input is kept
    }
  }
  (*begin)[batch] = static_cast<int>(nonzero->size());
  const int* cols = nonzero->data();
  const int* row_begin = begin->data();
  for (int r = 0; r < out; ++r) {
    double* g = grad->row(r);
    for (int b = 0; b < batch; ++b) {
      const double d = dz.row(b)[r];
      if (d == 0.0) continue;
      const double* x_row = x.row(b);
      for (int j = row_begin[b]; j < row_begin[b + 1]; ++j) {
        g[cols[j]] += d * x_row[cols[j]];
      }
    }
  }
}

}  // namespace

void Mlp::BackwardBatch(BatchTape* tape, const Matrix& grad_output,
                        bool accumulate_param_grads, Matrix* grad_input,
                        int input_begin) {
  DRLSTREAM_CHECK(tape != nullptr);
  DRLSTREAM_CHECK_EQ(tape->pre.size(), layers_.size());
  const int batch = tape->input.rows();
  DRLSTREAM_CHECK_EQ(grad_output.rows(), batch);
  DRLSTREAM_CHECK_EQ(grad_output.cols(), output_dim());
  if (accumulate_param_grads) AllocateGrads();
  for (int i = num_layers() - 1; i >= 0; --i) {
    Linear& layer = layers_[i];
    const int out = layer.out_dim();
    Matrix& dzi = tape->dz[i];
    // dL/dz = dL/dy * act'(z). For the top layer dL/dy is grad_output;
    // below it, dz[i] already holds dL/dy from the layer above's MatMul.
    const Matrix* dy = (i == num_layers() - 1) ? &grad_output : &dzi;
    for (int b = 0; b < batch; ++b) {
      const double* dy_row = dy->row(b);
      const double* z_row = tape->pre[i].row(b);
      const double* y_row = tape->post[i].row(b);
      double* dz_row = dzi.row(b);
      for (int r = 0; r < out; ++r) {
        dz_row[r] = dy_row[r] *
                    ActivationGradient(layer.activation, z_row[r], y_row[r]);
      }
    }
    if (accumulate_param_grads) {
      if (i == 0) {
        AddOuterBatchOverNonzeros(dzi, tape->input, &tape->nonzero,
                                  &tape->nonzero_begin, &layer.grad_weights);
      } else {
        AddScaledOuterBatch(dzi, tape->post[i - 1], 1.0,
                            &layer.grad_weights);
      }
      // Sample index advances in the outer loop so each bias gradient
      // accumulates in batch order, like successive Backward() calls.
      for (int b = 0; b < batch; ++b) {
        const double* dz_row = dzi.row(b);
        for (int r = 0; r < out; ++r) layer.grad_bias[r] += dz_row[r];
      }
    }
    if (i > 0) {
      MatMul(dzi, layer.weights, &tape->dz[i - 1]);
    } else if (grad_input != nullptr) {
      MatMul(dzi, layer.weights, grad_input, input_begin);
    }
  }
}

void Mlp::AllocateGrads() {
  for (Linear& layer : layers_) {
    if (layer.grad_weights.SameShape(layer.weights)) continue;
    layer.grad_weights = Matrix(layer.out_dim(), layer.in_dim());
    layer.grad_bias.assign(layer.out_dim(), 0.0);
  }
}

void Mlp::ZeroGrad() {
  AllocateGrads();
  for (Linear& layer : layers_) {
    layer.grad_weights.Zero();
    std::fill(layer.grad_bias.begin(), layer.grad_bias.end(), 0.0);
  }
}

void Mlp::ScaleGrad(double scale) {
  for (Linear& layer : layers_) {
    layer.grad_weights.Scale(scale);
    for (double& g : layer.grad_bias) g *= scale;
  }
}

void Mlp::ClipGradNorm(double max_norm) {
  DRLSTREAM_CHECK_GT(max_norm, 0.0);
  double sq = 0.0;
  for (const Linear& layer : layers_) {
    for (size_t i = 0; i < layer.grad_weights.size(); ++i) {
      const double g = layer.grad_weights.data()[i];
      sq += g * g;
    }
    for (double g : layer.grad_bias) sq += g * g;
  }
  const double norm = std::sqrt(sq);
  if (norm <= max_norm || norm == 0.0) return;
  ScaleGrad(max_norm / norm);
}

void Mlp::SoftUpdateFrom(const Mlp& source, double tau) {
  DRLSTREAM_CHECK_EQ(num_layers(), source.num_layers());
  for (int i = 0; i < num_layers(); ++i) {
    Linear& dst = layers_[i];
    const Linear& src = source.layers_[i];
    DRLSTREAM_CHECK(dst.weights.SameShape(src.weights));
    dst.weights.Scale(1.0 - tau);
    dst.weights.AddScaled(src.weights, tau);
    for (size_t r = 0; r < dst.bias.size(); ++r) {
      dst.bias[r] = tau * src.bias[r] + (1.0 - tau) * dst.bias[r];
    }
  }
  // The column copy takes W0's two elementwise steps from the source's
  // copy, element for element, so it stays W0^T bit for bit without a
  // transpose. A stale copy is left to its next reader.
  if (!cols_stale_) {
    const Matrix& src_cols = source.first_layer_columns();
    cols_.Scale(1.0 - tau);
    cols_.AddScaled(src_cols, tau);
  }
}

void Mlp::CopyFrom(const Mlp& source) {
  DRLSTREAM_CHECK_EQ(num_layers(), source.num_layers());
  for (int i = 0; i < num_layers(); ++i) {
    Linear& dst = layers_[i];
    const Linear& src = source.layers_[i];
    DRLSTREAM_CHECK(dst.weights.SameShape(src.weights));
    dst.weights = src.weights;
    dst.bias = src.bias;
  }
  cols_ = source.first_layer_columns();
  cols_stale_ = false;
}

size_t Mlp::ParameterCount() const {
  size_t n = 0;
  for (const Linear& layer : layers_) {
    n += layer.weights.size() + layer.bias.size();
  }
  return n;
}

Status Mlp::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out.precision(17);
  out << "drlstream-mlp v1\n" << layers_.size() << "\n";
  for (const Linear& layer : layers_) {
    out << layer.out_dim() << " " << layer.in_dim() << " "
        << static_cast<int>(layer.activation) << "\n";
    for (int r = 0; r < layer.out_dim(); ++r) {
      for (int c = 0; c < layer.in_dim(); ++c) {
        out << layer.weights.At(r, c) << " ";
      }
      out << "\n";
    }
    for (double b : layer.bias) out << b << " ";
    out << "\n";
  }
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

StatusOr<Mlp> Mlp::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  std::string magic, version;
  in >> magic >> version;
  if (magic != "drlstream-mlp" || version != "v1") {
    return Status::InvalidArgument("bad model file header in " + path);
  }
  size_t num_layers = 0;
  in >> num_layers;
  if (!in.good() || num_layers == 0 || num_layers > 64) {
    return Status::InvalidArgument("bad layer count in " + path);
  }
  Mlp net;
  net.layers_.resize(num_layers);
  for (size_t i = 0; i < num_layers; ++i) {
    int out = 0, in_dim = 0, act = 0;
    in >> out >> in_dim >> act;
    if (!in.good() || out <= 0 || in_dim <= 0 || act < 0 || act > 2) {
      return Status::InvalidArgument("bad layer header in " + path);
    }
    Linear& layer = net.layers_[i];
    layer.weights = Matrix(out, in_dim);
    layer.bias.assign(out, 0.0);
    layer.activation = static_cast<Activation>(act);
    for (int r = 0; r < out; ++r) {
      for (int c = 0; c < in_dim; ++c) in >> layer.weights.At(r, c);
    }
    for (int r = 0; r < out; ++r) in >> layer.bias[r];
    if (!in.good()) return Status::IoError("truncated model file " + path);
  }
  Transpose(net.layers_.front().weights, &net.cols_);
  return net;
}

}  // namespace drlstream::nn
