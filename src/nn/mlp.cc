#include "nn/mlp.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

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
    layer.grad_weights = Matrix(out, in);
    layer.grad_bias.assign(out, 0.0);
    layer.activation = activations[i];
    // Xavier/Glorot uniform.
    const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
    for (int r = 0; r < out; ++r) {
      for (int c = 0; c < in; ++c) {
        layer.weights.At(r, c) = rng->Uniform(-bound, bound);
      }
    }
  }
}

double ApplyActivation(Activation a, double z) {
  switch (a) {
    case Activation::kIdentity:
      return z;
    case Activation::kTanh:
      return std::tanh(z);
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

double Mlp::Activate(Activation a, double z) { return ApplyActivation(a, z); }

double Mlp::ActivateGrad(Activation a, double z, double y) {
  return ActivationGradient(a, z, y);
}

std::vector<double> Mlp::Forward(const std::vector<double>& input) const {
  std::vector<double> x = input;
  std::vector<double> z;
  for (const Linear& layer : layers_) {
    layer.weights.MatVec(x, &z);
    for (int r = 0; r < layer.out_dim(); ++r) {
      z[r] = Activate(layer.activation, z[r] + layer.bias[r]);
    }
    x = z;
  }
  return x;
}

const std::vector<double>& Mlp::Forward(const std::vector<double>& input,
                                        std::vector<double>* x,
                                        std::vector<double>* z) const {
  x->assign(input.begin(), input.end());
  for (const Linear& layer : layers_) {
    layer.weights.MatVec(*x, z);
    for (int r = 0; r < layer.out_dim(); ++r) {
      (*z)[r] = Activate(layer.activation, (*z)[r] + layer.bias[r]);
    }
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
    for (int r = 0; r < layer.out_dim(); ++r) {
      z[r] += layer.bias[r];
      y[r] = Activate(layer.activation, z[r]);
    }
    x = y;
  }
  return x;
}

std::vector<double> Mlp::Backward(const Tape& tape,
                                  const std::vector<double>& grad_output) {
  DRLSTREAM_CHECK_EQ(tape.pre.size(), layers_.size());
  DRLSTREAM_CHECK_EQ(static_cast<int>(grad_output.size()), output_dim());
  std::vector<double> grad = grad_output;  // dL/d(post-activation).
  std::vector<double> grad_in;
  for (int i = num_layers() - 1; i >= 0; --i) {
    Linear& layer = layers_[i];
    // dL/dz = dL/dy * act'(z).
    for (int r = 0; r < layer.out_dim(); ++r) {
      grad[r] *= ActivateGrad(layer.activation, tape.pre[i][r],
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
  const Matrix* x = &tape->input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Linear& layer = layers_[i];
    Matrix& z = tape->pre[i];
    Matrix& y = tape->post[i];
    MatTMul(*x, layer.weights, &z);
    const int out = layer.out_dim();
    for (int b = 0; b < batch; ++b) {
      double* z_row = z.row(b);
      double* y_row = y.row(b);
      for (int r = 0; r < out; ++r) {
        z_row[r] += layer.bias[r];
        y_row[r] = Activate(layer.activation, z_row[r]);
      }
    }
    x = &y;
  }
  return tape->post.back();
}

void Mlp::BackwardBatch(BatchTape* tape, const Matrix& grad_output,
                        bool accumulate_param_grads, Matrix* grad_input) {
  DRLSTREAM_CHECK(tape != nullptr);
  DRLSTREAM_CHECK_EQ(tape->pre.size(), layers_.size());
  const int batch = tape->input.rows();
  DRLSTREAM_CHECK_EQ(grad_output.rows(), batch);
  DRLSTREAM_CHECK_EQ(grad_output.cols(), output_dim());
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
        dz_row[r] =
            dy_row[r] * ActivateGrad(layer.activation, z_row[r], y_row[r]);
      }
    }
    if (accumulate_param_grads) {
      const Matrix& layer_input =
          (i == 0) ? tape->input : tape->post[i - 1];
      AddScaledOuterBatch(dzi, layer_input, 1.0, &layer.grad_weights);
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
      MatMul(dzi, layer.weights, grad_input);
    }
  }
}

void Mlp::ZeroGrad() {
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
}

void Mlp::CopyFrom(const Mlp& source) { SoftUpdateFrom(source, 1.0); }

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
    layer.grad_weights = Matrix(out, in_dim);
    layer.bias.assign(out, 0.0);
    layer.grad_bias.assign(out, 0.0);
    layer.activation = static_cast<Activation>(act);
    for (int r = 0; r < out; ++r) {
      for (int c = 0; c < in_dim; ++c) in >> layer.weights.At(r, c);
    }
    for (int r = 0; r < out; ++r) in >> layer.bias[r];
    if (!in.good()) return Status::IoError("truncated model file " + path);
  }
  return net;
}

}  // namespace drlstream::nn
