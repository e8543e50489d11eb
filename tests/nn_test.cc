#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gradient_check.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace drlstream::nn {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// ---------------------------------------------------------------------------
// Matrix
// ---------------------------------------------------------------------------

TEST(MatrixTest, ShapeAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  m.At(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(MatrixTest, MatVec) {
  Matrix m(2, 3);
  // [[1 2 3], [4 5 6]]
  for (int c = 0; c < 3; ++c) {
    m.At(0, c) = c + 1;
    m.At(1, c) = c + 4;
  }
  std::vector<double> y;
  m.MatVec({1.0, 0.0, -1.0}, &y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(MatrixTest, MatTVec) {
  Matrix m(2, 3);
  for (int c = 0; c < 3; ++c) {
    m.At(0, c) = c + 1;
    m.At(1, c) = c + 4;
  }
  std::vector<double> y;
  m.MatTVec({1.0, 2.0}, &y);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 9.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
  EXPECT_DOUBLE_EQ(y[2], 15.0);
}

TEST(MatrixTest, AddOuter) {
  Matrix m(2, 2);
  m.AddOuter({1.0, 2.0}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 8.0);
}

TEST(MatrixTest, AddScaledAndScale) {
  Matrix a(1, 2), b(1, 2);
  a.At(0, 0) = 1.0;
  b.At(0, 0) = 10.0;
  b.At(0, 1) = 20.0;
  a.AddScaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a.At(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(a.At(0, 1), 10.0);
  a.Scale(2.0);
  EXPECT_DOUBLE_EQ(a.At(0, 0), 12.0);
}

// ---------------------------------------------------------------------------
// Activations / losses
// ---------------------------------------------------------------------------

TEST(ActivationTest, Values) {
  EXPECT_DOUBLE_EQ(ApplyActivation(Activation::kIdentity, -2.5), -2.5);
  EXPECT_DOUBLE_EQ(ApplyActivation(Activation::kRelu, -2.5), 0.0);
  EXPECT_DOUBLE_EQ(ApplyActivation(Activation::kRelu, 2.5), 2.5);
  EXPECT_NEAR(ApplyActivation(Activation::kTanh, 1.0), std::tanh(1.0), 1e-15);
}

TEST(ActivationTest, Gradients) {
  EXPECT_DOUBLE_EQ(ActivationGradient(Activation::kIdentity, 3.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(ActivationGradient(Activation::kRelu, -1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ActivationGradient(Activation::kRelu, 1.0, 1.0), 1.0);
  const double y = std::tanh(0.7);
  EXPECT_NEAR(ActivationGradient(Activation::kTanh, 0.7, y), 1.0 - y * y,
              1e-15);
}

TEST(LossTest, MseValueAndGrad) {
  const std::vector<double> pred = {1.0, 2.0};
  const std::vector<double> target = {0.0, 4.0};
  EXPECT_DOUBLE_EQ(MseLoss(pred, target), (1.0 + 4.0) / 2.0);
  const std::vector<double> grad = MseLossGrad(pred, target);
  EXPECT_DOUBLE_EQ(grad[0], 1.0);
  EXPECT_DOUBLE_EQ(grad[1], -2.0);
}

// ---------------------------------------------------------------------------
// Mlp forward/backward
// ---------------------------------------------------------------------------

TEST(MlpTest, ShapesAndParameterCount) {
  Rng rng(1);
  Mlp net({4, 64, 32, 2},
          {Activation::kTanh, Activation::kTanh, Activation::kIdentity},
          &rng);
  EXPECT_EQ(net.num_layers(), 3);
  EXPECT_EQ(net.input_dim(), 4);
  EXPECT_EQ(net.output_dim(), 2);
  EXPECT_EQ(net.ParameterCount(),
            static_cast<size_t>(4 * 64 + 64 + 64 * 32 + 32 + 32 * 2 + 2));
  EXPECT_EQ(net.Forward({1, 2, 3, 4}).size(), 2u);
}

TEST(MlpTest, ForwardMatchesManualSingleLayer) {
  Rng rng(1);
  Mlp net({2, 1}, {Activation::kIdentity}, &rng);
  net.layer(0).weights.At(0, 0) = 2.0;
  net.layer(0).weights.At(0, 1) = -1.0;
  net.layer(0).bias[0] = 0.5;
  const std::vector<double> out = net.Forward({3.0, 4.0});
  EXPECT_DOUBLE_EQ(out[0], 2.0 * 3.0 - 4.0 + 0.5);
}

TEST(MlpTest, TapeForwardMatchesPlainForward) {
  Rng rng(2);
  Mlp net({3, 8, 2}, {Activation::kTanh, Activation::kIdentity}, &rng);
  Tape tape;
  const std::vector<double> x = {0.1, -0.7, 2.0};
  EXPECT_EQ(net.Forward(x), net.Forward(x, &tape));
}

TEST(MlpTest, ParamGradientsMatchNumerical) {
  Rng rng(3);
  Mlp net({3, 6, 4, 1},
          {Activation::kTanh, Activation::kTanh, Activation::kIdentity},
          &rng);
  const std::vector<double> input = {0.3, -0.5, 0.8};
  const std::vector<double> target = {0.7};
  auto loss_fn = [&](const Mlp& n) {
    return MseLoss(n.Forward(input), target);
  };
  auto compute_grads = [&](Mlp* n) {
    Tape tape;
    const std::vector<double> out = n->Forward(input, &tape);
    n->Backward(tape, MseLossGrad(out, target));
  };
  EXPECT_LT(MaxParamGradRelError(&net, loss_fn, compute_grads), 1e-5);
}

TEST(MlpTest, ParamGradientsMatchNumericalWithRelu) {
  Rng rng(4);
  Mlp net({2, 5, 1}, {Activation::kRelu, Activation::kIdentity}, &rng);
  const std::vector<double> input = {0.9, -0.4};
  const std::vector<double> target = {-0.2};
  auto loss_fn = [&](const Mlp& n) {
    return MseLoss(n.Forward(input), target);
  };
  auto compute_grads = [&](Mlp* n) {
    Tape tape;
    const std::vector<double> out = n->Forward(input, &tape);
    n->Backward(tape, MseLossGrad(out, target));
  };
  EXPECT_LT(MaxParamGradRelError(&net, loss_fn, compute_grads), 1e-5);
}

TEST(MlpTest, InputGradientMatchesNumerical) {
  Rng rng(5);
  Mlp net({4, 8, 3}, {Activation::kTanh, Activation::kIdentity}, &rng);
  EXPECT_LT(MaxInputGradRelError(net, {0.2, -0.1, 0.5, 0.9},
                                 {0.1, 0.2, 0.3}),
            1e-5);
}

TEST(MlpTest, BackwardAccumulatesAcrossSamples) {
  Rng rng(6);
  Mlp net({2, 3, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  Tape tape;
  net.ZeroGrad();
  net.Forward({1.0, 2.0}, &tape);
  net.Backward(tape, {1.0});
  const double grad_once = net.layer(0).grad_bias[0];
  net.Forward({1.0, 2.0}, &tape);
  net.Backward(tape, {1.0});
  EXPECT_NEAR(net.layer(0).grad_bias[0], 2.0 * grad_once, 1e-12);
  net.ScaleGrad(0.5);
  EXPECT_NEAR(net.layer(0).grad_bias[0], grad_once, 1e-12);
}

TEST(MlpTest, ClipGradNormBoundsGlobalNorm) {
  Rng rng(7);
  Mlp net({2, 3, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  Tape tape;
  net.ZeroGrad();
  net.Forward({100.0, -50.0}, &tape);
  net.Backward(tape, {1000.0});
  net.ClipGradNorm(1.0);
  double sq = 0.0;
  for (int l = 0; l < net.num_layers(); ++l) {
    for (size_t i = 0; i < net.layer(l).grad_weights.size(); ++i) {
      sq += net.layer(l).grad_weights.data()[i] *
            net.layer(l).grad_weights.data()[i];
    }
    for (double g : net.layer(l).grad_bias) sq += g * g;
  }
  EXPECT_LE(std::sqrt(sq), 1.0 + 1e-9);
}

// ---------------------------------------------------------------------------
// Target updates / serialization
// ---------------------------------------------------------------------------

TEST(MlpTest, SoftUpdateInterpolates) {
  Rng rng(8);
  Mlp a({2, 2}, {Activation::kIdentity}, &rng);
  Mlp b({2, 2}, {Activation::kIdentity}, &rng);
  const double wa = a.layer(0).weights.At(0, 0);
  const double wb = b.layer(0).weights.At(0, 0);
  b.SoftUpdateFrom(a, 0.25);
  EXPECT_NEAR(b.layer(0).weights.At(0, 0), 0.25 * wa + 0.75 * wb, 1e-12);
}

TEST(MlpTest, SoftUpdateKeepsTheColumnCopyBitwise) {
  // SoftUpdateFrom applies W0's two elementwise steps to the target's
  // column copy in place, reading the source's copy, so the copy stays the
  // transpose of the target's own soft-updated weights bit for bit.
  Rng rng(21);
  Mlp source({7, 5, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  Mlp target({7, 5, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  for (double tau : {0.01, 0.3, 1.0}) target.SoftUpdateFrom(source, tau);
  const Mlp& updated = target;
  const Matrix& cols = updated.first_layer_columns();
  ASSERT_EQ(cols.rows(), 7);
  ASSERT_EQ(cols.cols(), 5);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 7; ++c) {
      EXPECT_EQ(Bits(cols.At(c, r)), Bits(updated.layer(0).weights.At(r, c)))
          << "(" << r << ", " << c << ")";
    }
  }
}

TEST(MlpTest, CopyFromMakesIdentical) {
  Rng rng(9);
  Mlp a({3, 4, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  Mlp b({3, 4, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  b.CopyFrom(a);
  const std::vector<double> x = {0.4, 0.5, -0.6};
  EXPECT_EQ(a.Forward(x), b.Forward(x));
}

TEST(MlpTest, CopyFromOverwritesNonFiniteEntries) {
  // A diverged destination must not survive the copy: dst * 0 + src would
  // keep a NaN weight and turn an Inf bias into NaN.
  Rng rng(19);
  Mlp a({3, 4, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  Mlp b({3, 4, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  b.layer(0).weights.At(1, 2) = std::nan("");
  b.layer(0).bias[3] = std::numeric_limits<double>::infinity();
  b.layer(1).weights.At(0, 0) = -std::numeric_limits<double>::infinity();
  b.layer(1).bias[0] = std::nan("");
  b.CopyFrom(a);
  for (int l = 0; l < a.num_layers(); ++l) {
    for (size_t p = 0; p < a.layer(l).weights.size(); ++p) {
      EXPECT_EQ(b.layer(l).weights.data()[p], a.layer(l).weights.data()[p])
          << "layer " << l << " weight " << p;
    }
    EXPECT_EQ(b.layer(l).bias, a.layer(l).bias) << "layer " << l;
  }
  const std::vector<double> x = {0.4, 0.5, -0.6};
  EXPECT_EQ(a.Forward(x), b.Forward(x));
}

/// True when no layer of `net` holds gradient storage.
bool HoldsNoGradients(const Mlp& net) {
  for (int l = 0; l < net.num_layers(); ++l) {
    if (net.layer(l).grad_weights.size() != 0 ||
        !net.layer(l).grad_bias.empty()) {
      return false;
    }
  }
  return true;
}

TEST(MlpTest, GradientStorageIsAllocatedOnFirstBackpropagation) {
  Rng rng(20);
  Mlp a({3, 4, 2}, {Activation::kTanh, Activation::kIdentity}, &rng);
  Mlp b({3, 4, 2}, {Activation::kTanh, Activation::kIdentity}, &rng);
  EXPECT_TRUE(HoldsNoGradients(a));
  a.Forward({0.1, 0.2, 0.3});
  b.CopyFrom(a);
  b.SoftUpdateFrom(a, 0.5);
  EXPECT_TRUE(HoldsNoGradients(a));
  EXPECT_TRUE(HoldsNoGradients(b));

  Tape tape;
  a.Forward({0.1, 0.2, 0.3}, &tape);
  a.Backward(tape, {1.0, -1.0});
  EXPECT_FALSE(HoldsNoGradients(a));
  for (int l = 0; l < a.num_layers(); ++l) {
    EXPECT_TRUE(a.layer(l).grad_weights.SameShape(a.layer(l).weights));
    EXPECT_EQ(a.layer(l).grad_bias.size(), a.layer(l).bias.size());
  }
  b.ZeroGrad();
  EXPECT_FALSE(HoldsNoGradients(b));

  // An input-gradient-only batched pass accumulates nothing, so it
  // allocates nothing either.
  Mlp c({3, 4, 2}, {Activation::kTanh, Activation::kIdentity}, &rng);
  BatchTape batch_tape;
  Matrix* input = batch_tape.Prepare(c, 2);
  input->Fill(0.5);
  c.ForwardBatch(&batch_tape);
  Matrix grad_out(2, 2);
  grad_out.Fill(1.0);
  Matrix grad_in;
  c.BackwardBatch(&batch_tape, grad_out, /*accumulate_param_grads=*/false,
                  &grad_in);
  EXPECT_TRUE(HoldsNoGradients(c));
  c.BackwardBatch(&batch_tape, grad_out);
  EXPECT_FALSE(HoldsNoGradients(c));
}

TEST(MlpTest, SaveLoadRoundTrip) {
  Rng rng(10);
  Mlp net({3, 5, 2}, {Activation::kTanh, Activation::kIdentity}, &rng);
  const std::string path = testing::TempDir() + "/mlp_test.txt";
  ASSERT_TRUE(net.Save(path).ok());
  auto loaded = Mlp::Load(path);
  ASSERT_TRUE(loaded.ok());
  const std::vector<double> x = {0.1, 0.2, 0.3};
  const std::vector<double> a = net.Forward(x);
  const std::vector<double> b = loaded->Forward(x);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(MlpTest, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/mlp_garbage.txt";
  std::ofstream(path) << "not a model";
  EXPECT_FALSE(Mlp::Load(path).ok());
  EXPECT_FALSE(Mlp::Load(testing::TempDir() + "/missing_model.txt").ok());
}

// ---------------------------------------------------------------------------
// Optimizer: convergence on a toy problem
// ---------------------------------------------------------------------------

double TrainRegression(Adam* opt, Mlp* net, int steps) {
  Rng rng(20);
  double last_loss = 0.0;
  for (int step = 0; step < steps; ++step) {
    net->ZeroGrad();
    double total = 0.0;
    for (int i = 0; i < 16; ++i) {
      const double x = rng.Uniform(-1.0, 1.0);
      const std::vector<double> target = {std::sin(2.0 * x)};
      Tape tape;
      const std::vector<double> out = net->Forward({x}, &tape);
      total += MseLoss(out, target);
      std::vector<double> grad = MseLossGrad(out, target);
      for (double& g : grad) g /= 16.0;
      net->Backward(tape, grad);
    }
    opt->Step(net);
    last_loss = total / 16.0;
  }
  return last_loss;
}

TEST(OptimizerTest, AdamFitsSine) {
  Rng rng(21);
  Mlp net({1, 32, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  Adam adam(5e-3);
  EXPECT_LT(TrainRegression(&adam, &net, 1500), 0.01);
}

// ---------------------------------------------------------------------------
// Batched GEMM kernels
// ---------------------------------------------------------------------------

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m.At(r, c) = rng->Uniform(-2.0, 2.0);
  }
  return m;
}

TEST(MatrixBatchTest, MatMulMatchesNaive) {
  Rng rng(11);
  // Sizes straddle the kernel's row-block boundary.
  for (const auto& [n, k, m] : {std::tuple{1, 1, 1}, {3, 5, 4}, {8, 16, 8},
                                {13, 7, 9}, {32, 64, 33}}) {
    const Matrix a = RandomMatrix(n, k, &rng);
    const Matrix b = RandomMatrix(k, m, &rng);
    Matrix c;
    MatMul(a, b, &c);
    ASSERT_EQ(c.rows(), n);
    ASSERT_EQ(c.cols(), m);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        double want = 0.0;
        for (int kk = 0; kk < k; ++kk) want += a.At(i, kk) * b.At(kk, j);
        EXPECT_NEAR(c.At(i, j), want, 1e-12);
      }
    }
  }
}

TEST(MatrixBatchTest, MatTMulMatchesNaive) {
  Rng rng(12);
  for (const auto& [n, k, m] : {std::tuple{1, 1, 1}, {4, 6, 3}, {8, 8, 8},
                                {9, 21, 14}, {32, 110, 64}}) {
    const Matrix a = RandomMatrix(n, k, &rng);
    const Matrix b = RandomMatrix(m, k, &rng);  // used transposed
    Matrix c;
    MatTMul(a, b, &c);
    ASSERT_EQ(c.rows(), n);
    ASSERT_EQ(c.cols(), m);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        double want = 0.0;
        for (int kk = 0; kk < k; ++kk) want += a.At(i, kk) * b.At(j, kk);
        EXPECT_NEAR(c.At(i, j), want, 1e-12);
      }
    }
  }
}

TEST(MatrixBatchTest, MatTMulRowMatchesMatVecBitwise) {
  // The batched forward must not drift from the single-sample path: both
  // use the same shared dot-product fold.
  Rng rng(13);
  const Matrix a = RandomMatrix(5, 110, &rng);
  const Matrix w = RandomMatrix(64, 110, &rng);
  Matrix c;
  MatTMul(a, w, &c);
  for (int i = 0; i < a.rows(); ++i) {
    std::vector<double> x(a.row(i), a.row(i) + a.cols());
    std::vector<double> y;
    w.MatVec(x, &y);
    for (int j = 0; j < w.rows(); ++j) {
      EXPECT_EQ(c.At(i, j), y[j]) << "row " << i << " col " << j;
    }
  }
}

TEST(MatrixBatchTest, AddScaledOuterBatchMatchesAddOuterBitwise) {
  Rng rng(14);
  const int h = 7, n = 10, m = 13;
  const Matrix a = RandomMatrix(h, n, &rng);
  const Matrix b = RandomMatrix(h, m, &rng);
  Matrix got = RandomMatrix(n, m, &rng);
  Matrix want = got;
  AddScaledOuterBatch(a, b, 0.5, &got);
  for (int i = 0; i < h; ++i) {
    std::vector<double> ai(a.row(i), a.row(i) + n);
    std::vector<double> bi(b.row(i), b.row(i) + m);
    for (double& v : ai) v *= 0.5;
    want.AddOuter(ai, bi);
  }
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < m; ++c) {
      // Batch order per element == h successive AddOuter calls, but the
      // scale multiplies a (not the product) in the reference loop, so
      // allow rounding-level difference.
      EXPECT_NEAR(got.At(r, c), want.At(r, c), 1e-12);
    }
  }
}

TEST(MlpBatchTest, ForwardBatchMatchesPerRowForward) {
  // The paper's hidden widths with a linear head, then tanh layers whose
  // widths (7, 5) leave a tail after the tanh kernel's four-lane blocks,
  // the output layer's included. Batched rows equal per-row Forward bitwise.
  const std::vector<std::vector<int>> sizes = {{6, 64, 32, 3}, {6, 7, 5}};
  const std::vector<std::vector<Activation>> activations = {
      {Activation::kTanh, Activation::kTanh, Activation::kIdentity},
      {Activation::kTanh, Activation::kTanh}};
  Rng rng(15);
  for (size_t n = 0; n < sizes.size(); ++n) {
    Mlp net(sizes[n], activations[n], &rng);
    const int in = net.input_dim();
    const int width = net.output_dim();
    const int h = 9;
    BatchTape tape;
    Matrix* x = tape.Prepare(net, h);
    for (int i = 0; i < h; ++i) {
      for (int c = 0; c < in; ++c) x->row(i)[c] = rng.Uniform(-1.0, 1.0);
    }
    const Matrix& out = net.ForwardBatch(&tape);
    ASSERT_EQ(out.rows(), h);
    ASSERT_EQ(out.cols(), width);
    for (int i = 0; i < h; ++i) {
      std::vector<double> xi(x->row(i), x->row(i) + in);
      const std::vector<double> yi = net.Forward(xi);
      for (int j = 0; j < width; ++j) {
        EXPECT_EQ(out.At(i, j), yi[j]) << "net " << n << " (" << i << ", "
                                       << j << ")";
      }
    }
  }
}

TEST(MlpBatchTest, BackwardBatchMatchesPerRowBackward) {
  Rng rng(16);
  Mlp batched({5, 16, 8, 2}, {Activation::kTanh, Activation::kRelu,
                              Activation::kIdentity}, &rng);
  Mlp serial = batched;  // identical weights
  const int h = 11;

  BatchTape tape;
  Matrix* x = tape.Prepare(batched, h);
  Matrix grad_out(h, 2);
  for (int i = 0; i < h; ++i) {
    for (int c = 0; c < 5; ++c) x->row(i)[c] = rng.Uniform(-1.0, 1.0);
    for (int j = 0; j < 2; ++j) grad_out.At(i, j) = rng.Uniform(-1.0, 1.0);
  }

  batched.ZeroGrad();
  batched.ForwardBatch(&tape);
  Matrix grad_in;
  batched.BackwardBatch(&tape, grad_out, /*accumulate_param_grads=*/true,
                        &grad_in);

  serial.ZeroGrad();
  Matrix want_grad_in(h, 5);
  Tape t;
  for (int i = 0; i < h; ++i) {
    std::vector<double> xi(x->row(i), x->row(i) + 5);
    serial.Forward(xi, &t);
    std::vector<double> gi = serial.Backward(
        t, {grad_out.At(i, 0), grad_out.At(i, 1)});
    for (int c = 0; c < 5; ++c) want_grad_in.At(i, c) = gi[c];
  }

  for (int l = 0; l < batched.num_layers(); ++l) {
    const Linear& bl = batched.layer(l);
    const Linear& sl = serial.layer(l);
    for (size_t p = 0; p < bl.grad_weights.size(); ++p) {
      EXPECT_NEAR(bl.grad_weights.data()[p], sl.grad_weights.data()[p],
                  1e-12);
    }
    for (size_t p = 0; p < bl.grad_bias.size(); ++p) {
      EXPECT_NEAR(bl.grad_bias[p], sl.grad_bias[p], 1e-12);
    }
  }
  ASSERT_EQ(grad_in.rows(), h);
  for (int i = 0; i < h; ++i) {
    for (int c = 0; c < 5; ++c) {
      EXPECT_NEAR(grad_in.At(i, c), want_grad_in.At(i, c), 1e-12);
    }
  }
}

TEST(MlpBatchTest, FirstLayerMatchesTheDenseKernelsOnSparseRows) {
  // Layer 0 of the batched passes reads only nonzero inputs. Against the
  // dense kernels (MatTMul forward, AddScaledOuterBatch weight gradient,
  // MatMul input gradient) on one-hot, +-0, all-zero and dense rows, with
  // a nonzero starting gradient, it agrees bit for bit. A NaN input makes
  // its row's z and dz NaN; the NaN reaches the weight gradient in the
  // columns of that row's nonzero inputs only.
  constexpr int k = 13, h = 6, out = 3, batch = 6, nan_row = 5;
  constexpr int input_begin = 5;
  Rng rng(22);
  Mlp net({k, h, out}, {Activation::kTanh, Activation::kIdentity}, &rng);
  BatchTape tape;
  Matrix* x = tape.Prepare(net, batch);
  x->Zero();
  for (int c : {1, 6, 12}) x->At(0, c) = 1.0;  // one-hot, one in Dot's tail
  for (int c = 0; c < k; c += 2) x->At(1, c) = -0.0;
  x->At(1, 3) = 1.0;
  x->At(1, 10) = 2.5;
  for (int c = 0; c < k; ++c) x->At(2, c) = rng.Uniform(-1.0, 1.0);
  // Row 3 stays all +0.
  for (int c = 0; c < k; ++c) x->At(4, c) = rng.Uniform(-1.0, 1.0);
  x->At(4, 5) = -0.0;
  x->At(4, 7) = 0.0;
  for (int c : {2, 9}) x->At(nan_row, c) = 1.0;
  x->At(nan_row, 4) = std::nan("");

  net.ZeroGrad();
  Matrix& grad = net.layer(0).grad_weights;
  for (size_t p = 0; p < grad.size(); ++p) {
    grad.data()[p] = rng.Uniform(-1.0, 1.0);
  }
  Matrix want_grad = grad;
  net.ForwardBatch(&tape);
  Matrix grad_out(batch, out);
  for (size_t p = 0; p < grad_out.size(); ++p) {
    grad_out.data()[p] = rng.Uniform(-1.0, 1.0);
  }
  Matrix grad_in;
  net.BackwardBatch(&tape, grad_out, /*accumulate_param_grads=*/true,
                    &grad_in, input_begin);

  const Linear& first = std::as_const(net).layer(0);
  Matrix z;
  MatTMul(*x, first.weights, &z);
  for (int b = 0; b < batch; ++b) {
    for (int r = 0; r < h; ++r) {
      const double got = tape.pre[0].At(b, r);
      if (b == nan_row) {
        EXPECT_TRUE(std::isnan(got)) << "r=" << r;
      } else {
        EXPECT_EQ(Bits(got), Bits(z.At(b, r) + first.bias[r]))
            << "(" << b << ", " << r << ")";
      }
    }
  }

  // The finite rows through the dense kernel, then the NaN row's columns.
  Matrix finite_dz(nan_row, h);
  Matrix finite_x(nan_row, k);
  for (int b = 0; b < nan_row; ++b) {
    for (int r = 0; r < h; ++r) finite_dz.At(b, r) = tape.dz[0].At(b, r);
    for (int c = 0; c < k; ++c) finite_x.At(b, c) = x->At(b, c);
  }
  AddScaledOuterBatch(finite_dz, finite_x, 1.0, &want_grad);
  for (int r = 0; r < h; ++r) {
    ASSERT_TRUE(std::isnan(tape.dz[0].At(nan_row, r)));
    for (int c = 0; c < k; ++c) {
      const double got = first.grad_weights.At(r, c);
      if (x->At(nan_row, c) != 0.0) {
        EXPECT_TRUE(std::isnan(got)) << "(" << r << ", " << c << ")";
      } else {
        EXPECT_EQ(Bits(got), Bits(want_grad.At(r, c)))
            << "(" << r << ", " << c << ")";
      }
    }
  }

  Matrix want_grad_in;
  MatMul(tape.dz[0], first.weights, &want_grad_in);
  ASSERT_EQ(grad_in.rows(), batch);
  ASSERT_EQ(grad_in.cols(), k - input_begin);
  for (int b = 0; b < batch; ++b) {
    for (int c = 0; c < k - input_begin; ++c) {
      const double got = grad_in.At(b, c);
      const double want = want_grad_in.At(b, input_begin + c);
      if (b == nan_row) {
        EXPECT_TRUE(std::isnan(got)) << "c=" << c;
      } else {
        EXPECT_EQ(Bits(got), Bits(want)) << "(" << b << ", " << c << ")";
      }
    }
  }
}

TEST(MlpBatchTest, ColumnCopyIsNeverReadStale) {
  // After each public way of changing a network, ForwardBatch, which reads
  // the first layer's column copy, equals per-row Forward, which reads W0,
  // bit for bit. Dense rows make any stale column show.
  const std::vector<int> sizes = {9, 8, 2};
  const std::vector<Activation> acts = {Activation::kTanh,
                                        Activation::kIdentity};
  Rng rng(23);
  Mlp net(sizes, acts, &rng);
  Mlp other(sizes, acts, &rng);
  constexpr int batch = 4;
  Matrix rows(batch, sizes[0]);
  for (size_t p = 0; p < rows.size(); ++p) {
    rows.data()[p] = rng.Uniform(-1.0, 1.0);
  }
  BatchTape tape;
  const auto expect_fresh = [&](const Mlp& n, const std::string& after) {
    Matrix* x = tape.Prepare(n, batch);
    *x = rows;
    const Matrix& y = n.ForwardBatch(&tape);
    for (int b = 0; b < batch; ++b) {
      const std::vector<double> want =
          n.Forward(std::vector<double>(rows.row(b), rows.row(b) + sizes[0]));
      for (int j = 0; j < sizes.back(); ++j) {
        EXPECT_EQ(Bits(y.At(b, j)), Bits(want[j]))
            << "after " << after << ": (" << b << ", " << j << ")";
      }
    }
  };
  const auto train_once = [&](Adam* adam) {
    net.ZeroGrad();
    Tape t;
    net.Forward(std::vector<double>(rows.row(0), rows.row(0) + sizes[0]), &t);
    net.Backward(t, {1.0, -1.0});
    adam->Step(&net);
  };
  expect_fresh(net, "construction");
  Adam adam(0.05);
  train_once(&adam);
  expect_fresh(net, "Adam::Step");
  other.SoftUpdateFrom(net, 0.3);
  expect_fresh(other, "SoftUpdateFrom");
  train_once(&adam);  // net's copy stale: the soft update refreshes it
  other.SoftUpdateFrom(net, 0.3);
  expect_fresh(other, "SoftUpdateFrom a stale source");
  expect_fresh(net, "a soft update read the source");
  train_once(&adam);
  other.CopyFrom(net);
  expect_fresh(other, "CopyFrom a stale source");
  other.layer(0).weights.At(1, 1) = -2.0;
  other.SoftUpdateFrom(net, 0.5);
  expect_fresh(other, "SoftUpdateFrom into a stale copy");
  const std::string path = testing::TempDir() + "/mlp_columns.txt";
  ASSERT_TRUE(net.Save(path).ok());
  StatusOr<Mlp> loaded = Mlp::Load(path);
  ASSERT_TRUE(loaded.ok());
  expect_fresh(*loaded, "Load");
  net.layer(0).weights.At(3, 2) = 0.75;
  expect_fresh(net, "a layer(0).weights write");
  net.layer(0).bias[5] = -1.0;
  expect_fresh(net, "a layer(0).bias write");
}

TEST(MlpBatchTest, TapeReusePerformsNoReallocationOnSameShape) {
  Rng rng(17);
  Mlp net({4, 8, 2}, {Activation::kTanh, Activation::kIdentity}, &rng);
  BatchTape tape;
  Matrix* x1 = tape.Prepare(net, 6);
  const double* data1 = x1->data();
  net.ForwardBatch(&tape);
  Matrix* x2 = tape.Prepare(net, 6);
  EXPECT_EQ(x2->data(), data1);  // same buffer, no reallocation
  Matrix* x3 = tape.Prepare(net, 3);  // shrinking reuses storage too
  EXPECT_EQ(x3->rows(), 3);
  EXPECT_EQ(x3->data(), data1);
}

}  // namespace
}  // namespace drlstream::nn
