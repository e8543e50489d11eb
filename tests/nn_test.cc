#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "common/rng.h"
#include "gradient_check.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace drlstream::nn {
namespace {

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

TEST(MlpTest, CopyFromMakesIdentical) {
  Rng rng(9);
  Mlp a({3, 4, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  Mlp b({3, 4, 1}, {Activation::kTanh, Activation::kIdentity}, &rng);
  b.CopyFrom(a);
  const std::vector<double> x = {0.4, 0.5, -0.6};
  EXPECT_EQ(a.Forward(x), b.Forward(x));
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
