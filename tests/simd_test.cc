// The SIMD contract (DESIGN.md "SIMD kernels"): the AVX2 kernels must be
// bit-identical to the scalar fold — same four accumulator lanes, mul+add
// (never FMA), same reduction tree — so enabling/disabling SIMD can never
// change a golden. Every comparison here is EXPECT_EQ on doubles.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "rl/ddpg_agent.h"
#include "rl/state.h"

namespace drlstream {
namespace {

/// Restores the process-wide SIMD mode (and thread count) on scope exit so
/// tests cannot leak a forced mode into the rest of the suite.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode) : saved_(GetSimdMode()) {
    SetSimdMode(mode);
  }
  ~ScopedSimdMode() { SetSimdMode(saved_); }

 private:
  SimdMode saved_;
};

std::vector<double> RandomVec(int n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(-2.0, 2.0);
  return v;
}

bool Avx2Available() {
  return nn::kernels::Avx2CompiledIn() && CpuSupportsAvx2();
}

TEST(SimdKernelTest, DotBitIdenticalToScalarAtEveryLength) {
  if (!Avx2Available()) GTEST_SKIP() << "AVX2 unavailable on this host";
  Rng rng(11);
  // Lengths straddle every tail case (n mod 4) and the blocked kernels'
  // typical panel sizes.
  for (int n = 0; n <= 70; ++n) {
    const std::vector<double> a = RandomVec(n, &rng);
    const std::vector<double> b = RandomVec(n, &rng);
    EXPECT_EQ(nn::kernels::DotScalar(a.data(), b.data(), n),
              nn::kernels::DotAvx2(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST(SimdKernelTest, AxpyBitIdenticalToScalar) {
  if (!Avx2Available()) GTEST_SKIP() << "AVX2 unavailable on this host";
  Rng rng(12);
  for (int n : {0, 1, 3, 4, 7, 16, 33, 64, 70}) {
    const std::vector<double> x = RandomVec(n, &rng);
    std::vector<double> y_scalar = RandomVec(n, &rng);
    std::vector<double> y_avx = y_scalar;
    nn::kernels::AxpyScalar(y_scalar.data(), x.data(), 0.37, n);
    nn::kernels::AxpyAvx2(y_avx.data(), x.data(), 0.37, n);
    EXPECT_EQ(y_scalar, y_avx) << "axpy n=" << n;
  }
}

/// Lengths around every tail case of the four-lane folds and the 32-wide
/// SumRows blocks, plus the critic's state (~1000) and state+action
/// (~2000) widths at CQ-large scale.
constexpr int kKernelLengths[] = {0,  1,  3,  4,  5,  15,   16,  17,
                                  31, 33, 64, 65, 1001, 2010};

TEST(SimdKernelTest, Dot4EqualsFourDotsInBothModes) {
  Rng rng(13);
  for (int k : kKernelLengths) {
    std::vector<std::vector<double>> a;
    for (int r = 0; r < 4; ++r) a.push_back(RandomVec(k, &rng));
    const std::vector<double> b = RandomVec(k, &rng);
    const double* const rows[4] = {a[0].data(), a[1].data(), a[2].data(),
                                   a[3].data()};
    double scalar[4];
    nn::kernels::Dot4Scalar(rows, b.data(), k, scalar);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(scalar[r], nn::kernels::DotScalar(rows[r], b.data(), k))
          << "k=" << k << " row " << r;
    }
    if (!Avx2Available()) continue;
    double simd[4];
    nn::kernels::Dot4Avx2(rows, b.data(), k, simd);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(simd[r], nn::kernels::DotAvx2(rows[r], b.data(), k))
          << "k=" << k << " row " << r;
      EXPECT_EQ(simd[r], scalar[r]) << "k=" << k << " row " << r;
    }
  }
}

/// base + rows[0] + ... + rows[count - 1], one elementwise pass per row in
/// ascending row order: the sum SumRows must reproduce bitwise.
std::vector<double> SequentialSum(const std::vector<double>& base,
                                  const std::vector<std::vector<double>>& rows,
                                  int count) {
  std::vector<double> z = base;
  for (int r = 0; r < count; ++r) {
    for (size_t i = 0; i < z.size(); ++i) z[i] += rows[r][i];
  }
  return z;
}

TEST(SimdKernelTest, SumRowsEqualsSequentialSumInBothModes) {
  Rng rng(14);
  std::vector<nn::kernels::SumRowsFn> kernels = {nn::kernels::SumRowsScalar};
  if (Avx2Available()) kernels.push_back(nn::kernels::SumRowsAvx2);
  for (int k : kKernelLengths) {
    const std::vector<double> base = RandomVec(k, &rng);
    std::vector<std::vector<double>> rows;
    std::vector<const double*> row_ptrs;
    for (int r = 0; r < 5; ++r) {
      // Mixed magnitudes, so a reordered add would round differently.
      std::vector<double> row = RandomVec(k, &rng);
      for (double& v : row) v *= r % 2 == 0 ? 1e-3 : 1e5;
      rows.push_back(std::move(row));
      row_ptrs.push_back(rows.back().data());
    }
    for (int count = 0; count <= 5; ++count) {
      const std::vector<double> want = SequentialSum(base, rows, count);
      for (nn::kernels::SumRowsFn sum_rows : kernels) {
        std::vector<double> z(k, 0.0);
        sum_rows(z.data(), base.data(), row_ptrs.data(), count, k);
        EXPECT_EQ(z, want) << "k=" << k << " count=" << count;
        std::vector<double> in_place = base;  // z aliases base
        sum_rows(in_place.data(), in_place.data(), row_ptrs.data(), count, k);
        EXPECT_EQ(in_place, want) << "k=" << k << " count=" << count;
      }
    }
  }
}

TEST(SimdDispatchTest, OffModeAlwaysResolvesScalar) {
  ScopedSimdMode off(SimdMode::kOff);
  EXPECT_FALSE(nn::kernels::SimdActive());
  EXPECT_EQ(nn::kernels::ResolveDot(), &nn::kernels::DotScalar);
  EXPECT_EQ(nn::kernels::ResolveDot4(), &nn::kernels::Dot4Scalar);
  EXPECT_EQ(nn::kernels::ResolveAxpy(), &nn::kernels::AxpyScalar);
  EXPECT_EQ(nn::kernels::ResolveSumRows(), &nn::kernels::SumRowsScalar);
}

TEST(SimdDispatchTest, AutoModeResolvesAvx2WhenAvailable) {
  ScopedSimdMode auto_mode(SimdMode::kAuto);
  if (!Avx2Available()) {
    EXPECT_FALSE(nn::kernels::SimdActive());
    EXPECT_EQ(nn::kernels::ResolveDot(), &nn::kernels::DotScalar);
    return;
  }
  EXPECT_TRUE(nn::kernels::SimdActive());
  EXPECT_EQ(nn::kernels::ResolveDot(), &nn::kernels::DotAvx2);
  EXPECT_EQ(nn::kernels::ResolveDot4(), &nn::kernels::Dot4Avx2);
  EXPECT_EQ(nn::kernels::ResolveAxpy(), &nn::kernels::AxpyAvx2);
  EXPECT_EQ(nn::kernels::ResolveSumRows(), &nn::kernels::SumRowsAvx2);
}

TEST(SimdDispatchTest, ModeFlipTakesEffectImmediately) {
  ScopedSimdMode off(SimdMode::kOff);
  EXPECT_EQ(nn::kernels::ResolveDot(), &nn::kernels::DotScalar);
  SetSimdMode(SimdMode::kAuto);
  if (Avx2Available()) {
    EXPECT_EQ(nn::kernels::ResolveDot(), &nn::kernels::DotAvx2);
  }
  SetSimdMode(SimdMode::kOff);
  EXPECT_EQ(nn::kernels::ResolveDot(), &nn::kernels::DotScalar);
}

/// Runs every matrix kernel under the given mode on fixed random inputs.
struct MatrixKernelOutputs {
  std::vector<double> mat_vec;
  nn::Matrix mat_mul{1, 1};
  nn::Matrix mat_t_mul{1, 1};
  nn::Matrix outer{1, 1};
};

MatrixKernelOutputs RunMatrixKernels(SimdMode mode) {
  ScopedSimdMode scoped(mode);
  Rng rng(21);
  const int m = 33, k = 47, n = 29;
  nn::Matrix a(m, k), b(k, n), c(m, n), d(n, k);
  for (int i = 0; i < m * k; ++i) a.data()[i] = rng.Uniform(-1.0, 1.0);
  for (int i = 0; i < k * n; ++i) b.data()[i] = rng.Uniform(-1.0, 1.0);
  for (int i = 0; i < m * n; ++i) c.data()[i] = rng.Uniform(-1.0, 1.0);
  for (int i = 0; i < n * k; ++i) d.data()[i] = rng.Uniform(-1.0, 1.0);
  const std::vector<double> x = RandomVec(k, &rng);

  MatrixKernelOutputs out;
  a.MatVec(x, &out.mat_vec);
  nn::MatMul(a, b, &out.mat_mul);        // (m x k)(k x n)  -> m x n
  nn::MatTMul(a, d, &out.mat_t_mul);     // (m x k)(n x k)^T -> m x n
  out.outer.Resize(k, n);
  out.outer.Zero();
  nn::AddScaledOuterBatch(a, c, 0.73, &out.outer);  // a^T c -> k x n
  return out;
}

TEST(SimdMatrixTest, AllMatrixKernelsBitIdenticalAcrossModes) {
  if (!Avx2Available()) GTEST_SKIP() << "AVX2 unavailable on this host";
  const MatrixKernelOutputs scalar = RunMatrixKernels(SimdMode::kOff);
  const MatrixKernelOutputs simd = RunMatrixKernels(SimdMode::kAuto);
  EXPECT_EQ(scalar.mat_vec, simd.mat_vec);
  for (int i = 0; i < scalar.mat_mul.rows() * scalar.mat_mul.cols(); ++i) {
    ASSERT_EQ(scalar.mat_mul.data()[i], simd.mat_mul.data()[i]) << i;
  }
  for (int i = 0; i < scalar.mat_t_mul.rows() * scalar.mat_t_mul.cols(); ++i) {
    ASSERT_EQ(scalar.mat_t_mul.data()[i], simd.mat_t_mul.data()[i]) << i;
  }
  for (int i = 0; i < scalar.outer.rows() * scalar.outer.cols(); ++i) {
    ASSERT_EQ(scalar.outer.data()[i], simd.outer.data()[i]) << i;
  }
}

TEST(SimdMatrixTest, MatVecAndMatTMulEqualPerRowDotInBothModes) {
  // MatVec and MatTMul run four rows per Dot4 call and the rest through
  // Dot; 1, 3, 5 and 33 rows cover no block, blocks plus a remainder, and
  // several blocks. Every output must equal the plain per-row Dot.
  for (SimdMode mode : {SimdMode::kOff, SimdMode::kAuto}) {
    ScopedSimdMode scoped(mode);
    const nn::kernels::DotFn dot = nn::kernels::ResolveDot();
    Rng rng(15);
    for (int rows : {1, 3, 5, 33}) {
      for (int k : {1, 7, 64, 65}) {
        nn::Matrix w(rows, k);
        for (size_t i = 0; i < w.size(); ++i) {
          w.data()[i] = rng.Uniform(-1.0, 1.0);
        }
        const std::vector<double> x = RandomVec(k, &rng);
        std::vector<double> y;
        w.MatVec(x, &y);
        ASSERT_EQ(y.size(), static_cast<size_t>(rows));
        for (int r = 0; r < rows; ++r) {
          EXPECT_EQ(y[r], dot(w.row(r), x.data(), k))
              << "MatVec rows=" << rows << " k=" << k << " r=" << r;
        }
        // a has 9 rows: one full kRowBlock of 8 plus one.
        nn::Matrix a(9, k);
        for (size_t i = 0; i < a.size(); ++i) {
          a.data()[i] = rng.Uniform(-1.0, 1.0);
        }
        nn::Matrix c;
        nn::MatTMul(a, w, &c);
        ASSERT_EQ(c.rows(), 9);
        ASSERT_EQ(c.cols(), rows);
        for (int i = 0; i < 9; ++i) {
          for (int j = 0; j < rows; ++j) {
            EXPECT_EQ(c.row(i)[j], dot(a.row(i), w.row(j), k))
                << "MatTMul b rows=" << rows << " k=" << k << " (" << i
                << ", " << j << ")";
          }
        }
      }
    }
  }
}

/// End-to-end: a DDPG training + decision sequence must produce the exact
/// same losses and schedules under both modes at every thread count the
/// policy-equivalence goldens cover (1, 2, 4).
struct AgentTrace {
  std::vector<double> losses;
  std::vector<int> greedy_assignments;
};

AgentTrace RunDdpgTrace(SimdMode mode, int threads) {
  ScopedSimdMode scoped(mode);
  SetGlobalThreadCount(threads);
  rl::StateEncoder encoder(12, 4, 2, 900.0);
  rl::DdpgConfig config;
  config.minibatch_size = 8;
  config.replay_capacity = 64;
  config.knn_k = 4;
  rl::DdpgAgent agent(encoder, config);
  Rng rng(5);
  for (int i = 0; i < 48; ++i) {
    rl::Transition t;
    t.state.assignments.resize(12);
    t.next_state.assignments.resize(12);
    for (int e = 0; e < 12; ++e) {
      t.state.assignments[e] = rng.UniformInt(0, 3);
      t.next_state.assignments[e] = rng.UniformInt(0, 3);
    }
    t.state.spout_rates.assign(2, 900.0);
    t.next_state.spout_rates = t.state.spout_rates;
    t.action_assignments = t.next_state.assignments;
    t.reward = rng.Uniform(-3.0, 0.0);
    agent.Observe(t);
  }
  AgentTrace trace;
  for (int step = 0; step < 6; ++step) trace.losses.push_back(agent.TrainStep());
  rl::State state;
  state.assignments.assign(12, 0);
  state.spout_rates.assign(2, 900.0);
  sched::Schedule greedy(1, 1);
  EXPECT_TRUE(agent.GreedyActionInto(state, &greedy).ok());
  trace.greedy_assignments = greedy.assignments();
  return trace;
}

TEST(SimdGoldenTest, DdpgTrainingBitIdenticalAcrossModesAndThreads) {
  if (!Avx2Available()) GTEST_SKIP() << "AVX2 unavailable on this host";
  for (int threads : {1, 2, 4}) {
    const AgentTrace scalar = RunDdpgTrace(SimdMode::kOff, threads);
    const AgentTrace simd = RunDdpgTrace(SimdMode::kAuto, threads);
    EXPECT_EQ(scalar.losses, simd.losses) << "threads=" << threads;
    EXPECT_EQ(scalar.greedy_assignments, simd.greedy_assignments)
        << "threads=" << threads;
  }
  SetGlobalThreadCount(0);
}

}  // namespace
}  // namespace drlstream
