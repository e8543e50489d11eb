#include "nn/matrix.h"

#include <algorithm>

#include "nn/kernels.h"

namespace drlstream::nn {

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  DRLSTREAM_CHECK(SameShape(other));
  kernels::Axpy(data_.data(), other.data_.data(), scale,
                static_cast<int>(data_.size()));
}

void Matrix::Scale(double scale) {
  for (double& v : data_) v *= scale;
}

// All dot products in the library — single-sample MatVec and batched
// MatTMul alike — run the shared four-accumulator fold in nn/kernels.h
// (scalar or AVX2, selected at runtime; both produce bit-identical sums),
// and the axpy-style kernels reduce in ascending index / batch order with
// a purely elementwise inner loop. A single serial fold could not be
// vectorized without reassociation (which -ffast-math would do
// non-deterministically), so the widened fold order is fixed once in the
// kernel layer and every path shares it. Blocks of four outputs go through
// Dot4, whose four chains each equal one Dot bitwise, so the blocking
// changes latency, never a sum.

void Matrix::MatVec(const std::vector<double>& x,
                    std::vector<double>* y) const {
  DRLSTREAM_CHECK_EQ(static_cast<int>(x.size()), cols_);
  const kernels::DotFn dot = kernels::ResolveDot();
  const kernels::Dot4Fn dot4 = kernels::ResolveDot4();
  y->resize(rows_);
  int r = 0;
  for (; r + 4 <= rows_; r += 4) {
    const double* const block[4] = {row(r), row(r + 1), row(r + 2),
                                    row(r + 3)};
    dot4(block, x.data(), cols_, y->data() + r);
  }
  for (; r < rows_; ++r) (*y)[r] = dot(row(r), x.data(), cols_);
}

void Matrix::MatTVec(const std::vector<double>& x,
                     std::vector<double>* y) const {
  DRLSTREAM_CHECK_EQ(static_cast<int>(x.size()), rows_);
  const kernels::AxpyFn axpy = kernels::ResolveAxpy();
  y->assign(cols_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    axpy(y->data(), row(r), xr, cols_);
  }
}

void Matrix::Resize(int rows, int cols) {
  DRLSTREAM_CHECK_GE(rows, 0);
  DRLSTREAM_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<size_t>(rows) * cols);
}

void Matrix::AddOuter(const std::vector<double>& a,
                      const std::vector<double>& b) {
  DRLSTREAM_CHECK_EQ(static_cast<int>(a.size()), rows_);
  DRLSTREAM_CHECK_EQ(static_cast<int>(b.size()), cols_);
  const kernels::AxpyFn axpy = kernels::ResolveAxpy();
  for (int r = 0; r < rows_; ++r) {
    const double ar = a[r];
    if (ar == 0.0) continue;
    axpy(row(r), b.data(), ar, cols_);
  }
}

namespace {

/// Row-block size for the GEMM kernels: small enough that a block of
/// output/input rows stays cache-resident, large enough to amortize each
/// streamed row of the other operand across the block.
constexpr int kRowBlock = 8;

}  // namespace

void MatMul(const Matrix& a, const Matrix& b, Matrix* c) {
  DRLSTREAM_CHECK_EQ(a.cols(), b.rows());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  const kernels::AxpyFn axpy = kernels::ResolveAxpy();
  c->Resize(n, m);
  c->Zero();
  for (int i0 = 0; i0 < n; i0 += kRowBlock) {
    const int i1 = std::min(n, i0 + kRowBlock);
    // k advances in the outer loop so each C element accumulates its
    // contributions in ascending-k order (same left fold as MatTVec).
    for (int kk = 0; kk < k; ++kk) {
      const double* b_row = b.row(kk);
      for (int i = i0; i < i1; ++i) {
        const double a_ik = a.row(i)[kk];
        if (a_ik == 0.0) continue;
        axpy(c->row(i), b_row, a_ik, m);
      }
    }
  }
}

void MatTMul(const Matrix& a, const Matrix& b, Matrix* c) {
  DRLSTREAM_CHECK_EQ(a.cols(), b.cols());
  const int n = a.rows(), k = a.cols(), m = b.rows();
  const kernels::DotFn dot = kernels::ResolveDot();
  const kernels::Dot4Fn dot4 = kernels::ResolveDot4();
  c->Resize(n, m);
  for (int i0 = 0; i0 < n; i0 += kRowBlock) {
    const int i1 = std::min(n, i0 + kRowBlock);
    // Four b rows at a time against each a row: Dot4 forms b_j[t] * a_i[t]
    // where Dot forms a_i[t] * b_j[t], which IEEE multiplication makes the
    // same product, so c(i, j) == Dot(a.row(i), b.row(j), k) bitwise.
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      const double* const b_rows[4] = {b.row(j), b.row(j + 1), b.row(j + 2),
                                       b.row(j + 3)};
      for (int i = i0; i < i1; ++i) dot4(b_rows, a.row(i), k, c->row(i) + j);
    }
    for (; j < m; ++j) {
      const double* b_row = b.row(j);
      for (int i = i0; i < i1; ++i) {
        c->row(i)[j] = dot(a.row(i), b_row, k);
      }
    }
  }
}

void Transpose(const Matrix& a, Matrix* t) {
  t->Resize(a.cols(), a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    const double* a_row = a.row(r);
    for (int c = 0; c < a.cols(); ++c) t->row(c)[r] = a_row[c];
  }
}

void SoftUpdateTransposed(const Matrix& source, double tau,
                          Matrix* target_t) {
  DRLSTREAM_CHECK_EQ(target_t->rows(), source.cols());
  DRLSTREAM_CHECK_EQ(target_t->cols(), source.rows());
  const double keep = 1.0 - tau;
  for (int c = 0; c < source.cols(); ++c) {
    double* t = target_t->row(c);
    for (int r = 0; r < source.rows(); ++r) {
      t[r] = t[r] * keep;
      t[r] += tau * source.row(r)[c];
    }
  }
}

void AddScaledOuterBatch(const Matrix& a, const Matrix& b, double scale,
                         Matrix* c) {
  DRLSTREAM_CHECK_EQ(a.rows(), b.rows());
  DRLSTREAM_CHECK_EQ(c->rows(), a.cols());
  DRLSTREAM_CHECK_EQ(c->cols(), b.cols());
  const int h = a.rows(), n = a.cols(), m = b.cols();
  const kernels::AxpyFn axpy = kernels::ResolveAxpy();
  for (int r0 = 0; r0 < n; r0 += kRowBlock) {
    const int r1 = std::min(n, r0 + kRowBlock);
    // Batch index i advances in the outer loop: each weight-grad element
    // receives its per-sample contributions in batch order, exactly like
    // h successive AddOuter calls.
    for (int i = 0; i < h; ++i) {
      const double* a_row = a.row(i);
      const double* b_row = b.row(i);
      for (int r = r0; r < r1; ++r) {
        const double g = scale * a_row[r];
        if (g == 0.0) continue;
        axpy(c->row(r), b_row, g, m);
      }
    }
  }
}

}  // namespace drlstream::nn
