#ifndef DRLSTREAM_NN_MATRIX_H_
#define DRLSTREAM_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace drlstream::nn {

/// Dense row-major matrix of doubles. Sized for the paper's small MLPs
/// (layers of at most a few thousand units); favors clarity over SIMD.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, 0.0) {
    DRLSTREAM_CHECK_GE(rows, 0);
    DRLSTREAM_CHECK_GE(cols, 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& At(int r, int c) {
    DRLSTREAM_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double At(int r, int c) const {
    DRLSTREAM_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  double* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const double* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  void Fill(double value);
  void Zero() { Fill(0.0); }

  /// Reshapes to rows x cols, reallocating only when the total size grows.
  /// Contents are unspecified afterwards (callers overwrite). Used by the
  /// batched training workspaces so steady-state steps allocate nothing.
  void Resize(int rows, int cols);

  /// this += scale * other (same shape).
  void AddScaled(const Matrix& other, double scale);
  /// Elementwise this *= scale.
  void Scale(double scale);

  /// y = this * x, where x has cols() entries and y has rows() entries.
  void MatVec(const std::vector<double>& x, std::vector<double>* y) const;

  /// y = this^T * x, where x has rows() entries and y has cols() entries.
  void MatTVec(const std::vector<double>& x, std::vector<double>* y) const;

  /// this += a * b^T (rank-one update), a has rows() entries, b cols().
  void AddOuter(const std::vector<double>& a, const std::vector<double>& b);

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// Batched (matrix-matrix) kernels for the minibatch training path. All
/// three run cache-blocked loops and keep the per-element accumulation
/// order identical to the single-sample MatVec/MatTVec/AddOuter kernels:
/// dot products (MatVec, MatTMul) share one four-accumulator fold, and the
/// axpy-style kernels reduce in ascending index / batch order. The batched
/// network passes therefore agree with the per-sample reference bitwise.

/// c = a * b restricted to b's columns [b_col_begin, m): a is n x k, b is
/// k x m, and c is resized to n x (m - b_col_begin). Each element is the
/// full product's bitwise; the columns below b_col_begin are not computed.
void MatMul(const Matrix& a, const Matrix& b, Matrix* c, int b_col_begin = 0);

/// c = a * b^T, where a is n x k, b is m x k, c is resized to n x m.
/// This is the batched forward kernel: rows of `a` are samples, rows of
/// `b` are a layer's weight rows.
void MatTMul(const Matrix& a, const Matrix& b, Matrix* c);

/// t = a^T, resized to a.cols() x a.rows(): row c of t is column c of a.
/// Copies square tiles, so both sides are read and written a cache line at
/// a time.
void Transpose(const Matrix& a, Matrix* t);

/// c += scale * a^T * b, where a is h x n (per-sample output grads), b is
/// h x m (per-sample layer inputs), c is n x m (weight gradients). The
/// batch dimension h is reduced; equivalent to h successive rank-one
/// AddOuter updates in batch order.
void AddScaledOuterBatch(const Matrix& a, const Matrix& b, double scale,
                         Matrix* c);

}  // namespace drlstream::nn

#endif  // DRLSTREAM_NN_MATRIX_H_
