#include "nn/kernels.h"

#include "common/simd.h"

namespace drlstream::nn::kernels {

double DotScalar(const double* a, const double* b, int k) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  int i = 0;
  for (; i + 4 <= k; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  double tail = 0.0;
  for (; i < k; ++i) tail += a[i] * b[i];
  return ((acc0 + acc1) + (acc2 + acc3)) + tail;
}

void Dot4Scalar(const double* const a[4], const double* b, int k,
                double out[4]) {
  // acc[r][l] is lane l of DotScalar(a[r], b, k); the four rows' chains
  // advance together.
  double acc[4][4] = {};
  int i = 0;
  for (; i + 4 <= k; i += 4) {
    for (int r = 0; r < 4; ++r) {
      const double* ar = a[r] + i;
      acc[r][0] += ar[0] * b[i];
      acc[r][1] += ar[1] * b[i + 1];
      acc[r][2] += ar[2] * b[i + 2];
      acc[r][3] += ar[3] * b[i + 3];
    }
  }
  for (int r = 0; r < 4; ++r) {
    double tail = 0.0;
    for (int t = i; t < k; ++t) tail += a[r][t] * b[t];
    out[r] = ((acc[r][0] + acc[r][1]) + (acc[r][2] + acc[r][3])) + tail;
  }
}

void AxpyScalar(double* y, const double* x, double a, int k) {
  for (int i = 0; i < k; ++i) y[i] += a * x[i];
}

void SumRowsScalar(double* z, const double* base, const double* const* rows,
                   int count, int k) {
  int i = 0;
  for (; i + 4 <= k; i += 4) {
    double s0 = base[i], s1 = base[i + 1], s2 = base[i + 2],
           s3 = base[i + 3];
    for (int r = 0; r < count; ++r) {
      const double* row = rows[r] + i;
      s0 += row[0];
      s1 += row[1];
      s2 += row[2];
      s3 += row[3];
    }
    z[i] = s0;
    z[i + 1] = s1;
    z[i + 2] = s2;
    z[i + 3] = s3;
  }
  for (; i < k; ++i) {
    double s = base[i];
    for (int r = 0; r < count; ++r) s += rows[r][i];
    z[i] = s;
  }
}

bool SimdActive() {
  return SimdEnabled() && Avx2CompiledIn() && CpuSupportsAvx2();
}

double Dot(const double* a, const double* b, int k) {
  return ResolveDot()(a, b, k);
}

void Axpy(double* y, const double* x, double a, int k) {
  ResolveAxpy()(y, x, a, k);
}

DotFn ResolveDot() { return SimdActive() ? DotAvx2 : DotScalar; }

Dot4Fn ResolveDot4() { return SimdActive() ? Dot4Avx2 : Dot4Scalar; }

AxpyFn ResolveAxpy() { return SimdActive() ? AxpyAvx2 : AxpyScalar; }

SumRowsFn ResolveSumRows() {
  return SimdActive() ? SumRowsAvx2 : SumRowsScalar;
}

}  // namespace drlstream::nn::kernels
