#include "nn/kernels.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/simd.h"
#include "nn/tanh_constants.h"

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

double TanhElement(double x) {
  using namespace tanh_constants;
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  const uint64_t x_bits = std::bit_cast<uint64_t>(x);
  const double z = std::bit_cast<double>(x_bits & ~kSignBit);
  // The result is a + b * (num / den) on either branch; TanhAvx2 computes
  // both branches' four terms in every lane and keeps one set, so the ops
  // below are exactly one lane's.
  double a, b, num, den;
  if (z < kSmallBound) {
    const double s = z * z;
    a = z;
    b = z * s;
    num = (kP0 * s + kP1) * s + kP2;
    den = ((s + kQ0) * s + kQ1) * s + kQ2;
  } else {
    // `kMaxAbs < z ? kMaxAbs : z` is _mm256_min_pd(kMaxAbs, z): a NaN z
    // passes through.
    const double w = 2.0 * (kMaxAbs < z ? kMaxAbs : z);
    const double shifted = w * kLog2e + kRoundShifter;
    const double n = shifted - kRoundShifter;
    const double g = (w - n * kLn2Hi) - n * kLn2Lo;
    const double gg = g * g;
    const double p = g * ((kEP0 * gg + kEP1) * gg + kEP2);
    const double q = ((kEQ0 * gg + kEQ1) * gg + kEQ2) * gg + kEQ3;
    const double exp_g = 1.0 + 2.0 * (p / (q - p));
    // 2^n: the shifter left n in the low bits; add the exponent bias and
    // move it into the exponent field.
    const double two_n = std::bit_cast<double>(
        (std::bit_cast<uint64_t>(shifted) + 1023) << 52);
    a = 1.0;
    b = -1.0;
    num = 2.0;
    den = exp_g * two_n + 1.0;
  }
  const double r = a + b * (num / den);  // >= +0 (or NaN)
  return std::bit_cast<double>(std::bit_cast<uint64_t>(r) |
                               (x_bits & kSignBit));
}

void TanhScalar(const double* x, double* y, int k) {
  for (int i = 0; i < k; ++i) y[i] = TanhElement(x[i]);
}

namespace {

/// Outputs per FoldColumns pass: a pass keeps its block's five lanes on the
/// stack (2.5 KB) and scans x once, so a first layer of up to 64 units
/// takes one scan.
constexpr int kFoldBlock = 64;

}  // namespace

void FoldColumnsScalar(const double* cols, const double* x, int k, int h,
                       double* z) {
  const int body = k - k % 4;  // Dot's four lanes; [body, k) is its tail
  for (int r0 = 0; r0 < h; r0 += kFoldBlock) {
    const int width = std::min(kFoldBlock, h - r0);
    double lanes[5][kFoldBlock] = {};
    for (int i = 0; i < k; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;  // a NaN input compares unequal: added
      double* lane = lanes[i < body ? i % 4 : 4];
      const double* col = cols + static_cast<size_t>(i) * h + r0;
      for (int r = 0; r < width; ++r) lane[r] += col[r] * xi;
    }
    for (int r = 0; r < width; ++r) {
      z[r0 + r] = ((lanes[0][r] + lanes[1][r]) + (lanes[2][r] + lanes[3][r])) +
                  lanes[4][r];
    }
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

void Tanh(const double* x, double* y, int k) { ResolveTanh()(x, y, k); }

void FoldColumns(const double* cols, const double* x, int k, int h,
                 double* z) {
  ResolveFoldColumns()(cols, x, k, h, z);
}

DotFn ResolveDot() { return SimdActive() ? DotAvx2 : DotScalar; }

Dot4Fn ResolveDot4() { return SimdActive() ? Dot4Avx2 : Dot4Scalar; }

AxpyFn ResolveAxpy() { return SimdActive() ? AxpyAvx2 : AxpyScalar; }

SumRowsFn ResolveSumRows() {
  return SimdActive() ? SumRowsAvx2 : SumRowsScalar;
}

TanhFn ResolveTanh() { return SimdActive() ? TanhAvx2 : TanhScalar; }

FoldColumnsFn ResolveFoldColumns() {
  return SimdActive() ? FoldColumnsAvx2 : FoldColumnsScalar;
}

}  // namespace drlstream::nn::kernels
