// AVX2 implementations of the primitive folds (see kernels.h for the
// bit-identity contract). This translation unit is the only one compiled
// with -mavx2 (plus -ffp-contract=off so the scalar tails cannot contract
// to FMA); the rest of the binary stays runnable on non-AVX2 hosts, and
// these entry points are only reached after a cpuid check (kernels.cc).
//
// When the toolchain cannot target AVX2 at all, the functions compile as
// forwarding stubs to the scalar kernels and Avx2CompiledIn() reports
// false, so the dispatch never selects them.

#include "nn/kernels.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace drlstream::nn::kernels {

#if defined(__AVX2__)

bool Avx2CompiledIn() { return true; }

double DotAvx2(const double* a, const double* b, int k) {
  // One 256-bit accumulator holds the scalar path's four chains: lane j of
  // `acc` receives exactly the products acc_j would, in the same order.
  __m256d acc = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, prod);  // mul+add, two roundings — never FMA
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double tail = 0.0;
  for (; i < k; ++i) tail += a[i] * b[i];
  // Same reduction tree as the scalar fold: ((acc0+acc1)+(acc2+acc3))+tail.
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail;
}

void Dot4Avx2(const double* const a[4], const double* b, int k,
              double out[4]) {
  // Register r holds DotAvx2(a[r], b, k)'s four lanes; the shared b load
  // feeds all four chains.
  const double* a0 = a[0];
  const double* a1 = a[1];
  const double* a2 = a[2];
  const double* a3 = a[3];
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m256d vb = _mm256_loadu_pd(b + i);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(a0 + i), vb));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(a1 + i), vb));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(a2 + i), vb));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_loadu_pd(a3 + i), vb));
  }
  double tails[4];
  for (int r = 0; r < 4; ++r) {
    double tail = 0.0;
    for (int t = i; t < k; ++t) tail += a[r][t] * b[t];
    tails[r] = tail;
  }
  // The scalar fold's tree for all four rows at once. hadd pairs lanes
  // (0,1) and (2,3) of two registers; the 128-bit halves then line up each
  // row's (acc0+acc1) with its (acc2+acc3). IEEE addition commutes, so
  // every sum rounds as in DotAvx2's ((l0+l1)+(l2+l3))+tail.
  const __m256d h01 = _mm256_hadd_pd(acc0, acc1);  // r0 01, r1 01, r0 23, r1 23
  const __m256d h23 = _mm256_hadd_pd(acc2, acc3);  // r2 01, r3 01, r2 23, r3 23
  const __m256d pairs01 = _mm256_permute2f128_pd(h01, h23, 0x20);
  const __m256d pairs23 = _mm256_permute2f128_pd(h01, h23, 0x31);
  const __m256d sums = _mm256_add_pd(pairs01, pairs23);  // rows 0, 1, 2, 3
  _mm256_storeu_pd(out, _mm256_add_pd(sums, _mm256_loadu_pd(tails)));
}

void AxpyAvx2(double* y, const double* x, double a, int k) {
  const __m256d va = _mm256_set1_pd(a);
  int i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < k; ++i) y[i] += a * x[i];
}

void SumRowsAvx2(double* z, const double* base, const double* const* rows,
                 int count, int k) {
  // Blocks of 32 elements keep eight accumulators in registers while every
  // row streams past; each element still receives base and then the rows
  // in ascending order, one add at a time, as in the scalar kernel.
  constexpr int kRegs = 8;
  int i = 0;
  for (; i + 4 * kRegs <= k; i += 4 * kRegs) {
    __m256d sums[kRegs];
    for (int q = 0; q < kRegs; ++q) sums[q] = _mm256_loadu_pd(base + i + 4 * q);
    for (int r = 0; r < count; ++r) {
      const double* row = rows[r] + i;
      for (int q = 0; q < kRegs; ++q) {
        sums[q] = _mm256_add_pd(sums[q], _mm256_loadu_pd(row + 4 * q));
      }
    }
    for (int q = 0; q < kRegs; ++q) _mm256_storeu_pd(z + i + 4 * q, sums[q]);
  }
  for (; i + 4 <= k; i += 4) {
    __m256d s = _mm256_loadu_pd(base + i);
    for (int r = 0; r < count; ++r) {
      s = _mm256_add_pd(s, _mm256_loadu_pd(rows[r] + i));
    }
    _mm256_storeu_pd(z + i, s);
  }
  for (; i < k; ++i) {
    double s = base[i];
    for (int r = 0; r < count; ++r) s += rows[r][i];
    z[i] = s;
  }
}

#else  // !defined(__AVX2__)

bool Avx2CompiledIn() { return false; }

double DotAvx2(const double* a, const double* b, int k) {
  return DotScalar(a, b, k);
}

void AxpyAvx2(double* y, const double* x, double a, int k) {
  AxpyScalar(y, x, a, k);
}

void Dot4Avx2(const double* const a[4], const double* b, int k,
              double out[4]) {
  Dot4Scalar(a, b, k, out);
}

void SumRowsAvx2(double* z, const double* base, const double* const* rows,
                 int count, int k) {
  SumRowsScalar(z, base, rows, count, k);
}

#endif  // defined(__AVX2__)

}  // namespace drlstream::nn::kernels
