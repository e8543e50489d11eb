// AVX2 implementations of the primitive folds (see kernels.h for the
// bit-identity contract). This translation unit is the only one compiled
// with -mavx2 (the nn library's -ffp-contract=off keeps the scalar tails
// from contracting to FMA); the rest of the binary stays runnable on
// non-AVX2 hosts, and these entry points are only reached after a cpuid
// check (kernels.cc).
//
// When the toolchain cannot target AVX2 at all, the functions compile as
// forwarding stubs to the scalar kernels and Avx2CompiledIn() reports
// false, so the dispatch never selects them.

#include "nn/kernels.h"

#include <algorithm>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "nn/tanh_constants.h"

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

namespace {

/// TanhElement on four lanes: both branches' (a, b, num, den) computed with
/// TanhElement's ops and blended by |x| < kSmallBound, so the final
/// division is shared and each lane's bits are the scalar element's.
__m256d Tanh4(__m256d x) {
  using namespace tanh_constants;
  const auto c = [](double v) { return _mm256_set1_pd(v); };
  const __m256d sign_bit = c(-0.0);
  const __m256d z = _mm256_andnot_pd(sign_bit, x);
  // |x| < kSmallBound: x + x*s*P(s)/Q(s).
  const __m256d s = _mm256_mul_pd(z, z);
  const __m256d small_b = _mm256_mul_pd(z, s);
  const __m256d small_num = _mm256_add_pd(
      _mm256_mul_pd(_mm256_add_pd(_mm256_mul_pd(c(kP0), s), c(kP1)), s),
      c(kP2));
  const __m256d small_den = _mm256_add_pd(
      _mm256_mul_pd(
          _mm256_add_pd(_mm256_mul_pd(_mm256_add_pd(s, c(kQ0)), s), c(kQ1)),
          s),
      c(kQ2));
  // Otherwise: 1 - 2/(e^g * 2^n + 1).
  const __m256d w = _mm256_mul_pd(c(2.0), _mm256_min_pd(c(kMaxAbs), z));
  const __m256d shifted =
      _mm256_add_pd(_mm256_mul_pd(w, c(kLog2e)), c(kRoundShifter));
  const __m256d n = _mm256_sub_pd(shifted, c(kRoundShifter));
  const __m256d g = _mm256_sub_pd(
      _mm256_sub_pd(w, _mm256_mul_pd(n, c(kLn2Hi))),
      _mm256_mul_pd(n, c(kLn2Lo)));
  const __m256d gg = _mm256_mul_pd(g, g);
  const __m256d p = _mm256_mul_pd(
      g, _mm256_add_pd(
             _mm256_mul_pd(
                 _mm256_add_pd(_mm256_mul_pd(c(kEP0), gg), c(kEP1)), gg),
             c(kEP2)));
  const __m256d q = _mm256_add_pd(
      _mm256_mul_pd(
          _mm256_add_pd(
              _mm256_mul_pd(
                  _mm256_add_pd(_mm256_mul_pd(c(kEQ0), gg), c(kEQ1)), gg),
              c(kEQ2)),
          gg),
      c(kEQ3));
  const __m256d exp_g = _mm256_add_pd(
      c(1.0), _mm256_mul_pd(c(2.0), _mm256_div_pd(p, _mm256_sub_pd(q, p))));
  const __m256d two_n = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_castpd_si256(shifted),
                       _mm256_set1_epi64x(1023)),
      52));
  const __m256d big_den = _mm256_add_pd(_mm256_mul_pd(exp_g, two_n), c(1.0));
  // Ordered compare: a NaN lane takes the second branch, as in the scalar.
  const __m256d small = _mm256_cmp_pd(z, c(kSmallBound), _CMP_LT_OQ);
  const __m256d a = _mm256_blendv_pd(c(1.0), z, small);
  const __m256d b = _mm256_blendv_pd(c(-1.0), small_b, small);
  const __m256d num = _mm256_blendv_pd(c(2.0), small_num, small);
  const __m256d den = _mm256_blendv_pd(big_den, small_den, small);
  const __m256d r =
      _mm256_add_pd(a, _mm256_mul_pd(b, _mm256_div_pd(num, den)));
  return _mm256_or_pd(r, _mm256_and_pd(x, sign_bit));
}

}  // namespace

void TanhAvx2(const double* x, double* y, int k) {
  int i = 0;
  for (; i + 4 <= k; i += 4) {
    _mm256_storeu_pd(y + i, Tanh4(_mm256_loadu_pd(x + i)));
  }
  if (i == k) return;
  // The lanes are independent, so the 1-3 tail elements run as one
  // zero-padded vector.
  alignas(32) double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (int j = i; j < k; ++j) lanes[j - i] = x[j];
  _mm256_store_pd(lanes, Tanh4(_mm256_load_pd(lanes)));
  for (int j = i; j < k; ++j) y[j] = lanes[j - i];
}

void FoldColumnsAvx2(const double* cols, const double* x, int k, int h,
                     double* z) {
  // FoldColumnsScalar four outputs at a time: every lane element receives
  // the same products, in the same order, and the same final tree. One
  // compare tests four inputs, so a group of zeros (most of a one-hot
  // state) costs one untaken branch.
  constexpr int kFoldBlock = 64;  // as in kernels.cc
  const int body = k - k % 4;
  for (int r0 = 0; r0 < h; r0 += kFoldBlock) {
    const int width = std::min(kFoldBlock, h - r0);
    const int vec_width = width - width % 4;
    alignas(32) double lanes[5][kFoldBlock] = {};
    const auto add_column = [&](int i, double* lane) {
      const double xi = x[i];
      const double* col = cols + static_cast<size_t>(i) * h + r0;
      const __m256d vx = _mm256_set1_pd(xi);
      int r = 0;
      for (; r < vec_width; r += 4) {
        const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(col + r), vx);
        _mm256_store_pd(lane + r,
                        _mm256_add_pd(_mm256_load_pd(lane + r), prod));
      }
      for (; r < width; ++r) lane[r] += col[r] * xi;
    };
    for (int i0 = 0; i0 < body; i0 += 4) {
      // Unordered-or-unequal: a NaN input is added, as in the scalar.
      unsigned nonzero = static_cast<unsigned>(_mm256_movemask_pd(
          _mm256_cmp_pd(_mm256_loadu_pd(x + i0), _mm256_setzero_pd(),
                        _CMP_NEQ_UQ)));
      while (nonzero != 0) {
        const int lane = __builtin_ctz(nonzero);
        add_column(i0 + lane, lanes[lane]);
        nonzero &= nonzero - 1;
      }
    }
    for (int i = body; i < k; ++i) {
      if (x[i] != 0.0) add_column(i, lanes[4]);
    }
    int r = 0;
    for (; r < vec_width; r += 4) {
      const __m256d s01 = _mm256_add_pd(_mm256_load_pd(lanes[0] + r),
                                        _mm256_load_pd(lanes[1] + r));
      const __m256d s23 = _mm256_add_pd(_mm256_load_pd(lanes[2] + r),
                                        _mm256_load_pd(lanes[3] + r));
      _mm256_storeu_pd(z + r0 + r,
                       _mm256_add_pd(_mm256_add_pd(s01, s23),
                                     _mm256_load_pd(lanes[4] + r)));
    }
    for (; r < width; ++r) {
      z[r0 + r] = ((lanes[0][r] + lanes[1][r]) + (lanes[2][r] + lanes[3][r])) +
                  lanes[4][r];
    }
  }
}

void AdamStepAvx2(double* w, double* m, double* v, const double* g, int k,
                  const AdamCoefficients& c) {
  // AdamStepScalar's ops lane by lane: the same products, quotients and
  // square root, each rounded once, in the same order.
  const __m256d beta1 = _mm256_set1_pd(c.beta1);
  const __m256d beta2 = _mm256_set1_pd(c.beta2);
  const __m256d decay1 = _mm256_set1_pd(1.0 - c.beta1);
  const __m256d decay2 = _mm256_set1_pd(1.0 - c.beta2);
  const __m256d rate = _mm256_set1_pd(c.learning_rate);
  const __m256d bc1 = _mm256_set1_pd(c.bias_correction1);
  const __m256d bc2 = _mm256_set1_pd(c.bias_correction2);
  const __m256d eps = _mm256_set1_pd(c.epsilon);
  int i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m256d gi = _mm256_loadu_pd(g + i);
    const __m256d mi =
        _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + i)),
                      _mm256_mul_pd(decay1, gi));
    const __m256d vi = _mm256_add_pd(
        _mm256_mul_pd(beta2, _mm256_loadu_pd(v + i)),
        _mm256_mul_pd(_mm256_mul_pd(decay2, gi), gi));
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(rate, _mm256_div_pd(mi, bc1)),
        _mm256_add_pd(_mm256_sqrt_pd(_mm256_div_pd(vi, bc2)), eps));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    _mm256_storeu_pd(w + i, _mm256_sub_pd(_mm256_loadu_pd(w + i), step));
  }
  AdamStepScalar(w + i, m + i, v + i, g + i, k - i, c);
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

void TanhAvx2(const double* x, double* y, int k) { TanhScalar(x, y, k); }

void FoldColumnsAvx2(const double* cols, const double* x, int k, int h,
                     double* z) {
  FoldColumnsScalar(cols, x, k, h, z);
}

void AdamStepAvx2(double* w, double* m, double* v, const double* g, int k,
                  const AdamCoefficients& c) {
  AdamStepScalar(w, m, v, g, k, c);
}

#endif  // defined(__AVX2__)

}  // namespace drlstream::nn::kernels
