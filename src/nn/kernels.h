#ifndef DRLSTREAM_NN_KERNELS_H_
#define DRLSTREAM_NN_KERNELS_H_

namespace drlstream::nn::kernels {

/// The primitive folds every dense kernel in the library is built from.
/// Each has a scalar implementation and (on x86-64 with AVX2) a SIMD
/// implementation that is **bit-identical** to the scalar one:
///
///   Dot     - four independent accumulator chains over stride-4 lanes,
///             combined as ((acc0+acc1)+(acc2+acc3)) + tail. The AVX2
///             version keeps the same four lanes in one 256-bit register
///             (mul then add — never FMA, whose single rounding would
///             diverge from the scalar path) and reduces them in the same
///             tree order, so every partial sum rounds identically.
///   Dot4    - four Dots of a[0..3] against one shared b, interleaved so
///             the four add chains overlap instead of each waiting on its
///             own latency. Chain j has exactly Dot(a[j], b, k)'s lanes,
///             products and fold, so out[j] == Dot(a[j], b, k) bitwise.
///   Axpy    - y[i] += a * x[i], elementwise (one mul + one add per
///             element, no cross-element accumulation, so vectorization
///             is trivially exact).
///   SumRows - z[i] = base[i] + rows[0][i] + ... + rows[count-1][i], each
///             element's adds in ascending row order: bitwise the same as
///             copying base and adding the rows one elementwise pass at a
///             time, but with the partial sums held in registers across
///             the rows. z may alias base; no row may alias z.
///   Tanh    - y[i] = TanhElement(x[i]), the library's own tanh, so a
///             network's outputs do not depend on the host's libm.
///             Elementwise; the AVX2 tail runs the last 1-3 elements as a
///             zero-padded vector. y may alias x.
///   FoldColumns - z[r] = Dot(W.row(r), x, k) for r < h, read from
///             cols = W^T (k x h: row i is the weight column input i
///             selects). Only the columns with x[i] != 0 are added, each
///             into the Dot lane its index falls in (lane i mod 4 below
///             k - k mod 4, the tail above), one product and one add per
///             element; the lanes then combine with Dot's tree. A skipped
///             input's product would be +-0, and adding +-0 never changes
///             a lane that starts at +0, so for finite weights z is Dot's
///             (Matrix::MatVec's) bitwise. The one difference: a NaN or
///             +-Inf weight whose input is 0 does not reach z, where Dot
///             gives 0 * Inf = NaN (MatTVec, AddOuter and MatMul skip zero
///             multipliers the same way); a NaN input is added and gives
///             NaN. z must not alias x or cols.
///
/// Which implementation runs is decided per call from the process-wide
/// SIMD mode (common/simd.h): one relaxed atomic load and a branch, so
/// tests can flip --simd at runtime and compare both paths in-process.
///
/// Contract for new kernels: any reduction must fix its fold order
/// explicitly (like Dot's four lanes or SumRows' ascending rows) and use
/// separate mul/add; purely elementwise ops may vectorize freely. This is
/// what keeps the policy-equivalence goldens exact across scalar/AVX2 and
/// thread counts.

/// tanh of one value, the scalar element every Tanh kernel reproduces
/// (Cephes' tanh and exp):
///   |x| < 0.625: x + x*s*P(s)/Q(s) with s = x*x, an odd rational;
///   otherwise:   1 - 2/(e^{2|x|} + 1), where e^{2|x|} = 2^n * e^g after
///                the Cody-Waite reduction 2|x| = n*ln2 + g, and
///                e^g = 1 + 2p/(EQ(g*g) - p) with p = g*EP(g*g);
/// with |x| clamped to 22, where the second form already rounds to 1, and
/// the sign of x copied onto the result. Both forms end in a + b*(num/den),
/// so the AVX2 kernel blends the two branches' terms per lane and shares
/// that division. Every step is a separate IEEE mul, add or division
/// (never FMA); n is rounded with the 1.5*2^52 shifter and 2^n built from
/// its bits, both exact. Maximum error is below 1.5 ulp, and the result is
/// monotone in x (tests/simd_test.cc checks both against tanhl, across the
/// branch and reduction seams); ±0 keeps its sign, ±inf gives ±1 and NaN
/// gives NaN.
double TanhElement(double x);

double DotScalar(const double* a, const double* b, int k);
void Dot4Scalar(const double* const a[4], const double* b, int k,
                double out[4]);
void AxpyScalar(double* y, const double* x, double a, int k);
void SumRowsScalar(double* z, const double* base, const double* const* rows,
                   int count, int k);
void TanhScalar(const double* x, double* y, int k);
void FoldColumnsScalar(const double* cols, const double* x, int k, int h,
                       double* z);

/// AVX2 variants, compiled into their own translation unit with -mavx2
/// (the nn library builds with -ffp-contract=off, so neither these nor the
/// scalar kernels can contract a mul+add to FMA). When the toolchain cannot
/// target AVX2 these compile as forwarding stubs and Avx2CompiledIn() is
/// false.
bool Avx2CompiledIn();
double DotAvx2(const double* a, const double* b, int k);
void Dot4Avx2(const double* const a[4], const double* b, int k,
              double out[4]);
void AxpyAvx2(double* y, const double* x, double a, int k);
void SumRowsAvx2(double* z, const double* base, const double* const* rows,
                 int count, int k);
void TanhAvx2(const double* x, double* y, int k);
void FoldColumnsAvx2(const double* cols, const double* x, int k, int h,
                     double* z);

/// Resolved entry points honoring the SIMD mode and cpuid.
double Dot(const double* a, const double* b, int k);
void Axpy(double* y, const double* x, double a, int k);
void Tanh(const double* x, double* y, int k);
void FoldColumns(const double* cols, const double* x, int k, int h,
                 double* z);

/// Per-call resolvers: loops that invoke a primitive once per row should
/// resolve the dispatch once at kernel entry and call through the returned
/// pointer, instead of re-checking the mode on every row.
using DotFn = double (*)(const double* a, const double* b, int k);
using Dot4Fn = void (*)(const double* const a[4], const double* b, int k,
                        double out[4]);
using AxpyFn = void (*)(double* y, const double* x, double a, int k);
using SumRowsFn = void (*)(double* z, const double* base,
                           const double* const* rows, int count, int k);
using TanhFn = void (*)(const double* x, double* y, int k);
using FoldColumnsFn = void (*)(const double* cols, const double* x, int k,
                               int h, double* z);
DotFn ResolveDot();
Dot4Fn ResolveDot4();
AxpyFn ResolveAxpy();
SumRowsFn ResolveSumRows();
TanhFn ResolveTanh();
FoldColumnsFn ResolveFoldColumns();

/// True when the AVX2 path is what the resolved kernels currently run
/// (compiled in, supported by the CPU, and not disabled via --simd=off /
/// DRLSTREAM_SIMD=off).
bool SimdActive();

}  // namespace drlstream::nn::kernels

#endif  // DRLSTREAM_NN_KERNELS_H_
