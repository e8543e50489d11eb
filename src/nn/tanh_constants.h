#ifndef DRLSTREAM_NN_TANH_CONSTANTS_H_
#define DRLSTREAM_NN_TANH_CONSTANTS_H_

/// The constants of nn::kernels::TanhElement (see nn/kernels.h), shared by
/// its scalar and AVX2 implementations and used nowhere else.

namespace drlstream::nn::kernels {

namespace tanh_constants {
inline constexpr double kSmallBound = 0.625;  // below: the odd rational
inline constexpr double kMaxAbs = 22.0;  // |x| clamp: tanh rounds to 1
inline constexpr double kLog2e = 1.4426950408889634073599;
// ln2 split so n*kLn2Hi is exact for the n < 64 reached here.
inline constexpr double kLn2Hi = 6.93145751953125E-1;
inline constexpr double kLn2Lo = 1.42860682030941723212E-6;
// Adding 1.5*2^52 rounds a double below 2^51 in magnitude to an integer
// and leaves that integer in the low bits of the sum.
inline constexpr double kRoundShifter = 0x1.8p52;
// tanh(x) = x + x*s*P(s)/Q(s), s = x*x, |x| < 0.625 (Q's leading 1 is
// implicit).
inline constexpr double kP0 = -9.64399179425052238628E-1;
inline constexpr double kP1 = -9.92877231001918586564E1;
inline constexpr double kP2 = -1.61468768441708447952E3;
inline constexpr double kQ0 = 1.12811678491632931402E2;
inline constexpr double kQ1 = 2.23548839060100448583E3;
inline constexpr double kQ2 = 4.84406305325125486048E3;
// e^g = 1 + 2p/(EQ(g*g) - p), p = g*EP(g*g), |g| <= ln2/2.
inline constexpr double kEP0 = 1.26177193074810590878E-4;
inline constexpr double kEP1 = 3.02994407707441961300E-2;
inline constexpr double kEP2 = 9.99999999999999999910E-1;
inline constexpr double kEQ0 = 3.00198505138664455042E-6;
inline constexpr double kEQ1 = 2.52448340349684104192E-3;
inline constexpr double kEQ2 = 2.27265548208155028766E-1;
inline constexpr double kEQ3 = 2.00000000000000000009E0;
}  // namespace tanh_constants

}  // namespace drlstream::nn::kernels

#endif  // DRLSTREAM_NN_TANH_CONSTANTS_H_
