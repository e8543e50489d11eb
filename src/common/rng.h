#ifndef DRLSTREAM_COMMON_RNG_H_
#define DRLSTREAM_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace drlstream {

/// splitmix64's increment: 2^64 over the golden ratio, odd.
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's output function (Steele, Lea and Flood 2014): a bijective
/// mix of one 64-bit word in which every input bit reaches every output
/// bit. The one copy of it in the library: the workload generators' jitter
/// hash, trace span ids, the simulator's random streams and Rng all go
/// through it.
constexpr uint64_t SplitMix64Finalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A stateless 64-bit hash: the first output of a splitmix64 stream whose
/// counter starts at `x`.
constexpr uint64_t SplitMix64Hash(uint64_t x) {
  return SplitMix64Finalize(x + kSplitMix64Gamma);
}

/// A log-normal law given by the mean and coefficient of variation of the
/// resulting distribution, with the underlying normal's (mu, sigma) derived
/// once: mean = exp(mu + sigma^2/2) and cv^2 = exp(sigma^2) - 1. Callers that
/// draw many times from one law (the simulator's per-tuple service times)
/// skip two logs and a sqrt per draw.
struct LogNormalLaw {
  /// Requires mean > 0 and cv >= 0 (checked).
  LogNormalLaw(double mean, double cv);

  double mean;
  bool constant;  // cv == 0: every draw is `mean` and consumes no randomness
  double mu;
  double sigma;
};

/// A splitmix64 random stream: a 64-bit counter advanced by
/// kSplitMix64Gamma per draw and passed through SplitMix64Finalize on the
/// way out. The state is one word (plus the polar method's spare normal),
/// a draw costs a few multiplies, and independent streams come from
/// hashing a key into the starting counter: the simulator derives one per
/// (seed, tenant, executor, purpose). The distributions are written out
/// here rather than taken from <random>, whose distribution objects the
/// simulator would rebuild per draw and whose algorithms differ between
/// standard libraries.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t state = 0) : state_(state) {}

  /// The counter: SplitMix64(state()) continues this stream (all but a
  /// spare normal the polar method may be holding).
  uint64_t state() const { return state_; }

  uint64_t Next() {
    state_ += kSplitMix64Gamma;
    return SplitMix64Finalize(state_);
  }

  /// Uniform double in [0, 1), from the top 53 bits of one draw.
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, n) for n >= 1, without modulo bias: Lemire's
  /// multiply-shift on the top 32 bits of a draw, redrawing the rare
  /// values that would favour low results.
  uint32_t Below(uint32_t n) {
    uint64_t m = (Next() >> 32) * n;
    if (static_cast<uint32_t>(m) < n) {
      const uint32_t threshold = (0u - n) % n;
      while (static_cast<uint32_t>(m) < threshold) m = (Next() >> 32) * n;
    }
    return static_cast<uint32_t>(m >> 32);
  }

  /// Exponential with the given rate (> 0): -ln(U) / rate with U uniform in
  /// (0, 1], so the result is finite.
  double Exponential(double rate) {
    const double u = static_cast<double>((Next() >> 11) + 1) * 0x1.0p-53;
    return -std::log(u) / rate;
  }

  /// Poisson by Knuth's product of uniforms: the number of uniforms whose
  /// running product stays above exp(-mean), taken precomputed as
  /// `exp_neg_mean`. Costs mean + 1 draws on average; a mean of 0
  /// (exp_neg_mean == 1) returns 0 without drawing.
  int Poisson(double exp_neg_mean) {
    if (exp_neg_mean >= 1.0) return 0;
    int k = 0;
    for (double product = Unit(); product > exp_neg_mean; product *= Unit()) {
      ++k;
    }
    return k;
  }

  /// Standard normal by Marsaglia's polar method. Each accepted pair of
  /// uniforms yields two independent normals; the second is kept and
  /// returned by the next call.
  double Normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * Unit() - 1.0;
      v = 2.0 * Unit() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * scale;
    has_spare_ = true;
    return u * scale;
  }

  /// One draw from `law`: exp(mu + sigma * Normal()), or the law's mean
  /// without drawing when its cv is 0.
  double LogNormal(const LogNormalLaw& law) {
    return law.constant ? law.mean : std::exp(law.mu + law.sigma * Normal());
  }

 private:
  uint64_t state_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Seeded pseudo-random number generator for the agents, network weight
/// initialisation, offline collection's random schedules, the control
/// plane's exploration RNG and functional-mode payloads, so that
/// experiments are reproducible. One SplitMix64 stream, started at
/// SplitMix64Hash(seed) so that nearby seeds give unrelated streams, with
/// the distributions its callers need written on the stream's Unit() and
/// Below(): like the simulator's draws, they are the same on every
/// standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : stream_(SplitMix64Hash(seed)) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * stream_.Unit();
  }

  /// Uniform integer in [lo, hi] inclusive. The range may hold at most
  /// 2^32 - 1 values (checked).
  int UniformInt(int lo, int hi) {
    DRLSTREAM_CHECK_LE(lo, hi);
    const int64_t count = int64_t{hi} - lo + 1;
    DRLSTREAM_CHECK_LE(count, int64_t{UINT32_MAX});
    return static_cast<int>(lo + int64_t{stream_.Below(
                                     static_cast<uint32_t>(count))});
  }

  /// True with probability p.
  bool Bernoulli(double p) { return stream_.Unit() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      std::swap((*values)[i - 1],
                (*values)[stream_.Below(static_cast<uint32_t>(i))]);
    }
  }

  /// Samples `k` distinct indices from [0, n) without replacement.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// The whole state: the tag "sm64:" and the stream's counter as 8
  /// little-endian bytes. A generator restored from it (possibly in another
  /// process: this is how the control plane ships the exploration RNG to a
  /// remote agent) continues the exact same draw sequence, so in-process
  /// and remote runs stay bit-identical.
  std::string SerializeState() const;
  /// Restores the state written by SerializeState. InvalidArgument on any
  /// other input (the previous state is left untouched).
  Status DeserializeState(const std::string& text);

 private:
  SplitMix64 stream_;
};

}  // namespace drlstream

#endif  // DRLSTREAM_COMMON_RNG_H_
