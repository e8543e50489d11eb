#ifndef DRLSTREAM_COMMON_RNG_H_
#define DRLSTREAM_COMMON_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace drlstream {

/// splitmix64's increment: 2^64 over the golden ratio, odd.
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's output function (Steele, Lea and Flood 2014): a bijective
/// mix of one 64-bit word in which every input bit reaches every output
/// bit. The one copy of it in the library: the workload generators' jitter
/// hash, trace span ids and the simulator's random streams all go through
/// it.
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

/// Bit-exact reimplementation of std::mt19937_64 (the standard pins the
/// mersenne_twister_engine algorithm, single-value seeding included) with
/// direct state access. std::mt19937_64 only exposes its 312-word state
/// through iostream decimal tokens, which costs ~40us to round-trip; the
/// control plane serializes the exploration RNG into every kExplore
/// GetSchedule RPC, so that cost dominated the per-request budget. Owning
/// the words makes (de)serialization a copy of 312 little-endian u64s and
/// the draw position (Rng::SerializeState's "b1:" layout). Equality with
/// std::mt19937_64 draw-for-draw is pinned by common_test.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr int kStateSize = 312;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Tag for constructing an engine without running the 312-word seeding
  /// recurrence; the state is garbage until restored (DeserializeState).
  struct Uninitialized {};

  explicit Mt19937_64(uint64_t seed_value = 5489u) { seed(seed_value); }
  explicit Mt19937_64(Uninitialized) {}

  void seed(uint64_t seed_value);
  result_type operator()();

  /// Raw state, for serialization: 312 words plus the draw position in
  /// [0, kStateSize] (kStateSize means "twist before the next draw").
  const uint64_t* state() const { return state_; }
  uint64_t* mutable_state() { return state_; }
  int position() const { return position_; }
  void set_position(int position) { position_ = position; }

  friend bool operator==(const Mt19937_64& a, const Mt19937_64& b) {
    return a.position_ == b.position_ &&
           std::equal(a.state_, a.state_ + kStateSize, b.state_);
  }

 private:
  void Twist();

  uint64_t state_[kStateSize];
  int position_ = kStateSize;
};

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
/// initialisation, the control plane's exploration RNG and functional-mode
/// payloads, so that experiments are reproducible. Wraps a mersenne twister
/// with the distributions those need; the simulator's timing draws come
/// from SplitMix64 streams instead.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// An Rng whose engine holds unseeded garbage; the only valid first use
  /// is DeserializeState(). Exists because seeding runs a 312-word
  /// recurrence, which restore-per-request paths (the control plane
  /// restores a serialized exploration RNG on every kExplore GetSchedule)
  /// would pay just to overwrite.
  static Rng Unseeded() { return Rng(Mt19937_64::Uninitialized{}); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi) {
    DRLSTREAM_CHECK_LE(lo, hi);
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// Bernoulli(p).
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    std::shuffle(values->begin(), values->end(), engine_);
  }

  /// Samples `k` distinct indices from [0, n) without replacement.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// Underlying engine, for std algorithms that need a URBG.
  Mt19937_64& engine() { return engine_; }

  /// Serializes the full engine state ("b1:" + 312 little-endian u64 words
  /// + u16 draw position). A generator restored from it (possibly in
  /// another process — this is how the control plane ships the exploration
  /// RNG to a remote agent) continues the exact same draw sequence, so
  /// in-process and remote runs stay bit-identical. The Rng methods above
  /// construct their distribution per call, so the engine state is the
  /// whole state.
  std::string SerializeState() const;
  /// Serialized size of SerializeState(): "b1:" + 312 u64 words + u16.
  static constexpr size_t kSerializedStateBytes =
      3 + 8 * static_cast<size_t>(Mt19937_64::kStateSize) + 2;
  /// Appends SerializeState() to `out` — encoders that already own a
  /// growing buffer skip the intermediate string.
  void SerializeStateTo(std::string* out) const;
  /// Restores the state written by SerializeState. InvalidArgument on any
  /// other input (the previous state is left untouched).
  Status DeserializeState(const std::string& text);

 private:
  explicit Rng(Mt19937_64::Uninitialized tag) : engine_(tag) {}

  Mt19937_64 engine_;
};

}  // namespace drlstream

#endif  // DRLSTREAM_COMMON_RNG_H_
