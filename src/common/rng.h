#ifndef DRLSTREAM_COMMON_RNG_H_
#define DRLSTREAM_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace drlstream {

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

/// Seeded pseudo-random number generator used everywhere in the library so
/// that experiments are reproducible. Wraps a mersenne twister with the
/// distributions the simulator and agents need.
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

  /// Exponential with the given rate (events per unit time); returns an
  /// inter-arrival time. Rate must be positive.
  double Exponential(double rate) {
    DRLSTREAM_CHECK_GT(rate, 0.0);
    std::exponential_distribution<double> dist(rate);
    return dist(engine_);
  }

  /// Log-normal: exp of a Gaussian(mu, sigma) draw.
  double LogNormal(double mu, double sigma) {
    std::lognormal_distribution<double> dist(mu, sigma);
    return dist(engine_);
  }

  /// Log-normal parameterized by the mean and coefficient of variation of
  /// the *resulting* distribution (convenient for service times).
  double LogNormalMeanCv(double mean, double cv) {
    return LogNormalMeanCv(LogNormalLaw(mean, cv));
  }
  /// One draw from a law derived ahead of time; the same value and engine
  /// advance as LogNormalMeanCv(law.mean, cv).
  double LogNormalMeanCv(const LogNormalLaw& law) {
    return law.constant ? law.mean : LogNormal(law.mu, law.sigma);
  }

  /// Poisson with the given mean (>= 0); returns 0 for mean 0.
  int Poisson(double mean) {
    DRLSTREAM_CHECK_GE(mean, 0.0);
    if (mean == 0.0) return 0;
    std::poisson_distribution<int> dist(mean);
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

  /// Derives an independent child generator; used to give each component a
  /// private stream while keeping global determinism.
  Rng Fork() { return Rng(engine_()); }

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
