#ifndef DRLSTREAM_COMMON_STATS_H_
#define DRLSTREAM_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace drlstream {

/// Single-pass mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);
  void Reset();

  size_t count() const { return count_; }
  /// Mean of the observations; 0 when empty.
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Min-max normalization used by the paper for reward plots:
/// (r - r_min) / (r_max - r_min). Returns 0.5 everywhere when the series is
/// constant (paper's formula is undefined there).
std::vector<double> NormalizeMinMax(const std::vector<double>& values);

/// Zero-phase forward-backward smoothing (the paper cites Gustafsson's
/// forward-backward filtering [20]). Applies a single-pole IIR low-pass with
/// coefficient `alpha` in (0, 1] forward then backward, with the filter state
/// initialized to the first sample in each direction so there is no startup
/// transient. Larger `alpha` = less smoothing; alpha = 1 is identity.
std::vector<double> FiltFilt(const std::vector<double>& values, double alpha);

/// Mean of a vector; 0 when empty.
double Mean(const std::vector<double>& values);

/// Percentile in [0, 100] using linear interpolation; input need not be
/// sorted. Returns 0 when empty.
double Percentile(std::vector<double> values, double pct);

}  // namespace drlstream

#endif  // DRLSTREAM_COMMON_STATS_H_
