#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace drlstream {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::vector<double> NormalizeMinMax(const std::vector<double>& values) {
  if (values.empty()) return {};
  const auto [mn_it, mx_it] = std::minmax_element(values.begin(), values.end());
  const double mn = *mn_it;
  const double mx = *mx_it;
  std::vector<double> out(values.size());
  if (mx - mn <= 0.0) {
    std::fill(out.begin(), out.end(), 0.5);
    return out;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = (values[i] - mn) / (mx - mn);
  }
  return out;
}

namespace {

void OnePoleForward(std::vector<double>* v, double alpha) {
  double state = v->empty() ? 0.0 : (*v)[0];
  for (double& x : *v) {
    state += alpha * (x - state);
    x = state;
  }
}

}  // namespace

std::vector<double> FiltFilt(const std::vector<double>& values, double alpha) {
  DRLSTREAM_CHECK_GT(alpha, 0.0);
  DRLSTREAM_CHECK_LE(alpha, 1.0);
  std::vector<double> out = values;
  OnePoleForward(&out, alpha);
  std::reverse(out.begin(), out.end());
  OnePoleForward(&out, alpha);
  std::reverse(out.begin(), out.end());
  return out;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  DRLSTREAM_CHECK_GE(pct, 0.0);
  DRLSTREAM_CHECK_LE(pct, 100.0);
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace drlstream
