#include "common/rng.h"

#include <cmath>
#include <string_view>

namespace drlstream {

namespace {

// Rng::SerializeState's layout: this tag, then the counter as 8
// little-endian bytes.
constexpr std::string_view kStateTag = "sm64:";
constexpr size_t kStateBytes = kStateTag.size() + 8;

}  // namespace

std::string Rng::SerializeState() const {
  std::string out(kStateTag);
  uint64_t counter = stream_.state();
  for (int i = 0; i < 8; ++i, counter >>= 8) {
    out.push_back(static_cast<char>(counter & 0xff));
  }
  return out;
}

Status Rng::DeserializeState(const std::string& text) {
  if (text.size() != kStateBytes ||
      std::string_view(text).substr(0, kStateTag.size()) != kStateTag) {
    return Status::InvalidArgument("rng: malformed state");
  }
  uint64_t counter = 0;
  for (size_t i = kStateBytes; i > kStateTag.size(); --i) {
    counter = (counter << 8) | static_cast<uint8_t>(text[i - 1]);
  }
  stream_ = SplitMix64(counter);
  return Status::OK();
}

LogNormalLaw::LogNormalLaw(double mean_value, double cv)
    : mean(mean_value), constant(cv == 0.0) {
  DRLSTREAM_CHECK_GT(mean_value, 0.0);
  DRLSTREAM_CHECK_GE(cv, 0.0);
  const double sigma2 = std::log(1.0 + cv * cv);
  mu = std::log(mean_value) - 0.5 * sigma2;
  sigma = std::sqrt(sigma2);
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  DRLSTREAM_CHECK_GE(n, k);
  DRLSTREAM_CHECK_GE(k, 0);
  // Partial Fisher-Yates over an index vector.
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  for (int i = 0; i < k; ++i) {
    const int j = UniformInt(i, n - 1);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace drlstream
