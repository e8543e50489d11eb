#include "common/strutil.h"

#include <algorithm>
#include <utility>

namespace drlstream {

int Levenshtein(const std::string& a, const std::string& b) {
  std::vector<int> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      const int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::string NearestKey(const std::string& key,
                       const std::vector<std::string>& candidates,
                       int max_distance) {
  int best_distance = max_distance + 1;
  std::string suggestion;
  for (const std::string& candidate : candidates) {
    const int d = Levenshtein(key, candidate);
    if (d < best_distance) {
      best_distance = d;
      suggestion = candidate;
    }
  }
  return suggestion;
}

Status UnknownNameError(const std::string& kind, const std::string& key,
                        const std::vector<std::string>& available) {
  std::string message = "unknown " + kind + " '" + key + "'; available:";
  for (const std::string& name : available) message += " " + name;
  const std::string suggestion = NearestKey(key, available);
  if (!suggestion.empty()) message += " (did you mean '" + suggestion + "'?)";
  return Status::InvalidArgument(message);
}

}  // namespace drlstream
