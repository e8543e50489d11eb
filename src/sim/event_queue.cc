#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>

namespace drlstream::sim {
namespace {

/// Bucket width from the resident events (sorted ascending): twice the
/// *median* nonzero gap over a bounded sample near the head, the region pops
/// drain next. The median is essential: discrete-event sets mix dense
/// near-term traffic with a handful of far-future timers (timeout sweeps,
/// rate boundaries), and a mean-of-span width balloons to the outliers,
/// collapsing the dense cluster into one bucket. Deterministic — derived
/// purely from queue contents.
double WidthFor(const std::vector<Event>& sorted_events, double fallback) {
  const size_t n = sorted_events.size();
  if (n < 2) return fallback;
  const size_t sample = std::min<size_t>(n, 65);
  double gaps[64];
  size_t gap_count = 0;
  for (size_t i = 1; i < sample; ++i) {
    const double gap = sorted_events[i].time_ms - sorted_events[i - 1].time_ms;
    if (gap > 0.0) gaps[gap_count++] = gap;  // same-time bursts carry no info
  }
  if (gap_count == 0) return fallback;
  std::nth_element(gaps, gaps + gap_count / 2, gaps + gap_count);
  const double width = 2.0 * gaps[gap_count / 2];
  if (!std::isfinite(width) || width < 1e-9) return fallback;
  return width;
}

}  // namespace

std::unique_ptr<EventQueue> MakeEventQueue(EventEngine engine) {
  switch (engine) {
    case EventEngine::kCalendar:
      return std::make_unique<CalendarEventQueue>();
    case EventEngine::kHeap:
      return std::make_unique<BinaryHeapEventQueue>();
  }
  return std::make_unique<CalendarEventQueue>();
}

CalendarEventQueue::CalendarEventQueue() {
  buckets_.resize(kMinBuckets);
  mask_ = kMinBuckets - 1;
}

size_t CalendarEventQueue::FindMinBucketSparse() const {
  const size_t n = num_buckets();
  size_t best = n;
  for (size_t i = 0; i < n; ++i) {
    if (buckets_[i].empty()) continue;
    if (best == n || EventEarlier(buckets_[i].back(), buckets_[best].back())) {
      best = i;
    }
  }
  DRLSTREAM_CHECK_LT(best, n);
  scan_vb_ = VirtualBucket(buckets_[best].back().time_ms);
  cached_min_bucket_ = best;
  min_valid_ = true;
  return best;
}

void CalendarEventQueue::Resize(size_t new_bucket_count) {
  new_bucket_count = std::max(new_bucket_count, kMinBuckets);
  resize_tmp_.clear();
  for (size_t b = 0; b < num_buckets(); ++b) {
    resize_tmp_.insert(resize_tmp_.end(), buckets_[b].begin(),
                       buckets_[b].end());
    buckets_[b].clear();
  }
  std::sort(resize_tmp_.begin(), resize_tmp_.end(), EventEarlier);
  width_ = WidthFor(resize_tmp_, width_);
  inv_width_ = 1.0 / width_;
  // Grow-only storage: a shrink keeps the buckets past the new table (and
  // their capacity) for the next grow instead of freeing them.
  if (new_bucket_count > buckets_.size()) buckets_.resize(new_bucket_count);
  mask_ = new_bucket_count - 1;
  min_valid_ = false;
  // Distribute latest-first so every bucket comes out sorted latest-first.
  for (auto it = resize_tmp_.rbegin(); it != resize_tmp_.rend(); ++it) {
    buckets_[static_cast<size_t>(VirtualBucket(it->time_ms)) & mask_]
        .push_back(*it);
  }
  if (size_ > 0) scan_vb_ = VirtualBucket(resize_tmp_.front().time_ms);
}

}  // namespace drlstream::sim
