#ifndef DRLSTREAM_SIM_EVENT_QUEUE_H_
#define DRLSTREAM_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/logging.h"

namespace drlstream::sim {

/// Kinds of queued simulator events (see ClusterSim's handlers). Service
/// completions are not queued: ClusterSim keeps one live completion per
/// machine in its completion lane and merges it with the queue's top.
enum class EventType : uint8_t {
  kSpoutEmit,
  kArrive,
  kResume,
  kTimeoutSweep,
  kFault,
  kRateChange,  // workload-generator op boundary (executor = tenant)
};

struct Event {
  double time_ms;
  uint64_t seq;  // tie-breaker for determinism
  EventType type;
  int executor;    // kSpoutEmit / kResume; fault-plan event index for
                   // kFault; tenant for kRateChange
  int tuple_slot;  // kArrive; generator version for kRateChange; 1 marks a
                   // re-sample-only kSpoutEmit and the end of a fault
                   // window for kFault
};

/// Ascending (time_ms, seq) order on bare keys.
inline bool KeyEarlier(double a_ms, uint64_t a_seq, double b_ms,
                       uint64_t b_seq) {
  if (a_ms != b_ms) return a_ms < b_ms;
  return a_seq < b_seq;
}

/// Total order events are dispatched in: ascending (time_ms, seq). Every
/// event carries a unique seq, so the order is strict and every engine pops
/// the exact same sequence.
inline bool EventEarlier(const Event& a, const Event& b) {
  return KeyEarlier(a.time_ms, a.seq, b.time_ms, b.seq);
}

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time_ms != b.time_ms) return a.time_ms > b.time_ms;
    return a.seq > b.seq;
  }
};

/// Pending-event set of the discrete-event simulator. Implementations must
/// pop in exactly EventEarlier order (strictly ascending (time_ms, seq)),
/// so the simulated trajectory is bit-identical across engines.
class EventQueue {
 public:
  virtual ~EventQueue() = default;
  virtual void Push(const Event& event) = 0;
  virtual const Event& Top() const = 0;  // earliest; queue must be non-empty
  virtual void Pop() = 0;                // removes Top()
  virtual bool Empty() const = 0;
  virtual size_t Size() const = 0;
};

/// Which EventQueue implementation a simulator uses.
enum class EventEngine {
  /// Bucketed calendar queue (Brown 1988): O(1) amortized push/pop when the
  /// bucket width tracks the mean event spacing. The default engine.
  kCalendar,
  /// Binary heap (std::priority_queue): O(log n) push/pop. Kept behind this
  /// switch as the reference for the calendar engine's order-equivalence
  /// property tests.
  kHeap,
};

std::unique_ptr<EventQueue> MakeEventQueue(EventEngine engine);

/// The simulator's original engine: a binary heap over EventLater.
class BinaryHeapEventQueue final : public EventQueue {
 public:
  void Push(const Event& event) override { events_.push(event); }
  const Event& Top() const override { return events_.top(); }
  void Pop() override { events_.pop(); }
  bool Empty() const override { return events_.empty(); }
  size_t Size() const override { return events_.size(); }

 private:
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
};

/// Calendar queue: events hash into a power-of-two bucket table by their
/// *virtual bucket* vb(t) = trunc(t * inv_width) (bucket = vb mod nbuckets,
/// a mask). trunc(t * inv_width) is monotone nondecreasing in t and equal
/// times always share a vb, so lexicographic (vb, time, seq) order IS
/// (time, seq) order — the pop scan walks virtual buckets in increasing
/// order and is exact regardless of floating-point rounding in the hash.
/// Each bucket is kept sorted latest-first so the earliest event is its
/// back() and pops are O(1) plus a year-bounded scan from the cursor
/// (invariant: no pending event has vb < scan_vb_), falling back to a
/// direct min search over bucket heads when a whole year is empty. The
/// table doubles/halves when the event count leaves [nbuckets/4,
/// 2*nbuckets] (quarter-occupancy shrink = hysteresis against resize
/// thrash), re-deriving the width from the median nonzero gap of the
/// resident events — after warmup at a steady event population, pushes and
/// pops allocate nothing (bucket capacity is retained, also for buckets a
/// shrink leaves beyond the live table, which the next grow reuses).
class CalendarEventQueue final : public EventQueue {
 public:
  CalendarEventQueue();

  /// The hot path (push/top/pop) is defined inline so the simulator's
  /// event loop, which holds the queue concretely, pays no call overhead.
  void Push(const Event& event) override {
    const long long vb = VirtualBucket(event.time_ms);
    std::vector<Event>& bucket = buckets_[static_cast<size_t>(vb) & mask_];
    // Insert keeping the bucket sorted latest-first, scanning from the
    // front: pushes are usually later than everything resident (seq is
    // monotone, times mostly advance), so the common case is one compare.
    const size_t count = bucket.size();
    size_t pos = 0;
    while (pos < count && EventEarlier(event, bucket[pos])) ++pos;
    bucket.insert(bucket.begin() + pos, event);
    ++size_;
    min_valid_ = false;
    if (size_ == 1 || vb < scan_vb_) scan_vb_ = vb;
    if (size_ > 2 * num_buckets()) Resize(2 * num_buckets());
  }

  const Event& Top() const override { return buckets_[FindMinBucket()].back(); }

  void Pop() override {
    const size_t b = FindMinBucket();
    buckets_[b].pop_back();
    --size_;
    min_valid_ = false;
    // Remaining events are no earlier than the popped one, so by
    // monotonicity none has vb < scan_vb_: the cursor invariant holds.
    // Shrink only below quarter occupancy: a population oscillating around
    // the grow threshold must not thrash resizes (grow is at 2x buckets,
    // so after halving the count sits safely inside [n/4, 2n]).
    if (size_ < num_buckets() / 4 && num_buckets() > kMinBuckets) {
      Resize(num_buckets() / 2);
    }
  }

  bool Empty() const override { return size_ == 0; }
  size_t Size() const override { return size_; }

 private:
  static constexpr size_t kMinBuckets = 8;

  /// Live table size; buckets_ may hold more (empty) buckets past it.
  size_t num_buckets() const { return mask_ + 1; }

  long long VirtualBucket(double time_ms) const {
    return static_cast<long long>(time_ms * inv_width_);
  }

  /// Locates the bucket holding the earliest event; memoized until the
  /// next push/pop/resize (the simulator always calls Top then Pop).
  size_t FindMinBucket() const {
    DRLSTREAM_CHECK_GT(size_, 0u);
    if (min_valid_) return cached_min_bucket_;
    const size_t n = num_buckets();
    // Fast path: walk one year of virtual buckets from the scan cursor.
    // The cursor invariant (no pending event has vb < scan_vb_) plus the
    // monotonicity of VirtualBucket mean the first head event whose vb
    // matches the scanned virtual bucket is the global minimum.
    long long vb = scan_vb_;
    for (size_t i = 0; i < n; ++i, ++vb) {
      const std::vector<Event>& bucket =
          buckets_[static_cast<size_t>(vb) & mask_];
      if (!bucket.empty() && VirtualBucket(bucket.back().time_ms) == vb) {
        scan_vb_ = vb;
        cached_min_bucket_ = static_cast<size_t>(vb) & mask_;
        min_valid_ = true;
        return cached_min_bucket_;
      }
    }
    return FindMinBucketSparse();
  }

  /// Slow path: direct min search over bucket heads when a year is empty.
  size_t FindMinBucketSparse() const;
  void Resize(size_t new_bucket_count);

  /// The first num_buckets() form the table, each sorted latest-first.
  std::vector<std::vector<Event>> buckets_;
  size_t size_ = 0;
  size_t mask_ = 0;        // num_buckets() - 1 (power-of-two table)
  double width_ = 1.0;
  double inv_width_ = 1.0;
  /// Year-scan cursor: the next pop starts at virtual bucket scan_vb_.
  /// Invariant: no pending event has a smaller virtual bucket.
  mutable long long scan_vb_ = 0;
  mutable size_t cached_min_bucket_ = 0;
  mutable bool min_valid_ = false;
  std::vector<Event> resize_tmp_;
};

}  // namespace drlstream::sim

#endif  // DRLSTREAM_SIM_EVENT_QUEUE_H_
