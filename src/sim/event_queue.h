#ifndef DRLSTREAM_SIM_EVENT_QUEUE_H_
#define DRLSTREAM_SIM_EVENT_QUEUE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

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

/// Dispatch key of a queued event or a completion-lane entry: the bit
/// pattern of its time in the high 64 bits and its seq in the low 64.
/// Simulated times are never negative, and for non-negative doubles, +inf
/// included, the bit pattern read as an unsigned integer orders like the
/// value. So one unsigned compare of two keys is the ascending
/// (time_ms, seq) order, and since every event takes a unique seq the order
/// is strict.
using EventKey = unsigned __int128;

/// The key of (`time_ms`, `seq`). −0.0 equals +0.0 but its pattern is the
/// sign bit alone, which would sort after every other time; adding +0.0
/// turns it into +0.0 (round-to-nearest) and leaves every other time as it
/// is. A fault plan may carry a time of −0.
constexpr EventKey MakeEventKey(double time_ms, uint64_t seq) {
  return (EventKey{std::bit_cast<uint64_t>(time_ms + 0.0)} << 64) | seq;
}

constexpr double EventKeyTimeMs(EventKey key) {
  return std::bit_cast<double>(static_cast<uint64_t>(key >> 64));
}

constexpr uint64_t EventKeySeq(EventKey key) {
  return static_cast<uint64_t>(key);
}

struct Event {
  EventKey key;  // MakeEventKey(time_ms, seq); seq breaks ties
  EventType type;
  int executor;    // kSpoutEmit / kResume; fault-plan event index for
                   // kFault; tenant for kRateChange
  int tuple_slot;  // kArrive; generator version for kRateChange; 1 marks a
                   // re-sample-only kSpoutEmit and the end of a fault
                   // window for kFault

  double time_ms() const { return EventKeyTimeMs(key); }
  uint64_t seq() const { return EventKeySeq(key); }
};

/// The simulator's pending-event set: a 4-ary min-heap on Event::key, so it
/// pops in ascending (time_ms, seq) order. The order is strict, so exactly
/// one pop sequence exists and the trajectory cannot depend on how the
/// heap lays out its array. Four children per node halve the levels a pop
/// walks against a binary heap, and a node's children share a cache line
/// or two.
class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  /// The earliest event; requires !empty().
  const Event& top() const { return heap_.front(); }

  void push(const Event& event) {
    size_t hole = heap_.size();
    heap_.push_back(event);
    while (hole > 0) {
      const size_t parent = (hole - 1) / 4;
      if (!(event.key < heap_[parent].key)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = event;
  }

  /// Removes the earliest event; requires !empty(). The root's hole sinks
  /// along the smallest children to a leaf, and the last element rises
  /// from there to where it belongs (Floyd's order): it usually belongs
  /// near the bottom, so the way down compares children only.
  void pop() {
    const Event last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) return;
    Event* heap = heap_.data();
    size_t hole = 0;
    while (true) {
      const size_t first = 4 * hole + 1;
      size_t best;
      if (first + 3 < n) {
        // All four children exist: a two-round tournament.
        const size_t a = heap[first + 1].key < heap[first].key ? first + 1
                                                                : first;
        const size_t b = heap[first + 3].key < heap[first + 2].key
                             ? first + 3
                             : first + 2;
        best = heap[b].key < heap[a].key ? b : a;
      } else {
        if (first >= n) break;
        best = first;
        for (size_t c = first + 1; c < n; ++c) {
          if (heap[c].key < heap[best].key) best = c;
        }
      }
      heap[hole] = heap[best];
      hole = best;
    }
    while (hole > 0) {
      const size_t parent = (hole - 1) / 4;
      if (!(last.key < heap[parent].key)) break;
      heap[hole] = heap[parent];
      hole = parent;
    }
    heap[hole] = last;
  }

 private:
  std::vector<Event> heap_;
};

}  // namespace drlstream::sim

#endif  // DRLSTREAM_SIM_EVENT_QUEUE_H_
