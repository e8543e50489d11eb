#ifndef DRLSTREAM_SIM_EVENT_QUEUE_H_
#define DRLSTREAM_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <queue>
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
/// event carries a unique seq, so the order is strict and the queue pops
/// one exact sequence.
inline bool EventEarlier(const Event& a, const Event& b) {
  return KeyEarlier(a.time_ms, a.seq, b.time_ms, b.seq);
}

/// Comparator making std::priority_queue's top() the earliest event.
struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return EventEarlier(b, a);
  }
};

/// The simulator's pending-event set: a binary heap popping in
/// EventEarlier order.
using EventQueue = std::priority_queue<Event, std::vector<Event>, EventLater>;

}  // namespace drlstream::sim

#endif  // DRLSTREAM_SIM_EVENT_QUEUE_H_
