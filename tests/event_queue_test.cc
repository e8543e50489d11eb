// The pending-event set's contract (sim/event_queue.h): pop order is
// exactly ascending (time_ms, seq), a strict total order, so the simulated
// trajectory depends on nothing but the events pushed. These tests drive
// sim::EventQueue through randomized push/pop schedules and check every pop
// against a sorted (time_ms, seq) oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace drlstream::sim {
namespace {

/// An event whose payload names its seq, so a pop can be checked whole.
Event MakeEvent(double time_ms, uint64_t seq) {
  return Event{time_ms, seq, EventType::kArrive, static_cast<int>(seq), 0};
}

/// Checks that `queue`'s top is the oracle's first key, then pops both.
void ExpectTopAndPop(EventQueue* queue,
                     std::set<std::pair<double, uint64_t>>* oracle, int op) {
  ASSERT_EQ(queue->size(), oracle->size()) << "op " << op;
  const std::pair<double, uint64_t> want = *oracle->begin();
  const Event& got = queue->top();
  ASSERT_EQ(got.time_ms, want.first) << "op " << op;
  ASSERT_EQ(got.seq, want.second) << "op " << op;
  ASSERT_EQ(got.executor, static_cast<int>(want.second)) << "op " << op;
  queue->pop();
  oracle->erase(oracle->begin());
}

/// Runs a randomized push/pop schedule, then drains the queue. Some pushes
/// land exactly on `now`, so equal times must fall back to the seq order.
void CheckPushPopSchedule(uint64_t seed, int ops, double time_scale,
                          double advance_prob) {
  Rng rng(seed);
  EventQueue queue;
  std::set<std::pair<double, uint64_t>> oracle;
  uint64_t seq = 0;
  double now = 0.0;
  for (int op = 0; op < ops; ++op) {
    const bool push = queue.empty() || rng.Uniform(0.0, 1.0) < 0.6;
    if (push) {
      double t = now + rng.Uniform(0.0, time_scale);
      if (seq > 0 && rng.Uniform(0.0, 1.0) < 0.15) t = now;
      queue.push(MakeEvent(t, seq));
      oracle.emplace(t, seq);
      ++seq;
    } else {
      const double popped_ms = oracle.begin()->first;
      ASSERT_NO_FATAL_FAILURE(ExpectTopAndPop(&queue, &oracle, op));
      if (rng.Uniform(0.0, 1.0) < advance_prob) now = popped_ms;
    }
  }
  while (!oracle.empty()) {
    ASSERT_NO_FATAL_FAILURE(ExpectTopAndPop(&queue, &oracle, ops));
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, PopsDenseScheduleInTimeSeqOrder) {
  CheckPushPopSchedule(/*seed=*/1, /*ops=*/20000, /*time_scale=*/2.0,
                       /*advance_prob=*/0.9);
}

TEST(EventQueueTest, PopsSparseScheduleInTimeSeqOrder) {
  // Gaps far wider than the spacing of the dense schedule.
  CheckPushPopSchedule(/*seed=*/2, /*ops=*/4000, /*time_scale=*/50000.0,
                       /*advance_prob=*/0.5);
}

}  // namespace
}  // namespace drlstream::sim
