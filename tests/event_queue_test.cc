// The pending-event set's contract (sim/event_queue.h): pop order is
// exactly ascending (time_ms, seq), a strict total order, so the simulated
// trajectory depends on nothing but the events pushed. These tests drive
// sim::EventQueue through randomized push/pop schedules and check every pop
// against a sorted (time_ms, seq) oracle, and check the integer key that
// order is computed on at the times where a bit pattern and a double could
// disagree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace drlstream::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint64_t kMaxSeq = std::numeric_limits<uint64_t>::max();

/// An event whose payload names its seq, so a pop can be checked whole.
Event MakeEvent(double time_ms, uint64_t seq) {
  return Event{MakeEventKey(time_ms, seq), EventType::kArrive,
               static_cast<int>(seq), 0};
}

/// The (time_ms, seq) order the key must reproduce, on doubles.
bool OracleEarlier(double a_ms, uint64_t a_seq, double b_ms, uint64_t b_seq) {
  if (a_ms != b_ms) return a_ms < b_ms;
  return a_seq < b_seq;
}

/// Checks that `queue`'s top is the oracle's first key, then pops both.
void ExpectTopAndPop(EventQueue* queue,
                     std::set<std::pair<double, uint64_t>>* oracle, int op) {
  ASSERT_EQ(queue->size(), oracle->size()) << "op " << op;
  const std::pair<double, uint64_t> want = *oracle->begin();
  const Event& got = queue->top();
  ASSERT_EQ(got.time_ms(), want.first) << "op " << op;
  ASSERT_EQ(got.seq(), want.second) << "op " << op;
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

/// Times where a bit pattern and a double could order differently: zeros
/// of both signs, the smallest subnormals and normals, neighbours in the
/// last bit, very large times, the largest finite double and +inf.
std::vector<double> EdgeTimes() {
  const double min_sub = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  const double max_finite = std::numeric_limits<double>::max();
  return {0.0,
          -0.0,
          min_sub,
          2.0 * min_sub,
          min_normal - min_sub,  // the largest subnormal
          min_normal,
          1e-300,
          1.0,
          std::nextafter(1.0, 2.0),
          1000.0,
          1e15,
          9007199254740993.0,  // 2^53 + 1, rounded to 2^53
          1e300,
          std::nextafter(max_finite, 0.0),
          max_finite,
          kInf};
}

TEST(EventQueueTest, KeyOrdersLikeTimeThenSeq) {
  const std::vector<double> times = EdgeTimes();
  const std::vector<uint64_t> seqs = {0, 1, 2, 1ull << 32, kMaxSeq - 1,
                                      kMaxSeq};
  for (double a_ms : times) {
    for (uint64_t a_seq : seqs) {
      for (double b_ms : times) {
        for (uint64_t b_seq : seqs) {
          EXPECT_EQ(MakeEventKey(a_ms, a_seq) < MakeEventKey(b_ms, b_seq),
                    OracleEarlier(a_ms, a_seq, b_ms, b_seq))
              << a_ms << "/" << a_seq << " vs " << b_ms << "/" << b_seq;
        }
      }
    }
  }
}

TEST(EventQueueTest, KeyRoundTripsTimeAndSeq) {
  for (double t : EdgeTimes()) {
    const EventKey key = MakeEventKey(t, 12345);
    EXPECT_EQ(EventKeyTimeMs(key), t);
    EXPECT_EQ(EventKeySeq(key), 12345u);
  }
}

TEST(EventQueueTest, NegativeZeroOrdersAsPositiveZero) {
  // -0.0 == +0.0, so the seq alone decides; a raw bit pattern would put
  // -0.0 after every other time.
  EXPECT_EQ(MakeEventKey(-0.0, 7), MakeEventKey(0.0, 7));
  EXPECT_FALSE(std::signbit(EventKeyTimeMs(MakeEventKey(-0.0, 7))));
  EXPECT_LT(MakeEventKey(-0.0, 1), MakeEventKey(0.0, 2));
  EXPECT_LT(MakeEventKey(0.0, 1), MakeEventKey(-0.0, 2));
  EXPECT_LT(MakeEventKey(-0.0, kMaxSeq),
            MakeEventKey(std::numeric_limits<double>::denorm_min(), 0));

  EventQueue queue;
  queue.push(MakeEvent(1.0, 0));
  queue.push(MakeEvent(-0.0, 2));
  queue.push(MakeEvent(0.0, 1));
  queue.push(MakeEvent(-0.0, 3));
  const std::vector<uint64_t> want = {1, 2, 3, 0};
  for (uint64_t seq : want) {
    ASSERT_FALSE(queue.empty());
    EXPECT_EQ(queue.top().seq(), seq);
    EXPECT_FALSE(std::signbit(queue.top().time_ms()));
    queue.pop();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, EqualTimesFallBackToSeq) {
  // Pushed in a scrambled seq order, all at one time.
  EventQueue queue;
  const std::vector<uint64_t> pushed = {9, 3, 7, 0, 12, 5, 1, 11, 2, 8, 4,
                                        10, 6};
  for (uint64_t seq : pushed) queue.push(MakeEvent(42.5, seq));
  for (uint64_t want = 0; want < pushed.size(); ++want) {
    ASSERT_FALSE(queue.empty());
    EXPECT_EQ(queue.top().seq(), want);
    EXPECT_EQ(queue.top().time_ms(), 42.5);
    queue.pop();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, IdleLaneEntrySortsAfterEveryEvent) {
  // The completion lane's idle entry is (+inf, UINT64_MAX): even an event
  // queued at +inf comes before it.
  const EventKey idle = MakeEventKey(kInf, kMaxSeq);
  for (double t : EdgeTimes()) {
    EXPECT_LT(MakeEventKey(t, 0), idle) << t;
    EXPECT_LT(MakeEventKey(t, kMaxSeq - 1), idle) << t;
  }
  EXPECT_EQ(EventKeyTimeMs(idle), kInf);
  EXPECT_EQ(EventKeySeq(idle), kMaxSeq);

  EventQueue queue;
  queue.push(MakeEvent(kInf, 5));
  queue.push(MakeEvent(3.0, 6));
  EXPECT_EQ(queue.top().seq(), 6u);
  EXPECT_LT(queue.top().key, idle);
  queue.pop();
  EXPECT_EQ(queue.top().seq(), 5u);
  EXPECT_LT(queue.top().key, idle);
}

TEST(EventQueueTest, EdgeTimesPopInOrder) {
  // Every edge time at a few seqs, pushed in a shuffled order.
  std::vector<std::pair<double, uint64_t>> items;
  uint64_t seq = 0;
  for (double t : EdgeTimes()) {
    for (int copy = 0; copy < 3; ++copy) items.emplace_back(t, seq++);
  }
  Rng rng(3);
  rng.Shuffle(&items);
  EventQueue queue;
  std::set<std::pair<double, uint64_t>> oracle;
  for (const auto& [t, s] : items) {
    queue.push(MakeEvent(t, s));
    oracle.emplace(t == 0.0 ? 0.0 : t, s);  // -0.0 orders as +0.0
  }
  while (!oracle.empty()) {
    ASSERT_NO_FATAL_FAILURE(ExpectTopAndPop(&queue, &oracle, 0));
  }
}

TEST(EventQueueTest, SizesAcrossFourAryLevelBoundaries) {
  // A 4-ary heap's levels end at 1, 5, 21 and 85 elements: each size below
  // fills a level exactly or spills one element into the next. Every
  // size is pushed in descending, ascending and shuffled order, drained,
  // and then refilled to check pops interleaved with pushes.
  for (int n : {1, 4, 5, 20, 21, 84, 85}) {
    for (int order = 0; order < 3; ++order) {
      std::vector<uint64_t> seqs(n);
      for (int i = 0; i < n; ++i) seqs[i] = static_cast<uint64_t>(i);
      if (order == 0) std::reverse(seqs.begin(), seqs.end());
      Rng rng(100 + n);
      if (order == 2) rng.Shuffle(&seqs);
      EventQueue queue;
      std::set<std::pair<double, uint64_t>> oracle;
      for (uint64_t s : seqs) {
        // Times in a few clusters so equal times fall back to seq.
        const double t = static_cast<double>(s % 7);
        queue.push(MakeEvent(t, s));
        oracle.emplace(t, s);
        ASSERT_EQ(queue.size(), oracle.size());
      }
      // Pop half, push half again, then drain.
      for (int i = 0; i < n / 2; ++i) {
        ASSERT_NO_FATAL_FAILURE(ExpectTopAndPop(&queue, &oracle, i));
      }
      for (int i = 0; i < n / 2; ++i) {
        const uint64_t s = static_cast<uint64_t>(n + i);
        const double t = static_cast<double>(s % 5);
        queue.push(MakeEvent(t, s));
        oracle.emplace(t, s);
      }
      while (!oracle.empty()) {
        ASSERT_NO_FATAL_FAILURE(ExpectTopAndPop(&queue, &oracle, n));
      }
      EXPECT_TRUE(queue.empty()) << "size " << n << " order " << order;
    }
  }
}

}  // namespace
}  // namespace drlstream::sim
