// The calendar queue's contract (sim/event_queue.h): pop order is exactly
// ascending (time_ms, seq) — the same strict total order the reference
// binary heap dispatches — so switching engines can never change a
// simulated trajectory. These tests compare the two engines directly at
// the queue level and through full simulator runs.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "sched/scheduler.h"
#include "sim/cluster_sim.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "topo/apps.h"

namespace drlstream::sim {
namespace {

Event MakeEvent(double time_ms, uint64_t seq) {
  return Event{time_ms, seq, EventType::kArrive, 0, 0};
}

/// Drives both engines through the same randomized push/pop schedule and
/// checks every popped event matches field-for-field.
void ComparePushPopSchedule(uint64_t seed, int ops, double time_scale,
                            double advance_prob) {
  Rng rng(seed);
  auto calendar = MakeEventQueue(EventEngine::kCalendar);
  auto heap = MakeEventQueue(EventEngine::kHeap);
  uint64_t seq = 0;
  double now = 0.0;
  for (int op = 0; op < ops; ++op) {
    const bool push = heap->Empty() || rng.Uniform(0.0, 1.0) < 0.6;
    if (push) {
      // Future timestamps relative to `now`, sometimes duplicated exactly
      // so the seq tie-break is exercised across engines.
      double t = now + rng.Uniform(0.0, time_scale);
      if (seq > 0 && rng.Uniform(0.0, 1.0) < 0.15) t = now;
      const Event event = MakeEvent(t, seq++);
      calendar->Push(event);
      heap->Push(event);
    } else {
      ASSERT_EQ(calendar->Size(), heap->Size());
      const Event want = heap->Top();
      const Event got = calendar->Top();
      ASSERT_EQ(got.time_ms, want.time_ms) << "op " << op;
      ASSERT_EQ(got.seq, want.seq) << "op " << op;
      ASSERT_EQ(static_cast<int>(got.type), static_cast<int>(want.type));
      ASSERT_EQ(got.executor, want.executor);
      ASSERT_EQ(got.tuple_slot, want.tuple_slot);
      heap->Pop();
      calendar->Pop();
      if (rng.Uniform(0.0, 1.0) < advance_prob) now = want.time_ms;
    }
  }
  // Drain: the remaining order must match exactly.
  while (!heap->Empty()) {
    ASSERT_FALSE(calendar->Empty());
    ASSERT_EQ(calendar->Top().seq, heap->Top().seq);
    ASSERT_EQ(calendar->Top().time_ms, heap->Top().time_ms);
    heap->Pop();
    calendar->Pop();
  }
  EXPECT_TRUE(calendar->Empty());
}

TEST(CalendarQueueTest, MatchesHeapOnDenseSchedule) {
  ComparePushPopSchedule(/*seed=*/1, /*ops=*/20000, /*time_scale=*/2.0,
                         /*advance_prob=*/0.9);
}

TEST(CalendarQueueTest, MatchesHeapOnSparseSchedule) {
  // Huge gaps relative to the bucket width force year-scan fallbacks.
  ComparePushPopSchedule(/*seed=*/2, /*ops=*/4000, /*time_scale=*/50000.0,
                         /*advance_prob=*/0.5);
}

TEST(CalendarQueueTest, MatchesHeapUnderGrowShrinkCycles) {
  // Alternating bursts and drains cross the resize thresholds repeatedly.
  Rng rng(3);
  auto calendar = MakeEventQueue(EventEngine::kCalendar);
  auto heap = MakeEventQueue(EventEngine::kHeap);
  uint64_t seq = 0;
  double now = 0.0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    const int burst = rng.UniformInt(1, 400);
    for (int i = 0; i < burst; ++i) {
      const Event event = MakeEvent(now + rng.Uniform(0.0, 10.0), seq++);
      calendar->Push(event);
      heap->Push(event);
    }
    const int drain = rng.UniformInt(1, static_cast<int>(heap->Size()));
    for (int i = 0; i < drain; ++i) {
      ASSERT_EQ(calendar->Top().seq, heap->Top().seq) << "cycle " << cycle;
      now = heap->Top().time_ms;
      calendar->Pop();
      heap->Pop();
    }
  }
}

TEST(CalendarQueueTest, SingleEventAndRepushAfterEmpty) {
  auto calendar = MakeEventQueue(EventEngine::kCalendar);
  EXPECT_TRUE(calendar->Empty());
  calendar->Push(MakeEvent(5.0, 0));
  EXPECT_EQ(calendar->Size(), 1u);
  EXPECT_EQ(calendar->Top().seq, 0u);
  calendar->Pop();
  EXPECT_TRUE(calendar->Empty());
  // After going empty the scan cursor must re-anchor on the next push,
  // even far away from the previous window.
  calendar->Push(MakeEvent(1e9, 1));
  calendar->Push(MakeEvent(2.0, 2));
  EXPECT_EQ(calendar->Top().seq, 2u);
  calendar->Pop();
  EXPECT_EQ(calendar->Top().seq, 1u);
  calendar->Pop();
  EXPECT_TRUE(calendar->Empty());
}

/// Runs one simulated second of word count under the given engine and
/// returns the simulator for counter comparison.
std::unique_ptr<ClusterSim> RunWordCount(EventEngine engine,
                                         const FaultPlan* plan) {
  static topo::App app = topo::BuildWordCount();
  topo::ClusterConfig cluster;
  sched::RoundRobinScheduler scheduler;
  sched::SchedulingContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = scheduler.ComputeSchedule(context);
  EXPECT_TRUE(schedule.ok());

  SimOptions options;
  options.seed = 7;
  options.event_engine = engine;
  auto simulator = std::make_unique<ClusterSim>(cluster, options);
  if (plan != nullptr) {
    EXPECT_TRUE(simulator->InstallFaultPlan(*plan).ok());
  }
  EXPECT_TRUE(
      simulator->AddTenant(&app.topology, &app.workload, *schedule).ok());
  EXPECT_TRUE(simulator->Start().ok());
  simulator->RunFor(1000.0);
  return simulator;
}

void ExpectIdenticalRuns(const ClusterSim& a, const ClusterSim& b) {
  const SimCounters& ca = a.counters();
  const SimCounters& cb = b.counters();
  EXPECT_EQ(ca.events_processed, cb.events_processed);
  EXPECT_EQ(ca.roots_emitted, cb.roots_emitted);
  EXPECT_EQ(ca.roots_completed, cb.roots_completed);
  EXPECT_EQ(ca.roots_failed, cb.roots_failed);
  EXPECT_EQ(ca.tuples_processed, cb.tuples_processed);
  EXPECT_EQ(ca.local_transfers, cb.local_transfers);
  EXPECT_EQ(ca.remote_transfers, cb.remote_transfers);
  EXPECT_EQ(ca.tuples_dropped, cb.tuples_dropped);
  EXPECT_EQ(ca.faults_applied, cb.faults_applied);
  // The latency average is a deterministic fold over completion order, so
  // even it must agree to the last bit.
  EXPECT_EQ(a.WindowAvgLatencyMs(), b.WindowAvgLatencyMs());
  EXPECT_EQ(a.ExecutorQueueDepths(), b.ExecutorQueueDepths());
}

TEST(EventEngineEquivalenceTest, HealthyRunIsBitIdentical) {
  auto calendar = RunWordCount(EventEngine::kCalendar, nullptr);
  auto heap = RunWordCount(EventEngine::kHeap, nullptr);
  ExpectIdenticalRuns(*calendar, *heap);
}

TEST(EventEngineEquivalenceTest, FaultReplayIsBitIdentical) {
  FaultPlan plan;
  plan.AddCrash(200.0, 1);
  plan.AddStraggler(300.0, 2, 3.0, 250.0);
  plan.AddRecover(700.0, 1);
  auto calendar = RunWordCount(EventEngine::kCalendar, &plan);
  auto heap = RunWordCount(EventEngine::kHeap, &plan);
  EXPECT_GT(calendar->counters().faults_applied, 0);
  ExpectIdenticalRuns(*calendar, *heap);
}

}  // namespace
}  // namespace drlstream::sim
