#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace drlstream::obs {
namespace {

/// Enables metrics for the test body and restores a clean disabled registry
/// afterwards, so tests compose in any order within the process.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabled(true);
    MetricsRegistry::Get().ResetValues();
    Tracer::Get().ResetForTest();
  }
  void TearDown() override {
    SetMetricsEnabled(false);
    SetTraceEnabled(false);
    MetricsRegistry::Get().ResetValues();
    Tracer::Get().ResetForTest();
  }
};

TEST_F(ObsTest, CounterAccumulatesAndResets) {
  Counter* counter = MetricsRegistry::Get().counter("test.counter");
  counter->Add(3);
  counter->Add();
  counter->Add(-1);
  EXPECT_EQ(counter->Value(), 3);
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0);
}

TEST_F(ObsTest, DisabledRecordingIsDropped) {
  SetMetricsEnabled(false);
  Counter* counter = MetricsRegistry::Get().counter("test.disabled");
  Histogram* hist = MetricsRegistry::Get().histogram("test.disabled_hist");
  counter->Add(5);
  hist->Record(1.0);
  EXPECT_EQ(counter->Value(), 0);
  SetMetricsEnabled(true);
  counter->Add(5);
  EXPECT_EQ(counter->Value(), 5);
}

TEST_F(ObsTest, HistogramBucketsAreLogSpaced) {
  EXPECT_EQ(Histogram::BucketOf(-1.0), 0);
  EXPECT_EQ(Histogram::BucketOf(0.0), 0);
  // Buckets are lower-inclusive: bucket b covers [UpperBound(b-1),
  // UpperBound(b)), so an exact power of two sits at its bucket's floor.
  for (double v : {1e-4, 0.5, 1.0, 3.0, 1024.0, 1e9}) {
    const int b = Histogram::BucketOf(v);
    ASSERT_GT(b, 0);
    EXPECT_LT(v, Histogram::BucketUpperBound(b));
    EXPECT_GE(v, Histogram::BucketUpperBound(b - 1));
  }
  EXPECT_EQ(Histogram::BucketOf(1e300), Histogram::kNumBuckets - 1);
}

TEST_F(ObsTest, HistogramSnapshotStats) {
  Histogram* hist = MetricsRegistry::Get().histogram("test.hist");
  hist->Record(1.0);
  hist->Record(2.0);
  hist->Record(9.0);
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  const HistogramSnapshot& h = snap.histograms.at("test.hist");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 12.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 9.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 4.0);
}

// Many threads hammering the same counter and histogram concurrently: the
// totals must be exact and the test must be clean under
// -DDRLSTREAM_SANITIZE=thread.
TEST_F(ObsTest, ConcurrentRecordingIsExactAndRaceFree) {
  Counter* counter = MetricsRegistry::Get().counter("test.concurrent");
  Histogram* hist = MetricsRegistry::Get().histogram("test.concurrent_hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        hist->Record(static_cast<double>((t * kPerThread + i) % 97));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kPerThread);
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(snap.histograms.at("test.concurrent_hist").count,
            int64_t{kThreads} * kPerThread);
}

/// Records a fixed, deterministic workload through a pool of `num_threads`
/// and returns the resulting snapshot. Values are spread across many
/// buckets and include negatives and fractions.
MetricsSnapshot SnapshotAtThreadCount(int num_threads) {
  MetricsRegistry::Get().ResetValues();
  Counter* counter = MetricsRegistry::Get().counter("prop.events");
  Histogram* hist = MetricsRegistry::Get().histogram("prop.value_ms");
  ThreadPool pool(num_threads);
  pool.ParallelFor(997, [&](int i, int) {
    counter->Add(i % 5);
    hist->Record(0.37 * i - 20.0);
    hist->Record(static_cast<double>(i) * i);
  });
  return MetricsRegistry::Get().Snapshot();
}

// The determinism contract: the same recorded multiset of values produces a
// bit-identical snapshot regardless of how the recording threads were
// scheduled or how many there were.
TEST_F(ObsTest, SnapshotsBitIdenticalAcrossThreadCounts) {
  const MetricsSnapshot one = SnapshotAtThreadCount(1);
  const MetricsSnapshot two = SnapshotAtThreadCount(2);
  const MetricsSnapshot four = SnapshotAtThreadCount(4);
  for (const MetricsSnapshot* other : {&two, &four}) {
    ASSERT_EQ(one.counters.size(), other->counters.size());
    EXPECT_EQ(one.counters.at("prop.events"),
              other->counters.at("prop.events"));
    const HistogramSnapshot& a = one.histograms.at("prop.value_ms");
    const HistogramSnapshot& b = other->histograms.at("prop.value_ms");
    EXPECT_EQ(a.count, b.count);
    // Exact double comparison on purpose: sums accumulate in fixed point,
    // so even the floating-point representation must match bit for bit.
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.buckets, b.buckets);
  }
}

TEST_F(ObsTest, PrometheusTextContainsCountersAndHistograms) {
  MetricsRegistry::Get().counter("rl.ddpg.knn_failures")->Add(2);
  MetricsRegistry::Get().histogram("phase.actor_forward_us")->Record(12.5);
  MetricsRegistry::Get().gauge("threadpool.queue_depth")->Set(3.0);
  const std::string text =
      ToPrometheusText(MetricsRegistry::Get().Snapshot());
  EXPECT_NE(text.find("# TYPE drlstream_rl_ddpg_knn_failures counter"),
            std::string::npos);
  EXPECT_NE(text.find("drlstream_rl_ddpg_knn_failures 2"), std::string::npos);
  EXPECT_NE(
      text.find("# TYPE drlstream_phase_actor_forward_us histogram"),
      std::string::npos);
  EXPECT_NE(text.find("drlstream_phase_actor_forward_us_count 1"),
            std::string::npos);
  // The mandatory +Inf bucket closes every histogram.
  EXPECT_NE(
      text.find("drlstream_phase_actor_forward_us_bucket{le=\"+Inf\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE drlstream_threadpool_queue_depth gauge"),
            std::string::npos);
}

TEST_F(ObsTest, PrometheusMetricNamesAreSanitized) {
  // Direct unit checks of the sanitizer: anything outside [A-Za-z0-9_]
  // becomes '_' under the mandatory drlstream_ prefix.
  EXPECT_EQ(PrometheusMetricName("ctrl.server.requests"),
            "drlstream_ctrl_server_requests");
  EXPECT_EQ(PrometheusMetricName("weird-name/with spaces!"),
            "drlstream_weird_name_with_spaces_");
  EXPECT_EQ(PrometheusMetricName(""), "drlstream_");

  // And end to end: a hostile registry name still renders as a scrapeable
  // exposition line.
  MetricsRegistry::Get().counter("evil{name=\"x\"}\n# HELP")->Add(1);
  const std::string text =
      ToPrometheusText(MetricsRegistry::Get().Snapshot());
  EXPECT_NE(text.find("drlstream_evil_name__x_____HELP 1"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("evil{"), std::string::npos);
}

TEST_F(ObsTest, PrometheusLabelValuesEscapePerExposition) {
  EXPECT_EQ(PrometheusEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\nb"), "a\\nb");
}

TEST_F(ObsTest, NonFiniteGaugesRenderScrapeably) {
  MetricsRegistry::Get().gauge("test.nan")->Set(
      std::numeric_limits<double>::quiet_NaN());
  MetricsRegistry::Get().gauge("test.pos_inf")->Set(
      std::numeric_limits<double>::infinity());
  MetricsRegistry::Get().gauge("test.neg_inf")->Set(
      -std::numeric_limits<double>::infinity());
  MetricsRegistry::Get().gauge("test.tiny")->Set(1e-300);

  // Gauge storage is the raw bit pattern, so even NaN and a denormal-range
  // value survive exactly.
  EXPECT_TRUE(std::isnan(MetricsRegistry::Get().gauge("test.nan")->Value()));
  EXPECT_EQ(MetricsRegistry::Get().gauge("test.tiny")->Value(), 1e-300);

  const std::string text =
      ToPrometheusText(MetricsRegistry::Get().Snapshot());
  EXPECT_NE(text.find("drlstream_test_nan NaN"), std::string::npos) << text;
  EXPECT_NE(text.find("drlstream_test_pos_inf +Inf"), std::string::npos);
  EXPECT_NE(text.find("drlstream_test_neg_inf -Inf"), std::string::npos);

  // JSON has no non-finite literals: they render as quoted strings so the
  // document stays parseable.
  const std::string json = ToJson(MetricsRegistry::Get().Snapshot());
  EXPECT_NE(json.find("\"test.nan\": \"NaN\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.pos_inf\": \"+Inf\""), std::string::npos);
  EXPECT_NE(json.find("\"test.neg_inf\": \"-Inf\""), std::string::npos);
}

TEST_F(ObsTest, JsonSnapshotRoundTripsKeyFields) {
  MetricsRegistry::Get().counter("a.count")->Add(7);
  MetricsRegistry::Get().histogram("b.lat_ms")->Record(4.0);
  const std::string json = ToJson(MetricsRegistry::Get().Snapshot());
  EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"b.lat_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 4"), std::string::npos);
}

// ---- Trace golden tests ---------------------------------------------------

/// Minimal scanner over the emitted trace: extracts every event object and
/// the values of the given string/char field. The format under test is the
/// exporter's own, so structural string matching is an adequate oracle.
std::vector<std::string> EventObjects(const std::string& json) {
  std::vector<std::string> events;
  const size_t open = json.find('[');
  size_t pos = open;
  while ((pos = json.find('{', pos + 1)) != std::string::npos) {
    // Event objects contain one nested level at most ("args" metadata).
    size_t depth = 1;
    size_t end = pos;
    while (depth > 0) {
      ++end;
      if (json[end] == '{') ++depth;
      if (json[end] == '}') --depth;
    }
    events.push_back(json.substr(pos, end - pos + 1));
    pos = end;
  }
  return events;
}

TEST_F(ObsTest, TraceJsonIsWellFormedChromeTraceFormat) {
  SetTraceEnabled(true);
  {
    ScopedPhase outer(nullptr, "outer");
    { WallSpan inner("inner"); }
  }
  Tracer::Get().AddSimSpan("migrate", 100.0, 150.0);
  Tracer::Get().AddSimInstant("fault:machine_crash", 120.0);
  const std::string json = Tracer::Get().ToJsonString();

  ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
  const std::vector<std::string> events = EventObjects(json);
  // 2 metadata + outer B/E + inner B/E + sim B/E + instant.
  ASSERT_EQ(events.size(), 9u);

  std::map<std::string, int> balance;  // name -> open B spans
  int instants = 0;
  for (const std::string& event : events) {
    // Required Chrome trace-event keys on every record.
    EXPECT_NE(event.find("\"name\": \""), std::string::npos) << event;
    EXPECT_NE(event.find("\"ph\": \""), std::string::npos) << event;
    EXPECT_NE(event.find("\"ts\": "), std::string::npos) << event;
    EXPECT_NE(event.find("\"pid\": "), std::string::npos) << event;

    const size_t name_at = event.find("\"name\": \"") + 9;
    const std::string name =
        event.substr(name_at, event.find('"', name_at) - name_at);
    const size_t ph_at = event.find("\"ph\": \"") + 7;
    const char ph = event[ph_at];
    switch (ph) {
      case 'B':
        ++balance[name];
        break;
      case 'E':
        ASSERT_GT(balance[name], 0) << "E without B for " << name;
        --balance[name];
        break;
      case 'i':
        ++instants;
        // Chrome requires a scope on instants.
        EXPECT_NE(event.find("\"s\": \"t\""), std::string::npos);
        break;
      case 'M':
        EXPECT_NE(event.find("process_name"), std::string::npos);
        break;
      default:
        FAIL() << "unexpected ph '" << ph << "' in " << event;
    }
  }
  for (const auto& [name, open] : balance) {
    EXPECT_EQ(open, 0) << "unbalanced B/E for " << name;
  }
  EXPECT_EQ(instants, 1);
  // Sim events carry the sim-time pid and ms->us scaled stamps.
  EXPECT_NE(json.find("\"name\": \"migrate\", \"cat\": \"sim\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\": 100000, \"pid\": 2"), std::string::npos);
}

TEST_F(ObsTest, TraceDisabledRecordsNothing) {
  {
    WallSpan span("ignored");
    ScopedPhase phase(nullptr, "also_ignored");
  }
  Tracer::Get().AddSimSpan("ignored", 0.0, 1.0);
  EXPECT_EQ(Tracer::Get().event_count(), 0u);
}

TEST_F(ObsTest, ScopedPhaseFeedsHistogramWithoutTrace) {
  Histogram* hist = MetricsRegistry::Get().histogram("test.phase_us");
  { ScopedPhase phase(hist, "timed"); }
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(snap.histograms.at("test.phase_us").count, 1);
  EXPECT_EQ(Tracer::Get().event_count(), 0u);  // tracing stayed off
}

TEST_F(ObsTest, OverflowIsCountedReportedAndKeepsPairsBalanced) {
  SetTraceEnabled(true);
  Tracer::Get().SetEventCapForTest(5);
  // 4 nested spans = 8 events against a cap of 5: the three innermost E's
  // (and one B) drop. The export must still balance every emitted B.
  {
    WallSpan a("ovf_a");
    WallSpan b("ovf_b");
    WallSpan c("ovf_c");
    WallSpan d("ovf_d");
  }
  EXPECT_GT(Tracer::Get().dropped_count(), 0u);
  const std::string json = Tracer::Get().ToJsonString();
  Tracer::Get().SetEventCapForTest(0);

  // The overflow is reported in-band as an instant carrying the count.
  EXPECT_NE(json.find("\"name\": \"trace_overflow\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"dropped\": "), std::string::npos);

  // Balanced B/E despite the truncation (synthetic closers are emitted).
  std::map<std::string, int> balance;
  for (const std::string& event : EventObjects(json)) {
    const size_t name_at = event.find("\"name\": \"") + 9;
    const std::string name =
        event.substr(name_at, event.find('"', name_at) - name_at);
    const size_t ph_at = event.find("\"ph\": \"") + 7;
    if (event[ph_at] == 'B') ++balance[name];
    if (event[ph_at] == 'E') {
      ASSERT_GT(balance[name], 0) << "E without B for " << name;
      --balance[name];
    }
  }
  for (const auto& [name, open] : balance) {
    EXPECT_EQ(open, 0) << "unbalanced B/E for " << name;
  }
}

TEST_F(ObsTest, WriteJsonBalancesPairsAfterOverflowToo) {
  SetTraceEnabled(true);
  Tracer::Get().SetEventCapForTest(3);
  {
    WallSpan a("file_a");
    WallSpan b("file_b");
  }
  ASSERT_GT(Tracer::Get().dropped_count(), 0u);
  const std::string path = ::testing::TempDir() + "obs_overflow.trace.json";
  ASSERT_TRUE(Tracer::Get().WriteJson(path));
  Tracer::Get().SetEventCapForTest(0);
  std::ifstream in(path);
  std::string written((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, Tracer::Get().ToJsonString());
  EXPECT_NE(written.find("trace_overflow"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, WriteJsonEscapesControlBytesInSpanNames) {
  SetTraceEnabled(true);
  Tracer::Get().AddSimSpan("bad\x01name", 0.0, 1.0);
  Tracer::Get().AddSimInstant("tab\tquote\"cr\r", 2.0);
  const std::string path = ::testing::TempDir() + "obs_escape.trace.json";
  ASSERT_TRUE(Tracer::Get().WriteJson(path));
  std::ifstream in(path);
  std::string written((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(written.find("\"bad\\u0001name\""), std::string::npos);
  EXPECT_NE(written.find("\"tab\\tquote\\\"cr\\r\""), std::string::npos);
  // RFC 8259: no raw control byte inside a string. Newlines only separate
  // events.
  for (char c : written) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20);
    }
  }
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndEveryControlByte) {
  EXPECT_EQ(JsonEscape("plain text"), "plain text");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
  EXPECT_EQ(JsonEscape(std::string("\x00\x1f\x7f", 3)), "\\u0000\\u001f\x7f");
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes
}

TEST_F(ObsTest, WallSpanClosesWhenAnExceptionUnwindsThroughIt) {
  SetTraceEnabled(true);
  try {
    WallSpan span("throws_inside");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  const std::string json = Tracer::Get().ToJsonString();
  const size_t b =
      json.find("\"name\": \"throws_inside\", \"cat\": \"wall\", \"ph\": \"B\"");
  const size_t e =
      json.find("\"name\": \"throws_inside\", \"cat\": \"wall\", \"ph\": \"E\"");
  EXPECT_NE(b, std::string::npos) << json;
  EXPECT_NE(e, std::string::npos) << json;
  EXPECT_LT(b, e);
}

}  // namespace
}  // namespace drlstream::obs
