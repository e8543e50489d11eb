#ifndef DRLSTREAM_OBS_METRICS_H_
#define DRLSTREAM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace drlstream::obs {

/// Process-wide observability switches. Both default to off; recording is a
/// relaxed load + branch when disabled, so instrumentation compiles in
/// unconditionally and healthy hot paths pay near-zero (see the
/// BM_SimFaultReplay / BM_DdpgTrainStep gates in scripts/run_bench.sh).
/// Enabled via --metrics / --trace-out (common/flags.h).
inline constexpr uint32_t kMetricsBit = 1u;
inline constexpr uint32_t kTraceBit = 2u;

namespace internal {
extern std::atomic<uint32_t> g_obs_flags;
}  // namespace internal

inline bool MetricsEnabled() {
  return (internal::g_obs_flags.load(std::memory_order_relaxed) &
          kMetricsBit) != 0;
}
inline bool TraceEnabled() {
  return (internal::g_obs_flags.load(std::memory_order_relaxed) &
          kTraceBit) != 0;
}
void SetMetricsEnabled(bool enabled);
void SetTraceEnabled(bool enabled);

/// Shard a recording thread writes to. Threads are assigned shards
/// round-robin on first use; multiple threads may share a shard (the slots
/// are atomic), they just contend a little. Recording never locks.
inline constexpr int kNumShards = 32;
int ShardIndex();

/// ---- Metric primitives -------------------------------------------------
///
/// Determinism contract: counters and histograms accumulate in integer /
/// fixed-point arithmetic only, so the merged snapshot is bit-identical no
/// matter how samples were spread across shards — i.e. identical at any
/// --threads value, provided the *recorded values* are themselves
/// deterministic (sim-time metrics and event counters are; wall-clock
/// timings are not, by nature). Merge order over shards is fixed
/// (ascending shard index) and addition is exact, so even a different
/// thread-to-shard assignment cannot change the result.

class Counter {
 public:
  /// Adds `n` (may be negative for corrections). Dropped when metrics are
  /// disabled.
  void Add(int64_t n = 1) {
    if (!MetricsEnabled()) return;
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  int64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  std::array<Shard, kNumShards> shards_;
};

/// Last-writer-wins instantaneous value (e.g. pool size, queue depth).
/// Intended for single-writer call sites; concurrent writers race benignly.
/// Stores the double's bit pattern verbatim, so Set/Value round-trip
/// bit-exactly — including NaN, ±Inf, and -0.0 (the exporters render
/// non-finite values per the Prometheus exposition format).
class Gauge {
 public:
  void Set(double value) {
    if (!MetricsEnabled()) return;
    value_.store(std::bit_cast<int64_t>(value), std::memory_order_relaxed);
  }
  double Value() const;
  void Reset();

  /// 1/1024 fixed-point conversion used by Histogram sum/min/max (exact
  /// shard merge); kept here for the shared clamping rules.
  static int64_t FixedFromDouble(double value);

 private:
  std::atomic<int64_t> value_{0};  // bit pattern of the double (0 == 0.0)
};

/// Log-bucketed histogram: bucket 0 holds values <= 0, bucket i >= 1 holds
/// values with floor(log2(v)) == i - 1 + kMinExponent (clamped at the
/// ends), i.e. power-of-two bucket boundaries covering ~1.5e-5 .. 7e13 in
/// the recorded unit. Sum / min / max are kept in 1/1024 fixed point so the
/// shard merge is exact (see the determinism contract above).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;
  static constexpr int kMinExponent = -16;  // bucket 1 = (0, 2^-16]

  Histogram();

  void Record(double value) {
    if (!MetricsEnabled()) return;
    RecordAlways(value);
  }
  /// Record without the enabled check, for callers that already branched.
  void RecordAlways(double value);

  /// Bucket index a value lands in (deterministic, pure).
  static int BucketOf(double value);
  /// Exclusive upper bound of bucket `index` (+inf for the last): bucket b
  /// covers [BucketUpperBound(b-1), BucketUpperBound(b)).
  static double BucketUpperBound(int index);

  void Reset();

 private:
  friend class MetricsRegistry;
  struct alignas(64) Shard {
    std::array<std::atomic<int64_t>, kNumBuckets> buckets{};
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum_fixed{0};
    std::atomic<int64_t> min_fixed{INT64_MAX};
    std::atomic<int64_t> max_fixed{INT64_MIN};
  };
  std::array<Shard, kNumShards> shards_;
};

/// ---- Snapshots ---------------------------------------------------------

struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;
  std::array<int64_t, Histogram::kNumBuckets> buckets{};

  double Mean() const { return count > 0 ? sum / count : 0.0; }
};

/// Deterministic point-in-time view of every registered metric, keyed by
/// name (sorted, since std::map).
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// ---- Registry ----------------------------------------------------------

/// Process-wide metric registry. Lookup by name locks a mutex (do it once,
/// cache the pointer — typically in a function-local static at the
/// instrumentation site); recording through the returned pointers is
/// lock-free. Returned pointers live for the process lifetime; Reset()
/// zeroes values but never invalidates them.
///
/// Naming scheme: `subsystem.metric[_unit]`, e.g. `sim.tuple_latency_ms`,
/// `phase.actor_forward_us`, `rl.ddpg.knn_failures`. `_us` metrics are
/// wall-clock timings (nondeterministic values); everything else records
/// deterministic quantities and snapshots bit-identically at any thread
/// count. See DESIGN.md §10.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Merged snapshot of all registered metrics (exact integer merge in
  /// ascending shard order; see the determinism contract).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric's value, keeping registrations (and pointers
  /// handed out earlier) valid. For tests and fresh measurement windows.
  void ResetValues();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// ---- Exporters ---------------------------------------------------------

/// Prometheus text exposition (metric names sanitized to [a-z0-9_] with a
/// `drlstream_` prefix; histograms as cumulative `le` buckets + _sum/_count).
/// Non-finite values render as `NaN` / `+Inf` / `-Inf` per the exposition
/// format.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// The sanitized exposition name for a registry metric: `drlstream_` +
/// the name with every character outside [A-Za-z0-9_] replaced by '_'.
/// Exposed for tests and for exporters layered on top (e.g. /metrics).
std::string PrometheusMetricName(const std::string& name);

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline become \\, \", and \n.
std::string PrometheusEscapeLabelValue(const std::string& value);

/// Registry names may carry a label suffix: `base#key=value[,key=value...]`
/// (e.g. `sim.tuple_latency_ms#tenant=3`). The registry itself treats the
/// whole string as an opaque key; the Prometheus exporter splits it here
/// and renders `drlstream_sim_tuple_latency_ms{tenant="3"}` (values pass
/// through PrometheusEscapeLabelValue). Names without '#' have no labels
/// and render exactly as before. The JSON exporter keeps the raw name.
struct MetricNameParts {
  std::string base;
  std::vector<std::pair<std::string, std::string>> labels;
};
MetricNameParts SplitMetricName(const std::string& name);

/// `text` as the body of a JSON string (RFC 8259): `"` and `\` are
/// backslash-escaped, \n \t \r \b \f take their short escapes and the
/// other bytes below 0x20 become \u00XX. The tracer, /statusz and the
/// series artifacts write their strings through it.
std::string JsonEscape(const std::string& text);

/// JSON document: {"counters": {...}, "gauges": {...}, "histograms":
/// {name: {count, sum, mean, min, max, buckets: [{le, count}, ...]}}}.
/// `indent` is prepended to every line (for embedding in a larger
/// document, e.g. core::SaveSeriesJson).
std::string ToJson(const MetricsSnapshot& snapshot,
                   const std::string& indent = "");

/// Writes `content` to `path`; returns false (with a note on stderr) on
/// I/O failure. obs deliberately has no Status dependency.
bool WriteTextFile(const std::string& path, const std::string& content);

}  // namespace drlstream::obs

#endif  // DRLSTREAM_OBS_METRICS_H_
