#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace drlstream::obs {

namespace internal {
std::atomic<uint32_t> g_obs_flags{0};
}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  if (enabled) {
    internal::g_obs_flags.fetch_or(kMetricsBit, std::memory_order_relaxed);
  } else {
    internal::g_obs_flags.fetch_and(~kMetricsBit, std::memory_order_relaxed);
  }
}

void SetTraceEnabled(bool enabled) {
  if (enabled) {
    internal::g_obs_flags.fetch_or(kTraceBit, std::memory_order_relaxed);
  } else {
    internal::g_obs_flags.fetch_and(~kTraceBit, std::memory_order_relaxed);
  }
}

int ShardIndex() {
  static std::atomic<int> next_shard{0};
  thread_local const int shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return shard;
}

// ---- Counter --------------------------------------------------------------

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// ---- Gauge ----------------------------------------------------------------

// 1/1024 fixed point: the scale is a power of two, so the double -> fixed
// conversion is an exact dyadic multiply followed by one deterministic
// rounding — identical on every thread and platform with IEEE doubles.
int64_t Gauge::FixedFromDouble(double value) {
  if (std::isnan(value)) return 0;  // llround(NaN) is unspecified
  const double scaled = value * 1024.0;
  // Clamp to the representable range instead of invoking UB on overflow.
  if (scaled >= 9.2e18) return INT64_MAX;
  if (scaled <= -9.2e18) return INT64_MIN;
  return std::llround(scaled);
}

double Gauge::Value() const {
  return std::bit_cast<double>(value_.load(std::memory_order_relaxed));
}

void Gauge::Reset() { value_.store(0, std::memory_order_relaxed); }

// ---- Histogram ------------------------------------------------------------

Histogram::Histogram() {
  for (Shard& shard : shards_) {
    shard.min_fixed.store(INT64_MAX, std::memory_order_relaxed);
    shard.max_fixed.store(INT64_MIN, std::memory_order_relaxed);
  }
}

int Histogram::BucketOf(double value) {
  if (!(value > 0.0)) return 0;  // <= 0 and NaN
  const int e = std::ilogb(value);  // floor(log2(value)) for finite v > 0
  const int clamped =
      std::clamp(e, kMinExponent, kMinExponent + kNumBuckets - 2);
  return clamped - kMinExponent + 1;
}

double Histogram::BucketUpperBound(int index) {
  if (index <= 0) return 0.0;
  if (index >= kNumBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, index + kMinExponent);  // 2^(e+1) for the bucket
}

void Histogram::RecordAlways(double value) {
  Shard& shard = shards_[ShardIndex()];
  shard.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  const int64_t fixed = Gauge::FixedFromDouble(value);
  shard.sum_fixed.fetch_add(fixed, std::memory_order_relaxed);
  int64_t seen = shard.min_fixed.load(std::memory_order_relaxed);
  while (fixed < seen && !shard.min_fixed.compare_exchange_weak(
                             seen, fixed, std::memory_order_relaxed)) {
  }
  seen = shard.max_fixed.load(std::memory_order_relaxed);
  while (fixed > seen && !shard.max_fixed.compare_exchange_weak(
                             seen, fixed, std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum_fixed.store(0, std::memory_order_relaxed);
    shard.min_fixed.store(INT64_MAX, std::memory_order_relaxed);
    shard.max_fixed.store(INT64_MIN, std::memory_order_relaxed);
  }
}

// ---- Registry -------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Get() {
  // Leaked: instrumentation sites cache raw pointers and the at-exit
  // exporters read the registry after other static destructors ran.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot merged;
    int64_t sum_fixed = 0;
    int64_t min_fixed = INT64_MAX;
    int64_t max_fixed = INT64_MIN;
    for (const Histogram::Shard& shard : histogram->shards_) {
      for (int b = 0; b < Histogram::kNumBuckets; ++b) {
        merged.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
      }
      merged.count += shard.count.load(std::memory_order_relaxed);
      sum_fixed += shard.sum_fixed.load(std::memory_order_relaxed);
      min_fixed = std::min(min_fixed,
                           shard.min_fixed.load(std::memory_order_relaxed));
      max_fixed = std::max(max_fixed,
                           shard.max_fixed.load(std::memory_order_relaxed));
    }
    merged.sum = static_cast<double>(sum_fixed) / 1024.0;
    merged.min =
        merged.count > 0 ? static_cast<double>(min_fixed) / 1024.0 : 0.0;
    merged.max =
        merged.count > 0 ? static_cast<double>(max_fixed) / 1024.0 : 0.0;
    snapshot.histograms[name] = merged;
  }
  return snapshot;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

// ---- Exporters ------------------------------------------------------------

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "drlstream_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string PrometheusEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Exposition-format float rendering: non-finite values must spell as
// NaN / +Inf / -Inf (a bare locale "nan"/"inf" is not scrapeable).
void AppendNumber(std::ostringstream& out, double value) {
  if (std::isnan(value)) {
    out << "NaN";
  } else if (std::isinf(value)) {
    out << (value > 0 ? "+Inf" : "-Inf");
  } else {
    out << value;
  }
}

// JSON has no literal for non-finite numbers; render them as strings so
// the document stays parseable.
void AppendJsonNumber(std::ostringstream& out, double value) {
  if (std::isnan(value)) {
    out << "\"NaN\"";
  } else if (std::isinf(value)) {
    out << (value > 0 ? "\"+Inf\"" : "\"-Inf\"");
  } else {
    out << value;
  }
}

}  // namespace

MetricNameParts SplitMetricName(const std::string& name) {
  MetricNameParts parts;
  const size_t hash = name.find('#');
  if (hash == std::string::npos) {
    parts.base = name;
    return parts;
  }
  // The suffix must be entirely well-formed `key=value` pairs (keys match
  // [A-Za-z_][A-Za-z0-9_]*); otherwise the '#' is treated as part of a
  // hostile name and the whole string falls through to the sanitizer.
  std::vector<std::pair<std::string, std::string>> labels;
  size_t pos = hash + 1;
  while (pos <= name.size()) {
    size_t end = name.find(',', pos);
    if (end == std::string::npos) end = name.size();
    const std::string pair = name.substr(pos, end - pos);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      parts.base = name;
      return parts;
    }
    const std::string key = pair.substr(0, eq);
    for (size_t i = 0; i < key.size(); ++i) {
      const char c = key[i];
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      c == '_' || (i > 0 && c >= '0' && c <= '9');
      if (!ok) {
        parts.base = name;
        return parts;
      }
    }
    labels.emplace_back(key, pair.substr(eq + 1));
    if (end == name.size()) break;
    pos = end + 1;
  }
  parts.base = name.substr(0, hash);
  parts.labels = std::move(labels);
  return parts;
}

namespace {

// `{tenant="3"}` rendered from the label suffix, with `extra` (e.g. the
// histogram `le` bound) appended. Empty string when there are no labels and
// no extra — bare-name series render exactly as before the label scheme.
std::string PrometheusLabelSet(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;  // keys were validated by SplitMetricName
    out += "=\"" + PrometheusEscapeLabelValue(value) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& [name, value] : snapshot.counters) {
    const MetricNameParts parts = SplitMetricName(name);
    const std::string prom = PrometheusMetricName(parts.base);
    const std::string labels = PrometheusLabelSet(parts.labels);
    out << "# TYPE " << prom << " counter\n"
        << prom << labels << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const MetricNameParts parts = SplitMetricName(name);
    const std::string prom = PrometheusMetricName(parts.base);
    out << "# TYPE " << prom << " gauge\n"
        << prom << PrometheusLabelSet(parts.labels) << " ";
    AppendNumber(out, value);
    out << "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const MetricNameParts parts = SplitMetricName(name);
    const std::string prom = PrometheusMetricName(parts.base);
    out << "# TYPE " << prom << " histogram\n";
    // Cumulative buckets; empty deltas are skipped except the mandatory
    // +Inf bound, keeping the exposition compact but still monotone.
    int64_t cumulative = 0;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      if (hist.buckets[b] == 0) continue;
      cumulative += hist.buckets[b];
      std::ostringstream le;
      le.precision(17);
      le << "le=\"";
      AppendNumber(le, Histogram::BucketUpperBound(b));
      le << "\"";
      out << prom << "_bucket" << PrometheusLabelSet(parts.labels, le.str())
          << " " << cumulative << "\n";
    }
    out << prom << "_bucket"
        << PrometheusLabelSet(parts.labels, "le=\"+Inf\"") << " "
        << hist.count << "\n";
    out << prom << "_sum" << PrometheusLabelSet(parts.labels) << " ";
    AppendNumber(out, hist.sum);
    out << "\n";
    out << prom << "_count" << PrometheusLabelSet(parts.labels) << " "
        << hist.count << "\n";
  }
  return out.str();
}

std::string ToJson(const MetricsSnapshot& snapshot,
                   const std::string& indent) {
  std::ostringstream out;
  out.precision(17);
  const std::string i1 = indent + "  ";
  const std::string i2 = indent + "    ";
  out << "{\n";

  out << i1 << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out << (first ? "\n" : ",\n") << i2 << "\"" << name << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n" + i1) << "},\n";

  out << i1 << "\"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out << (first ? "\n" : ",\n") << i2 << "\"" << name << "\": ";
    AppendJsonNumber(out, value);
    first = false;
  }
  out << (first ? "" : "\n" + i1) << "},\n";

  out << i1 << "\"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    out << (first ? "\n" : ",\n") << i2 << "\"" << name << "\": {"
        << "\"count\": " << hist.count << ", \"sum\": ";
    AppendJsonNumber(out, hist.sum);
    out << ", \"mean\": ";
    AppendJsonNumber(out, hist.Mean());
    out << ", \"min\": ";
    AppendJsonNumber(out, hist.min);
    out << ", \"max\": ";
    AppendJsonNumber(out, hist.max);
    out << ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      if (hist.buckets[b] == 0) continue;
      if (!first_bucket) out << ", ";
      first_bucket = false;
      out << "{\"le\": ";
      const double le = Histogram::BucketUpperBound(b);
      if (std::isinf(le)) {
        out << "\"+Inf\"";
      } else {
        out << le;
      }
      out << ", \"count\": " << hist.buckets[b] << "}";
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n" + i1) << "}\n";

  out << indent << "}";
  return out.str();
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out.is_open()) {
    std::fprintf(stderr, "obs: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << content;
  if (!out.good()) {
    std::fprintf(stderr, "obs: write failed: %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace drlstream::obs
