#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/rng.h"

namespace drlstream::obs {

Tracer::Tracer() : start_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::Get() {
  // Leaked for the same reason as the MetricsRegistry: at-exit exporters
  // and late-dying threads may touch it after static destruction began.
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<int>(buffers_.size());
  }
  return buffer;
}

void Tracer::Append(Event event) {
  ThreadBuffer* buffer = BufferForThisThread();
  if (buffer->events.size() >= event_cap_.load(std::memory_order_relaxed)) {
    ++buffer->dropped;
    return;
  }
  buffer->events.push_back(std::move(event));
}

void Tracer::SetEventCapForTest(size_t cap) {
  event_cap_.store(cap == 0 ? kMaxEventsPerThread : cap,
                   std::memory_order_relaxed);
}

void Tracer::BeginWall(const std::string& name) {
  Append(Event{name, std::string(), NowUs(), -1.0, 'B', 1});
}

void Tracer::EndWall(const std::string& name) {
  Append(Event{name, std::string(), NowUs(), -1.0, 'E', 1});
}

void Tracer::AddWallSpan(const std::string& name, double start_us,
                         double end_us, std::string args_json) {
  if (!TraceEnabled()) return;
  Append(Event{name, std::move(args_json), start_us, -1.0, 'B', 1});
  Append(Event{name, std::string(), end_us, -1.0, 'E', 1});
}

void Tracer::AddWallInstant(const std::string& name, double ts_us,
                            std::string args_json) {
  if (!TraceEnabled()) return;
  Append(Event{name, std::move(args_json), ts_us, -1.0, 'i', 1});
}

void Tracer::AddSimSpan(const std::string& name, double start_ms,
                        double end_ms) {
  if (!TraceEnabled()) return;
  Append(Event{name, std::string(), start_ms * 1000.0, -1.0, 'B', 2});
  Append(Event{name, std::string(), end_ms * 1000.0, -1.0, 'E', 2});
}

void Tracer::AddSimInstant(const std::string& name, double ts_ms) {
  if (!TraceEnabled()) return;
  Append(Event{name, std::string(), ts_ms * 1000.0, -1.0, 'i', 2});
}

uint64_t NewSpanId() {
  // A per-process nonce (start times differ across processes) mixed with a
  // counter through the splitmix64 finalizer; never returns 0.
  static const uint64_t nonce = [] {
    const auto steady =
        std::chrono::steady_clock::now().time_since_epoch().count();
    const auto system =
        std::chrono::system_clock::now().time_since_epoch().count();
    return static_cast<uint64_t>(steady) ^
           (static_cast<uint64_t>(system) << 1);
  }();
  static std::atomic<uint64_t> counter{0};
  const uint64_t x = SplitMix64Finalize(
      nonce + kSplitMix64Gamma *
                  (counter.fetch_add(1, std::memory_order_relaxed) + 1));
  return x == 0 ? 1 : x;
}

size_t Tracer::event_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->events.size();
  return total;
}

size_t Tracer::dropped_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->dropped;
  return total;
}

void Tracer::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) {
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

namespace {

void AppendMetadata(std::ostringstream& out, int pid, const char* name,
                    bool* first) {
  out << (*first ? "" : ",") << "\n  {\"name\": \"process_name\", "
      << "\"ph\": \"M\", \"ts\": 0, \"pid\": " << pid << ", \"tid\": 0, "
      << "\"args\": {\"name\": \"" << name << "\"}}";
  *first = false;
}

}  // namespace

std::string Tracer::ToJsonString() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out.precision(17);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  AppendMetadata(out, 1, "wall-clock", &first);
  AppendMetadata(out, 2, "sim-time", &first);
  // Per-thread buffers are concatenated in registration order; within a
  // buffer the original order is preserved, so every track's B/E pairs
  // stay balanced and properly nested. Viewers sort by ts themselves.
  size_t total_dropped = 0;
  for (const auto& buffer : buffers_) {
    total_dropped += buffer->dropped;
    auto emit = [&](const Event& event) {
      out << (first ? "" : ",") << "\n  {\"name\": \""
          << JsonEscape(event.name) << "\", \"cat\": \""
          << (event.pid == 2 ? "sim" : "wall") << "\", \"ph\": \""
          << event.ph << "\", \"ts\": " << event.ts_us
          << ", \"pid\": " << event.pid
          << ", \"tid\": " << (event.pid == 2 ? 0 : buffer->tid);
      if (event.ph == 'i') out << ", \"s\": \"t\"";
      if (!event.args.empty()) out << ", \"args\": " << event.args;
      out << "}";
      first = false;
    };
    double last_ts[2] = {0.0, 0.0};  // per timebase (pid 1 / pid 2)
    std::vector<const Event*> open[2];  // B events awaiting their E
    for (const Event& event : buffer->events) {
      emit(event);
      if (buffer->dropped == 0) continue;
      // Overflow dropped a suffix of this buffer, which can strand B
      // events without their E; track open spans so we can close them.
      const int tb = event.pid == 2 ? 1 : 0;
      if (event.ts_us > last_ts[tb]) last_ts[tb] = event.ts_us;
      if (event.ph == 'B') {
        open[tb].push_back(&event);
      } else if (event.ph == 'E' && !open[tb].empty()) {
        open[tb].pop_back();
      }
    }
    // Close stranded spans innermost-first at the track's last timestamp,
    // so an overflowed buffer still loads as a balanced trace.
    for (int tb = 1; tb >= 0; --tb) {
      for (auto it = open[tb].rbegin(); it != open[tb].rend(); ++it) {
        Event end = **it;
        end.args.clear();
        end.ph = 'E';
        end.ts_us = std::max(end.ts_us, last_ts[tb]);
        emit(end);
      }
    }
  }
  if (total_dropped > 0) {
    out << (first ? "" : ",") << "\n  {\"name\": \"trace_overflow\", "
        << "\"cat\": \"wall\", \"ph\": \"i\", \"ts\": 0, \"pid\": 1, "
        << "\"tid\": 0, \"s\": \"t\", \"args\": {\"dropped\": "
        << total_dropped << "}}";
    first = false;
  }
  out << "\n]}\n";
  return out.str();
}

bool Tracer::WriteJson(const std::string& path) {
  const std::string json = ToJsonString();
  const size_t dropped = dropped_count();
  if (dropped > 0) {
    std::fprintf(stderr,
                 "obs: trace buffer overflow, %zu events dropped "
                 "(cap %zu per thread)\n",
                 dropped, kMaxEventsPerThread);
  }
  return WriteTextFile(path, json);
}

}  // namespace drlstream::obs
