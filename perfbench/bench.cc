#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <utility>

namespace perfbench {

void RunResult::AddCheck(const std::string& name, bool ok,
                         const std::string& detail) {
  checks.push_back(Check{name, ok, detail});
}

void RunResult::SetMetric(const std::string& name, double value,
                          const std::string& unit, int64_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

bool RunResult::SetupDone(const Options& options) {
  SetMetric("setup_s", ProcessCpuSeconds() - options.cpu_start, "s");
  return options.setup_only;
}

bool RunResult::ok() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "train_cq") return &RunTrainCq;
  if (name == "scenario_day") return &RunScenarioDay;
  if (name == "serve_ddpg") return &RunServeDdpg;
  return nullptr;
}

namespace {

double ClockSeconds(clockid_t clock_id) {
  timespec ts{};
  if (clock_gettime(clock_id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds(pthread_t thread) {
  clockid_t clock_id;
  if (pthread_getcpuclockid(thread, &clock_id) != 0) return 0.0;
  return ClockSeconds(clock_id);
}

double PeakRssMb() {
  // VmHWM is this program image's own high-water mark. getrusage's
  // ru_maxrss is not: it keeps the peak of the image the process ran before
  // exec, here the launcher's Python interpreter, which is larger than some
  // workloads.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CalibrationCpuSeconds() {
  static volatile uint64_t sink = 0;
  uint32_t table[256] = {};
  uint64_t x = 88172645463325252ull;
  double f = 1.0;
  const double start = ThreadCpuSeconds();
  for (int i = 0; i < 12000000; ++i) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    table[x & 255] += static_cast<uint32_t>(x >> 32);
    if ((x & 1) != 0) {
      f = f * 1.0000001 + 1e-9;
    } else {
      table[(x >> 8) & 255] ^= 1;
    }
  }
  const double seconds = ThreadCpuSeconds() - start;
  sink = sink + x + table[x & 255] + static_cast<uint64_t>(f);
  return seconds;
}

bool JobTimes::WantMore(const Options& options, Clock::time_point start) {
  const bool more =
      repeats() < kMinRepeats ||
      (!options.small && SecondsSince(start) + MinWall() <= options.seconds);
  if (more) calibration_s.push_back(CalibrationCpuSeconds());
  return more;
}

double JobTimes::MinWall() const {
  return wall_s.empty() ? 0.0 : *std::min_element(wall_s.begin(), wall_s.end());
}

void JobTimes::Report(RunResult* result) const {
  const int64_t n = repeats();
  const auto fastest = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  };
  const double calibration = fastest(calibration_s);
  result->SetMetric("job_cpu_raw_s", fastest(cpu_s), "s", n);
  result->SetMetric("job_cpu_s",
                    calibration > 0.0
                        ? fastest(cpu_s) * kReferenceCalibrationS / calibration
                        : 0.0,
                    "s", n);
  result->SetMetric("calibration_s", calibration, "s",
                    static_cast<int64_t>(calibration_s.size()));
  result->SetMetric("job_cpu_median_s", Quantile(cpu_s, 50.0), "s", n);
  result->SetMetric("job_wall_s", MinWall(), "s", n);
}

double Quantile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

bool ValidSchedule(const dl::sched::Schedule& schedule, int n, int m) {
  if (schedule.num_executors() != n || schedule.num_machines() != m) {
    return false;
  }
  for (int e = 0; e < n; ++e) {
    if (schedule.MachineOf(e) < 0 || schedule.MachineOf(e) >= m) return false;
  }
  return true;
}

uint64_t HashInts(const std::vector<int>& values, uint64_t hash) {
  for (int v : values) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (static_cast<uint32_t>(v) >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string Exact(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "nan";
}

double ObsSeconds(const dl::obs::MetricsSnapshot& snapshot,
                  const std::string& histogram) {
  const auto it = snapshot.histograms.find(histogram);
  return it == snapshot.histograms.end() ? 0.0 : it->second.sum * 1e-6;
}

int64_t ObsCount(const dl::obs::MetricsSnapshot& snapshot,
                 const std::string& counter) {
  const auto it = snapshot.counters.find(counter);
  return it == snapshot.counters.end() ? 0 : it->second;
}

void BeginObs() {
  dl::obs::MetricsRegistry::Get().ResetValues();
  dl::obs::SetMetricsEnabled(true);
}

dl::obs::MetricsSnapshot EndObs() {
  dl::obs::SetMetricsEnabled(false);
  return dl::obs::MetricsRegistry::Get().Snapshot();
}

void SimTally::Add(const dl::sim::SimCounters& counters, double now_ms) {
  events += counters.events_processed;
  roots_completed += counters.roots_completed;
  roots_failed += counters.roots_failed;
  migrations += counters.migrations;
  simulated_ms += now_ms;
}

void SimTally::Report(double owned_busy_s,
                      std::map<std::string, double>* layers) const {
  (*layers)["sim.events"] = static_cast<double>(events);
  (*layers)["sim.roots_completed"] = static_cast<double>(roots_completed);
  (*layers)["sim.roots_failed"] = static_cast<double>(roots_failed);
  (*layers)["sim.migrations"] = static_cast<double>(migrations);
  (*layers)["sim.simulated_s"] = simulated_ms / 1000.0;
  (*layers)["sim.ns_per_event"] =
      events > 0 ? owned_busy_s * 1e9 / static_cast<double>(events) : 0.0;
}

// ---- TimingPolicy --------------------------------------------------------

namespace {

/// Wall time and the calling thread's CPU time over one decide or observe
/// call.
struct CallTimers {
  CallTimers(double* wall_s, double* cpu_s) : wall(wall_s), cpu(cpu_s) {}
  Stopwatch wall;
  ThreadCpuStopwatch cpu;
};

}  // namespace

dl::StatusOr<dl::rl::PolicyAction> TimingPolicy::SelectAction(
    const dl::rl::State& state, double epsilon, dl::Rng* rng) const {
  CallTimers watch(&times_.decide_s, &times_.decide_observe_cpu_s);
  ++times_.decisions;
  return inner_->SelectAction(state, epsilon, rng);
}

dl::Status TimingPolicy::SelectActionInto(const dl::rl::State& state,
                                          double epsilon, dl::Rng* rng,
                                          dl::rl::PolicyAction* out) const {
  CallTimers watch(&times_.decide_s, &times_.decide_observe_cpu_s);
  ++times_.decisions;
  return inner_->SelectActionInto(state, epsilon, rng, out);
}

void TimingPolicy::SelectActionBatch(dl::rl::DecisionRequest* slots,
                                     int count) const {
  CallTimers watch(&times_.decide_s, &times_.decide_observe_cpu_s);
  times_.decisions += count;
  ++times_.batches;
  times_.batch_slots += count;
  inner_->SelectActionBatch(slots, count);
}

dl::StatusOr<dl::sched::Schedule> TimingPolicy::GreedyAction(
    const dl::rl::State& state) const {
  CallTimers watch(&times_.decide_s, &times_.decide_observe_cpu_s);
  ++times_.decisions;
  return inner_->GreedyAction(state);
}

dl::Status TimingPolicy::GreedyActionInto(const dl::rl::State& state,
                                          dl::sched::Schedule* out) const {
  CallTimers watch(&times_.decide_s, &times_.decide_observe_cpu_s);
  ++times_.decisions;
  return inner_->GreedyActionInto(state, out);
}

dl::StatusOr<dl::sched::Schedule> TimingPolicy::FinalSchedule(
    const dl::rl::State& state) const {
  CallTimers watch(&times_.decide_s, &times_.decide_observe_cpu_s);
  ++times_.decisions;
  return inner_->FinalSchedule(state);
}

void TimingPolicy::Observe(dl::rl::Transition transition) {
  CallTimers watch(&times_.observe_s, &times_.decide_observe_cpu_s);
  ++times_.observes;
  inner_->Observe(std::move(transition));
}

double TimingPolicy::TrainStep() {
  Stopwatch watch(&times_.train_s);
  ++times_.train_steps;
  return inner_->TrainStep();
}

double TimingPolicy::TrainStepReference() {
  Stopwatch watch(&times_.train_s);
  ++times_.train_steps;
  return inner_->TrainStepReference();
}

void TimingPolicy::PretrainOffline(const dl::rl::TransitionDatabase& db,
                                   int steps) {
  Stopwatch watch(&times_.pretrain_s);
  inner_->PretrainOffline(db, steps);
}

// ---- TimingGenerator ---------------------------------------------------------

std::optional<dl::workload::RateChangeOp> TimingGenerator::NextRateChange(
    int tenant, double now_ms) const {
  Stopwatch watch(&times_.gen_s);
  ++times_.calls;
  std::optional<dl::workload::RateChangeOp> op =
      inner_->NextRateChange(tenant, now_ms);
  if (op.has_value()) ++times_.ops;
  return op;
}

double TimingGenerator::MultiplierAt(int tenant, int spout,
                                     double time_ms) const {
  Stopwatch watch(&times_.gen_s);
  ++times_.calls;
  return inner_->MultiplierAt(tenant, spout, time_ms);
}

}  // namespace perfbench
