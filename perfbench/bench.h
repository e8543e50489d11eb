#ifndef DRLSTREAM_PERFBENCH_BENCH_H_
#define DRLSTREAM_PERFBENCH_BENCH_H_

// The end-to-end benchmark's shared types: run options, the result record
// every workload fills, the wall-clock helpers, and the two timing
// decorators the traced runs wrap around the program's own interfaces.

#include <pthread.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "rl/policy.h"
#include "sim/cluster_sim.h"
#include "workload/generator.h"

namespace perfbench {

namespace dl = drlstream;

using Clock = std::chrono::steady_clock;

struct Options {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Also run the traced pass and report the per-layer metrics.
  bool trace = false;
  /// Shrunk sizes for the self-test (same code paths, seconds not minutes).
  bool small = false;
  /// Stop after set-up: only setup_s is reported.
  bool setup_only = false;
  /// The process's CPU seconds when the program started; setup_s is the CPU
  /// time from here to the first timed call.
  double cpu_start = 0.0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 1;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// What one workload run reports. `metrics` come from the untraced pass,
/// `layers` from the traced pass (empty unless Options::trace; names and
/// units are BENCHMARK.json's per_layer list, and a layer the workload does
/// not exercise is left out and reads 0), `outputs` are the exact results a
/// fixed seed must reproduce.
struct RunResult {
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> layers;
  std::vector<Check> checks;
  int64_t ops = 0;
  int64_t ops_failed = 0;
  std::map<std::string, std::string> outputs;

  void AddCheck(const std::string& name, bool ok, const std::string& detail);
  /// Records setup_s (CPU time from program start to now); true when the
  /// run stops here.
  bool SetupDone(const Options& options);
  void SetMetric(const std::string& name, double value, const std::string& unit,
                 int64_t samples = 1);
  bool ok() const;
};

using WorkloadFn = dl::Status (*)(const Options&, RunResult*);
dl::Status RunTrainCq(const Options& options, RunResult* result);
dl::Status RunScenarioDay(const Options& options, RunResult* result);
dl::Status RunServeDdpg(const Options& options, RunResult* result);
/// nullptr for an unknown name.
WorkloadFn FindWorkload(const std::string& name);

// ---- Clocks and process counters ---------------------------------------

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Adds the wall time of its scope to *sink (seconds).
class Stopwatch {
 public:
  explicit Stopwatch(double* sink) : sink_(sink), start_(Clock::now()) {}
  ~Stopwatch() { *sink_ += SecondsSince(start_); }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double* sink_;
  Clock::time_point start_;
};

/// User + system CPU seconds of the whole process so far, all threads. With
/// paravirtual steal accounting the kernel leaves out the time the host ran
/// something else on a vCPU, which wall time includes.
double ProcessCpuSeconds();
/// CPU seconds a thread of this process has used so far (the calling
/// thread by default).
double ThreadCpuSeconds(pthread_t thread = pthread_self());

/// Adds the calling thread's CPU time over its scope to *sink (seconds).
class ThreadCpuStopwatch {
 public:
  explicit ThreadCpuStopwatch(double* sink)
      : sink_(sink), start_(ThreadCpuSeconds()) {}
  ~ThreadCpuStopwatch() { *sink_ += ThreadCpuSeconds() - start_; }
  ThreadCpuStopwatch(const ThreadCpuStopwatch&) = delete;
  ThreadCpuStopwatch& operator=(const ThreadCpuStopwatch&) = delete;

 private:
  double* sink_;
  double start_;
};

/// Peak resident set of the program so far, MB.
double PeakRssMb();

// ---- Repeated jobs -----------------------------------------------------

/// A workload's timed region runs one job (fixed work on the seed's inputs)
/// again and again: at least this many times, then on while one more repeat
/// as fast as the fastest so far still ends within --seconds of wall time.
/// The self-test's small runs stop at the minimum.
constexpr int kMinRepeats = 2;

/// The calibration loop's CPU time on the reference host (seconds).
constexpr double kReferenceCalibrationS = 0.1;

/// CPU seconds the calling thread spends in a fixed loop of the benchmark's
/// own that shares no code with the program and stays in the L1 cache
/// (an xorshift stream, a data-dependent branch, a floating-point chain and
/// a 1 KiB table), so its time follows the core's clock and what other
/// tenants' threads on the same core take from it, and nothing else.
double CalibrationCpuSeconds();

/// CPU and wall seconds of each repeat of a workload's job, and of the
/// calibration loop run before each repeat.
struct JobTimes {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  std::vector<double> calibration_s;

  int repeats() const { return static_cast<int>(cpu_s.size()); }
  /// Whether to run another repeat, `start` being the timed region's start.
  /// Runs the calibration loop when it says yes.
  bool WantMore(const Options& options, Clock::time_point start);
  double MinWall() const;
  /// Sets job_cpu_raw_s, the fastest repeat's CPU time: other load on the
  /// host only ever adds time, so the fastest repeat is the steadiest
  /// estimate of what the job costs. Sets job_cpu_s, that time at the
  /// reference host's speed: scaled by the fastest calibration loop, which
  /// takes out the host's own drift of up to a fifth over minutes. Also sets
  /// the median repeat's CPU time and the fastest wall time for reference.
  void Report(RunResult* result) const;
};

/// Appends the CPU (all threads) and wall time of its scope to a JobTimes.
class JobTimer {
 public:
  explicit JobTimer(JobTimes* times)
      : times_(times), cpu_start_(ProcessCpuSeconds()), start_(Clock::now()) {}
  ~JobTimer() {
    times_->wall_s.push_back(SecondsSince(start_));
    times_->cpu_s.push_back(ProcessCpuSeconds() - cpu_start_);
  }
  JobTimer(const JobTimer&) = delete;
  JobTimer& operator=(const JobTimer&) = delete;

 private:
  JobTimes* times_;
  double cpu_start_;
  Clock::time_point start_;
};

/// Linear-interpolated percentile (pct in [0, 100]).
double Quantile(std::vector<double> values, double pct);

/// Whether `schedule` places each of `n` executors on one of `m` machines.
bool ValidSchedule(const dl::sched::Schedule& schedule, int n, int m);

/// FNV-1a over a sequence of ints, chained through `hash`.
uint64_t HashInts(const std::vector<int>& values,
                  uint64_t hash = 1469598103934665603ull);
std::string Hex(uint64_t value);
/// Shortest round-trip decimal form of a double (for exact comparisons).
std::string Exact(double value);

/// The sum of an obs `_us` histogram as seconds, and an obs counter (0 when
/// never registered). The obs registry is enabled in traced passes only.
double ObsSeconds(const dl::obs::MetricsSnapshot& snapshot,
                  const std::string& histogram);
int64_t ObsCount(const dl::obs::MetricsSnapshot& snapshot,
                 const std::string& counter);
/// Zeroes and enables the obs registry for a traced pass.
void BeginObs();
/// Snapshots and disables it again.
dl::obs::MetricsSnapshot EndObs();

// ---- Simulator tallies ---------------------------------------------------

/// Work counted from the SimCounters of simulators the benchmark owns.
struct SimTally {
  int64_t events = 0;
  int64_t roots_completed = 0;
  int64_t roots_failed = 0;
  int64_t migrations = 0;
  double simulated_ms = 0.0;

  void Add(const dl::sim::SimCounters& counters, double now_ms);
  void Report(double owned_busy_s, std::map<std::string, double>* layers) const;
};

// ---- Timing decorators -------------------------------------------------

struct PolicyTimes {
  double decide_s = 0.0;
  double observe_s = 0.0;
  double train_s = 0.0;
  double pretrain_s = 0.0;
  /// The calling thread's CPU time inside decide and observe calls.
  double decide_observe_cpu_s = 0.0;
  int64_t decisions = 0;
  int64_t observes = 0;
  int64_t train_steps = 0;
  int64_t batches = 0;      // SelectActionBatch calls
  int64_t batch_slots = 0;  // slots over those calls
};

/// Times every call into a wrapped rl::Policy and forwards it unchanged —
/// SelectActionBatch included, so a server still fuses its batches — which
/// keeps a wrapped run bit-identical to a bare one. Not thread-safe: one
/// caller at a time, like the policies it wraps.
class TimingPolicy : public dl::rl::Policy {
 public:
  explicit TimingPolicy(dl::rl::Policy* inner) : inner_(inner) {}

  const PolicyTimes& times() const { return times_; }

  std::string name() const override { return inner_->name(); }
  std::string registry_key() const override { return inner_->registry_key(); }
  std::string Describe() const override { return inner_->Describe(); }
  dl::StatusOr<dl::rl::PolicyAction> SelectAction(const dl::rl::State& state,
                                                  double epsilon,
                                                  dl::Rng* rng) const override;
  dl::Status SelectActionInto(const dl::rl::State& state, double epsilon,
                              dl::Rng* rng,
                              dl::rl::PolicyAction* out) const override;
  void SelectActionBatch(dl::rl::DecisionRequest* slots,
                         int count) const override;
  dl::StatusOr<dl::sched::Schedule> GreedyAction(
      const dl::rl::State& state) const override;
  dl::Status GreedyActionInto(const dl::rl::State& state,
                              dl::sched::Schedule* out) const override;
  dl::StatusOr<dl::sched::Schedule> FinalSchedule(
      const dl::rl::State& state) const override;
  bool trainable() const override { return inner_->trainable(); }
  void Observe(dl::rl::Transition transition) override;
  double TrainStep() override;
  double TrainStepReference() override;
  void PretrainOffline(const dl::rl::TransitionDatabase& db,
                       int steps) override;
  dl::Status Save(const std::string& prefix) const override {
    return inner_->Save(prefix);
  }
  dl::Status Load(const std::string& prefix) override {
    return inner_->Load(prefix);
  }

 private:
  dl::rl::Policy* inner_;
  mutable PolicyTimes times_;
};

struct GeneratorTimes {
  double gen_s = 0.0;
  int64_t calls = 0;
  int64_t ops = 0;  // rate-change ops handed out by NextRateChange
};

/// Times every call into a wrapped workload generator and forwards it
/// unchanged, so the op stream a simulator sees is the bare generator's.
class TimingGenerator : public dl::workload::WorkloadGenerator {
 public:
  explicit TimingGenerator(const dl::workload::WorkloadGenerator* inner)
      : inner_(inner) {}

  const GeneratorTimes& times() const { return times_; }

  std::string name() const override { return inner_->name(); }
  std::optional<dl::workload::RateChangeOp> NextRateChange(
      int tenant, double now_ms) const override;
  double MultiplierAt(int tenant, int spout, double time_ms) const override;
  std::string Describe() const override { return inner_->Describe(); }

 private:
  const dl::workload::WorkloadGenerator* inner_;
  mutable GeneratorTimes times_;
};

}  // namespace perfbench

#endif  // DRLSTREAM_PERFBENCH_BENCH_H_
