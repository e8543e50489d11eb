#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "common/strutil.h"

namespace drlstream::workload {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Deterministic uniform in [-1, 1) from (seed, tenant, step). Hashing
/// (seed, tenant, step) with splitmix64 instead of drawing from a
/// sequential RNG keeps every generator a pure function of time — replay
/// from any point, at any thread count, yields the same values.
double SignedUnit(uint64_t seed, int tenant, long long step) {
  uint64_t h =
      SplitMix64Hash(seed ^ SplitMix64Hash(static_cast<uint64_t>(tenant) + 1));
  h = SplitMix64Hash(h ^ static_cast<uint64_t>(step));
  return static_cast<double>(h >> 11) * (1.0 / 4503599627370496.0) * 2.0 - 1.0;
}

std::string FormatG(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

class ConstantGenerator final : public WorkloadGenerator {
 public:
  explicit ConstantGenerator(double factor) : factor_(factor) {}

  std::string name() const override { return "constant"; }
  std::string Describe() const override {
    return "constant(factor=" + FormatG(factor_) + ")";
  }

  std::optional<RateChangeOp> NextRateChange(int, double) const override {
    return std::nullopt;  // The factor is applied once at install time.
  }

  double MultiplierAt(int, int, double) const override { return factor_; }

 private:
  double factor_;
};

/// Step indices stay at or below 2^52, where a double holds every integer
/// and a floor estimate of the index is off by at most one. Steps are at
/// least 1 us, so an unbounded stream indexes over a century below it.
constexpr long long kMaxStep = 1LL << 52;
constexpr double kMinStepMs = 1e-3;

/// A multiplier that is piecewise constant on steps 0..last_step: step s
/// (s >= 1) holds from StepStart(s), whose values never decrease, until the
/// next step's start; step 0 holds before step 1. StepAt is the one place
/// that turns a time into a step, so both queries read the same step and
/// MultiplierAt at an op's time is that op's multiplier.
class SteppedGenerator : public WorkloadGenerator {
 public:
  explicit SteppedGenerator(long long last_step) : last_step_(last_step) {}

  std::optional<RateChangeOp> NextRateChange(int tenant,
                                             double now_ms) const final {
    const long long next = StepAt(now_ms) + 1;
    if (next > last_step_) return std::nullopt;
    // Where a time's ulp exceeds the step, several steps start at once;
    // the op carries the last one's value, the one MultiplierAt reads.
    const double time_ms = StepStart(next);
    return RateChangeOp{time_ms, -1, MultiplierAt(tenant, -1, time_ms)};
  }

  double MultiplierAt(int tenant, int, double time_ms) const final {
    return StepValue(tenant, StepAt(time_ms));
  }

 protected:
  virtual double StepStart(long long s) const = 0;
  virtual double StepValue(int tenant, long long s) const = 0;
  /// The step holding at `time_ms` by division and floor, before rounding
  /// is checked: it may be off by one, negative, huge or NaN.
  virtual double StepEstimate(double time_ms) const = 0;

 private:
  /// The last step whose start is at or before `time_ms` (0 if none). The
  /// estimate is clamped before the cast; fmax maps a NaN to 0.
  long long StepAt(double time_ms) const {
    auto s = static_cast<long long>(
        std::fmin(std::fmax(StepEstimate(time_ms), 0.0),
                  static_cast<double>(last_step_)));
    while (s > 0 && StepStart(s) > time_ms) --s;
    while (s < last_step_ && StepStart(s + 1) <= time_ms) ++s;
    return s;
  }

  long long last_step_;
};

class DiurnalGenerator final : public SteppedGenerator {
 public:
  explicit DiurnalGenerator(const DiurnalConfig& config)
      : SteppedGenerator(kMaxStep),
        config_(config),
        step_ms_(config.period_ms / config.steps_per_period) {}

  std::string name() const override { return "diurnal"; }
  std::string Describe() const override {
    return "diurnal(period_ms=" + FormatG(config_.period_ms) +
           ", amplitude=" + FormatG(config_.amplitude) +
           ", base=" + FormatG(config_.base) +
           ", steps=" + std::to_string(config_.steps_per_period) +
           ", jitter=" + FormatG(config_.jitter) + ")";
  }

 private:
  double StepStart(long long k) const override {
    return static_cast<double>(k) * step_ms_;
  }

  double StepEstimate(double time_ms) const override {
    return std::floor(time_ms / step_ms_);
  }

  double StepValue(int tenant, long long k) const override {
    // Reduce k modulo the period before the sin for precision at large t.
    const long long phase_step =
        k % static_cast<long long>(config_.steps_per_period);
    const double angle =
        2.0 * kPi * static_cast<double>(phase_step) /
            static_cast<double>(config_.steps_per_period) +
        config_.phase_radians;
    double value = config_.base + config_.amplitude * std::sin(angle);
    if (config_.jitter > 0.0) {
      value += config_.jitter * SignedUnit(config_.seed, tenant, k);
    }
    return std::max(0.0, value);
  }

  DiurnalConfig config_;
  double step_ms_;
};

/// Step 0 is `base` before the first spike. Spike j's decay op k (k = 0 at
/// its front, k = decay_steps restoring exactly `base`) is step
/// 1 + j * (decay_steps + 1) + k.
class FlashCrowdGenerator final : public SteppedGenerator {
 public:
  FlashCrowdGenerator(const FlashCrowdConfig& config, long long decay_steps)
      : SteppedGenerator(config.repeat_ms > 0.0 ? kMaxStep : decay_steps + 1),
        config_(config),
        decay_steps_(decay_steps) {}

  std::string name() const override { return "flash_crowd"; }
  std::string Describe() const override {
    return "flash_crowd(at_ms=" + FormatG(config_.at_ms) +
           ", peak=" + FormatG(config_.peak) +
           ", base=" + FormatG(config_.base) +
           ", decay_tau_ms=" + FormatG(config_.decay_tau_ms) +
           ", repeat_ms=" + FormatG(config_.repeat_ms) + ")";
  }

 private:
  double StepStart(long long s) const override {
    const long long spike = (s - 1) / (decay_steps_ + 1);
    const long long k = (s - 1) % (decay_steps_ + 1);
    return config_.at_ms + static_cast<double>(spike) * config_.repeat_ms +
           static_cast<double>(k) * config_.step_ms;
  }

  double StepEstimate(double time_ms) const override {
    const double since = time_ms - config_.at_ms;
    const double spike =
        config_.repeat_ms > 0.0 ? std::floor(since / config_.repeat_ms) : 0.0;
    const double k =
        std::floor((since - spike * config_.repeat_ms) / config_.step_ms);
    return 1.0 + spike * static_cast<double>(decay_steps_ + 1) +
           std::fmin(std::fmax(k, 0.0), static_cast<double>(decay_steps_));
  }

  double StepValue(int, long long s) const override {
    if (s == 0) return config_.base;
    const long long k = (s - 1) % (decay_steps_ + 1);
    if (k == 0) return config_.peak;
    if (k == decay_steps_) return config_.base;  // Final op restores base.
    return config_.base +
           (config_.peak - config_.base) *
               std::exp(-(static_cast<double>(k) * config_.step_ms) /
                        config_.decay_tau_ms);
  }

  FlashCrowdConfig config_;
  long long decay_steps_;
};

/// Step 0 is `from` before the ramp; ramp op k is step k + 1, at
/// start_ms + k * step_ms, and op `steps` lands exactly on (end_ms, to).
class DriftGenerator final : public SteppedGenerator {
 public:
  DriftGenerator(const DriftConfig& config, long long steps)
      : SteppedGenerator(steps + 1), config_(config), steps_(steps) {}

  std::string name() const override { return "drift"; }
  std::string Describe() const override {
    return "drift(from=" + FormatG(config_.from) +
           ", to=" + FormatG(config_.to) +
           ", start_ms=" + FormatG(config_.start_ms) +
           ", end_ms=" + FormatG(config_.end_ms) + ")";
  }

 private:
  double StepStart(long long s) const override {
    if (s > steps_) return config_.end_ms;
    return config_.start_ms + static_cast<double>(s - 1) * config_.step_ms;
  }

  double StepEstimate(double time_ms) const override {
    return 1.0 + std::floor((time_ms - config_.start_ms) / config_.step_ms);
  }

  double StepValue(int, long long s) const override {
    if (s > steps_) return config_.to;  // Exactly `to`, no fp residue.
    if (s <= 1) return config_.from;
    const double frac = (StepStart(s) - config_.start_ms) /
                        (config_.end_ms - config_.start_ms);
    return config_.from + (config_.to - config_.from) * frac;
  }

  DriftConfig config_;
  long long steps_;
};

class TraceReplayGenerator final : public WorkloadGenerator {
 public:
  explicit TraceReplayGenerator(std::vector<RateChangeOp> ops)
      : ops_(std::move(ops)) {
    for (size_t i = 0; i < ops_.size(); ++i) {
      (ops_[i].spout < 0 ? all_spouts_ : named_[ops_[i].spout]).push_back(i);
    }
  }

  std::string name() const override { return "trace_replay"; }
  std::string Describe() const override {
    return "trace_replay(" + std::to_string(ops_.size()) + " ops)";
  }

  std::optional<RateChangeOp> NextRateChange(int, double now_ms)
      const override {
    const auto next = FirstAfter(now_ms);
    if (next == ops_.end()) return std::nullopt;
    return *next;
  }

  double MultiplierAt(int, int spout, double time_ms) const override {
    // Latest applicable op at or before the query time wins (same tie
    // semantics as FaultPlan spout shocks: later in the list wins): the
    // later, in trace order, of the latest all-spout op and the spout's
    // own latest op.
    long latest = LatestAtOrBefore(all_spouts_, time_ms);
    const auto named = named_.find(spout);
    if (named != named_.end()) {
      latest = std::max(latest, LatestAtOrBefore(named->second, time_ms));
    }
    return latest < 0 ? 1.0 : ops_[latest].multiplier;
  }

 private:
  std::vector<RateChangeOp>::const_iterator FirstAfter(double time_ms) const {
    return std::upper_bound(
        ops_.begin(), ops_.end(), time_ms,
        [](double t, const RateChangeOp& op) { return t < op.time_ms; });
  }

  /// The last of `indices` (positions in ops_, ascending) whose op is at or
  /// before time_ms; -1 when there is none.
  long LatestAtOrBefore(const std::vector<size_t>& indices,
                        double time_ms) const {
    const auto next = std::upper_bound(
        indices.begin(), indices.end(), time_ms,
        [this](double t, size_t i) { return t < ops_[i].time_ms; });
    return next == indices.begin() ? -1 : static_cast<long>(*std::prev(next));
  }

  std::vector<RateChangeOp> ops_;  // sorted ascending by time
  std::vector<size_t> all_spouts_;  // positions of the ops with spout < 0
  /// Positions of each named spout's own ops, so memory stays one entry
  /// per op however many spouts a trace names.
  std::map<int, std::vector<size_t>> named_;
};

class ComposeGenerator final : public WorkloadGenerator {
 public:
  explicit ComposeGenerator(
      std::vector<std::unique_ptr<WorkloadGenerator>> children)
      : children_(std::move(children)) {}

  std::string name() const override { return "compose"; }
  std::string Describe() const override {
    std::string out = "compose(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += " * ";
      out += children_[i]->Describe();
    }
    return out + ")";
  }

  std::optional<RateChangeOp> NextRateChange(int tenant,
                                             double now_ms) const override {
    double best_time = std::numeric_limits<double>::infinity();
    int spout = -2;  // -2: no op seen yet
    for (const auto& child : children_) {
      const auto op = child->NextRateChange(tenant, now_ms);
      if (!op.has_value()) continue;
      if (op->time_ms < best_time) {
        best_time = op->time_ms;
        spout = op->spout;
      } else if (op->time_ms == best_time && op->spout != spout) {
        spout = -1;  // Two children fire at once on different spouts.
      }
    }
    if (spout == -2) return std::nullopt;
    return RateChangeOp{best_time, spout,
                        MultiplierAt(tenant, spout, best_time)};
  }

  double MultiplierAt(int tenant, int spout, double time_ms) const override {
    double product = 1.0;
    for (const auto& child : children_) {
      product *= child->MultiplierAt(tenant, spout, time_ms);
    }
    return product;
  }

 private:
  std::vector<std::unique_ptr<WorkloadGenerator>> children_;
};

/// ---- trace CSV parsing ----------------------------------------------------

/// Parses a whole field (ParseNumber), naming the line on failure.
template <typename T>
Status ParseField(const std::string& field, const char* name, int line,
                  T* out) {
  if (!ParseNumber(field, out)) {
    return Status::InvalidArgument("trace line " + std::to_string(line) +
                                   ": bad " + std::string(name) + " '" +
                                   field + "'");
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeConstant(double factor) {
  if (!FiniteNonNegative(factor)) {
    return Status::InvalidArgument("constant: factor must be finite and >= 0");
  }
  return std::unique_ptr<WorkloadGenerator>(
      std::make_unique<ConstantGenerator>(factor));
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeDiurnal(
    const DiurnalConfig& config) {
  if (config.steps_per_period < 2) {
    return Status::InvalidArgument("diurnal: steps_per_period must be >= 2");
  }
  if (!(config.period_ms / config.steps_per_period >= kMinStepMs) ||
      !std::isfinite(config.period_ms)) {
    return Status::InvalidArgument(
        "diurnal: period_ms / steps_per_period must be finite and >= " +
        FormatG(kMinStepMs) + " ms");
  }
  if (!std::isfinite(config.amplitude) || !FiniteNonNegative(config.base) ||
      !FiniteNonNegative(config.jitter) ||
      !std::isfinite(config.phase_radians)) {
    return Status::InvalidArgument("diurnal: bad amplitude/base/jitter/phase");
  }
  return std::unique_ptr<WorkloadGenerator>(
      std::make_unique<DiurnalGenerator>(config));
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeFlashCrowd(
    const FlashCrowdConfig& config) {
  if (!FiniteNonNegative(config.at_ms)) {
    return Status::InvalidArgument("flash_crowd: at_ms must be >= 0");
  }
  if (!(config.base > 0.0) || !std::isfinite(config.base) ||
      !(config.peak > config.base) || !std::isfinite(config.peak)) {
    return Status::InvalidArgument(
        "flash_crowd: need peak > base > 0 (finite)");
  }
  if (!(config.decay_tau_ms > 0.0) || !(config.step_ms >= kMinStepMs) ||
      !std::isfinite(config.decay_tau_ms) || !std::isfinite(config.step_ms)) {
    return Status::InvalidArgument(
        "flash_crowd: decay_tau_ms must be positive and step_ms >= " +
        FormatG(kMinStepMs) + " ms");
  }
  // Decay ops stop once the residual spike is < 1% of base; the op at
  // `decay_steps` restores exactly `base`.
  const double threshold = 0.01 * config.base;
  long long decay_steps = 1;
  while (decay_steps < 1000000 &&
         (config.peak - config.base) *
                 std::exp(-(static_cast<double>(decay_steps) *
                            config.step_ms) /
                          config.decay_tau_ms) >
             threshold) {
    ++decay_steps;
  }
  const double span =
      static_cast<double>(decay_steps) * config.step_ms + config.step_ms;
  if (config.repeat_ms != 0.0 &&
      (!(config.repeat_ms >= span) || !std::isfinite(config.repeat_ms))) {
    return Status::InvalidArgument(
        "flash_crowd: repeat_ms must be 0 or >= the decay span (" +
        FormatG(span) + " ms)");
  }
  return std::unique_ptr<WorkloadGenerator>(
      std::make_unique<FlashCrowdGenerator>(config, decay_steps));
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeDrift(
    const DriftConfig& config) {
  if (!FiniteNonNegative(config.from) || !FiniteNonNegative(config.to)) {
    return Status::InvalidArgument("drift: from/to must be finite and >= 0");
  }
  if (!FiniteNonNegative(config.start_ms) || !std::isfinite(config.end_ms) ||
      config.end_ms < config.start_ms) {
    return Status::InvalidArgument("drift: need 0 <= start_ms <= end_ms");
  }
  const bool ramp = config.end_ms > config.start_ms;
  const double steps =
      ramp ? std::ceil((config.end_ms - config.start_ms) / config.step_ms)
           : 0.0;
  if (ramp && (!(config.step_ms >= kMinStepMs) ||
               !std::isfinite(config.step_ms) || !(steps < kMaxStep))) {
    return Status::InvalidArgument(
        "drift: step_ms must be finite, >= " + FormatG(kMinStepMs) +
        " ms and give fewer than 2^52 steps");
  }
  return std::unique_ptr<WorkloadGenerator>(std::make_unique<DriftGenerator>(
      config, static_cast<long long>(steps)));
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeTraceReplay(
    std::vector<RateChangeOp> ops) {
  double last_time = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const RateChangeOp& op = ops[i];
    if (!FiniteNonNegative(op.time_ms)) {
      return Status::InvalidArgument("trace_replay: op " + std::to_string(i) +
                                     " time_ms must be finite and >= 0");
    }
    if (op.time_ms < last_time) {
      return Status::InvalidArgument("trace_replay: op " + std::to_string(i) +
                                     " times must be non-decreasing");
    }
    last_time = op.time_ms;
    if (!FiniteNonNegative(op.multiplier)) {
      return Status::InvalidArgument("trace_replay: op " + std::to_string(i) +
                                     " multiplier must be finite and >= 0");
    }
    if (op.spout < -1) {
      return Status::InvalidArgument("trace_replay: op " + std::to_string(i) +
                                     " spout must be >= -1");
    }
  }
  return std::unique_ptr<WorkloadGenerator>(
      std::make_unique<TraceReplayGenerator>(std::move(ops)));
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeTraceReplayFromCsv(
    const std::string& text) {
  std::vector<RateChangeOp> ops;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields;
    std::istringstream fields_in(line);
    std::string field;
    while (std::getline(fields_in, field, ',')) {
      fields.push_back(Trim(field));
    }
    if (!fields.empty() && fields[0] == "time_ms") continue;  // header
    if (fields.size() != 3) {
      return Status::InvalidArgument(
          "trace line " + std::to_string(line_no) +
          ": expected 3 fields time_ms,spout,multiplier");
    }
    RateChangeOp op;
    DRLSTREAM_RETURN_NOT_OK(
        ParseField(fields[0], "time_ms", line_no, &op.time_ms));
    DRLSTREAM_RETURN_NOT_OK(ParseField(fields[1], "spout", line_no, &op.spout));
    DRLSTREAM_RETURN_NOT_OK(
        ParseField(fields[2], "multiplier", line_no, &op.multiplier));
    ops.push_back(op);
  }
  return MakeTraceReplay(std::move(ops));
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeTraceReplayFromCsvFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open workload trace " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return MakeTraceReplayFromCsv(buffer.str());
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeCompose(
    std::vector<std::unique_ptr<WorkloadGenerator>> children) {
  if (children.size() < 2) {
    return Status::InvalidArgument("compose: needs at least two children");
  }
  for (const auto& child : children) {
    if (child == nullptr) {
      return Status::InvalidArgument("compose: null child generator");
    }
  }
  return std::unique_ptr<WorkloadGenerator>(
      std::make_unique<ComposeGenerator>(std::move(children)));
}

}  // namespace drlstream::workload
