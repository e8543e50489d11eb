#include "workload/registry.h"

#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/strutil.h"

namespace drlstream::workload {
namespace {

/// Pulls typed values out of a spec's parameter map, tracking which keys
/// were consumed so Finish() can reject unknown parameters by name.
class ParamReader {
 public:
  ParamReader(const std::map<std::string, std::string>& params,
              std::string kind)
      : remaining_(params), kind_(std::move(kind)) {}

  Status Double(const char* key, double* out) {
    return Number(key, out, "a number");
  }
  Status Int(const char* key, int* out) {
    return Number(key, out, "an integer");
  }
  Status U64(const char* key, uint64_t* out) {
    return Number(key, out, "a non-negative integer");
  }

  Status String(const char* key, std::string* out) {
    allowed_.push_back(key);
    const auto it = remaining_.find(key);
    if (it == remaining_.end()) return Status::OK();
    *out = it->second;
    remaining_.erase(it);
    return Status::OK();
  }

  /// Errors on any parameter no accessor consumed, naming the allowed set.
  Status Finish() const {
    if (remaining_.empty()) return Status::OK();
    std::ostringstream message;
    message << kind_ << ": unknown parameter '" << remaining_.begin()->first
            << "' (allowed:";
    for (const std::string& key : allowed_) message << ' ' << key;
    message << ")";
    return Status::InvalidArgument(message.str());
  }

 private:
  /// Consumes `key` when present: its whole value must parse as a T
  /// (ParseNumber), else InvalidArgument naming the key and the value.
  template <typename T>
  Status Number(const char* key, T* out, const char* expected) {
    allowed_.push_back(key);
    const auto it = remaining_.find(key);
    if (it == remaining_.end()) return Status::OK();
    if (!ParseNumber(it->second, out)) {
      return Status::InvalidArgument(kind_ + ": parameter '" +
                                     std::string(key) + "' wants " +
                                     expected + ", got '" + it->second + "'");
    }
    remaining_.erase(it);
    return Status::OK();
  }

  std::map<std::string, std::string> remaining_;
  std::string kind_;
  std::vector<std::string> allowed_;
};

using Params = std::map<std::string, std::string>;
using Factory = StatusOr<std::unique_ptr<WorkloadGenerator>> (*)(
    const Params& params, uint64_t seed);

/// ParseWorkloadSpec handles `compose` itself; a bare key without children
/// lands here.
StatusOr<std::unique_ptr<WorkloadGenerator>> MakeComposeStub(const Params&,
                                                             uint64_t) {
  return Status::InvalidArgument(
      "compose takes child specs joined with '+': "
      "compose:<specA>+<specB> (e.g. "
      "compose:diurnal:amplitude=0.3+flash_crowd:at_ms=20000)");
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeConstantSpec(
    const Params& params, uint64_t) {
  double factor = 1.0;
  ParamReader reader(params, "constant");
  DRLSTREAM_RETURN_NOT_OK(reader.Double("factor", &factor));
  DRLSTREAM_RETURN_NOT_OK(reader.Finish());
  return MakeConstant(factor);
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeDiurnalSpec(
    const Params& params, uint64_t seed) {
  DiurnalConfig config;
  config.seed = seed;
  ParamReader reader(params, "diurnal");
  DRLSTREAM_RETURN_NOT_OK(reader.Double("period_ms", &config.period_ms));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("amplitude", &config.amplitude));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("base", &config.base));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("phase", &config.phase_radians));
  DRLSTREAM_RETURN_NOT_OK(reader.Int("steps", &config.steps_per_period));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("jitter", &config.jitter));
  DRLSTREAM_RETURN_NOT_OK(reader.U64("seed", &config.seed));
  DRLSTREAM_RETURN_NOT_OK(reader.Finish());
  return MakeDiurnal(config);
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeDriftSpec(
    const Params& params, uint64_t) {
  DriftConfig config;
  ParamReader reader(params, "drift");
  DRLSTREAM_RETURN_NOT_OK(reader.Double("from", &config.from));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("to", &config.to));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("start_ms", &config.start_ms));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("end_ms", &config.end_ms));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("step_ms", &config.step_ms));
  DRLSTREAM_RETURN_NOT_OK(reader.Finish());
  return MakeDrift(config);
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeFlashCrowdSpec(
    const Params& params, uint64_t) {
  FlashCrowdConfig config;
  ParamReader reader(params, "flash_crowd");
  DRLSTREAM_RETURN_NOT_OK(reader.Double("at_ms", &config.at_ms));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("peak", &config.peak));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("base", &config.base));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("decay_tau_ms", &config.decay_tau_ms));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("step_ms", &config.step_ms));
  DRLSTREAM_RETURN_NOT_OK(reader.Double("repeat_ms", &config.repeat_ms));
  DRLSTREAM_RETURN_NOT_OK(reader.Finish());
  return MakeFlashCrowd(config);
}

StatusOr<std::unique_ptr<WorkloadGenerator>> MakeTraceReplaySpec(
    const Params& params, uint64_t) {
  std::string file;
  ParamReader reader(params, "trace_replay");
  DRLSTREAM_RETURN_NOT_OK(reader.String("file", &file));
  DRLSTREAM_RETURN_NOT_OK(reader.Finish());
  if (file.empty()) {
    return Status::InvalidArgument("trace_replay: needs file=<trace.csv>");
  }
  return MakeTraceReplayFromCsvFile(file);
}

struct Builtin {
  const char* key;
  Factory make;
};

/// Sorted by key: Keys() lists the rows in this order.
constexpr Builtin kBuiltins[] = {
    {"compose", MakeComposeStub},
    {"constant", MakeConstantSpec},
    {"diurnal", MakeDiurnalSpec},
    {"drift", MakeDriftSpec},
    {"flash_crowd", MakeFlashCrowdSpec},
    {"trace_replay", MakeTraceReplaySpec},
};

const Builtin* FindBuiltin(const std::string& key) {
  for (const Builtin& builtin : kBuiltins) {
    if (key == builtin.key) return &builtin;
  }
  return nullptr;
}

Status ParseParams(const std::string& kind, const std::string& text,
                   std::map<std::string, std::string>* params) {
  if (Trim(text).empty()) return Status::OK();
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(kind + ": parameter '" + Trim(token) +
                                     "' is not key=value");
    }
    const std::string key = Trim(token.substr(0, eq));
    const std::string value = Trim(token.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument(kind + ": empty parameter name in '" +
                                     Trim(token) + "'");
    }
    if (!params->emplace(key, value).second) {
      return Status::InvalidArgument(kind + ": duplicate parameter '" + key +
                                     "'");
    }
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<WorkloadGenerator>> ParseSingleSpec(
    const std::string& spec, uint64_t seed) {
  const std::string trimmed = Trim(spec);
  const size_t colon = trimmed.find(':');
  const std::string kind =
      colon == std::string::npos ? trimmed : trimmed.substr(0, colon);
  if (kind == "compose") {
    return Status::InvalidArgument("compose cannot nest inside compose");
  }
  std::map<std::string, std::string> params;
  DRLSTREAM_RETURN_NOT_OK(ParseParams(
      kind, colon == std::string::npos ? "" : trimmed.substr(colon + 1),
      &params));
  return WorkloadRegistry::Get().Create(kind, params, seed);
}

}  // namespace

WorkloadRegistry& WorkloadRegistry::Get() {
  static WorkloadRegistry registry;
  return registry;
}

bool WorkloadRegistry::Has(const std::string& key) const {
  return FindBuiltin(key) != nullptr;
}

std::vector<std::string> WorkloadRegistry::Keys() const {
  std::vector<std::string> keys;
  for (const Builtin& builtin : kBuiltins) keys.push_back(builtin.key);
  return keys;
}

std::string WorkloadRegistry::KeysLine() const {
  std::string line;
  for (const std::string& key : Keys()) {
    if (!line.empty()) line += '|';
    line += key;
  }
  return line;
}

Status WorkloadRegistry::UnknownKeyError(const std::string& key) const {
  return UnknownNameError("workload", key, Keys());
}

StatusOr<std::unique_ptr<WorkloadGenerator>> WorkloadRegistry::Create(
    const std::string& key, const std::map<std::string, std::string>& params,
    uint64_t seed) const {
  const Builtin* builtin = FindBuiltin(key);
  if (builtin == nullptr) return UnknownKeyError(key);
  return builtin->make(params, seed);
}

StatusOr<std::unique_ptr<WorkloadGenerator>> ParseWorkloadSpec(
    const std::string& spec, uint64_t seed) {
  const std::string trimmed = Trim(spec);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty workload spec");
  }
  if (trimmed.rfind("compose", 0) == 0 &&
      (trimmed.size() == 7 || trimmed[7] == ':')) {
    const std::string body = trimmed.size() > 8 ? trimmed.substr(8) : "";
    std::vector<std::unique_ptr<WorkloadGenerator>> children;
    std::istringstream in(body);
    std::string child_spec;
    while (std::getline(in, child_spec, '+')) {
      if (Trim(child_spec).empty()) {
        return Status::InvalidArgument("compose: empty child spec");
      }
      DRLSTREAM_ASSIGN_OR_RETURN(std::unique_ptr<WorkloadGenerator> child,
                                 ParseSingleSpec(child_spec, seed));
      children.push_back(std::move(child));
    }
    if (children.size() < 2) {
      return Status::InvalidArgument(
          "compose takes child specs joined with '+': compose:<specA>+<specB>");
    }
    return MakeCompose(std::move(children));
  }
  return ParseSingleSpec(trimmed, seed);
}

}  // namespace drlstream::workload
