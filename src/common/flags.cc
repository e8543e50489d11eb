#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>

#include "common/logging.h"
#include "common/simd.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace drlstream {

StatusOr<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "true";  // Bare flag, e.g. --verbose.
    }
  }
  // Reject an illegal value of a flag ApplyProcessFlags applies. The
  // --threads cap keeps a typo from asking for thousands of threads.
  auto illegal = [&flags](const std::string& key, const char* expected) {
    return Status::InvalidArgument("--" + key + "=" + flags.values_[key] +
                                   ": expected " + expected);
  };
  if (flags.Has("threads")) {
    const std::string& text = flags.values_["threads"];
    const char* const end = text.data() + text.size();
    int threads = 0;
    const auto [stop, error] = std::from_chars(text.data(), end, threads);
    if (error != std::errc() || stop != end || threads < 1 || threads > 256) {
      return illegal("threads", "a whole number in [1, 256]");
    }
  }
  LogLevel level = LogLevel::kInfo;
  if (flags.Has("log-level") &&
      !ParseLogLevel(flags.values_["log-level"], &level)) {
    return illegal("log-level", "debug|info|warning|error");
  }
  const std::string simd = flags.GetString("simd", "auto");
  if (simd != "auto" && simd != "off") return illegal("simd", "auto|off");
  return flags;
}

StatusOr<Flags> Flags::Parse(int argc, char** argv,
                             const std::vector<std::string>& keys) {
  DRLSTREAM_ASSIGN_OR_RETURN(Flags flags, Parse(argc, argv));
  std::vector<std::string> accepted = keys;
  accepted.insert(accepted.end(),
                  {"threads", "log-level", "simd", "metrics", "metrics-out",
                   "metrics-json", "trace-out"});
  for (const auto& [key, value] : flags.values_) {
    if (std::find(accepted.begin(), accepted.end(), key) != accepted.end()) {
      continue;
    }
    std::string message = "unknown flag --" + key;
    const std::string suggestion = NearestKey(key, accepted);
    if (!suggestion.empty()) message += " (did you mean --" + suggestion + "?)";
    return Status::InvalidArgument(message);
  }
  return flags;
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

namespace {

/// Parses all of `text` as a T, or ends the process with the same kind of
/// InvalidArgument report an unknown flag gets: a malformed number is a
/// usage error, not a value to truncate ("2x" is not 2).
template <typename T>
T ParseOrExit(const std::string& key, const std::string& text,
              const char* expected) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) {
    std::fprintf(stderr, "%s\n",
                 Status::InvalidArgument("--" + key + "=" + text +
                                         ": expected " + expected)
                     .ToString()
                     .c_str());
    std::exit(1);
  }
  return value;
}

}  // namespace

int Flags::GetInt(const std::string& key, int default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return ParseOrExit<int>(key, it->second, "an integer");
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return ParseOrExit<double>(key, it->second, "a number");
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

namespace {

// Export paths captured for the at-exit snapshot writers (empty = skip).
std::string* ExitTracePath() {
  static std::string* const path = new std::string();
  return path;
}
std::string* ExitPrometheusPath() {
  static std::string* const path = new std::string();
  return path;
}
std::string* ExitJsonPath() {
  static std::string* const path = new std::string();
  return path;
}

void WriteObsSnapshotsAtExit() {
  if (!ExitTracePath()->empty()) {
    obs::Tracer::Get().WriteJson(*ExitTracePath());
  }
  if (ExitPrometheusPath()->empty() && ExitJsonPath()->empty()) return;
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  if (!ExitPrometheusPath()->empty()) {
    obs::WriteTextFile(*ExitPrometheusPath(), obs::ToPrometheusText(snapshot));
  }
  if (!ExitJsonPath()->empty()) {
    obs::WriteTextFile(*ExitJsonPath(), obs::ToJson(snapshot) + "\n");
  }
}

void RegisterObsExitHandler() {
  static const bool registered = [] {
    std::atexit(WriteObsSnapshotsAtExit);
    return true;
  }();
  (void)registered;
}

}  // namespace

void ApplyProcessFlags(const Flags& flags) {
  // Flags::Parse has validated these three values.
  if (flags.Has("threads")) {
    SetGlobalThreadCount(flags.GetInt("threads", GlobalThreadCount()));
  }
  if (flags.Has("log-level")) {
    LogLevel level = GetLogLevel();
    ParseLogLevel(flags.GetString("log-level", "info"), &level);
    SetLogLevel(level);
  }
  if (flags.Has("simd")) {
    SetSimdMode(flags.GetString("simd", "auto") == "off" ? SimdMode::kOff
                                                         : SimdMode::kAuto);
  }

  const bool trace = flags.Has("trace-out");
  const bool metrics = trace || flags.GetBool("metrics", false) ||
                       flags.Has("metrics-out") || flags.Has("metrics-json");
  if (metrics) {
    obs::SetMetricsEnabled(true);
    *ExitPrometheusPath() = flags.GetString("metrics-out", "metrics.prom");
    *ExitJsonPath() = flags.GetString("metrics-json", "metrics.json");
  }
  if (trace) {
    obs::SetTraceEnabled(true);
    *ExitTracePath() = flags.GetString("trace-out", "trace.json");
  }
  if (metrics || trace) RegisterObsExitHandler();
}

}  // namespace drlstream
