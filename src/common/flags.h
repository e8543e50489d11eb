#ifndef DRLSTREAM_COMMON_FLAGS_H_
#define DRLSTREAM_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace drlstream {

/// Minimal --key=value command-line parsing for the bench and example
/// binaries. Unrecognized positional arguments are an error. A binary that
/// declares its keys gets an error for any other key; the two-argument
/// Parse accepts every key and ignores those nobody looks up.
///
/// Binaries that run a scheduling policy take `--policy=NAME`, where NAME
/// is a key in the policy registry (rl/policy_registry.h; built-ins: ddpg,
/// dqn, round-robin, model-based). Callers validate the name against the
/// registry, so an unknown policy produces an error naming the registered
/// entries (with a did-you-mean suggestion), and `--help` lists them.
class Flags {
 public:
  /// Parses argv; returns InvalidArgument on malformed input (non
  /// `--key=value` / `--key value` arguments) and on an illegal value of a
  /// process flag (see ApplyProcessFlags): a --threads that is not a
  /// base-10 integer in [1, 256], a --log-level other than
  /// debug|info|warning|error, or a --simd other than auto|off.
  static StatusOr<Flags> Parse(int argc, char** argv);

  /// Parse, and also rejects with InvalidArgument any key that is neither
  /// in `keys` nor a process flag (the ones ApplyProcessFlags reads),
  /// naming the key and the nearest accepted one: "unknown flag --epohcs
  /// (did you mean --epochs?)".
  static StatusOr<Flags> Parse(int argc, char** argv,
                               const std::vector<std::string>& keys);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int GetInt(const std::string& key, int default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Applies process-wide flags shared by every binary:
///   --threads=N        sizes the global thread pool (common/thread_pool.h)
///                      used by the agents' parallel target evaluation;
///                      N in [1, 256].
///   --log-level=L      minimum log level emitted to stderr
///                      (debug|info|warning|error, see common/logging.h).
///   --metrics          enables the obs metrics registry; a Prometheus text
///                      snapshot and a JSON snapshot are written at exit.
///   --metrics-out=P    Prometheus snapshot path (default metrics.prom;
///                      implies --metrics).
///   --metrics-json=P   JSON snapshot path (default metrics.json; implies
///                      --metrics).
///   --trace-out=P      enables decision-pipeline tracing (and --metrics);
///                      the Chrome trace-event JSON is written to P at exit.
///   --simd=auto|off    SIMD kernel dispatch (common/simd.h): auto picks
///                      AVX2 when the CPU supports it, off forces the
///                      scalar fold. Both produce bit-identical results;
///                      the DRLSTREAM_SIMD env var sets the same mode
///                      before main() for binaries that never parse flags.
/// Unset flags leave the corresponding defaults untouched.
void ApplyProcessFlags(const Flags& flags);

}  // namespace drlstream

#endif  // DRLSTREAM_COMMON_FLAGS_H_
