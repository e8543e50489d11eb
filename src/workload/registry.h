#ifndef DRLSTREAM_WORKLOAD_REGISTRY_H_
#define DRLSTREAM_WORKLOAD_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/generator.h"

namespace drlstream::workload {

/// String -> generator factory table, mirroring rl::PolicyRegistry: a
/// fixed, sorted table of the builtin scenario library (a new generator is
/// one more row in registry.cc), and unknown keys get a did-you-mean
/// error. Scenario specs select and configure a generator:
///
///   kind[:key=value,key=value...]
///   e.g. "diurnal:period_ms=60000,amplitude=0.5,jitter=0.1"
///        "compose:diurnal:amplitude=0.3+flash_crowd:at_ms=20000"
///
/// `compose` children are separated by '+' and cannot nest.
class WorkloadRegistry {
 public:
  /// The process-wide registry.
  static WorkloadRegistry& Get();

  bool Has(const std::string& key) const;
  std::vector<std::string> Keys() const;
  /// "compose|constant|diurnal|..." for --help lines.
  std::string KeysLine() const;
  /// InvalidArgument listing registered keys, with a did-you-mean
  /// suggestion when `key` is a near miss.
  Status UnknownKeyError(const std::string& key) const;

  /// Instantiates `key` with `params`; unknown keys get UnknownKeyError.
  StatusOr<std::unique_ptr<WorkloadGenerator>> Create(
      const std::string& key,
      const std::map<std::string, std::string>& params, uint64_t seed) const;

 private:
  WorkloadRegistry() = default;
};

/// Parses a full scenario spec ("kind:k=v,...", compose children joined
/// with '+') and instantiates it via WorkloadRegistry::Get(). Unknown
/// kinds and unknown/invalid parameters are InvalidArgument with the
/// offending token named.
StatusOr<std::unique_ptr<WorkloadGenerator>> ParseWorkloadSpec(
    const std::string& spec, uint64_t seed);

}  // namespace drlstream::workload

#endif  // DRLSTREAM_WORKLOAD_REGISTRY_H_
