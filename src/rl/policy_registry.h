#ifndef DRLSTREAM_RL_POLICY_REGISTRY_H_
#define DRLSTREAM_RL_POLICY_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rl/ddpg_agent.h"
#include "rl/dqn_agent.h"
#include "rl/policy.h"
#include "sched/energy_aware.h"
#include "sched/model_based.h"
#include "sched/scheduler.h"
#include "topo/cluster.h"
#include "topo/topology.h"

namespace drlstream::rl {

/// Everything a policy factory may need. Pointers are borrowed and must
/// outlive the created policy; factories return InvalidArgument when a field
/// they require is missing (e.g. "ddpg" needs `encoder`, "model-based"
/// needs `delay_model`).
struct PolicyContext {
  /// State encoder shared by the DRL policies ("ddpg", "dqn").
  const StateEncoder* encoder = nullptr;
  /// Topology/cluster for the classical baselines ("round-robin",
  /// "model-based").
  const topo::Topology* topology = nullptr;
  const topo::ClusterConfig* cluster = nullptr;
  /// Fitted delay model for "model-based".
  const sched::DelayModel* delay_model = nullptr;
  DdpgConfig ddpg;
  DqnConfig dqn;
  sched::ModelBasedOptions model_based;
  int round_robin_workers_per_machine = 4;
};

/// Adapts a classical sched::Scheduler to the Policy interface so baselines
/// flow through the same registry, control loop and artifact store as the
/// DRL agents. GreedyAction reconstructs a SchedulingContext from the
/// observed state (assignments, spout rates, machine-up mask); the wrapped
/// scheduler stays reachable via scheduler() so core::PolicyScheduler can
/// pass a full context (process assignments included) straight through.
class SchedulerPolicy : public Policy {
 public:
  SchedulerPolicy(std::unique_ptr<sched::Scheduler> scheduler,
                  std::string registry_key, const topo::Topology* topology,
                  const topo::ClusterConfig* cluster);

  std::string name() const override { return scheduler_->name(); }
  std::string registry_key() const override { return registry_key_; }
  std::string Describe() const override;

  StatusOr<PolicyAction> SelectAction(const State& state, double epsilon,
                                      Rng* rng) const override;
  StatusOr<sched::Schedule> GreedyAction(const State& state) const override;

  sched::Scheduler* scheduler() const { return scheduler_.get(); }

 private:
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::string registry_key_;
  const topo::Topology* topology_;
  const topo::ClusterConfig* cluster_;
};

/// String -> factory table of the scheduling policies: "ddpg", "dqn",
/// "energy-aware", "model-based" and "round-robin". A new policy is one
/// more row in the table in policy_registry.cc, and becomes constructible
/// everywhere a --policy flag is parsed.
class PolicyRegistry {
 public:
  /// The process-wide registry.
  static PolicyRegistry& Get();

  bool Has(const std::string& key) const;

  /// Sorted keys (for --help listings and error messages).
  std::vector<std::string> Keys() const;

  /// The Keys() joined "a|b|c" — the one source for every example's --help
  /// and usage text, so a new policy shows up everywhere without touching
  /// a hand-maintained list (tests/policy_test.cc pins this).
  std::string KeysLine() const;

  /// Constructs the policy registered under `key`; unknown keys produce an
  /// InvalidArgument naming the available entries (with a did-you-mean
  /// suggestion for near misses).
  StatusOr<std::unique_ptr<Policy>> Create(const std::string& key,
                                           const PolicyContext& context) const;

  /// The error Create returns for an unknown key (exposed so artifact
  /// loading and flag validation produce the same message).
  Status UnknownKeyError(const std::string& key) const;

 private:
  PolicyRegistry() = default;
};

/// Persists `policy` under `prefix`: a `prefix`.policy header (format
/// version, registry key, display name) plus the policy's own parameter
/// files. Fails for policies without a registry key.
Status SavePolicyArtifact(const Policy& policy, const std::string& prefix);

/// Reconstructs a policy from a `prefix`.policy header: reads the registry
/// key, constructs the policy through the registry, and loads its
/// parameters. An unknown or mismatched key degrades to a Status error
/// naming the registered entries instead of crashing.
StatusOr<std::unique_ptr<Policy>> LoadPolicyArtifact(
    const std::string& prefix, const PolicyContext& context);

}  // namespace drlstream::rl

#endif  // DRLSTREAM_RL_POLICY_REGISTRY_H_
