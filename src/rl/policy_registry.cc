#include "rl/policy_registry.h"

#include <fstream>
#include <utility>

#include "common/logging.h"
#include "common/strutil.h"

namespace drlstream::rl {
namespace {

constexpr char kPolicyMagic[] = "drlstream-policy";
constexpr int kPolicyFormatVersion = 1;

using Factory = StatusOr<std::unique_ptr<Policy>> (*)(const PolicyContext&);

Status NeedsEncoder(const char* key, const PolicyContext& ctx) {
  if (ctx.encoder != nullptr) return Status::OK();
  return Status::InvalidArgument("policy '" + std::string(key) +
                                 "' needs a StateEncoder");
}

Status NeedsTopologyAndCluster(const char* key, const PolicyContext& ctx) {
  if (ctx.topology != nullptr && ctx.cluster != nullptr) return Status::OK();
  return Status::InvalidArgument("policy '" + std::string(key) +
                                 "' needs topology + cluster");
}

std::unique_ptr<Policy> Baseline(std::unique_ptr<sched::Scheduler> scheduler,
                                 const char* key, const PolicyContext& ctx) {
  return std::make_unique<SchedulerPolicy>(std::move(scheduler), key,
                                           ctx.topology, ctx.cluster);
}

StatusOr<std::unique_ptr<Policy>> MakeDdpg(const PolicyContext& ctx) {
  DRLSTREAM_RETURN_NOT_OK(NeedsEncoder("ddpg", ctx));
  return std::unique_ptr<Policy>(
      std::make_unique<DdpgAgent>(*ctx.encoder, ctx.ddpg));
}

StatusOr<std::unique_ptr<Policy>> MakeDqn(const PolicyContext& ctx) {
  DRLSTREAM_RETURN_NOT_OK(NeedsEncoder("dqn", ctx));
  return std::unique_ptr<Policy>(
      std::make_unique<DqnAgent>(*ctx.encoder, ctx.dqn));
}

StatusOr<std::unique_ptr<Policy>> MakeEnergyAware(const PolicyContext& ctx) {
  DRLSTREAM_RETURN_NOT_OK(NeedsTopologyAndCluster("energy-aware", ctx));
  return Baseline(std::make_unique<sched::EnergyAwareScheduler>(),
                  "energy-aware", ctx);
}

StatusOr<std::unique_ptr<Policy>> MakeModelBased(const PolicyContext& ctx) {
  DRLSTREAM_RETURN_NOT_OK(NeedsTopologyAndCluster("model-based", ctx));
  if (ctx.delay_model == nullptr) {
    return Status::InvalidArgument(
        "policy 'model-based' needs a fitted DelayModel");
  }
  return Baseline(std::make_unique<sched::ModelBasedScheduler>(
                      ctx.delay_model, ctx.model_based),
                  "model-based", ctx);
}

StatusOr<std::unique_ptr<Policy>> MakeRoundRobin(const PolicyContext& ctx) {
  DRLSTREAM_RETURN_NOT_OK(NeedsTopologyAndCluster("round-robin", ctx));
  return Baseline(std::make_unique<sched::RoundRobinScheduler>(
                      ctx.round_robin_workers_per_machine),
                  "round-robin", ctx);
}

struct Builtin {
  const char* key;
  Factory make;
};

/// Sorted by key: Keys() lists the rows in this order.
constexpr Builtin kBuiltins[] = {
    {"ddpg", MakeDdpg},
    {"dqn", MakeDqn},
    {"energy-aware", MakeEnergyAware},
    {"model-based", MakeModelBased},
    {"round-robin", MakeRoundRobin},
};

const Builtin* FindBuiltin(const std::string& key) {
  for (const Builtin& builtin : kBuiltins) {
    if (key == builtin.key) return &builtin;
  }
  return nullptr;
}

}  // namespace

SchedulerPolicy::SchedulerPolicy(std::unique_ptr<sched::Scheduler> scheduler,
                                 std::string registry_key,
                                 const topo::Topology* topology,
                                 const topo::ClusterConfig* cluster)
    : scheduler_(std::move(scheduler)), registry_key_(std::move(registry_key)),
      topology_(topology), cluster_(cluster) {
  DRLSTREAM_CHECK(scheduler_ != nullptr);
}

std::string SchedulerPolicy::Describe() const {
  return name() + " (" + registry_key_ + "): classical baseline scheduler";
}

StatusOr<PolicyAction> SchedulerPolicy::SelectAction(const State& state,
                                                     double epsilon,
                                                     Rng* rng) const {
  (void)epsilon;
  (void)rng;  // Baselines do not explore.
  DRLSTREAM_ASSIGN_OR_RETURN(sched::Schedule schedule, GreedyAction(state));
  return PolicyAction(std::move(schedule));
}

StatusOr<sched::Schedule> SchedulerPolicy::GreedyAction(
    const State& state) const {
  sched::SchedulingContext context;
  context.topology = topology_;
  context.cluster = cluster_;
  context.tenant = state.tenant;
  context.spout_rates = state.spout_rates;
  context.machine_up = state.machine_up;
  // An empty assignment vector means "no deployment yet" (initial solve).
  StatusOr<sched::Schedule> current(sched::Schedule(1, 1));
  if (!state.assignments.empty()) {
    current = sched::Schedule::FromAssignments(state.assignments,
                                               cluster_->num_machines);
    DRLSTREAM_RETURN_NOT_OK(current.status());
    context.current = &*current;
  }
  DRLSTREAM_ASSIGN_OR_RETURN(sched::Schedule schedule,
                             scheduler_->ComputeSchedule(context));
  schedule.set_tenant(state.tenant);
  return schedule;
}

PolicyRegistry& PolicyRegistry::Get() {
  static PolicyRegistry registry;
  return registry;
}

bool PolicyRegistry::Has(const std::string& key) const {
  return FindBuiltin(key) != nullptr;
}

std::vector<std::string> PolicyRegistry::Keys() const {
  std::vector<std::string> keys;
  for (const Builtin& builtin : kBuiltins) keys.push_back(builtin.key);
  return keys;
}

std::string PolicyRegistry::KeysLine() const {
  std::string line;
  for (const std::string& key : Keys()) {
    if (!line.empty()) line += '|';
    line += key;
  }
  return line;
}

Status PolicyRegistry::UnknownKeyError(const std::string& key) const {
  return UnknownNameError("policy", key, Keys());
}

StatusOr<std::unique_ptr<Policy>> PolicyRegistry::Create(
    const std::string& key, const PolicyContext& context) const {
  const Builtin* builtin = FindBuiltin(key);
  if (builtin == nullptr) return UnknownKeyError(key);
  return builtin->make(context);
}

Status SavePolicyArtifact(const Policy& policy, const std::string& prefix) {
  const std::string key = policy.registry_key();
  if (key.empty()) {
    return Status::InvalidArgument(
        "policy '" + policy.name() +
        "' has no registry key and cannot be saved as an artifact");
  }
  std::ofstream out(prefix + ".policy");
  if (!out.is_open()) {
    return Status::IoError("cannot open " + prefix + ".policy");
  }
  out << kPolicyMagic << ' ' << kPolicyFormatVersion << '\n'
      << "key " << key << '\n'
      << "name " << policy.name() << '\n';
  if (!out.good()) {
    return Status::IoError("write failed: " + prefix + ".policy");
  }
  return policy.Save(prefix);
}

StatusOr<std::unique_ptr<Policy>> LoadPolicyArtifact(
    const std::string& prefix, const PolicyContext& context) {
  const std::string header_path = prefix + ".policy";
  std::ifstream in(header_path);
  if (!in.is_open()) return Status::IoError("cannot open " + header_path);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kPolicyMagic) {
    return Status::InvalidArgument(header_path +
                                   " is not a policy artifact header");
  }
  if (version != kPolicyFormatVersion) {
    return Status::InvalidArgument(
        "unsupported policy artifact version in " + header_path);
  }
  std::string field, key;
  if (!(in >> field >> key) || field != "key" || key.empty()) {
    return Status::InvalidArgument("missing registry key in " + header_path);
  }
  const PolicyRegistry& registry = PolicyRegistry::Get();
  if (!registry.Has(key)) return registry.UnknownKeyError(key);
  DRLSTREAM_ASSIGN_OR_RETURN(std::unique_ptr<Policy> policy,
                             registry.Create(key, context));
  DRLSTREAM_RETURN_NOT_OK(policy->Load(prefix));
  return policy;
}

}  // namespace drlstream::rl
