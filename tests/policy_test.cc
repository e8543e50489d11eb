// The policy layer: registry lookup/creation, the Save/Load artifact
// round-trip through the Policy interface (registry key in the header,
// unknown keys degrade to a Status error naming the entries), and the
// shared reward normalization/clipping at the clip boundary.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rl/ddpg_agent.h"
#include "rl/dqn_agent.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"

namespace drlstream::rl {
namespace {

State MakeState(std::vector<int> assignments, std::vector<double> rates) {
  State state;
  state.assignments = std::move(assignments);
  state.spout_rates = std::move(rates);
  return state;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(PolicyRegistryTest, BuiltinsRegistered) {
  const PolicyRegistry& registry = PolicyRegistry::Get();
  for (const char* key : {"ddpg", "dqn", "round-robin", "model-based"}) {
    EXPECT_TRUE(registry.Has(key)) << key;
  }
  const std::vector<std::string> keys = registry.Keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(PolicyRegistryTest, KeysLineStaysInSyncWithTheRegistry) {
  // Every example's --help prints PolicyRegistry::KeysLine() instead of a
  // hand-maintained list; this pins that the line is exactly the sorted
  // keys joined by '|', so adding a policy updates every usage string
  // automatically.
  const PolicyRegistry& registry = PolicyRegistry::Get();
  std::string want;
  for (const std::string& key : registry.Keys()) {
    if (!want.empty()) want += '|';
    want += key;
  }
  EXPECT_EQ(registry.KeysLine(), want);
  for (const char* key : {"ddpg", "dqn", "round-robin", "model-based"}) {
    EXPECT_NE(registry.KeysLine().find(key), std::string::npos) << key;
  }
}

TEST(PolicyRegistryTest, UnknownKeyNamesEntriesAndSuggests) {
  const auto result = PolicyRegistry::Get().Create("ddgp", PolicyContext{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = result.status().message();
  for (const char* key : {"ddpg", "dqn", "round-robin", "model-based"}) {
    EXPECT_NE(message.find(key), std::string::npos) << message;
  }
  EXPECT_NE(message.find("did you mean 'ddpg'"), std::string::npos)
      << message;
}

TEST(PolicyRegistryTest, FarFetchedKeyGetsNoSuggestion) {
  const auto result =
      PolicyRegistry::Get().Create("no-such-policy", PolicyContext{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message().find("did you mean"),
            std::string::npos);
}

TEST(PolicyRegistryTest, FactoriesValidateTheirContext) {
  // DRL policies need an encoder; baselines need topology + cluster.
  EXPECT_FALSE(PolicyRegistry::Get().Create("ddpg", PolicyContext{}).ok());
  EXPECT_FALSE(PolicyRegistry::Get().Create("dqn", PolicyContext{}).ok());
  EXPECT_FALSE(
      PolicyRegistry::Get().Create("round-robin", PolicyContext{}).ok());
  EXPECT_FALSE(
      PolicyRegistry::Get().Create("model-based", PolicyContext{}).ok());
}

TEST(SchedulerPolicyTest, RoundRobinThroughRegistryProducesSchedule) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  PolicyContext context;
  context.topology = &app.topology;
  context.cluster = &cluster;
  auto policy = PolicyRegistry::Get().Create("round-robin", context);
  ASSERT_TRUE(policy.ok());
  EXPECT_FALSE((*policy)->trainable());
  EXPECT_EQ((*policy)->registry_key(), "round-robin");

  State state;
  state.assignments.assign(app.topology.num_executors(), 0);
  state.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  auto schedule = (*policy)->GreedyAction(state);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->num_executors(), app.topology.num_executors());
  // SelectAction is greedy for baselines and never consumes the RNG.
  Rng rng(1);
  auto action = (*policy)->SelectAction(state, 0.9, &rng);
  ASSERT_TRUE(action.ok());
  EXPECT_EQ(action->schedule.assignments(), schedule->assignments());
  EXPECT_EQ(action->move_index, -1);
}

// ---------------------------------------------------------------------------
// Policy artifacts (Save/Load through the registry)
// ---------------------------------------------------------------------------

TEST(PolicyArtifactTest, DdpgRoundTripsThroughRegistry) {
  StateEncoder encoder(4, 3, 1, 100.0);
  PolicyContext context;
  context.encoder = &encoder;
  context.ddpg.seed = 77;
  auto saved = PolicyRegistry::Get().Create("ddpg", context);
  ASSERT_TRUE(saved.ok());

  const std::string prefix = testing::TempDir() + "/policy_ddpg";
  ASSERT_TRUE(SavePolicyArtifact(**saved, prefix).ok());

  context.ddpg.seed = 12345;  // Weights are loaded; the init seed is moot.
  auto loaded = LoadPolicyArtifact(prefix, context);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->registry_key(), "ddpg");
  EXPECT_EQ((*loaded)->name(), (*saved)->name());

  const State state = MakeState({0, 1, 2, 0}, {110.0});
  auto a = (*saved)->GreedyAction(state);
  auto b = (*loaded)->GreedyAction(state);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments(), b->assignments());
}

TEST(PolicyArtifactTest, DqnRoundTripsThroughRegistry) {
  StateEncoder encoder(3, 2, 1, 100.0);
  PolicyContext context;
  context.encoder = &encoder;
  context.dqn.seed = 42;
  auto saved = PolicyRegistry::Get().Create("dqn", context);
  ASSERT_TRUE(saved.ok());

  const std::string prefix = testing::TempDir() + "/policy_dqn";
  ASSERT_TRUE(SavePolicyArtifact(**saved, prefix).ok());

  context.dqn.seed = 999;
  auto loaded = LoadPolicyArtifact(prefix, context);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->registry_key(), "dqn");

  const State state = MakeState({0, 1, 0}, {95.0});
  auto a = (*saved)->GreedyAction(state);
  auto b = (*loaded)->GreedyAction(state);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments(), b->assignments());
}

TEST(PolicyArtifactTest, UnknownHeaderKeyDegradesToStatus) {
  const std::string prefix = testing::TempDir() + "/policy_unknown";
  {
    std::ofstream out(prefix + ".policy");
    out << "drlstream-policy 1\nkey hindsight\nname Hindsight DRL\n";
  }
  StateEncoder encoder(2, 2, 0, 100.0);
  PolicyContext context;
  context.encoder = &encoder;
  const auto result = LoadPolicyArtifact(prefix, context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("ddpg"), std::string::npos)
      << result.status().message();
}

TEST(PolicyArtifactTest, CorruptHeaderRejected) {
  const std::string prefix = testing::TempDir() + "/policy_corrupt";
  {
    std::ofstream out(prefix + ".policy");
    out << "not-a-policy-header\n";
  }
  EXPECT_FALSE(LoadPolicyArtifact(prefix, PolicyContext{}).ok());
  EXPECT_FALSE(
      LoadPolicyArtifact(testing::TempDir() + "/no_such", PolicyContext{})
          .ok());
}

TEST(PolicyArtifactTest, UnkeyedPolicyCannotBeSaved) {
  // A policy constructed outside the registry (empty registry_key) has no
  // way to be reconstructed on load, so saving must fail loudly.
  class Anonymous : public Policy {
   public:
    std::string name() const override { return "anon"; }
    StatusOr<PolicyAction> SelectAction(const State&, double,
                                        Rng*) const override {
      return Status::Unimplemented("anon");
    }
    StatusOr<sched::Schedule> GreedyAction(const State&) const override {
      return Status::Unimplemented("anon");
    }
  };
  Anonymous policy;
  EXPECT_FALSE(
      SavePolicyArtifact(policy, testing::TempDir() + "/anon").ok());
}

// ---------------------------------------------------------------------------
// Shared reward normalization (OffPolicyTrainer) at the clip boundary
// ---------------------------------------------------------------------------

Transition BoundaryTransition(double reward, int move_index) {
  Transition t;
  t.state = MakeState({0, 0}, {});
  t.action_assignments = {1, 0};
  t.move_index = move_index;
  t.reward = reward;
  t.next_state = MakeState({1, 0}, {});
  return t;
}

/// Raw rewards that normalize to exactly +/-reward_clip must be stored as
/// exactly +/-reward_clip (the clamp boundary is inclusive and must not
/// perturb the value), identically for both agents since the normalization
/// lives in the shared trainer.
template <typename Agent, typename Config>
void CheckClipBoundary() {
  Config config;
  config.reward_shift = -8.0;
  config.reward_scale = 2.0;
  config.reward_clip = 3.0;
  StateEncoder encoder(2, 2, 0, 100.0);
  Agent agent(encoder, config);
  // r' = (r - shift) / scale: the boundary raw rewards are shift +/-
  // scale * clip; one in-range and one far-out-of-range reward bracket it.
  const double upper = config.reward_shift +
                       config.reward_scale * config.reward_clip;  // -2
  const double lower = config.reward_shift -
                       config.reward_scale * config.reward_clip;  // -14
  agent.Observe(BoundaryTransition(upper, 0));
  agent.Observe(BoundaryTransition(lower, 1));
  agent.Observe(BoundaryTransition(config.reward_shift, 2));   // center
  agent.Observe(BoundaryTransition(-1000.0, 3));               // clipped
  EXPECT_EQ(agent.replay().at(0).reward, config.reward_clip);
  EXPECT_EQ(agent.replay().at(1).reward, -config.reward_clip);
  EXPECT_EQ(agent.replay().at(2).reward, 0.0);
  EXPECT_EQ(agent.replay().at(3).reward, -config.reward_clip);
}

TEST(RewardClipBoundaryTest, DdpgStoresExactClipAtBoundary) {
  CheckClipBoundary<DdpgAgent, DdpgConfig>();
}

TEST(RewardClipBoundaryTest, DqnStoresExactClipAtBoundary) {
  CheckClipBoundary<DqnAgent, DqnConfig>();
}

}  // namespace
}  // namespace drlstream::rl
