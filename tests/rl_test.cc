#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "rl/ddpg_agent.h"
#include "rl/dqn_agent.h"
#include "rl/exploration.h"
#include "rl/replay_buffer.h"
#include "rl/state.h"
#include "rl/transition_db.h"
#include "topo/apps.h"

namespace drlstream::rl {
namespace {

State MakeState(const std::vector<int>& assignments,
                const std::vector<double>& rates) {
  State s;
  s.assignments = assignments;
  s.spout_rates = rates;
  return s;
}

// ---------------------------------------------------------------------------
// StateEncoder
// ---------------------------------------------------------------------------

TEST(StateEncoderTest, DimensionsAndOneHotLayout) {
  StateEncoder encoder(3, 4, 2, 100.0);
  EXPECT_EQ(encoder.state_dim(), 3 * 4 + 2);
  EXPECT_EQ(encoder.action_dim(), 12);
  const std::vector<double> s =
      encoder.EncodeState(MakeState({1, 0, 3}, {50.0, 200.0}));
  ASSERT_EQ(s.size(), 14u);
  EXPECT_DOUBLE_EQ(s[1], 1.0);   // executor 0 -> machine 1
  EXPECT_DOUBLE_EQ(s[4], 1.0);   // executor 1 -> machine 0
  EXPECT_DOUBLE_EQ(s[11], 1.0);  // executor 2 -> machine 3
  EXPECT_DOUBLE_EQ(s[12], 0.5);  // 50 / 100
  EXPECT_DOUBLE_EQ(s[13], 2.0);  // 200 / 100
  double sum = 0;
  for (int i = 0; i < 12; ++i) sum += s[i];
  EXPECT_DOUBLE_EQ(sum, 3.0);  // exactly one-hot per executor
}

TEST(StateEncoderTest, IgnoreRatesAblation) {
  StateEncoder encoder(2, 2, 1, 100.0, /*include_rates=*/false);
  const std::vector<double> s =
      encoder.EncodeState(MakeState({0, 1}, {500.0}));
  EXPECT_DOUBLE_EQ(s[4], 0.0);  // rate entry zeroed
}

TEST(StateEncoderTest, StateActionConcatenation) {
  StateEncoder encoder(2, 2, 1, 100.0);
  auto action = sched::Schedule::FromAssignments({1, 1}, 2);
  const std::vector<double> sa =
      encoder.EncodeStateAction(MakeState({0, 0}, {100.0}), *action);
  ASSERT_EQ(sa.size(), static_cast<size_t>(encoder.state_dim() + 4));
  EXPECT_DOUBLE_EQ(sa[encoder.state_dim() + 1], 1.0);
  EXPECT_DOUBLE_EQ(sa[encoder.state_dim() + 3], 1.0);
}

// ---------------------------------------------------------------------------
// ReplayBuffer
// ---------------------------------------------------------------------------

Transition MakeTransition(double reward) {
  Transition t;
  t.state = MakeState({0}, {});
  t.next_state = MakeState({0}, {});
  t.action_assignments = {0};
  t.reward = reward;
  return t;
}

TEST(ReplayBufferTest, EvictsOldestWhenFull) {
  ReplayBuffer buffer(3);
  for (int i = 0; i < 5; ++i) buffer.Add(MakeTransition(i));
  EXPECT_EQ(buffer.size(), 3u);
  std::set<double> rewards;
  for (size_t i = 0; i < buffer.size(); ++i) {
    rewards.insert(buffer.at(i).reward);
  }
  // 0 and 1 were evicted.
  EXPECT_EQ(rewards, (std::set<double>{2.0, 3.0, 4.0}));
}

TEST(ReplayBufferTest, SamplesUniformly) {
  ReplayBuffer buffer(100);
  for (int i = 0; i < 100; ++i) buffer.Add(MakeTransition(i));
  Rng rng(3);
  std::vector<int> counts(100, 0);
  for (int round = 0; round < 200; ++round) {
    for (const Transition* t : buffer.Sample(32, &rng)) {
      ++counts[static_cast<int>(t->reward)];
    }
  }
  // Every sample index should appear at least once over 6400 draws.
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(EpsilonScheduleTest, LinearDecayThenFloor) {
  EpsilonSchedule schedule(1.0, 0.1, 100);
  EXPECT_DOUBLE_EQ(schedule.Value(0), 1.0);
  EXPECT_NEAR(schedule.Value(50), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(schedule.Value(100), 0.1);
  EXPECT_DOUBLE_EQ(schedule.Value(5000), 0.1);
  EXPECT_DOUBLE_EQ(schedule.Value(-5), 1.0);
}

// ---------------------------------------------------------------------------
// TransitionDatabase
// ---------------------------------------------------------------------------

TEST(TransitionDatabaseTest, ToPerfSamplesSkipsRecordsWithoutDetails) {
  TransitionDatabase db;
  TransitionDatabase::Record with;
  with.transition.action_assignments = {0};
  with.transition.next_state = MakeState({0}, {100.0});
  with.transition.reward = -2.0;
  with.component_proc_ms = {0.5};
  with.edge_transfer_ms = {};
  db.Add(with);
  TransitionDatabase::Record without;
  without.transition.action_assignments = {0};
  without.transition.next_state = MakeState({0}, {100.0});
  db.Add(without);
  const auto samples = db.ToPerfSamples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].avg_latency_ms, 2.0);
  EXPECT_EQ(samples[0].spout_rates, (std::vector<double>{100.0}));
}

// ---------------------------------------------------------------------------
// DQN agent
// ---------------------------------------------------------------------------

TEST(DqnAgentTest, ActionEncodingRoundTrip) {
  StateEncoder encoder(4, 3, 0, 100.0);
  DqnAgent agent(encoder, DqnConfig{});
  for (int a = 0; a < encoder.action_dim(); ++a) {
    auto [executor, machine] = agent.DecodeAction(a);
    EXPECT_EQ(a, executor * 3 + machine);
    const std::vector<int> next =
        agent.ApplyAction({0, 0, 0, 0}, a);
    EXPECT_EQ(next[executor], machine);
  }
}

TEST(DqnAgentTest, EpsilonGreedyExploresAndExploits) {
  StateEncoder encoder(2, 2, 0, 100.0);
  DqnAgent agent(encoder, DqnConfig{});
  const State state = MakeState({0, 0}, {});
  Rng rng(5);
  // Fully greedy: always the same action.
  const int greedy = agent.SelectMove(state, 0.0, &rng);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(agent.SelectMove(state, 0.0, &rng), greedy);
  }
  // Fully random: multiple distinct actions.
  std::set<int> seen;
  for (int i = 0; i < 50; ++i) {
    seen.insert(agent.SelectMove(state, 1.0, &rng));
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(DqnAgentTest, LearnsBanditRewards) {
  // One executor, 3 machines; reward depends only on the chosen machine:
  // machine 2 is best. After training, Q must rank moves correctly.
  StateEncoder encoder(1, 3, 0, 100.0);
  DqnConfig config;
  config.gamma = 0.0;  // pure bandit
  config.learning_rate = 5e-3;
  DqnAgent agent(encoder, config);
  Rng rng(6);
  SplitMix64 noise(6);
  const std::vector<double> machine_reward = {-1.0, -0.5, 0.5};
  for (int i = 0; i < 300; ++i) {
    const int machine = rng.UniformInt(0, 2);
    Transition t;
    t.state = MakeState({rng.UniformInt(0, 2)}, {});
    t.action_assignments = {machine};
    t.move_index = machine;
    t.reward = machine_reward[machine] + 0.05 * noise.Normal();
    t.next_state = MakeState({machine}, {});
    agent.Observe(std::move(t));
  }
  for (int i = 0; i < 400; ++i) agent.TrainStep();
  const State state = MakeState({0}, {});
  EXPECT_EQ(agent.GreedyMove(state) % 3, 2);
}

TEST(DqnAgentTest, RewardNormalizationApplied) {
  StateEncoder encoder(1, 2, 0, 100.0);
  DqnConfig config;
  config.reward_shift = -10.0;
  config.reward_scale = 2.0;
  config.reward_clip = 3.0;
  DqnAgent agent(encoder, config);
  Transition t = MakeTransition(-12.0);
  t.move_index = 0;
  agent.Observe(std::move(t));
  EXPECT_DOUBLE_EQ(agent.replay().at(0).reward, -1.0);
  Transition extreme = MakeTransition(-100.0);
  extreme.move_index = 0;
  agent.Observe(std::move(extreme));
  EXPECT_DOUBLE_EQ(agent.replay().at(1).reward, -3.0);  // clipped
}

TEST(DqnAgentTest, SaveLoadRoundTrip) {
  StateEncoder encoder(2, 2, 1, 100.0);
  DqnAgent a(encoder, DqnConfig{});
  const std::string prefix = testing::TempDir() + "/dqn";
  ASSERT_TRUE(a.Save(prefix).ok());
  DqnConfig other_config;
  other_config.seed = 12345;
  DqnAgent b(encoder, other_config);
  ASSERT_TRUE(b.Load(prefix).ok());
  const State state = MakeState({0, 1}, {90.0});
  EXPECT_EQ(a.GreedyMove(state), b.GreedyMove(state));
  EXPECT_NEAR(a.MaxQ(state), b.MaxQ(state), 1e-12);
}

// ---------------------------------------------------------------------------
// DDPG agent
// ---------------------------------------------------------------------------

TEST(DdpgAgentTest, ProtoActionHasActionDimension) {
  StateEncoder encoder(5, 4, 2, 100.0);
  DdpgAgent agent(encoder, DdpgConfig{});
  const State state = MakeState({0, 1, 2, 3, 0}, {90.0, 110.0});
  EXPECT_EQ(agent.ProtoAction(state).size(), 20u);
}

TEST(DdpgAgentTest, SelectActionReturnsFeasibleSchedule) {
  StateEncoder encoder(6, 3, 1, 100.0);
  DdpgConfig config;
  config.knn_k = 8;
  DdpgAgent agent(encoder, config);
  Rng rng(7);
  const State state = MakeState({0, 1, 2, 0, 1, 2}, {100.0});
  for (double epsilon : {0.0, 1.0}) {
    auto action = agent.SelectAction(state, epsilon, &rng);
    ASSERT_TRUE(action.ok());
    EXPECT_EQ(action->schedule.num_executors(), 6);
    EXPECT_EQ(action->schedule.num_machines(), 3);
  }
}

TEST(DdpgAgentTest, GreedyActionIsDeterministic) {
  StateEncoder encoder(4, 3, 1, 100.0);
  DdpgAgent agent(encoder, DdpgConfig{});
  const State state = MakeState({0, 1, 2, 0}, {100.0});
  auto a = agent.GreedyAction(state);
  auto b = agent.GreedyAction(state);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments(), b->assignments());
}

TEST(DdpgAgentTest, GreedyActionMaximizesCriticOverKnnSet) {
  StateEncoder encoder(3, 3, 0, 100.0);
  DdpgConfig config;
  config.knn_k = 16;
  DdpgAgent agent(encoder, config);
  const State state = MakeState({0, 0, 0}, {});
  auto chosen = agent.GreedyAction(state);
  ASSERT_TRUE(chosen.ok());
  const double chosen_q = agent.QValue(state, *chosen);
  // Q of the chosen action must be >= Q of the 1-NN of the proto action.
  miqp::KnnActionSolver solver(3, 3);
  auto nn = solver.Solve(agent.ProtoAction(state), 1);
  ASSERT_TRUE(nn.ok());
  EXPECT_GE(chosen_q, agent.QValue(state, nn->actions[0]) - 1e-9);
}

/// Rounds every first-layer weight and bias of the agent's critic to a
/// multiple of 2^-10 (through Save and Load), so that with 0/1 and 1/2
/// inputs every first-layer product and partial sum is exact and the sum
/// is the same in any order.
void MakeCriticFirstLayerExact(DdpgAgent* agent, const std::string& prefix) {
  ASSERT_TRUE(agent->Save(prefix).ok());
  auto critic = nn::Mlp::Load(prefix + ".critic");
  ASSERT_TRUE(critic.ok());
  nn::Linear& first = critic->layer(0);
  const auto exact = [](double v) { return std::round(v * 1024.0) / 1024.0; };
  for (size_t p = 0; p < first.weights.size(); ++p) {
    first.weights.data()[p] = exact(first.weights.data()[p]);
  }
  for (size_t r = 0; r < first.bias.size(); ++r) {
    first.bias[r] = exact(first.bias[r] + 0.3);  // nonzero biases
  }
  ASSERT_TRUE(critic->Save(prefix + ".critic").ok());
  ASSERT_TRUE(agent->Load(prefix).ok());
}

std::vector<sched::Schedule> Candidates(
    const std::vector<std::vector<int>>& assignments, int m) {
  std::vector<sched::Schedule> out;
  for (const std::vector<int>& a : assignments) {
    sched::Schedule schedule(static_cast<int>(a.size()), m);
    for (size_t i = 0; i < a.size(); ++i) {
      schedule.Assign(static_cast<int>(i), a[i]);
    }
    out.push_back(schedule);
  }
  return out;
}

TEST(DdpgAgentTest, CandidateQValuesEqualTheDenseCriticBitwise) {
  // The trie gather resumes each candidate from a checkpoint of the prefix
  // it shares with its lexicographic predecessor. With an exact first
  // layer, any column added twice, skipped or taken from the wrong
  // candidate changes a Q value; the add order itself is pinned by
  // DdpgGoldenTest.
  constexpr int n = 7, m = 4;
  StateEncoder encoder(n, m, 1, 100.0);
  DdpgAgent agent(encoder, DdpgConfig{});
  MakeCriticFirstLayerExact(&agent, testing::TempDir() + "/ddpg_exact");
  const State state = MakeState({0, 1, 2, 3, 0, 1, 2}, {50.0});
  const std::vector<int> base = {1, 1, 0, 2, 3, 0, 1};
  const std::vector<std::vector<std::vector<int>>> sets = {
      // Nested multi-row deviations from the first candidate, deviations
      // at the first and last executor, and a candidate between others
      // in lexicographic order.
      {base,
       {1, 1, 0, 3, 3, 0, 1},
       {1, 1, 0, 3, 3, 2, 1},
       {1, 1, 0, 3, 3, 2, 0},
       {1, 1, 0, 3, 1, 0, 1},
       {0, 1, 0, 2, 3, 0, 1},
       {1, 1, 0, 2, 3, 0, 3},
       {1, 2, 2, 2, 3, 0, 1},
       {1, 1, 0, 2, 0, 0, 1},
       {3, 3, 3, 3, 3, 3, 3}},
      // A duplicate candidate, adjacent to its twin once sorted.
      {base, {1, 1, 0, 2, 3, 1, 1}, base, {1, 0, 0, 2, 3, 0, 1}},
      // One candidate.
      {base},
  };
  for (size_t set = 0; set < sets.size(); ++set) {
    const std::vector<sched::Schedule> actions = Candidates(sets[set], m);
    const std::vector<double> q = agent.CandidateQValues(state, actions);
    ASSERT_EQ(q.size(), actions.size());
    for (size_t c = 0; c < actions.size(); ++c) {
      EXPECT_EQ(q[c], agent.QValue(state, actions[c]))
          << "set " << set << " candidate " << c;
    }
  }
}

TEST(DdpgAgentTest, LearnsBanditPreference) {
  // 2 executors, 2 machines. Reward = +1 when both executors share a
  // machine, -1 otherwise. After training, the greedy action co-locates.
  StateEncoder encoder(2, 2, 0, 100.0);
  DdpgConfig config;
  config.gamma = 0.0;
  config.knn_k = 4;  // the full action space
  config.critic_learning_rate = 5e-3;
  config.actor_learning_rate = 1e-3;
  DdpgAgent agent(encoder, config);
  Rng rng(8);
  for (int i = 0; i < 400; ++i) {
    Transition t;
    t.state = MakeState({rng.UniformInt(0, 1), rng.UniformInt(0, 1)}, {});
    const int a0 = rng.UniformInt(0, 1), a1 = rng.UniformInt(0, 1);
    t.action_assignments = {a0, a1};
    t.reward = a0 == a1 ? 1.0 : -1.0;
    t.next_state = MakeState({a0, a1}, {});
    agent.Observe(std::move(t));
  }
  for (int i = 0; i < 500; ++i) agent.TrainStep();
  auto action = agent.GreedyAction(MakeState({0, 1}, {}));
  ASSERT_TRUE(action.ok());
  EXPECT_EQ(action->MachineOf(0), action->MachineOf(1));
}

TEST(DdpgAgentTest, TrainStepReducesCriticLossOnFixedData) {
  StateEncoder encoder(3, 2, 0, 100.0);
  DdpgConfig config;
  config.gamma = 0.0;
  DdpgAgent agent(encoder, config);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    Transition t;
    t.state = MakeState({0, 0, 0}, {});
    t.action_assignments = {rng.UniformInt(0, 1), rng.UniformInt(0, 1),
                            rng.UniformInt(0, 1)};
    t.reward = t.action_assignments[0] == 1 ? 0.5 : -0.5;
    t.next_state = t.state;
    agent.Observe(std::move(t));
  }
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 30; ++i) early += agent.TrainStep();
  for (int i = 0; i < 400; ++i) agent.TrainStep();
  for (int i = 0; i < 30; ++i) late += agent.TrainStep();
  EXPECT_LT(late, early);
}

TEST(DdpgAgentTest, SaveLoadRoundTrip) {
  StateEncoder encoder(3, 3, 1, 100.0);
  DdpgAgent a(encoder, DdpgConfig{});
  const std::string prefix = testing::TempDir() + "/ddpg_agent";
  ASSERT_TRUE(a.Save(prefix).ok());
  DdpgConfig other;
  other.seed = 999;
  DdpgAgent b(encoder, other);
  ASSERT_TRUE(b.Load(prefix).ok());
  const State state = MakeState({0, 1, 2}, {120.0});
  EXPECT_EQ(a.ProtoAction(state), b.ProtoAction(state));
  auto ga = a.GreedyAction(state);
  auto gb = b.GreedyAction(state);
  EXPECT_EQ(ga->assignments(), gb->assignments());
}

TEST(DdpgAgentTest, NonFiniteProtoActionsAreSkippedNotFatal) {
  // A diverged target actor (here: NaN spout rates in the next state,
  // which propagate through the encoding to a non-finite proto-action)
  // must cost only the affected minibatch samples — counted in
  // knn_failure_count() — never abort training.
  StateEncoder encoder(2, 2, 1, 100.0);
  DdpgConfig config;
  config.minibatch_size = 8;
  DdpgAgent agent(encoder, config);
  Rng rng(4);
  const double nan = std::nan("");
  for (int i = 0; i < 40; ++i) {
    Transition t;
    t.state = MakeState({rng.UniformInt(0, 1), rng.UniformInt(0, 1)},
                        {100.0});
    t.action_assignments = {rng.UniformInt(0, 1), rng.UniformInt(0, 1)};
    t.reward = -1.0;
    // Half the transitions carry a poisoned next state.
    t.next_state = MakeState({0, 1}, {i % 2 == 0 ? nan : 100.0});
    agent.Observe(std::move(t));
  }
  EXPECT_EQ(agent.knn_failure_count(), 0);
  double loss = 0.0;
  for (int i = 0; i < 10; ++i) loss = agent.TrainStep();
  // Poisoned samples were hit and skipped; training carried on with the
  // healthy half and the loss stayed finite.
  EXPECT_GT(agent.knn_failure_count(), 0);
  EXPECT_TRUE(std::isfinite(loss));
  auto action = agent.GreedyAction(MakeState({0, 1}, {100.0}));
  ASSERT_TRUE(action.ok());
}

TEST(DdpgAgentTest, ReferenceStepCountsKnnFailuresIdentically) {
  // TrainStep and TrainStepReference consume identical RNG state and must
  // skip exactly the same poisoned samples.
  StateEncoder encoder(2, 2, 1, 100.0);
  DdpgConfig config;
  config.minibatch_size = 4;
  const double nan = std::nan("");
  auto fill = [&](DdpgAgent* agent) {
    Rng rng(6);
    for (int i = 0; i < 20; ++i) {
      Transition t;
      t.state = MakeState({0, 1}, {100.0});
      t.action_assignments = {rng.UniformInt(0, 1), rng.UniformInt(0, 1)};
      t.reward = -2.0;
      t.next_state = MakeState({1, 0}, {i % 3 == 0 ? nan : 100.0});
      agent->Observe(std::move(t));
    }
  };
  DdpgAgent batched(encoder, config);
  DdpgAgent reference(encoder, config);
  fill(&batched);
  fill(&reference);
  for (int i = 0; i < 8; ++i) {
    const double a = batched.TrainStep();
    const double b = reference.TrainStepReference();
    EXPECT_DOUBLE_EQ(a, b) << "step " << i;
    EXPECT_EQ(batched.knn_failure_count(), reference.knn_failure_count())
        << "step " << i;
  }
  EXPECT_GT(batched.knn_failure_count(), 0);
}

TEST(DdpgAgentTest, SelectActionRespectsMachineMask) {
  StateEncoder encoder(4, 3, 1, 100.0);
  DdpgConfig config;
  config.knn_k = 16;
  DdpgAgent agent(encoder, config);
  Rng rng(5);
  State state = MakeState({0, 1, 2, 0}, {100.0});
  state.machine_up = {1, 0, 1};  // Machine 1 is dead.
  for (double epsilon : {0.0, 0.5, 1.0}) {
    for (int round = 0; round < 10; ++round) {
      auto action = agent.SelectAction(state, epsilon, &rng);
      ASSERT_TRUE(action.ok());
      for (int i = 0; i < action->schedule.num_executors(); ++i) {
        EXPECT_NE(action->schedule.MachineOf(i), 1);
      }
    }
  }
}

TEST(DqnAgentTest, ActionsRespectMachineMask) {
  StateEncoder encoder(3, 3, 0, 100.0);
  DqnAgent agent(encoder, DqnConfig{});
  Rng rng(14);
  State state = MakeState({0, 1, 1}, {});
  state.machine_up = {1, 1, 0};  // Machine 2 is dead.
  for (int round = 0; round < 30; ++round) {
    const int index = agent.SelectMove(state, round % 2 == 0 ? 1.0 : 0.0,
                                       &rng);
    // A single-move action never targets the dead machine (the action
    // index encodes executor * M + machine).
    EXPECT_NE(index % 3, 2) << "round " << round;
    const std::vector<int> next = agent.ApplyAction(state.assignments, index);
    for (int machine : next) EXPECT_NE(machine, 2);
  }
}

/// SelectActionBatch's contract (rl/policy.h): bit-identical to calling
/// SelectActionInto on the slots in index order — same actions, same
/// per-slot RNG consumption — at any GEMM parallelism level. This is what
/// lets the multi-session AgentServer fuse concurrent GetSchedule requests
/// into one ForwardBatch without changing a single reply byte.
void CheckBatchMatchesSequential(const Policy& policy, int num_machines) {
  constexpr int kSlots = 6;
  std::vector<State> states;
  for (int i = 0; i < kSlots; ++i) {
    std::vector<int> assignments(4);
    for (int j = 0; j < 4; ++j) assignments[j] = (i + j) % num_machines;
    states.push_back(MakeState(assignments, {100.0 + i}));
  }
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    // Batched pass: per-slot RNGs, epsilon varied across slots so both the
    // explore and exploit branches appear in one batch.
    std::vector<Rng> batch_rngs;
    std::vector<PolicyAction> batch_actions(kSlots);
    std::vector<DecisionRequest> slots(kSlots);
    for (int i = 0; i < kSlots; ++i) batch_rngs.emplace_back(300 + i);
    for (int i = 0; i < kSlots; ++i) {
      slots[static_cast<size_t>(i)].state = &states[static_cast<size_t>(i)];
      slots[static_cast<size_t>(i)].epsilon = i % 2 == 0 ? 0.0 : 0.7;
      slots[static_cast<size_t>(i)].rng = &batch_rngs[static_cast<size_t>(i)];
      slots[static_cast<size_t>(i)].out = &batch_actions[static_cast<size_t>(i)];
    }
    policy.SelectActionBatch(slots.data(), kSlots);

    // Sequential reference with identically seeded RNGs.
    for (int i = 0; i < kSlots; ++i) {
      Rng rng(300 + i);
      PolicyAction action;
      const Status status = policy.SelectActionInto(
          states[static_cast<size_t>(i)], slots[static_cast<size_t>(i)].epsilon,
          &rng, &action);
      ASSERT_EQ(status.ok(), slots[static_cast<size_t>(i)].status.ok())
          << "threads " << threads << " slot " << i;
      if (!status.ok()) continue;
      EXPECT_EQ(action.schedule.assignments(),
                batch_actions[static_cast<size_t>(i)].schedule.assignments())
          << "threads " << threads << " slot " << i;
      EXPECT_EQ(action.move_index,
                batch_actions[static_cast<size_t>(i)].move_index)
          << "threads " << threads << " slot " << i;
      // Identical RNG consumption: the streams stay aligned after the call.
      EXPECT_EQ(batch_rngs[static_cast<size_t>(i)].Uniform(0.0, 1.0),
                rng.Uniform(0.0, 1.0))
          << "threads " << threads << " slot " << i;
    }
  }
  SetGlobalThreadCount(0);
}

TEST(DdpgAgentTest, SelectActionBatchMatchesSequential) {
  StateEncoder encoder(4, 3, 1, 100.0);
  DdpgConfig config;
  config.knn_k = 8;
  DdpgAgent agent(encoder, config);
  CheckBatchMatchesSequential(agent, 3);
}

TEST(DqnAgentTest, SelectActionBatchMatchesSequential) {
  StateEncoder encoder(4, 3, 1, 100.0);
  DqnAgent agent(encoder, DqnConfig{});
  CheckBatchMatchesSequential(agent, 3);
}

TEST(DdpgAgentTest, PretrainOfflineFillsReplay) {
  StateEncoder encoder(2, 2, 0, 100.0);
  DdpgAgent agent(encoder, DdpgConfig{});
  TransitionDatabase db;
  for (int i = 0; i < 10; ++i) {
    TransitionDatabase::Record record;
    record.transition = MakeTransition(-1.0);
    record.transition.state = MakeState({0, 1}, {});
    record.transition.next_state = MakeState({1, 0}, {});
    record.transition.action_assignments = {1, 0};
    db.Add(std::move(record));
  }
  agent.PretrainOffline(db, 5);
  EXPECT_EQ(agent.replay().size(), 10u);
}

// ---------------------------------------------------------------------------
// Bit-level golden on the paper's CQ-large agent shape (N = 100, M = 10,
// K = 32). The policy-equivalence goldens pin rewards and final schedules,
// which a one-ulp drift in a Q value that flips no argmax leaves intact;
// this one hashes the bit patterns of every training loss and of both
// networks' final weights, so it also pins every target Q the critic
// trained on.
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words.
class Fnv64 {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void AddDouble(double value) { Add(std::bit_cast<uint64_t>(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void HashNetwork(const nn::Mlp& net, Fnv64* hash) {
  for (int l = 0; l < net.num_layers(); ++l) {
    const nn::Linear& layer = net.layer(l);
    for (size_t p = 0; p < layer.weights.size(); ++p) {
      hash->AddDouble(layer.weights.data()[p]);
    }
    for (double b : layer.bias) hash->AddDouble(b);
  }
}

/// Every seventh decision sees one machine down, so masked K-NN solves run
/// in the decision loop and (through the next states) in the targets.
std::vector<uint8_t> GoldenMask(int decision, int m) {
  if (decision % 7 != 3) return {};
  std::vector<uint8_t> mask(m, 1);
  mask[decision % m] = 0;
  return mask;
}

/// 300 closed-loop decisions at epsilon 0.5 (each next state is the chosen
/// schedule), then 20 training steps on the replay those decisions filled,
/// with seeded rewards. Returns one hash over every chosen assignment,
/// every loss and the final weights of actor and critic.
uint64_t CqLargeGoldenHash(SimdMode mode, int threads) {
  const SimdMode saved_mode = GetSimdMode();
  SetSimdMode(mode);
  SetGlobalThreadCount(threads);
  const topo::App app = topo::BuildContinuousQueries(topo::Scale::kLarge);
  const int n = app.topology.num_executors();
  const int m = 10;
  const StateEncoder encoder(
      n, m, app.topology.num_spouts(),
      core::NominalSpoutRate(app.topology, app.workload));
  DdpgConfig config;
  config.knn_k = 32;
  config.minibatch_size = 16;
  config.seed = 1;
  DdpgAgent agent(encoder, config);

  Rng rng(1);
  Fnv64 hash;
  State state;
  state.assignments = sched::Schedule::Random(n, m, &rng).assignments();
  state.spout_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  PolicyAction action;
  for (int decision = 0; decision < 300; ++decision) {
    state.machine_up = GoldenMask(decision, m);
    EXPECT_TRUE(agent.SelectActionInto(state, 0.5, &rng, &action).ok());
    for (int machine : action.schedule.assignments()) hash.Add(machine);
    Transition t;
    t.state = state;
    t.action_assignments = action.schedule.assignments();
    t.next_state = state;
    t.next_state.assignments = t.action_assignments;
    t.next_state.machine_up = GoldenMask(decision + 1, m);
    t.reward = rng.Uniform(-3.0, 0.0);
    agent.Observe(std::move(t));
    state.assignments = action.schedule.assignments();
  }
  for (int step = 0; step < 20; ++step) hash.AddDouble(agent.TrainStep());
  HashNetwork(agent.actor(), &hash);
  HashNetwork(agent.critic(), &hash);
  SetSimdMode(saved_mode);
  return hash.value();
}

TEST(DdpgGoldenTest, CqLargeDecisionsAndTrainingAreBitExact) {
  // Recorded before candidate scoring shared the 1-NN's prefix and before
  // Dot4 and SumRows existed; those must reproduce it bit for bit.
  // Re-recorded once, with the code unchanged, when Rng (the initial
  // weights, exploration and rewards) became a splitmix64 stream
  // (0xcbe107b5bd113aaa), and once when every tanh moved from libm to
  // nn::kernels::Tanh.
  constexpr uint64_t kGolden = 0xc9bf5d0fd64ea24eull;
  for (SimdMode mode : {SimdMode::kOff, SimdMode::kAuto}) {
    for (int threads : {1, 2, 4}) {
      const uint64_t hash = CqLargeGoldenHash(mode, threads);
      EXPECT_EQ(hash, kGolden)
          << "simd=" << (mode == SimdMode::kOff ? "off" : "auto")
          << " threads=" << threads << " got 0x" << std::hex << hash;
    }
  }
  SetGlobalThreadCount(0);
}

}  // namespace
}  // namespace drlstream::rl
