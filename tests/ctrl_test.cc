// Client/server integration tests for the networked control plane, over
// in-process socketpairs (also run under ASan and TSan in CI) and over
// real 127.0.0.1 TCP sockets. The centerpiece: core::RunOnline driven
// through a ctrl::MasterClient is bit-identical (EXPECT_EQ on doubles) to
// the same run against the in-process policy, and an agent killed mid-run
// degrades to the last deployed schedule instead of aborting.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/environment.h"
#include "core/experiment.h"
#include "core/online.h"
#include "ctrl/agent_server.h"
#include "ctrl/master_client.h"
#include "ctrl/messages.h"
#include "net/transport.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"

namespace drlstream::ctrl {
namespace {

/// Deterministic scripted policy for protocol-level tests: rotates every
/// executor one machine to the right of its state position.
class FakePolicy : public rl::Policy {
 public:
  explicit FakePolicy(int num_machines) : num_machines_(num_machines) {}

  std::string name() const override { return "fake"; }
  std::string Describe() const override { return "scripted test policy"; }
  bool trainable() const override { return true; }

  StatusOr<rl::PolicyAction> SelectAction(const rl::State& state,
                                          double epsilon,
                                          Rng* rng) const override {
    if (fail_selects_) {
      return Status::Internal("deliberate agent failure");
    }
    // Draw exactly one value so remote runs must round-trip the RNG.
    const int offset = 1 + rng->UniformInt(0, 0);
    (void)epsilon;
    sched::Schedule schedule(static_cast<int>(state.assignments.size()),
                             num_machines_);
    for (size_t i = 0; i < state.assignments.size(); ++i) {
      schedule.Assign(static_cast<int>(i),
                      (state.assignments[i] + offset) % num_machines_);
    }
    return rl::PolicyAction(std::move(schedule), 7);
  }

  StatusOr<sched::Schedule> GreedyAction(const rl::State& state) const override {
    sched::Schedule schedule(static_cast<int>(state.assignments.size()),
                             num_machines_);
    for (size_t i = 0; i < state.assignments.size(); ++i) {
      schedule.Assign(static_cast<int>(i),
                      (state.assignments[i] + 1) % num_machines_);
    }
    return schedule;
  }

  void Observe(rl::Transition transition) override {
    observed_.push_back(std::move(transition));
  }
  double TrainStep() override { return static_cast<double>(++train_steps_); }
  Status Save(const std::string& prefix) const override {
    saved_prefix_ = prefix;
    return Status::OK();
  }

  void set_fail_selects(bool fail) { fail_selects_ = fail; }
  const std::vector<rl::Transition>& observed() const { return observed_; }
  int train_steps() const { return train_steps_; }
  const std::string& saved_prefix() const { return saved_prefix_; }

 private:
  int num_machines_;
  bool fail_selects_ = false;
  std::vector<rl::Transition> observed_;
  int train_steps_ = 0;
  mutable std::string saved_prefix_;
};

/// Serves `policy` over one in-process socketpair on a background thread.
class LoopbackAgent {
 public:
  explicit LoopbackAgent(rl::Policy* policy, AgentServerOptions options = {}) {
    auto [client_end, server_end] = net::MakeLoopbackPair().value();
    client_end_ = std::move(client_end);
    server_ = std::make_unique<AgentServer>(policy, options);
    EXPECT_TRUE(server_->AddSession(std::move(server_end)).ok());
    thread_ = std::thread([this] { serve_status_ = server_->Run(); });
  }

  ~LoopbackAgent() {
    server_->Stop();
    if (client_end_) client_end_->Close();
    thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  }

  std::unique_ptr<net::Transport> TakeClientEnd() {
    return std::move(client_end_);
  }

 private:
  std::unique_ptr<net::Transport> client_end_;
  std::unique_ptr<AgentServer> server_;
  std::thread thread_;
  Status serve_status_ = Status::OK();
};

rl::State SmallState() {
  rl::State state;
  state.assignments = {0, 1, 2, 1};
  state.spout_rates = {120.0};
  return state;
}

TEST(ScheduleDiffTest, RoundTripsThroughTheCanonicalBase) {
  rl::State state = SmallState();
  sched::Schedule base = DiffBaseFromState(state, 3);
  sched::Schedule target = base;
  target.Assign(0, 2);
  target.Assign(3, 0);
  target.AssignProcess(3, 1);
  ScheduleDiff diff = MakeScheduleDiff(base, target);
  EXPECT_EQ(diff.entries.size(), 2u);  // only the changed executors travel
  auto rebuilt = ApplyScheduleDiff(base, diff);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(*rebuilt == target);
}

TEST(ScheduleDiffTest, RejectsMismatchedDimensionsAndBadEntries) {
  sched::Schedule base(4, 3);
  ScheduleDiff wrong_dims;
  wrong_dims.num_executors = 5;
  wrong_dims.num_machines = 3;
  EXPECT_FALSE(ApplyScheduleDiff(base, wrong_dims).ok());

  ScheduleDiff bad_entry;
  bad_entry.num_executors = 4;
  bad_entry.num_machines = 3;
  bad_entry.entries = {{99, 0, 0}};
  EXPECT_FALSE(ApplyScheduleDiff(base, bad_entry).ok());
  bad_entry.entries = {{0, 99, 0}};
  EXPECT_FALSE(ApplyScheduleDiff(base, bad_entry).ok());
  bad_entry.entries = {{0, 0, -1}};
  EXPECT_FALSE(ApplyScheduleDiff(base, bad_entry).ok());
}

TEST(ScheduleDiffTest, FromStateMatchesTheMaterializedBase) {
  rl::State state = SmallState();
  sched::Schedule base = DiffBaseFromState(state, 3);
  sched::Schedule target = base;
  target.Assign(1, 0);         // machine change
  target.AssignProcess(2, 1);  // process-only change
  // The implicit-base variant must produce the same diff, byte for byte,
  // as diffing against the materialized base (the server's hot path uses
  // it for every reply).
  const ScheduleDiff via_base = MakeScheduleDiff(base, target);
  const ScheduleDiff via_state = MakeScheduleDiffFromState(state, target);
  net::WireWriter a;
  net::WireWriter b;
  EncodeScheduleDiff(via_base, &a);
  EncodeScheduleDiff(via_state, &b);
  EXPECT_EQ(a.buffer(), b.buffer());
  EXPECT_EQ(via_state.entries.size(), 2u);
}

TEST(RngWireTest, SerializedStateContinuesTheExactDrawSequence) {
  Rng original(424242);
  (void)original.Uniform(0.0, 1.0);  // advance past the seed state
  Rng restored(1);
  ASSERT_TRUE(restored.DeserializeState(original.SerializeState()).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.Uniform(0.0, 1.0), restored.Uniform(0.0, 1.0));
    EXPECT_EQ(original.UniformInt(0, 1000), restored.UniformInt(0, 1000));
  }
  EXPECT_FALSE(restored.DeserializeState("not an engine state").ok());
}

TEST(MasterClientTest, HandshakeReportsTheRemotePolicy) {
  FakePolicy policy(3);
  LoopbackAgent agent(&policy);
  MasterClientOptions options;
  options.num_machines = 3;
  MasterClient client(agent.TakeClientEnd(), options);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.remote_info().policy_name, "fake");
  EXPECT_EQ(client.remote_info().description, "scripted test policy");
  EXPECT_TRUE(client.remote_info().trainable);
  EXPECT_EQ(client.name(), "fake");
  EXPECT_TRUE(client.trainable());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(MasterClientTest, EveryRpcReachesThePolicy) {
  FakePolicy policy(3);
  LoopbackAgent agent(&policy);
  MasterClientOptions options;
  options.num_machines = 3;
  MasterClient client(agent.TakeClientEnd(), options);

  rl::State state = SmallState();
  Rng rng(5);
  Rng shadow(5);
  auto action = client.SelectAction(state, 0.5, &rng);
  ASSERT_TRUE(action.ok());
  EXPECT_EQ(action->move_index, 7);
  // The remote policy rotated every executor one machine to the right.
  for (size_t i = 0; i < state.assignments.size(); ++i) {
    EXPECT_EQ(action->schedule.MachineOf(static_cast<int>(i)),
              (state.assignments[i] + 1) % 3);
  }
  // The client's RNG advanced exactly as an in-process draw would.
  (void)shadow.UniformInt(0, 0);
  EXPECT_EQ(rng.Uniform(0.0, 1.0), shadow.Uniform(0.0, 1.0));

  auto greedy = client.GreedyAction(state);
  ASSERT_TRUE(greedy.ok());
  auto final_schedule = client.FinalSchedule(state);
  ASSERT_TRUE(final_schedule.ok());
  EXPECT_TRUE(*greedy == *final_schedule);  // FakePolicy defaults Final=Greedy

  rl::Transition transition;
  transition.state = state;
  transition.action_assignments = action->schedule.assignments();
  transition.move_index = action->move_index;
  transition.reward = -12.5;
  transition.next_state = state;
  client.Observe(transition);
  EXPECT_EQ(policy.observed().size(), 1u);
  EXPECT_EQ(policy.observed()[0].reward, -12.5);
  EXPECT_EQ(policy.observed()[0].move_index, 7);

  EXPECT_EQ(client.TrainStep(), 1.0);
  EXPECT_EQ(client.TrainStep(), 2.0);
  EXPECT_TRUE(client.Save("/tmp/fake-artifact").ok());
  EXPECT_EQ(policy.saved_prefix(), "/tmp/fake-artifact");
}

TEST(MasterClientTest, RemotePolicyErrorsReproduceVerbatim) {
  FakePolicy policy(3);
  policy.set_fail_selects(true);
  LoopbackAgent agent(&policy);
  MasterClientOptions options;
  options.num_machines = 3;
  MasterClient client(agent.TakeClientEnd(), options);
  Rng rng(5);
  auto action = client.SelectAction(SmallState(), 0.5, &rng);
  ASSERT_FALSE(action.ok());
  // Identical code and message to the in-process call: the degradation
  // path cannot tell a remote failure from a local one.
  EXPECT_EQ(action.status().code(), StatusCode::kInternal);
  EXPECT_EQ(action.status().message(), "deliberate agent failure");
}

TEST(MasterClientTest, DeadTransportFailsWithUnavailableWithoutRetryDelay) {
  FakePolicy policy(3);
  MasterClientOptions options;
  options.num_machines = 3;
  options.max_rpc_attempts = 3;  // retries must short-circuit: no endpoint
  auto [client_end, server_end] = net::MakeLoopbackPair().value();
  server_end->Close();
  MasterClient client(std::move(client_end), options);
  Rng rng(5);
  auto action = client.SelectAction(SmallState(), 0.5, &rng);
  ASSERT_FALSE(action.ok());
  EXPECT_EQ(action.status().code(), StatusCode::kUnavailable);
}

TEST(AgentServerTest, FramesPastTheFairnessCapAreServedWithoutNewBytes) {
  // 200 Pings pipelined before the loop starts reach the server in one
  // read, and the loop takes at most 64 frames per session per iteration.
  // The rest wait in the transport's reassembly buffer, where poll() sees
  // nothing, and no new bytes will come: only the session's carry-over
  // flag gets them served.
  constexpr int kPings = 200;
  FakePolicy policy(3);
  AgentServer server(&policy, {});
  auto [client, server_end] = net::MakeLoopbackPair().value();
  ASSERT_TRUE(server.AddSession(std::move(server_end)).ok());
  for (int i = 0; i < kPings; ++i) {
    PingMessage ping;
    ping.token = static_cast<uint64_t>(i);
    ASSERT_TRUE(client
                    ->Send(net::EncodeFrame(net::MsgType::kPing,
                                            EncodePingMessage(ping)))
                    .ok());
  }
  std::thread server_thread([&server] { (void)server.Run(); });
  std::vector<uint64_t> tokens;
  for (int i = 0; i < kPings; ++i) {
    StatusOr<std::string> raw = client->Recv(5000);
    if (!raw.ok()) break;
    StatusOr<net::Frame> frame = net::DecodeFrame(std::move(*raw));
    if (!frame.ok() || frame->type != net::MsgType::kPong) break;
    StatusOr<PingMessage> pong = DecodePingMessage(frame->payload);
    if (!pong.ok()) break;
    tokens.push_back(pong->token);
  }
  server.Stop();
  server_thread.join();
  std::vector<uint64_t> want(kPings);
  for (int i = 0; i < kPings; ++i) want[static_cast<size_t>(i)] = i;
  EXPECT_EQ(tokens, want) << tokens.size() << " of " << kPings
                          << " Pongs came back";
}

core::MeasurementConfig FastMeasure() {
  core::MeasurementConfig config;
  config.stabilize_ms = 800.0;
  config.num_measurements = 1;
  config.measurement_interval_ms = 200.0;
  return config;
}

struct OnlineRun {
  std::vector<double> rewards;
  std::vector<int> final_assignments;
  int fallbacks = 0;
};

/// The policy_equivalence_test recipe: a fresh small environment, fixed
/// seeds, 6 epochs. `policy` is either the in-process ddpg or the
/// MasterClient stub in front of it.
OnlineRun RunSmallOnline(rl::Policy* policy, int epochs = 6) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  sim::SimOptions sim_options;
  sim_options.seed = 71;
  core::SchedulingEnvironment env(&app.topology, app.workload, cluster,
                                  sim_options, FastMeasure());
  Rng init_rng(13);
  EXPECT_TRUE(env.Reset(sched::Schedule::RandomPacked(
                            app.topology.num_executors(),
                            cluster.num_machines, 4, &init_rng))
                  .ok());
  core::OnlineOptions options;
  options.epochs = epochs;
  options.train_steps_per_epoch = 1;
  options.seed = 17;
  options.reward_cap_ms = 100000.0;
  auto result = core::RunOnline(policy, &env, options);
  EXPECT_TRUE(result.ok());
  OnlineRun run;
  run.rewards = result->rewards;
  run.final_assignments = result->final_schedule.assignments();
  for (const core::DisruptionRecord& d : result->disruptions) {
    if (d.used_fallback) ++run.fallbacks;
  }
  return run;
}

std::unique_ptr<rl::Policy> MakeSmallDdpg(const rl::PolicyContext& context) {
  auto policy = rl::PolicyRegistry::Get().Create("ddpg", context);
  EXPECT_TRUE(policy.ok());
  return std::move(*policy);
}

rl::PolicyContext SmallDdpgContext(const rl::StateEncoder* encoder) {
  rl::PolicyContext context;
  context.encoder = encoder;
  context.ddpg.minibatch_size = 8;
  context.ddpg.replay_capacity = 64;
  context.ddpg.knn_k = 6;
  context.ddpg.reward_shift = -8.0;
  context.ddpg.reward_scale = 2.0;
  return context;
}

TEST(EndToEndTest, RemoteOnlineRunIsBitIdenticalToInProcess) {
  SetGlobalThreadCount(1);
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  rl::StateEncoder encoder(app.topology.num_executors(),
                           cluster.num_machines, app.topology.num_spouts(),
                           core::NominalSpoutRate(app.topology, app.workload));
  rl::PolicyContext context = SmallDdpgContext(&encoder);

  // Two independent ddpg instances with identical seeds: one local, one
  // behind the wire. Every SelectAction / Observe / TrainStep of the
  // remote run crosses the socketpair as encoded frames.
  std::unique_ptr<rl::Policy> local = MakeSmallDdpg(context);
  std::unique_ptr<rl::Policy> served = MakeSmallDdpg(context);
  OnlineRun local_run = RunSmallOnline(local.get());

  LoopbackAgent agent(served.get());
  MasterClientOptions options;
  options.num_machines = cluster.num_machines;
  MasterClient client(agent.TakeClientEnd(), options);
  OnlineRun remote_run = RunSmallOnline(&client);

  ASSERT_EQ(remote_run.rewards.size(), local_run.rewards.size());
  for (size_t i = 0; i < local_run.rewards.size(); ++i) {
    EXPECT_EQ(remote_run.rewards[i], local_run.rewards[i]) << "epoch " << i;
  }
  EXPECT_EQ(remote_run.final_assignments, local_run.final_assignments);
  EXPECT_EQ(remote_run.fallbacks, 0);
  SetGlobalThreadCount(0);
}

TEST(EndToEndTest, AgentKilledMidRunDegradesToTheLastSchedule) {
  SetGlobalThreadCount(1);
  obs::MetricsRegistry::Get().ResetValues();
  obs::SetMetricsEnabled(true);

  FakePolicy policy(10);
  AgentServerOptions server_options;
  server_options.max_requests = 4;  // dies during epoch 2 (3 RPCs/epoch)
  LoopbackAgent agent(&policy, server_options);
  MasterClientOptions options;
  options.num_machines = 10;
  options.max_rpc_attempts = 2;
  options.retry_backoff_ms = 1.0;
  MasterClient client(agent.TakeClientEnd(), options);

  OnlineRun run = RunSmallOnline(&client, 4);
  // The run completes every epoch: once the agent is gone, each decision
  // falls back to keeping the current schedule (PR-2 degradation at the
  // process boundary), so rewards keep flowing.
  EXPECT_EQ(run.rewards.size(), 4u);
  EXPECT_GT(run.fallbacks, 0);

  // The failure is visible in the metrics snapshot: client RPC failures
  // and the control loop's fallback counter both moved.
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  obs::SetMetricsEnabled(false);
  EXPECT_GT(snapshot.counters["ctrl.client.rpcs"], 0);
  EXPECT_GT(snapshot.counters["ctrl.client.failures"], 0);
  EXPECT_GT(snapshot.counters["online.fallbacks"], 0);
  EXPECT_GT(snapshot.counters["ctrl.server.requests"], 0);
  SetGlobalThreadCount(0);
}

TEST(TcpEndToEndTest, FullProtocolOverRealSockets) {
  auto listener_or = net::TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener_or.ok()) << listener_or.status().ToString();
  net::TcpListener* listener = listener_or->get();
  FakePolicy policy(3);
  AgentServer server(&policy, {});
  std::thread server_thread([&] {
    Status served = server.ServeTcp(listener);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  {
    MasterClientOptions options;
    options.num_machines = 3;
    MasterClient client("127.0.0.1", listener->port(), options);
    ASSERT_TRUE(client.Connect().ok());
    EXPECT_EQ(client.remote_info().policy_name, "fake");
    EXPECT_TRUE(client.Ping().ok());
    Rng rng(5);
    auto action = client.SelectAction(SmallState(), 0.5, &rng);
    ASSERT_TRUE(action.ok());
    EXPECT_EQ(action->move_index, 7);
    client.Observe(rl::Transition{});
    EXPECT_EQ(client.TrainStep(), 1.0);
    client.Shutdown();
  }

  // A second client reconnects to the same server (sequential accept loop).
  {
    MasterClientOptions options;
    options.num_machines = 3;
    MasterClient client("127.0.0.1", listener->port(), options);
    EXPECT_TRUE(client.Ping().ok());
  }

  server.Stop();
  listener->Close();
  server_thread.join();
}

TEST(TcpEndToEndTest, ReconnectAfterServerRestartKeepsTheRunBitIdentical) {
  auto listener_or = net::TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener_or.ok()) << listener_or.status().ToString();
  net::TcpListener* listener = listener_or->get();
  FakePolicy policy(3);

  MasterClientOptions options;
  options.num_machines = 3;
  options.max_rpc_attempts = 5;
  options.retry_backoff_ms = 5.0;
  MasterClient client("127.0.0.1", listener->port(), options);

  // `shadow` replays the same decisions against the in-process policy: a
  // failed attempt must not consume a draw, so the remote run stays aligned
  // with the uninterrupted one across the restart.
  Rng rng(21);
  Rng shadow(21);
  auto expect_step = [&](int step) {
    rl::State state = SmallState();
    state.assignments[0] = step % 3;
    auto action = client.SelectAction(state, 0.5, &rng);
    ASSERT_TRUE(action.ok()) << "step " << step << ": "
                             << action.status().ToString();
    auto reference = policy.SelectAction(state, 0.5, &shadow);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(action->schedule.assignments(), reference->schedule.assignments())
        << "step " << step;
    EXPECT_EQ(action->move_index, reference->move_index);
  };

  AgentServer server1(&policy, {});
  std::thread thread1([&] { (void)server1.ServeTcp(listener); });
  for (int step = 0; step < 3; ++step) expect_step(step);

  // Kill the first server generation mid-run. The listener stays bound, so
  // the client's host/port re-dial lands on the replacement server.
  server1.Stop();
  thread1.join();
  AgentServer server2(&policy, {});
  std::thread thread2([&] {
    Status served = server2.ServeTcp(listener);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });
  for (int step = 3; step < 6; ++step) expect_step(step);

  // The RNG streams still agree draw for draw after six round trips and one
  // reconnect: serialized stream state survived both server generations.
  EXPECT_EQ(rng.Uniform(0.0, 1.0), shadow.Uniform(0.0, 1.0));

  server2.Stop();
  listener->Close();
  thread2.join();
}

/// ---- Distributed tracing & live introspection -----------------------------

/// Scoped enable/restore for the global obs switches.
class ScopedObs {
 public:
  ScopedObs(bool metrics, bool trace)
      : metrics_was_(obs::MetricsEnabled()), trace_was_(obs::TraceEnabled()) {
    obs::SetMetricsEnabled(metrics);
    obs::SetTraceEnabled(trace);
  }
  ~ScopedObs() {
    obs::SetMetricsEnabled(metrics_was_);
    obs::SetTraceEnabled(trace_was_);
  }

 private:
  bool metrics_was_;
  bool trace_was_;
};

// Client and server share this process's registry, so every Ping is one
// frame sent by each side: the client's request through Send and the
// server's reply through FlushOutbox's TrySend, the server's only way out.
// The agent is joined before the counters are read, so the server's count
// of its last reply, made after the write returns, is in.
TEST(AgentServerTest, RepliesCountAsFramesSent) {
  ScopedObs obs(/*metrics=*/true, /*trace=*/false);
  const auto counter = [](const char* name) {
    return obs::MetricsRegistry::Get().Snapshot().counters[name];
  };
  const int64_t sent_before = counter("net.frames_sent");
  const int64_t recv_before = counter("net.frames_recv");
  constexpr int kPings = 20;
  {
    FakePolicy policy(3);
    LoopbackAgent agent(&policy);
    MasterClientOptions options;
    options.num_machines = 3;
    MasterClient client(agent.TakeClientEnd(), options);
    ASSERT_TRUE(client.Connect().ok());
    for (int i = 0; i < kPings; ++i) ASSERT_TRUE(client.Ping().ok());
  }
  // The handshake adds one frame each way.
  EXPECT_EQ(counter("net.frames_sent") - sent_before, 2 * (kPings + 1));
  EXPECT_EQ(counter("net.frames_recv") - recv_before, 2 * (kPings + 1));
}

// With metrics on alone (no tracing, slow-RPC log or HTTP endpoint), every
// GetSchedule served records how long it waited for its batch.
TEST(AgentServerTest, MetricsAloneRecordEveryGetSchedulesQueueWait) {
  ScopedObs obs(/*metrics=*/true, /*trace=*/false);
  const auto waits = [] {
    return obs::MetricsRegistry::Get()
        .Snapshot()
        .histograms["ctrl.server.session.queue_wait_us"]
        .count;
  };
  const int64_t before = waits();
  constexpr int kGets = 5;
  {
    FakePolicy policy(3);
    LoopbackAgent agent(&policy);
    MasterClientOptions options;
    options.num_machines = 3;
    MasterClient client(agent.TakeClientEnd(), options);
    Rng rng(5);
    for (int i = 0; i < kGets; ++i) {
      ASSERT_TRUE(client.SelectAction(SmallState(), 0.5, &rng).ok());
    }
  }
  // The Hello is served on its own and waits in no batch.
  EXPECT_EQ(waits() - before, kGets);
}

/// Pulls the integer value of `key` out of the args of the first trace
/// event named `name` in a Chrome trace JSON document. Returns 0 when the
/// event or key is missing (valid ids are never 0).
uint64_t FirstArgValue(const std::string& json, const std::string& name,
                       const std::string& key) {
  const size_t at = json.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return 0;
  const size_t key_at = json.find("\"" + key + "\": ", at);
  if (key_at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + key_at + key.size() + 4, nullptr, 10);
}

TEST(TracePropagationTest, ClientAndServerSpansShareTheTraceId) {
  ScopedObs obs(/*metrics=*/false, /*trace=*/true);
  obs::Tracer::Get().ResetForTest();
  FakePolicy policy(3);
  {
    LoopbackAgent agent(&policy);
    MasterClientOptions options;
    options.num_machines = 3;
    MasterClient client(agent.TakeClientEnd(), options);
    ASSERT_TRUE(client.Connect().ok());
    Rng rng(5);
    ASSERT_TRUE(client.SelectAction(SmallState(), 0.5, &rng).ok());
    EXPECT_TRUE(client.Ping().ok());
    client.Shutdown();
  }
  const std::string json = obs::Tracer::Get().ToJsonString();
  // The client recorded an RPC span; the server recorded the matching
  // request span carrying the same trace id and naming the client span as
  // its parent — the envelope crossed the wire intact.
  const uint64_t trace_id =
      FirstArgValue(json, "rpc.GetScheduleRequest", "trace_id");
  const uint64_t span_id =
      FirstArgValue(json, "rpc.GetScheduleRequest", "span_id");
  ASSERT_NE(trace_id, 0u);
  ASSERT_NE(span_id, 0u);
  EXPECT_EQ(FirstArgValue(json, "agent.GetSchedule", "trace_id"), trace_id);
  EXPECT_EQ(FirstArgValue(json, "agent.GetSchedule", "parent_span"), span_id);
  obs::Tracer::Get().ResetForTest();
}

// The span names and args both sides record for a traced session: the
// handshake's spans are rpc.Hello and agent.Hello, and the client's names
// the session its reply opened.
TEST(TracePropagationTest, SpanNamesAndHandshakeSession) {
  ScopedObs obs(/*metrics=*/false, /*trace=*/true);
  obs::Tracer::Get().ResetForTest();
  FakePolicy policy(3);
  uint64_t session_id = 0;
  {
    LoopbackAgent agent(&policy);
    MasterClientOptions options;
    options.num_machines = 3;
    MasterClient client(agent.TakeClientEnd(), options);
    ASSERT_TRUE(client.Connect().ok());
    session_id = client.remote_info().session_id;
    Rng rng(5);
    ASSERT_TRUE(client.SelectAction(SmallState(), 0.5, &rng).ok());
    client.Observe(rl::Transition{});
    EXPECT_TRUE(client.Ping().ok());
    client.Shutdown();
  }
  const std::string json = obs::Tracer::Get().ToJsonString();
  for (const char* name :
       {"rpc.Hello", "agent.Hello", "rpc.GetScheduleRequest",
        "agent.GetSchedule", "rpc.ObserveRequest", "agent.ObserveRequest",
        "rpc.Ping", "agent.Ping"}) {
    EXPECT_NE(json.find("\"name\": \"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
  ASSERT_NE(session_id, 0u);
  EXPECT_EQ(FirstArgValue(json, "rpc.Hello", "session"), session_id);
  EXPECT_EQ(FirstArgValue(json, "agent.Hello", "session"), session_id);
  EXPECT_EQ(FirstArgValue(json, "agent.GetSchedule", "batch"), 1u);
  obs::Tracer::Get().ResetForTest();
}

/// Checks one raw request frame as it reached the server: version 3 in
/// the header and an all-zero trace envelope.
void ExpectUntracedFrame(const std::string& raw, net::MsgType type) {
  ASSERT_GE(raw.size(), net::kFrameHeaderBytes + net::kTraceEnvelopeBytes);
  EXPECT_EQ(raw.substr(4, 2), std::string("\x03\x00", 2))
      << net::MsgTypeName(type);
  EXPECT_EQ(raw.substr(net::kFrameHeaderBytes, net::kTraceEnvelopeBytes),
            std::string(net::kTraceEnvelopeBytes, '\0'))
      << net::MsgTypeName(type);
  auto frame = net::DecodeFrame(raw);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, type);
}

TEST(TracePropagationTest, TracingOffKeepsV2FramesAndZeroEnvelopes) {
  // With tracing off the client still speaks the one protocol version;
  // only the envelope's ids are zero. This test plays the server by hand
  // on the far end of a socketpair, so it sees the bytes as sent.
  ScopedObs obs(/*metrics=*/false, /*trace=*/false);
  auto [client_end, server_end] = net::MakeLoopbackPair().value();
  MasterClientOptions options;
  options.num_machines = 3;
  MasterClient client(std::move(client_end), options);
  EXPECT_EQ(client.wire_version(), 0);
  Status selected;
  std::thread master([&client, &selected] {
    Rng rng(5);
    selected = client.SelectAction(SmallState(), 0.5, &rng).status();
  });
  // Closing our end fails any RPC still waiting, so the master thread
  // always finishes, even when an assertion below returns early.
  struct JoinOnExit {
    net::Transport* end;
    std::thread* thread;
    ~JoinOnExit() {
      end->Close();
      if (thread->joinable()) thread->join();
    }
  } join_on_exit{server_end.get(), &master};

  StatusOr<std::string> hello = server_end->Recv(10000);
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  ExpectUntracedFrame(*hello, net::MsgType::kHelloRequest);
  HelloResponse body;
  body.policy_name = "hand-played";
  body.session_id = 1;
  ASSERT_TRUE(server_end
                  ->Send(net::EncodeFrame(
                      net::MsgType::kHelloResponse,
                      EncodeHelloResponse(Status::OK(), body)))
                  .ok());

  StatusOr<std::string> get = server_end->Recv(10000);
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  ExpectUntracedFrame(*get, net::MsgType::kGetScheduleRequest);
  ASSERT_TRUE(server_end
                  ->Send(net::EncodeFrame(
                      net::MsgType::kGetScheduleResponse,
                      EncodeGetScheduleResponse(
                          Status::Unavailable("hand-played: no policy"), {})))
                  .ok());
  master.join();
  EXPECT_EQ(selected.code(), StatusCode::kUnavailable) << selected.ToString();
  EXPECT_EQ(client.wire_version(), net::kWireVersion);
}

TEST(WireVersionTest, V2HelloIsRefusedByNameAndTheServerServesOn) {
  auto listener_or = net::TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener_or.ok()) << listener_or.status().ToString();
  net::TcpListener* listener = listener_or->get();
  FakePolicy policy(3);
  AgentServer server(&policy, {});
  std::thread server_thread([&] {
    Status served = server.ServeTcp(listener);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  {
    // A Hello in the old v2 layout: version 2, no trace envelope.
    HelloRequest request;
    request.client_name = "v2-master";
    const std::string body = EncodeHelloRequest(request);
    net::WireWriter v2;
    v2.PutU32(net::kWireMagic);
    v2.PutU16(2);
    v2.PutU16(static_cast<uint16_t>(net::MsgType::kHelloRequest));
    v2.PutU32(static_cast<uint32_t>(body.size()));
    v2.PutBytes(body.data(), body.size());
    auto conn = net::TcpConnect("127.0.0.1", listener->port(), 2000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    ASSERT_TRUE((*conn)->Send(v2.buffer()).ok());
    StatusOr<std::string> reply = (*conn)->Recv(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto frame = net::DecodeFrame(std::move(*reply));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, net::MsgType::kErrorResponse);
    const Status refused = DecodeErrorResponse(frame->payload);
    EXPECT_FALSE(refused.ok());
    EXPECT_NE(refused.message().find("unsupported protocol version 2"),
              std::string::npos)
        << refused.ToString();
    (*conn)->Close();
  }
  {
    // A fresh session on the same server is served as usual.
    MasterClientOptions options;
    options.num_machines = 3;
    MasterClient client("127.0.0.1", listener->port(), options);
    ASSERT_TRUE(client.Connect().ok());
    Rng rng(5);
    EXPECT_TRUE(client.SelectAction(SmallState(), 0.5, &rng).ok());
    EXPECT_TRUE(client.Ping().ok());
    client.Shutdown();
  }

  server.Stop();
  listener->Close();
  server_thread.join();
}

TEST(ClockOffsetTest, PingEstimatesAnOffsetNearZeroInProcess) {
  FakePolicy policy(3);
  LoopbackAgent agent(&policy);
  MasterClientOptions options;
  options.num_machines = 3;
  MasterClient client(agent.TakeClientEnd(), options);
  EXPECT_FALSE(client.EstimatedClockOffsetUs().ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.Ping().ok());
  auto offset = client.EstimatedClockOffsetUs();
  ASSERT_TRUE(offset.ok()) << offset.status().ToString();
  // Client and server share one process (= one tracer epoch), so the
  // estimate must land within the round-trip time of zero; a second is a
  // generous bound for a loopback RPC under any sanitizer.
  EXPECT_LT(std::abs(*offset), 1e6) << *offset << " us";
}

TEST(SlowRpcTest, SlowRequestsAreCounted) {
  ScopedObs obs(/*metrics=*/true, /*trace=*/false);
  const auto before = obs::MetricsRegistry::Get().Snapshot();
  FakePolicy policy(3);
  {
    AgentServerOptions server_options;
    server_options.slow_rpc_ms = 1e-6;  // everything is "slow"
    LoopbackAgent agent(&policy, server_options);
    MasterClientOptions options;
    options.num_machines = 3;
    MasterClient client(agent.TakeClientEnd(), options);
    Rng rng(5);
    ASSERT_TRUE(client.SelectAction(SmallState(), 0.5, &rng).ok());
    ASSERT_TRUE(client.Ping().ok());
    client.Shutdown();
  }
  const auto after = obs::MetricsRegistry::Get().Snapshot();
  const auto count = [](const obs::MetricsSnapshot& snapshot) {
    auto it = snapshot.counters.find("ctrl.server.slow_rpcs");
    return it == snapshot.counters.end() ? int64_t{0} : it->second;
  };
  EXPECT_GT(count(after), count(before));
}

/// Sends `request` verbatim to 127.0.0.1:`port` over a raw socket (the
/// ctrl transports are frame-oriented and would choke on HTTP bytes) and
/// returns everything the server sends back before it closes.
std::string HttpExchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return "";
  }
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// One blocking HTTP/1.0 GET against 127.0.0.1:`port`.
std::string HttpGet(int port, const std::string& target) {
  return HttpExchange(port, "GET " + target + " HTTP/1.0\r\n\r\n");
}

TEST(HttpIntrospectTest, ServesMetricsAndStatuszMidRun) {
  ScopedObs obs(/*metrics=*/true, /*trace=*/false);
  auto listener_or = net::TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener_or.ok()) << listener_or.status().ToString();
  net::TcpListener* listener = listener_or->get();
  FakePolicy policy(3);
  AgentServerOptions server_options;
  server_options.http_port = 0;  // ephemeral
  AgentServer server(&policy, server_options);
  auto http_port = server.BindHttp();
  ASSERT_TRUE(http_port.ok()) << http_port.status().ToString();
  EXPECT_FALSE(server.BindHttp().ok());  // at most once
  std::thread server_thread([&] {
    Status served = server.ServeTcp(listener);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  MasterClientOptions options;
  options.num_machines = 3;
  options.client_name = "introspected-master";
  MasterClient client("127.0.0.1", listener->port(), options);
  ASSERT_TRUE(client.Connect().ok());
  Rng rng(5);
  ASSERT_TRUE(client.SelectAction(SmallState(), 0.5, &rng).ok());

  // Scrape while the session is live: Prometheus text on /metrics...
  const std::string metrics = HttpGet(*http_port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("drlstream_ctrl_server_requests"),
            std::string::npos);

  // ...and the JSON session table on /statusz, naming the live session.
  const std::string statusz = HttpGet(*http_port, "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.0 200"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("application/json"), std::string::npos);
  EXPECT_NE(statusz.find("\"sessions_active\": 1"), std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("\"client\": \"introspected-master\""),
            std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("\"get_schedules\": 1"), std::string::npos);

  // Unknown paths 404; the RPC plane is unaffected by the scrapes.
  EXPECT_NE(HttpGet(*http_port, "/nope").find("HTTP/1.0 404"),
            std::string::npos);
  EXPECT_TRUE(client.Ping().ok());
  client.Shutdown();

  server.Stop();
  listener->Close();
  server_thread.join();
}

/// ---- Pinned observable behaviour ------------------------------------------
///
/// What a peer sees of the server, byte for byte. Each expected reply is
/// built here from the public codecs (its frame type, the request's echoed
/// trace envelope and the status text) and compared whole, in per-session
/// order. A session's requests are pipelined in one write, so GetSchedules
/// share batches with each other and with the failures between them.

const Status& NoPolicyBoundStatus() {
  static const Status status = Status::FailedPrecondition(
      "agent: no policy bound to this session; send Hello with a valid "
      "policy key first");
  return status;
}

/// `payload` without its last byte: a frame that is well-formed but whose
/// body no decoder accepts.
std::string Truncated(const std::string& payload) {
  return payload.substr(0, payload.size() - 1);
}

/// The GetSchedule reply `policy` owes `request`, computed the in-process
/// way: SelectAction / GreedyAction / FinalSchedule against the request
/// state, diffed against the materialized base.
std::string ExpectedScheduleReply(const rl::Policy& policy,
                                  const GetScheduleRequest& request) {
  GetScheduleResponse body;
  StatusOr<sched::Schedule> schedule = Status::Internal("unset");
  switch (request.mode) {
    case ScheduleMode::kExplore: {
      Rng rng(0);
      const Status restored = rng.DeserializeState(request.rng_state);
      if (!restored.ok()) return EncodeGetScheduleResponse(restored, {});
      StatusOr<rl::PolicyAction> action =
          policy.SelectAction(request.state, request.epsilon, &rng);
      if (!action.ok()) return EncodeGetScheduleResponse(action.status(), {});
      body.move_index = action->move_index;
      body.rng_state = rng.SerializeState();
      schedule = std::move(action->schedule);
      break;
    }
    case ScheduleMode::kGreedy:
      schedule = policy.GreedyAction(request.state);
      break;
    case ScheduleMode::kFinal:
      schedule = policy.FinalSchedule(request.state);
      break;
  }
  if (!schedule.ok()) return EncodeGetScheduleResponse(schedule.status(), {});
  body.diff = MakeScheduleDiff(
      DiffBaseFromState(request.state, request.num_machines), *schedule);
  return EncodeGetScheduleResponse(Status::OK(), body);
}

/// A scripted session: the requests to pipeline and the reply frame each
/// must get. A Pong carries the server's clock stamps, so it is rebuilt
/// with the stamps it came back with.
class PinnedSession {
 public:
  void Expect(std::string name, net::MsgType type, const std::string& payload,
              net::MsgType reply_type, std::string reply_payload) {
    const net::TraceContext trace{0xC0DE0000u + steps_.size(),
                                  0x5EED0000u + steps_.size()};
    requests_ += net::EncodeFrame(type, payload, trace);
    steps_.push_back(Step{std::move(name), reply_type,
                          std::move(reply_payload), trace, -1});
  }

  void ExpectPong(std::string name, uint64_t token) {
    PingMessage ping;
    ping.token = token;
    Expect(std::move(name), net::MsgType::kPing, EncodePingMessage(ping),
           net::MsgType::kPong, "");
    steps_.back().pong_token = static_cast<int64_t>(token);
  }

  /// Sends every request in one write, then checks the replies in order.
  void Run(net::Transport* client) const {
    ASSERT_TRUE(client->Send(requests_).ok());
    for (const Step& step : steps_) {
      SCOPED_TRACE(step.name);
      StatusOr<std::string> raw = client->Recv(10000);
      ASSERT_TRUE(raw.ok()) << raw.status().ToString();
      StatusOr<net::Frame> frame = net::DecodeFrame(*raw);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_STREQ(net::MsgTypeName(frame->type),
                   net::MsgTypeName(step.reply_type));
      std::string want = step.reply_payload;
      if (step.pong_token >= 0) {
        StatusOr<PingMessage> pong = DecodePingMessage(frame->payload);
        ASSERT_TRUE(pong.ok()) << pong.status().ToString();
        PingMessage echoed = *pong;
        echoed.token = static_cast<uint64_t>(step.pong_token);
        want = EncodePingMessage(echoed);
      }
      EXPECT_EQ(*raw, net::EncodeFrame(step.reply_type, want, step.trace))
          << "reply status: "
          << (frame->type == net::MsgType::kPong
                  ? std::string("(pong)")
                  : DecodeErrorResponse(frame->payload).ToString());
    }
  }

 private:
  struct Step {
    std::string name;
    net::MsgType reply_type;
    std::string reply_payload;
    net::TraceContext trace;
    int64_t pong_token;  // >= 0: a Pong echoing this token
  };
  std::string requests_;
  std::vector<Step> steps_;
};

rl::Transition PinnedTransition(double reward) {
  rl::Transition transition;
  transition.state = SmallState();
  transition.action_assignments = {1, 2, 0, 2};
  transition.move_index = 1;
  transition.reward = reward;
  transition.next_state = SmallState();
  return transition;
}

/// Every request type after the session has a policy: valid, truncated,
/// and the extra failures (a corrupt RNG state, response types sent as
/// requests, a token-only Ping). `mirror` is an identical policy that
/// replays the same calls in arrival order to compute the replies.
void ScriptBoundSession(rl::Policy* mirror, const std::string& save_prefix,
                        PinnedSession* script) {
  using net::MsgType;
  const rl::State state = SmallState();
  GetScheduleRequest explore;
  explore.mode = ScheduleMode::kExplore;
  explore.num_machines = 3;
  explore.state = state;
  explore.epsilon = 0.5;
  explore.rng_state = Rng(11).SerializeState();
  GetScheduleRequest greedy = explore;
  greedy.mode = ScheduleMode::kGreedy;
  greedy.epsilon = 0.0;
  greedy.rng_state.clear();
  GetScheduleRequest final_request = greedy;
  final_request.mode = ScheduleMode::kFinal;
  GetScheduleRequest corrupt = explore;
  corrupt.rng_state = "not an engine state";

  script->ExpectPong("ping", 1);
  const std::string ping_cut = Truncated(EncodePingMessage(PingMessage{}));
  script->Expect("ping truncated", MsgType::kPing, ping_cut,
                 MsgType::kErrorResponse,
                 EncodeErrorResponse(DecodePingMessage(ping_cut).status()));
  net::WireWriter token_only;
  token_only.PutU64(7);
  script->Expect(
      "ping token only", MsgType::kPing, token_only.buffer(),
      MsgType::kErrorResponse,
      EncodeErrorResponse(DecodePingMessage(token_only.buffer()).status()));

  script->Expect("explore", MsgType::kGetScheduleRequest,
                 EncodeGetScheduleRequest(explore),
                 MsgType::kGetScheduleResponse,
                 ExpectedScheduleReply(*mirror, explore));
  const std::string get_cut = Truncated(EncodeGetScheduleRequest(explore));
  script->Expect(
      "explore truncated", MsgType::kGetScheduleRequest, get_cut,
      MsgType::kGetScheduleResponse,
      EncodeGetScheduleResponse(DecodeGetScheduleRequest(get_cut).status(),
                                {}));
  Rng scratch(0);
  script->Expect(
      "explore corrupt rng", MsgType::kGetScheduleRequest,
      EncodeGetScheduleRequest(corrupt), MsgType::kGetScheduleResponse,
      EncodeGetScheduleResponse(scratch.DeserializeState(corrupt.rng_state),
                                {}));
  script->Expect("greedy", MsgType::kGetScheduleRequest,
                 EncodeGetScheduleRequest(greedy),
                 MsgType::kGetScheduleResponse,
                 ExpectedScheduleReply(*mirror, greedy));
  script->Expect("final", MsgType::kGetScheduleRequest,
                 EncodeGetScheduleRequest(final_request),
                 MsgType::kGetScheduleResponse,
                 ExpectedScheduleReply(*mirror, final_request));

  for (double reward : {-3.0, -4.5}) {
    ObserveRequest observe;
    observe.transition = PinnedTransition(reward);
    script->Expect("observe", MsgType::kObserveRequest,
                   EncodeObserveRequest(observe), MsgType::kObserveResponse,
                   EncodeObserveResponse(Status::OK()));
    mirror->Observe(observe.transition);
  }
  ObserveRequest observe;
  observe.transition = PinnedTransition(-1.0);
  const std::string observe_cut = Truncated(EncodeObserveRequest(observe));
  script->Expect(
      "observe truncated", MsgType::kObserveRequest, observe_cut,
      MsgType::kObserveResponse,
      EncodeObserveResponse(DecodeObserveRequest(observe_cut).status()));

  TrainStepResponse trained;
  trained.loss = mirror->TrainStep();
  script->Expect("train step", MsgType::kTrainStepRequest,
                 EncodeTrainStepRequest(TrainStepRequest{}),
                 MsgType::kTrainStepResponse,
                 EncodeTrainStepResponse(Status::OK(), trained));
  const std::string train_cut =
      Truncated(EncodeTrainStepRequest(TrainStepRequest{}));
  script->Expect(
      "train step truncated", MsgType::kTrainStepRequest, train_cut,
      MsgType::kTrainStepResponse,
      EncodeTrainStepResponse(DecodeTrainStepRequest(train_cut).status(), {}));

  SaveArtifactRequest save;
  save.prefix = save_prefix;
  script->Expect("save", MsgType::kSaveArtifactRequest,
                 EncodeSaveArtifactRequest(save),
                 MsgType::kSaveArtifactResponse,
                 EncodeSaveArtifactResponse(Status::OK()));
  const std::string save_cut = Truncated(EncodeSaveArtifactRequest(save));
  script->Expect(
      "save truncated", MsgType::kSaveArtifactRequest, save_cut,
      MsgType::kSaveArtifactResponse,
      EncodeSaveArtifactResponse(DecodeSaveArtifactRequest(save_cut).status()));

  for (MsgType misuse : {MsgType::kObserveResponse, MsgType::kPong}) {
    script->Expect(std::string("misuse ") + net::MsgTypeName(misuse), misuse,
                   EncodeObserveResponse(Status::OK()),
                   MsgType::kErrorResponse,
                   EncodeErrorResponse(Status::InvalidArgument(
                       std::string("agent: unexpected request type ") +
                       net::MsgTypeName(misuse))));
  }
  // After training: the policy answers from its updated state.
  script->Expect("explore after training", MsgType::kGetScheduleRequest,
                 EncodeGetScheduleRequest(explore),
                 MsgType::kGetScheduleResponse,
                 ExpectedScheduleReply(*mirror, explore));
}

HelloResponse DescribeForHello(const rl::Policy& policy, uint64_t session_id) {
  HelloResponse body;
  body.policy_name = policy.name();
  body.registry_key = policy.registry_key();
  body.description = policy.Describe();
  body.trainable = policy.trainable();
  body.session_id = session_id;
  return body;
}

TEST(PinnedRepliesTest, SharedModeRepliesMatchTheCodecsByteForByte) {
  FakePolicy policy(3);
  FakePolicy mirror(3);
  AgentServer server(&policy, {});
  auto [client, server_end] = net::MakeLoopbackPair().value();
  const StatusOr<uint64_t> id = server.AddSession(std::move(server_end));
  ASSERT_TRUE(id.ok());
  std::thread server_thread([&server] { (void)server.Run(); });

  PinnedSession script;
  HelloRequest hello;
  hello.client_name = "pinned-shared";
  const std::string hello_cut = Truncated(EncodeHelloRequest(hello));
  script.Expect("hello truncated", net::MsgType::kHelloRequest, hello_cut,
                net::MsgType::kHelloResponse,
                EncodeHelloResponse(DecodeHelloRequest(hello_cut).status(),
                                    {}));
  script.Expect("hello", net::MsgType::kHelloRequest,
                EncodeHelloRequest(hello), net::MsgType::kHelloResponse,
                EncodeHelloResponse(Status::OK(),
                                    DescribeForHello(mirror, *id)));
  ScriptBoundSession(&mirror, "/tmp/pinned-shared", &script);
  script.Run(client.get());

  server.Stop();
  server_thread.join();
  EXPECT_EQ(policy.observed().size(), 2u);
  EXPECT_EQ(policy.train_steps(), 1);
}

TEST(PinnedRepliesTest, RegistryModeRepliesMatchTheCodecsByteForByte) {
  SetGlobalThreadCount(1);
  rl::StateEncoder encoder(4, 3, 1, 100.0);
  rl::PolicyContext context;
  context.encoder = &encoder;
  context.dqn.hidden_sizes = {16, 8};
  StatusOr<std::unique_ptr<rl::Policy>> mirror =
      rl::PolicyRegistry::Get().Create("dqn", context);
  ASSERT_TRUE(mirror.ok()) << mirror.status().ToString();
  AgentServer server(&context, "dqn", {});
  auto [client, server_end] = net::MakeLoopbackPair().value();
  const StatusOr<uint64_t> id = server.AddSession(std::move(server_end));
  ASSERT_TRUE(id.ok());
  std::thread server_thread([&server] { (void)server.Run(); });

  using net::MsgType;
  PinnedSession script;
  // Before Hello no policy is bound: policy RPCs fail, Ping still answers.
  // A GetSchedule decodes before it checks the binding; the other policy
  // RPCs check the binding first.
  GetScheduleRequest explore;
  explore.mode = ScheduleMode::kExplore;
  explore.num_machines = 3;
  explore.state = SmallState();
  explore.epsilon = 0.5;
  explore.rng_state = Rng(11).SerializeState();
  script.Expect("unbound explore", MsgType::kGetScheduleRequest,
                EncodeGetScheduleRequest(explore),
                MsgType::kGetScheduleResponse,
                EncodeGetScheduleResponse(NoPolicyBoundStatus(), {}));
  const std::string get_cut = Truncated(EncodeGetScheduleRequest(explore));
  script.Expect(
      "unbound explore truncated", MsgType::kGetScheduleRequest, get_cut,
      MsgType::kGetScheduleResponse,
      EncodeGetScheduleResponse(DecodeGetScheduleRequest(get_cut).status(),
                                {}));
  ObserveRequest observe;
  observe.transition = PinnedTransition(-2.0);
  script.Expect("unbound observe", MsgType::kObserveRequest,
                EncodeObserveRequest(observe), MsgType::kObserveResponse,
                EncodeObserveResponse(NoPolicyBoundStatus()));
  script.Expect("unbound observe truncated", MsgType::kObserveRequest,
                Truncated(EncodeObserveRequest(observe)),
                MsgType::kObserveResponse,
                EncodeObserveResponse(NoPolicyBoundStatus()));
  script.Expect("unbound train step", MsgType::kTrainStepRequest,
                EncodeTrainStepRequest(TrainStepRequest{}),
                MsgType::kTrainStepResponse,
                EncodeTrainStepResponse(NoPolicyBoundStatus(), {}));
  SaveArtifactRequest save;
  save.prefix = "/tmp/pinned-unbound";
  script.Expect("unbound save", MsgType::kSaveArtifactRequest,
                EncodeSaveArtifactRequest(save),
                MsgType::kSaveArtifactResponse,
                EncodeSaveArtifactResponse(NoPolicyBoundStatus()));
  script.ExpectPong("unbound ping", 99);

  HelloRequest hello;
  hello.client_name = "pinned-registry";
  hello.policy_key = "no-such-policy";
  script.Expect(
      "hello unknown key", MsgType::kHelloRequest, EncodeHelloRequest(hello),
      MsgType::kHelloResponse,
      EncodeHelloResponse(
          rl::PolicyRegistry::Get().Create("no-such-policy", context).status(),
          {}));
  hello.policy_key.clear();
  const std::string hello_cut = Truncated(EncodeHelloRequest(hello));
  script.Expect("hello truncated", MsgType::kHelloRequest, hello_cut,
                MsgType::kHelloResponse,
                EncodeHelloResponse(DecodeHelloRequest(hello_cut).status(),
                                    {}));
  const std::string bound = EncodeHelloResponse(
      Status::OK(), DescribeForHello(**mirror, *id));
  script.Expect("hello", MsgType::kHelloRequest, EncodeHelloRequest(hello),
                MsgType::kHelloResponse, bound);
  ScriptBoundSession(mirror->get(), ::testing::TempDir() + "pinned_dqn",
                     &script);
  // A repeated Hello re-describes the bound policy; it never rebinds.
  hello.policy_key = "round-robin";
  script.Expect("hello again", MsgType::kHelloRequest,
                EncodeHelloRequest(hello), MsgType::kHelloResponse, bound);
  script.Run(client.get());

  server.Stop();
  server_thread.join();
  SetGlobalThreadCount(0);
}

TEST(PinnedAdmissionTest, SessionsPastTheLimitAreRefusedAndClosed) {
  auto listener_or = net::TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener_or.ok()) << listener_or.status().ToString();
  net::TcpListener* listener = listener_or->get();
  FakePolicy policy(3);
  AgentServerOptions options;
  options.max_sessions = 1;
  AgentServer server(&policy, options);
  auto [first, first_end] = net::MakeLoopbackPair().value();
  ASSERT_TRUE(server.AddSession(std::move(first_end)).ok());
  std::thread server_thread([&] {
    Status served = server.ServeTcp(listener);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  const auto expect_pong = [](net::Transport* end, uint64_t token) {
    PingMessage ping;
    ping.token = token;
    ASSERT_TRUE(
        end->Send(net::EncodeFrame(net::MsgType::kPing, EncodePingMessage(ping)))
            .ok());
    StatusOr<std::string> raw = end->Recv(10000);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    StatusOr<net::Frame> frame = net::DecodeFrame(std::move(*raw));
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame->type, net::MsgType::kPong);
    StatusOr<PingMessage> pong = DecodePingMessage(frame->payload);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->token, token);
  };
  const std::string refusal = net::EncodeFrame(
      net::MsgType::kErrorResponse,
      EncodeErrorResponse(Status::Unavailable("agent: session limit reached")));
  const auto expect_refused = [&refusal](net::Transport* end) {
    StatusOr<std::string> raw = end->Recv(10000);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_EQ(*raw, refusal);
    EXPECT_EQ(end->Recv(10000).status().code(), StatusCode::kUnavailable);
  };

  // The first session is installed and served before the others arrive.
  expect_pong(first.get(), 1);
  auto [second, second_end] = net::MakeLoopbackPair().value();
  ASSERT_TRUE(server.AddSession(std::move(second_end)).ok());
  expect_refused(second.get());
  auto third = net::TcpConnect("127.0.0.1", listener->port(), 2000);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  expect_refused(third->get());
  expect_pong(first.get(), 2);

  server.Stop();
  listener->Close();
  server_thread.join();
}

TEST(PinnedHttpTest, RejectsBadRequestsAndCountsAScriptedExchange) {
  FakePolicy policy(3);
  AgentServerOptions options;
  options.http_port = 0;
  AgentServer server(&policy, options);
  const StatusOr<int> http_port = server.BindHttp();
  ASSERT_TRUE(http_port.ok()) << http_port.status().ToString();
  auto [client, server_end] = net::MakeLoopbackPair().value();
  ASSERT_TRUE(server.AddSession(std::move(server_end)).ok());
  std::thread server_thread([&server] { (void)server.Run(); });

  // Hello, two Observes and a TrainStep, one at a time.
  HelloRequest hello;
  hello.client_name = "scripted";
  ObserveRequest observe;
  observe.transition = PinnedTransition(-2.0);
  const std::vector<std::string> requests = {
      net::EncodeFrame(net::MsgType::kHelloRequest, EncodeHelloRequest(hello)),
      net::EncodeFrame(net::MsgType::kObserveRequest,
                       EncodeObserveRequest(observe)),
      net::EncodeFrame(net::MsgType::kObserveRequest,
                       EncodeObserveRequest(observe)),
      net::EncodeFrame(net::MsgType::kTrainStepRequest,
                       EncodeTrainStepRequest(TrainStepRequest{}))};
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  for (const std::string& request : requests) {
    ASSERT_TRUE(client->Send(request).ok());
    StatusOr<std::string> reply = client->Recv(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    bytes_in += static_cast<int64_t>(request.size());
    bytes_out += static_cast<int64_t>(reply->size());
  }
  const std::string statusz = HttpGet(*http_port, "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.0 200"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("\"observes\": 2, \"train_steps\": 1, \"bytes_in\": " +
                         std::to_string(bytes_in) + ", \"bytes_out\": " +
                         std::to_string(bytes_out) + ","),
            std::string::npos)
      << statusz << " (want bytes_in " << bytes_in << ", bytes_out "
      << bytes_out << ")";

  const std::string post =
      HttpExchange(*http_port, "POST /statusz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.0 405 Method Not Allowed\r\n", 0), 0u) << post;
  const std::string malformed = HttpExchange(*http_port, "GARBAGE\r\n\r\n");
  EXPECT_EQ(malformed.rfind("HTTP/1.0 400 Bad Request\r\n", 0), 0u)
      << malformed;
  const std::string oversized = HttpExchange(
      *http_port, "GET /" + std::string(HttpIntrospect::kMaxRequestBytes, 'a'));
  EXPECT_EQ(oversized.rfind("HTTP/1.0 400 Bad Request\r\n", 0), 0u)
      << oversized;
  // The endpoint still serves after the rejections.
  EXPECT_NE(HttpGet(*http_port, "/").find("HTTP/1.0 200"), std::string::npos);

  server.Stop();
  server_thread.join();
}

}  // namespace
}  // namespace drlstream::ctrl
