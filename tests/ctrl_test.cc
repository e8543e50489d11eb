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

/// One blocking HTTP/1.0 GET against 127.0.0.1:`port` using raw sockets
/// (the ctrl transports are frame-oriented and would choke on HTTP bytes).
std::string HttpGet(int port, const std::string& target) {
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
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
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

}  // namespace
}  // namespace drlstream::ctrl
