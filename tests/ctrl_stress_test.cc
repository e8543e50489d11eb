// Concurrency battery for the multi-session AgentServer (ISSUE 7): ~100
// in-process masters, each on a socketpair end, hammering one event loop
// with distinctive request streams. Pinned here: no reply is lost or
// misrouted under concurrency; serving N sessions together is
// bit-identical to serving each alone; batched inference is
// byte-identical to serving one request at a time, at several thread
// counts; and Stop() mid-RPC shuts down cleanly (peers see kUnavailable,
// never a hang). Runs in the slow tier and under ASan and TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ctrl/agent_server.h"
#include "ctrl/master_client.h"
#include "ctrl/messages.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/dqn_agent.h"
#include "rl/policy.h"
#include "rl/policy_registry.h"
#include "rl/state.h"
#include "sched/schedule.h"
#include "sim/cluster_sim.h"
#include "topo/cluster.h"
#include "topo/topology.h"
#include "topo/workload.h"

namespace drlstream::ctrl {
namespace {

constexpr int kNumExecutors = 12;
constexpr int kNumMachines = 10;

/// Deterministic scripted policy: rotates every executor one machine to
/// the right and draws exactly once from the exploration stream. The reply
/// is a pure function of the request state, which is what lets the
/// misrouting test attribute every response to its master.
class RotatePolicy : public rl::Policy {
 public:
  std::string name() const override { return "rotate"; }

  StatusOr<rl::PolicyAction> SelectAction(const rl::State& state, double,
                                          Rng* rng) const override {
    const int offset = 1 + rng->UniformInt(0, 0);
    sched::Schedule schedule(static_cast<int>(state.assignments.size()),
                             kNumMachines);
    for (size_t i = 0; i < state.assignments.size(); ++i) {
      schedule.Assign(static_cast<int>(i),
                      (state.assignments[i] + offset) % kNumMachines);
    }
    return rl::PolicyAction(std::move(schedule), 7);
  }

  StatusOr<sched::Schedule> GreedyAction(const rl::State& state) const override {
    sched::Schedule schedule(static_cast<int>(state.assignments.size()),
                             kNumMachines);
    for (size_t i = 0; i < state.assignments.size(); ++i) {
      schedule.Assign(static_cast<int>(i),
                      (state.assignments[i] + 1) % kNumMachines);
    }
    return schedule;
  }
};

/// The distinctive request state of master `index`: no two masters share
/// an assignment vector, so a reply routed to the wrong session shows up
/// as a schedule that does not match the sender's state.
rl::State StateForMaster(int index, int step = 0) {
  rl::State state;
  state.assignments.resize(kNumExecutors);
  for (int j = 0; j < kNumExecutors; ++j) {
    state.assignments[j] = (index * 7 + step * 3 + j) % kNumMachines;
  }
  state.spout_rates = {100.0 + index};
  return state;
}

AgentServerOptions FastOptions() {
  AgentServerOptions options;
  options.poll_timeout_ms = 50;
  return options;
}

TEST(CtrlStressTest, HundredMastersNoLostOrMisroutedReplies) {
  constexpr int kMasters = 100;
  constexpr int kRpcsPerMaster = 20;

  RotatePolicy policy;
  AgentServer server(&policy, FastOptions());
  std::vector<std::unique_ptr<net::Transport>> ends;
  ends.reserve(kMasters);
  for (int i = 0; i < kMasters; ++i) {
    auto [client_end, server_end] = net::MakeLoopbackPair().value();
    ASSERT_TRUE(server.AddSession(std::move(server_end)).ok());
    ends.push_back(std::move(client_end));
  }
  std::thread server_thread([&server] {
    Status run = server.Run();
    EXPECT_TRUE(run.ok()) << run.ToString();
  });

  std::atomic<int> good_replies{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> masters;
  masters.reserve(kMasters);
  for (int i = 0; i < kMasters; ++i) {
    masters.emplace_back([&, i] {
      MasterClientOptions options;
      options.num_machines = kNumMachines;
      options.client_name = "stress-" + std::to_string(i);
      MasterClient client(std::move(ends[static_cast<size_t>(i)]), options);
      Rng rng(1000 + i);
      Rng shadow(1000 + i);
      for (int step = 0; step < kRpcsPerMaster; ++step) {
        const rl::State state = StateForMaster(i, step);
        auto action = client.SelectAction(state, 0.5, &rng);
        if (!action.ok()) {
          ++failures;
          return;
        }
        // The reply must be *this* master's: the rotation of its own
        // distinctive state, with RotatePolicy's move index.
        bool routed_right = action->move_index == 7;
        for (int j = 0; j < kNumExecutors; ++j) {
          routed_right &= action->schedule.MachineOf(j) ==
                          (state.assignments[j] + 1) % kNumMachines;
        }
        // And the RNG advanced by exactly the remote policy's one draw.
        (void)shadow.UniformInt(0, 0);
        routed_right &= rng.Uniform(0.0, 1.0) == shadow.Uniform(0.0, 1.0);
        if (!routed_right) {
          ++failures;
          return;
        }
        ++good_replies;
      }
      if (!client.Ping().ok()) ++failures;
    });
  }
  for (std::thread& t : masters) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(good_replies.load(), kMasters * kRpcsPerMaster);

  server.Stop();
  server_thread.join();
}

/// One session's scripted run: every SelectAction result plus the RNG
/// stream position after it, in order.
struct SessionTrace {
  std::vector<std::vector<int>> assignments;
  std::vector<int> move_indices;
  std::vector<double> rng_probes;
};

bool operator==(const SessionTrace& a, const SessionTrace& b) {
  return a.assignments == b.assignments && a.move_indices == b.move_indices &&
         a.rng_probes == b.rng_probes;
}

rl::PolicyContext DqnContext(const rl::StateEncoder* encoder) {
  rl::PolicyContext context;
  context.encoder = encoder;
  context.dqn.hidden_sizes = {16, 8};
  return context;
}

/// Runs master `index`'s scripted trace against `transport`.
SessionTrace RunTrace(int index, std::unique_ptr<net::Transport> transport) {
  MasterClientOptions options;
  options.num_machines = kNumMachines;
  MasterClient client(std::move(transport), options);
  SessionTrace trace;
  Rng rng(5000 + index);
  for (int step = 0; step < 5; ++step) {
    auto action = client.SelectAction(StateForMaster(index, step), 0.25, &rng);
    EXPECT_TRUE(action.ok()) << action.status().ToString();
    if (!action.ok()) return trace;
    trace.assignments.push_back(action->schedule.assignments());
    trace.move_indices.push_back(action->move_index);
    trace.rng_probes.push_back(rng.Uniform(0.0, 1.0));
  }
  return trace;
}

TEST(CtrlStressTest, ServedTogetherIsBitIdenticalToServedAlone) {
  SetGlobalThreadCount(1);
  constexpr int kMasters = 8;
  rl::StateEncoder encoder(kNumExecutors, kNumMachines, 1, 100.0);
  rl::PolicyContext context = DqnContext(&encoder);

  // Together: one registry-mode server, every session gets its own dqn
  // instance (identical seeds, so sessions are comparable runs).
  std::vector<SessionTrace> together(kMasters);
  {
    AgentServer server(&context, "dqn", FastOptions());
    std::vector<std::unique_ptr<net::Transport>> ends;
    for (int i = 0; i < kMasters; ++i) {
      auto [client_end, server_end] = net::MakeLoopbackPair().value();
      ASSERT_TRUE(server.AddSession(std::move(server_end)).ok());
      ends.push_back(std::move(client_end));
    }
    std::thread server_thread([&server] { (void)server.Run(); });
    std::vector<std::thread> masters;
    for (int i = 0; i < kMasters; ++i) {
      masters.emplace_back([&, i] {
        together[static_cast<size_t>(i)] =
            RunTrace(i, std::move(ends[static_cast<size_t>(i)]));
      });
    }
    for (std::thread& t : masters) t.join();
    server.Stop();
    server_thread.join();
  }

  // Alone: each master re-runs its exact trace as the only session of a
  // fresh server. Concurrent serving must not have changed a single bit.
  for (int i = 0; i < kMasters; ++i) {
    AgentServer server(&context, "dqn", FastOptions());
    auto [client_end, server_end] = net::MakeLoopbackPair().value();
    ASSERT_TRUE(server.AddSession(std::move(server_end)).ok());
    std::thread server_thread([&server] { (void)server.Run(); });
    const SessionTrace alone = RunTrace(i, std::move(client_end));
    server.Stop();
    server_thread.join();
    EXPECT_TRUE(alone == together[static_cast<size_t>(i)]) << "master " << i;
  }
  SetGlobalThreadCount(0);
}

std::string MakeExploreFrame(int master, int step, bool traced = false) {
  GetScheduleRequest request;
  request.mode = ScheduleMode::kExplore;
  request.num_machines = kNumMachines;
  request.state = StateForMaster(master, step);
  request.epsilon = 0.25;
  Rng rng(9000 + master * 100 + step);
  request.rng_state = rng.SerializeState();
  net::TraceContext trace;
  if (traced) {
    // Fixed per-request ids, so repeated runs produce identical frames and
    // reply bytes (which echo the envelope) can be compared byte for byte.
    trace.trace_id = 0xABC0000u + static_cast<uint64_t>(master);
    trace.span_id = 0xDEF0000u + static_cast<uint64_t>(master * 100 + step);
  }
  return net::EncodeFrame(net::MsgType::kGetScheduleRequest,
                          EncodeGetScheduleRequest(request), trace);
}

/// Scoped enable/restore for the global obs switches (the parity anchors
/// below must hold with full observability on, not just in the quiet
/// default configuration).
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

/// Collects the raw reply bytes each master receives from a shared-policy
/// dqn server. `pipelined`: every master sends its whole window before the
/// server starts, so real cross-session batches form in the first loop
/// iterations. Otherwise the masters send one request at a time and wait
/// for its reply, so every batch has width 1: the sequential reference.
/// Needs metrics on, to check those batch widths.
std::vector<std::vector<std::string>> ServeRawWindows(
    const rl::PolicyContext& context, bool pipelined, int masters,
    int window, bool traced = false) {
  obs::MetricsRegistry::Get().ResetValues();
  rl::DqnAgent policy(*context.encoder, context.dqn);
  AgentServer server(&policy, FastOptions());
  std::vector<std::unique_ptr<net::Transport>> ends;
  for (int i = 0; i < masters; ++i) {
    auto [client_end, server_end] = net::MakeLoopbackPair().value();
    EXPECT_TRUE(server.AddSession(std::move(server_end)).ok());
    ends.push_back(std::move(client_end));
  }
  const auto send = [&](int i, int step) {
    EXPECT_TRUE(ends[static_cast<size_t>(i)]
                    ->Send(MakeExploreFrame(i, step, traced))
                    .ok());
  };
  std::vector<std::vector<std::string>> replies(
      static_cast<size_t>(masters));
  const auto recv = [&](int i, int step) {
    auto raw = ends[static_cast<size_t>(i)]->Recv(10000);
    EXPECT_TRUE(raw.ok()) << "master " << i << " step " << step;
    if (raw.ok()) replies[static_cast<size_t>(i)].push_back(std::move(*raw));
    return raw.ok();
  };
  if (pipelined) {
    for (int i = 0; i < masters; ++i) {
      for (int step = 0; step < window; ++step) send(i, step);
    }
  }
  std::thread server_thread([&server] { (void)server.Run(); });
  for (int i = 0; i < masters; ++i) {
    for (int step = 0; step < window; ++step) {
      if (!pipelined) send(i, step);
      if (!recv(i, step)) break;
    }
  }
  server.Stop();
  server_thread.join();
  const double widest = obs::MetricsRegistry::Get()
                            .Snapshot()
                            .histograms["ctrl.server.batch_size"]
                            .max;
  if (pipelined) {
    EXPECT_GT(widest, 1.0) << "the pipelined windows were never fused";
  } else {
    EXPECT_EQ(widest, 1.0);
  }
  return replies;
}

TEST(CtrlStressTest, BatchedInferenceIsByteIdenticalToSequential) {
  ScopedObs obs(/*metrics=*/true, /*trace=*/false);
  constexpr int kMasters = 12;
  constexpr int kWindow = 8;
  rl::StateEncoder encoder(kNumExecutors, kNumMachines, 1, 100.0);
  rl::PolicyContext context = DqnContext(&encoder);

  // The determinism contract must hold at every GEMM parallelism level:
  // ForwardBatch rows match Forward() bitwise regardless of thread count.
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    const auto batched = ServeRawWindows(context, true, kMasters, kWindow);
    const auto sequential = ServeRawWindows(context, false, kMasters, kWindow);
    ASSERT_EQ(batched.size(), sequential.size());
    for (int i = 0; i < kMasters; ++i) {
      EXPECT_EQ(batched[static_cast<size_t>(i)],
                sequential[static_cast<size_t>(i)])
          << "threads " << threads << " master " << i;
    }
  }
  SetGlobalThreadCount(0);
}

TEST(CtrlStressTest, BatchedParityHoldsWithTracingAndV3Envelopes) {
  // The tracing instrumentation must be a pure observer: with metrics +
  // tracing enabled and every request carrying a non-zero trace envelope,
  // the reply bytes (which echo that envelope) must still be
  // byte-identical between batched and sequential serving.
  ScopedObs obs(/*metrics=*/true, /*trace=*/true);
  constexpr int kMasters = 8;
  constexpr int kWindow = 6;
  rl::StateEncoder encoder(kNumExecutors, kNumMachines, 1, 100.0);
  rl::PolicyContext context = DqnContext(&encoder);
  SetGlobalThreadCount(2);
  const auto batched =
      ServeRawWindows(context, true, kMasters, kWindow, /*traced=*/true);
  const auto sequential =
      ServeRawWindows(context, false, kMasters, kWindow, /*traced=*/true);
  ASSERT_EQ(batched.size(), sequential.size());
  for (int i = 0; i < kMasters; ++i) {
    EXPECT_EQ(batched[static_cast<size_t>(i)],
              sequential[static_cast<size_t>(i)])
        << "master " << i;
  }
  // Every reply echoed its request's envelope.
  for (int i = 0; i < kMasters; ++i) {
    for (int step = 0; step < kWindow; ++step) {
      auto frame = net::DecodeFrame(
          batched[static_cast<size_t>(i)][static_cast<size_t>(step)]);
      ASSERT_TRUE(frame.ok());
      EXPECT_EQ(frame->trace.trace_id,
                0xABC0000u + static_cast<uint64_t>(i));
      EXPECT_EQ(frame->trace.span_id,
                0xDEF0000u + static_cast<uint64_t>(i * 100 + step));
    }
  }
  SetGlobalThreadCount(0);
  obs::Tracer::Get().ResetForTest();
}

TEST(CtrlStressTest, ServedTogetherParityHoldsWithTracingOn) {
  ScopedObs obs(/*metrics=*/true, /*trace=*/true);
  SetGlobalThreadCount(1);
  constexpr int kMasters = 4;
  rl::StateEncoder encoder(kNumExecutors, kNumMachines, 1, 100.0);
  rl::PolicyContext context = DqnContext(&encoder);

  std::vector<SessionTrace> together(kMasters);
  {
    AgentServer server(&context, "dqn", FastOptions());
    std::vector<std::unique_ptr<net::Transport>> ends;
    for (int i = 0; i < kMasters; ++i) {
      auto [client_end, server_end] = net::MakeLoopbackPair().value();
      ASSERT_TRUE(server.AddSession(std::move(server_end)).ok());
      ends.push_back(std::move(client_end));
    }
    std::thread server_thread([&server] { (void)server.Run(); });
    std::vector<std::thread> masters;
    for (int i = 0; i < kMasters; ++i) {
      masters.emplace_back([&, i] {
        together[static_cast<size_t>(i)] =
            RunTrace(i, std::move(ends[static_cast<size_t>(i)]));
      });
    }
    for (std::thread& t : masters) t.join();
    server.Stop();
    server_thread.join();
  }

  for (int i = 0; i < kMasters; ++i) {
    AgentServer server(&context, "dqn", FastOptions());
    auto [client_end, server_end] = net::MakeLoopbackPair().value();
    ASSERT_TRUE(server.AddSession(std::move(server_end)).ok());
    std::thread server_thread([&server] { (void)server.Run(); });
    const SessionTrace alone = RunTrace(i, std::move(client_end));
    server.Stop();
    server_thread.join();
    EXPECT_TRUE(alone == together[static_cast<size_t>(i)]) << "master " << i;
  }
  SetGlobalThreadCount(0);
  obs::Tracer::Get().ResetForTest();
}

/// A 12-executor spout->bolt chain for the multi-tenant serving test.
topo::Topology TenantChainTopology() {
  topo::Topology topology("chain");
  topo::Component spout;
  spout.name = "spout";
  spout.parallelism = 4;
  spout.service_mean_ms = 0.01;
  spout.service_cv = 0.0;
  spout.tuple_bytes = 64;
  spout.emit_factor = 1.0;
  topo::Component bolt;
  bolt.name = "bolt";
  bolt.parallelism = 8;
  bolt.service_mean_ms = 0.2;
  bolt.service_cv = 0.0;
  bolt.emit_factor = 0.0;
  bolt.tuple_bytes = 64;
  const int s = topology.AddSpout(spout);
  const int b = topology.AddBolt(bolt);
  EXPECT_TRUE(topology.Connect(s, b, topo::Grouping::kShuffle).ok());
  return topology;
}

/// Sixteen masters, one tenant each, all sharing ONE cluster simulator and
/// ONE agent event loop: each control epoch, every master concurrently asks
/// the server for its tenant's next schedule (built from the tenant's live
/// deployment on the shared sim), then a single driver applies the replies
/// tenant by tenant and advances the shared-contention simulation. Pinned:
/// no reply is lost or misrouted (each tenant's deployment ends exactly
/// where its own decision stream steers it), and per-tenant root
/// accounting on the shared substrate stays conserved.
TEST(CtrlStressTest, SixteenTenantsOneClusterSimNoMisroutedSchedules) {
  constexpr int kTenants = 16;
  constexpr int kEpochs = 6;

  const topo::Topology topology = TenantChainTopology();
  topo::Workload workload;
  workload.SetBaseRate(0, 400.0);
  topo::ClusterConfig cluster;
  cluster.num_machines = kNumMachines;
  cluster.cores_per_machine = 2;

  sim::SimOptions sim_options;
  sim_options.seed = 53;
  sim::ClusterSim sim(cluster, sim_options);
  std::vector<std::vector<int>> initial(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    sched::Schedule schedule(topology.num_executors(), kNumMachines);
    schedule.set_tenant(t);
    initial[static_cast<size_t>(t)].resize(
        static_cast<size_t>(topology.num_executors()));
    for (int j = 0; j < topology.num_executors(); ++j) {
      const int machine = (t * 3 + j) % kNumMachines;
      schedule.Assign(j, machine);
      initial[static_cast<size_t>(t)][static_cast<size_t>(j)] = machine;
    }
    auto added = sim.AddTenant(&topology, &workload, schedule);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    ASSERT_EQ(*added, t);
  }
  ASSERT_TRUE(sim.Start().ok());

  RotatePolicy policy;
  AgentServer server(&policy, FastOptions());
  std::vector<std::unique_ptr<MasterClient>> clients;
  clients.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    auto [client_end, server_end] = net::MakeLoopbackPair().value();
    ASSERT_TRUE(server.AddSession(std::move(server_end)).ok());
    MasterClientOptions options;
    options.num_machines = kNumMachines;
    options.client_name = "tenant-" + std::to_string(t);
    clients.push_back(
        std::make_unique<MasterClient>(std::move(client_end), options));
  }
  std::thread server_thread([&server] {
    Status run = server.Run();
    EXPECT_TRUE(run.ok()) << run.ToString();
  });

  std::atomic<int> failures{0};
  std::vector<Rng> rngs;
  rngs.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) rngs.emplace_back(4000 + t);
  std::vector<sched::Schedule> decided(
      static_cast<size_t>(kTenants),
      sched::Schedule(topology.num_executors(), kNumMachines));

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    // All sixteen masters ask concurrently; the sim is quiescent while the
    // RPCs are in flight (each thread only reads its own tenant's state).
    std::vector<std::thread> masters;
    masters.reserve(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      masters.emplace_back([&, t] {
        rl::State state;
        state.tenant = t;
        state.assignments = sim.TenantSchedule(t).assignments();
        state.spout_rates = {100.0 + t};
        state.machine_up = sim.MachineUpMask();
        auto action =
            clients[static_cast<size_t>(t)]->SelectAction(state, 0.5,
                                                          &rngs[t]);
        if (!action.ok()) {
          ++failures;
          return;
        }
        // The reply must be *this* tenant's: the +1 rotation of its own
        // live deployment.
        bool routed_right = action->move_index == 7;
        for (int j = 0; j < topology.num_executors(); ++j) {
          routed_right &= action->schedule.MachineOf(j) ==
                          (state.assignments[j] + 1) % kNumMachines;
        }
        if (!routed_right) {
          ++failures;
          return;
        }
        // The master owns the session->tenant mapping: it stamps its
        // tenant onto the decided schedule before deployment.
        decided[static_cast<size_t>(t)] = action->schedule;
        decided[static_cast<size_t>(t)].set_tenant(t);
      });
    }
    for (std::thread& thread : masters) thread.join();
    ASSERT_EQ(failures.load(), 0) << "epoch " << epoch;
    // One driver applies every tenant's decision to the shared sim and
    // advances shared-contention time.
    for (int t = 0; t < kTenants; ++t) {
      ASSERT_TRUE(sim.Migrate(t, decided[static_cast<size_t>(t)]).ok());
    }
    sim.RunFor(200.0);
  }

  server.Stop();
  server_thread.join();

  for (int t = 0; t < kTenants; ++t) {
    // End-to-end routing proof: after kEpochs epochs, tenant t's deployment
    // is its own distinctive initial schedule rotated kEpochs times — one
    // misrouted or lost schedule anywhere would leave it elsewhere.
    const sched::Schedule& deployed = sim.TenantSchedule(t);
    EXPECT_EQ(deployed.tenant(), t);
    for (int j = 0; j < topology.num_executors(); ++j) {
      EXPECT_EQ(deployed.MachineOf(j),
                (initial[static_cast<size_t>(t)][static_cast<size_t>(j)] +
                 kEpochs) %
                    kNumMachines)
          << "tenant " << t << " executor " << j;
    }
    // Per-tenant accounting on the shared substrate stays conserved.
    const sim::SimCounters& counters = sim.TenantCounters(t);
    EXPECT_GT(counters.roots_emitted, 0) << "tenant " << t;
    EXPECT_EQ(counters.roots_emitted,
              counters.roots_completed + counters.roots_failed +
                  sim.TenantInflightRoots(t))
        << "tenant " << t;
    EXPECT_GT(counters.migrations, 0) << "tenant " << t;
  }
}

TEST(CtrlStressTest, StopMidRpcShutsDownCleanly) {
  constexpr int kMasters = 32;
  RotatePolicy policy;
  AgentServer server(&policy, FastOptions());
  std::vector<std::unique_ptr<net::Transport>> ends;
  for (int i = 0; i < kMasters; ++i) {
    auto [client_end, server_end] = net::MakeLoopbackPair().value();
    ASSERT_TRUE(server.AddSession(std::move(server_end)).ok());
    ends.push_back(std::move(client_end));
  }
  std::thread server_thread([&server] {
    Status run = server.Run();
    EXPECT_TRUE(run.ok()) << run.ToString();
  });

  std::atomic<int> completed_rpcs{0};
  std::atomic<bool> hung{false};
  std::vector<std::thread> masters;
  for (int i = 0; i < kMasters; ++i) {
    masters.emplace_back([&, i] {
      MasterClientOptions options;
      options.num_machines = kNumMachines;
      options.max_rpc_attempts = 1;  // a dead server must not stall retries
      MasterClient client(std::move(ends[static_cast<size_t>(i)]), options);
      Rng rng(77 + i);
      for (int step = 0; step < 1000000; ++step) {
        auto action = client.SelectAction(StateForMaster(i, step), 0.5, &rng);
        if (action.ok()) {
          ++completed_rpcs;
          continue;
        }
        // Stop() mid-RPC surfaces as kUnavailable (or, at worst, one
        // deadline at the RPC timeout) — anything else is a wedged client.
        if (action.status().code() != StatusCode::kUnavailable &&
            action.status().code() != StatusCode::kDeadlineExceeded) {
          hung.store(true);
        }
        return;
      }
    });
  }
  // Let every master get real work through before pulling the plug, so the
  // Stop lands mid-traffic rather than before it.
  while (completed_rpcs.load() < kMasters * 3) {
    std::this_thread::yield();
  }
  server.Stop();
  for (std::thread& t : masters) t.join();
  server_thread.join();
  EXPECT_FALSE(hung.load());
  EXPECT_GE(completed_rpcs.load(), kMasters * 3);
}

}  // namespace
}  // namespace drlstream::ctrl
