// Micro: multi-session control-plane throughput. One AgentServer event
// loop serves N in-process masters, each on one end of a socketpair
// (net::MakeLoopbackPair: the same stream code as TCP), issuing kExplore
// GetSchedule RPCs; BM_CtrlSchedulesPerSec/N reports completed schedules
// per second.
//
// N = 1 is the *blocking baseline*: a single master doing strict
// send-then-recv ping-pong, which pays a full wakeup round trip (client
// sleeps, server wakes, server sleeps, client wakes) per RPC — the old
// one-connection-at-a-time server's cost model. N >= 16 masters pipeline a
// small window of requests each, so the server drains whole bursts per
// loop iteration and fuses them into batched inference; the wakeup cost
// amortizes across the burst. EXPERIMENTS.md records the rows and the
// 64-master to 1-master ratio.
//
// The policy is deliberately cheap (a scripted FakePolicy-style scheduler):
// the benchmark measures the control plane, not the network forward pass.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ctrl/agent_server.h"
#include "ctrl/messages.h"
#include "net/transport.h"
#include "net/wire.h"
#include "rl/policy.h"

using namespace drlstream;

namespace {

constexpr int kNumExecutors = 30;
constexpr int kNumMachines = 10;

/// Scripted policy: migrates three executors by one machine each and draws
/// one RNG value (so the exploration stream round-trips like the real
/// agents'). Small migrations match the learned policies' behaviour — a
/// decision moves a few executors, not the whole topology — so the reply
/// diff has the realistic handful of entries rather than all N.
class ScriptedPolicy : public rl::Policy {
 public:
  std::string name() const override { return "scripted-bench"; }

  StatusOr<rl::PolicyAction> SelectAction(const rl::State& state,
                                          double epsilon, Rng* rng) const override {
    (void)epsilon;
    const int n = static_cast<int>(state.assignments.size());
    const int first = rng->UniformInt(0, n - 1);
    sched::Schedule schedule(n, kNumMachines);
    for (int i = 0; i < n; ++i) {
      schedule.Assign(i, state.assignments[i]);
    }
    for (int k = 0; k < 3; ++k) {
      const int executor = (first + k) % n;
      schedule.Assign(executor,
                      (state.assignments[executor] + 1) % kNumMachines);
    }
    return rl::PolicyAction(std::move(schedule), 3);
  }

  StatusOr<sched::Schedule> GreedyAction(const rl::State& state) const override {
    sched::Schedule schedule(static_cast<int>(state.assignments.size()),
                             kNumMachines);
    for (size_t i = 0; i < state.assignments.size(); ++i) {
      schedule.Assign(static_cast<int>(i), state.assignments[i]);
    }
    return schedule;
  }
};

std::string MakeRequestFrame() {
  Rng state_rng(42);
  ctrl::GetScheduleRequest request;
  request.mode = ctrl::ScheduleMode::kExplore;
  request.num_machines = kNumMachines;
  request.epsilon = 0.0;
  request.state.assignments.resize(kNumExecutors);
  for (int& a : request.state.assignments) {
    a = state_rng.UniformInt(0, kNumMachines - 1);
  }
  request.state.spout_rates = {120.0, 240.0, 360.0};
  Rng explore_rng(7);
  // Advance past the twist boundary: a freshly seeded engine regenerates
  // all 312 state words on its first draw, so replaying an unadvanced
  // state would make every request pay a full twist for its one draw —
  // steady-state masters twist once per 312 draws, not once per request.
  (void)explore_rng.UniformInt(0, 1);
  request.rng_state = explore_rng.SerializeState();
  return net::EncodeFrame(net::MsgType::kGetScheduleRequest,
                          ctrl::EncodeGetScheduleRequest(request));
}

}  // namespace

/// arg0 = number of concurrent masters. items/sec == schedules/sec.
static void BM_CtrlSchedulesPerSec(benchmark::State& state) {
  const int masters = static_cast<int>(state.range(0));
  // Pipelining window per master: 1 for the blocking baseline, a fixed
  // burst of 32 otherwise. The window must not shrink as masters grow —
  // a starved window re-introduces the per-RPC wakeup round trip the
  // pipelined rows exist to amortize, so the high-master rows would
  // measure scheduling latency instead of control-plane throughput.
  const int window = masters == 1 ? 1 : 32;

  ScriptedPolicy policy;
  ctrl::AgentServerOptions options;
  options.poll_timeout_ms = 200;
  ctrl::AgentServer server(&policy, options);

  std::vector<std::unique_ptr<net::Transport>> clients;
  clients.reserve(static_cast<size_t>(masters));
  for (int i = 0; i < masters; ++i) {
    auto pair = net::MakeLoopbackPair();
    if (!pair.ok()) {
      state.SkipWithError(pair.status().ToString().c_str());
      return;
    }
    clients.push_back(std::move(pair->first));
    auto added = server.AddSession(std::move(pair->second));
    if (!added.ok()) {
      state.SkipWithError(added.status().ToString().c_str());
      return;
    }
  }
  std::thread server_thread([&server] { (void)server.Run(); });

  const std::string request = MakeRequestFrame();
  std::vector<int> outstanding(static_cast<size_t>(masters), 0);

  // Prime the windows (the baseline keeps zero outstanding and does a
  // strict send/recv per iteration instead).
  if (masters > 1) {
    for (int i = 0; i < masters; ++i) {
      for (int w = 0; w < window; ++w) {
        if (clients[static_cast<size_t>(i)]->Send(request).ok()) {
          ++outstanding[static_cast<size_t>(i)];
        }
      }
    }
  }

  int turn = 0;
  bool failed = false;
  for (auto _ : state) {
    net::Transport* client = clients[static_cast<size_t>(turn)].get();
    if (masters == 1) {
      if (!client->Send(request).ok()) {
        failed = true;
        break;
      }
    }
    StatusOr<std::string> raw = client->Recv(10000);
    if (!raw.ok()) {
      failed = true;
      break;
    }
    benchmark::DoNotOptimize(raw->size());
    if (masters > 1) {
      // Refill the window on the master we just completed.
      if (!client->Send(request).ok()) {
        failed = true;
        break;
      }
      turn = (turn + 1) % masters;
    }
  }
  if (failed) state.SkipWithError("control-plane RPC failed");
  state.SetItemsProcessed(state.iterations());
  state.counters["masters"] = masters;
  state.counters["window"] = window;

  // Drain the windows so the server sees clean hangups, then stop it.
  for (int i = 0; i < masters; ++i) {
    while (outstanding[static_cast<size_t>(i)] > 0) {
      if (!clients[static_cast<size_t>(i)]->Recv(10000).ok()) break;
      --outstanding[static_cast<size_t>(i)];
    }
    clients[static_cast<size_t>(i)]->Close();
  }
  server.Stop();
  server_thread.join();
}
// Real time, not CPU time: the bench thread spends most of its life
// blocked in Recv while the server thread does the work, and the
// schedules/sec claim is a wall-clock claim.
BENCHMARK(BM_CtrlSchedulesPerSec)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->UseRealTime();

BENCHMARK_MAIN();
