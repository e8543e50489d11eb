// The master side of the networked control plane: runs the full online
// learning loop (core::RunOnline) against a remote agent_server, with the
// remote agent standing in as the rl::Policy. Every SelectAction /
// Observe / TrainStep crosses the wire; schedules come back as incremental
// diffs; the exploration RNG round-trips through the agent so the run is
// bit-identical to an in-process one.
//
//   ./agent_server --port=0 &            # prints "listening on PORT"
//   ./master_client --connect=127.0.0.1:PORT [--epochs=6] [--seed=S]
//                   [--agent-seed=S] [--scale=small] [--sessions=N]
//                   [--check]
//
// --sessions=N runs N concurrent master control loops, each on its own
// connection (its own server session and, in the server's default
// per-session mode, its own policy instance) with exploration seed
// seed + i. Because sessions are independent, every loop's rewards are
// bit-identical to running it alone — which is exactly what --check
// verifies.
//
// --check re-runs the identical control loop(s) in-process (constructing
// the same policy the Hello handshake reported, with the same seeds) and
// exits non-zero unless every reward matches EXPECT_EQ-style,
// double-for-double. Run both sides with --threads=1 for bit-for-bit
// reproducibility (see EXPERIMENTS.md "Networked control plane"); --check
// assumes the server's default per-session mode (a --shared-policy agent
// trains on all sessions at once, so no per-session replay can match it).
//
// The policy/environment configuration must stay identical to
// agent_server.cpp (see its header comment).

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/strutil.h"
#include "core/environment.h"
#include "core/experiment.h"
#include "core/online.h"
#include "ctrl/master_client.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"

using namespace drlstream;

namespace {

void PrintUsage() {
  std::printf(
      "usage: master_client --connect=HOST:PORT [--epochs=N] [--seed=S]\n"
      "                     [--agent-seed=S] [--scale=small|medium|large]\n"
      "                     [--sessions=N] [--check] [--pings=N]\n"
      "remote policies come from the agent's registry: %s\n",
      rl::PolicyRegistry::Get().KeysLine().c_str());
}

topo::Scale ParseScale(const std::string& s) {
  if (s == "medium") return topo::Scale::kMedium;
  if (s == "large") return topo::Scale::kLarge;
  return topo::Scale::kSmall;
}

core::MeasurementConfig FastMeasure() {
  core::MeasurementConfig config;
  config.stabilize_ms = 800.0;
  config.num_measurements = 1;
  config.measurement_interval_ms = 200.0;
  return config;
}

struct RunConfig {
  topo::Scale scale = topo::Scale::kSmall;
  int epochs = 6;
  uint64_t seed = 17;       // control-loop exploration seed
  uint64_t agent_seed = 21; // policy-construction seed (matches the agent)
};

/// One deterministic online run of `policy` on a fresh environment. Both
/// the remote run and the --check local run go through here, so they only
/// differ by which Policy implementation they talk to.
StatusOr<core::OnlineResult> RunLoop(rl::Policy* policy,
                                     const RunConfig& config) {
  topo::App app = topo::BuildContinuousQueries(config.scale);
  topo::ClusterConfig cluster;
  const int n = app.topology.num_executors();
  const int m = cluster.num_machines;
  sim::SimOptions sim_options;
  sim_options.seed = 71;
  core::SchedulingEnvironment env(&app.topology, app.workload, cluster,
                                  sim_options, FastMeasure());
  Rng init_rng(13);
  DRLSTREAM_RETURN_NOT_OK(
      env.Reset(sched::Schedule::RandomPacked(n, m, 4, &init_rng)));
  core::OnlineOptions options;
  options.epochs = config.epochs;
  options.train_steps_per_epoch = 1;
  options.seed = config.seed;
  options.reward_cap_ms = 100000.0;
  return core::RunOnline(policy, &env, options);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(
      argc, argv,
      {"agent-seed", "check", "connect", "epochs", "help", "pings", "scale",
       "seed", "sessions"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  if (flags.Has("help") || !flags.Has("connect")) {
    PrintUsage();
    return flags.Has("help") ? 0 : 1;
  }
  ApplyProcessFlags(flags);

  const std::string endpoint = flags.GetString("connect", "");
  const size_t colon = endpoint.rfind(':');
  int port = 0;
  if (colon == std::string::npos ||
      !ParseNumber(std::string_view(endpoint).substr(colon + 1), &port)) {
    std::fprintf(stderr, "--connect wants HOST:PORT, got '%s'\n",
                 endpoint.c_str());
    return 1;
  }
  const std::string host = endpoint.substr(0, colon);

  RunConfig config;
  config.scale = ParseScale(flags.GetString("scale", "small"));
  config.epochs = flags.GetInt("epochs", 6);
  config.seed = flags.GetInt("seed", 17);
  config.agent_seed = flags.GetInt("agent-seed", 21);

  const int sessions = std::max(1, flags.GetInt("sessions", 1));
  // Clock-offset calibration rounds before the control loop. Defaults on
  // when tracing so scripts/merge_traces.py finds the "clock_offset"
  // instants it aligns the agent's trace with.
  const int pings = flags.GetInt("pings", flags.Has("trace-out") ? 8 : 0);

  // One concurrent master loop per session, each with its own connection
  // and its own exploration seed. Session i's remote_info carries the
  // accept-order session id the server assigned it.
  topo::ClusterConfig cluster;
  std::vector<StatusOr<core::OnlineResult>> remote_runs(
      static_cast<size_t>(sessions), Status::Internal("not run"));
  std::vector<ctrl::HelloResponse> remotes(static_cast<size_t>(sessions));
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(sessions));
    for (int i = 0; i < sessions; ++i) {
      threads.emplace_back([&, i] {
        ctrl::MasterClientOptions client_options;
        client_options.num_machines = cluster.num_machines;
        client_options.client_name =
            "master_client example #" + std::to_string(i);
        ctrl::MasterClient client(host, port, client_options);
        Status connected = client.Connect();
        if (!connected.ok()) {
          remote_runs[static_cast<size_t>(i)] = connected;
          return;
        }
        remotes[static_cast<size_t>(i)] = client.remote_info();
        for (int p = 0; p < pings; ++p) {
          Status pinged = client.Ping();
          if (!pinged.ok()) {
            remote_runs[static_cast<size_t>(i)] = pinged;
            return;
          }
        }
        if (pings > 0) {
          auto offset_or = client.EstimatedClockOffsetUs();
          if (offset_or.ok()) {
            std::printf("session %d clock offset (agent - master): %.1f us\n",
                        i, *offset_or);
          }
        }
        RunConfig session_config = config;
        session_config.seed = config.seed + static_cast<uint64_t>(i);
        remote_runs[static_cast<size_t>(i)] = RunLoop(&client, session_config);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int i = 0; i < sessions; ++i) {
    const auto& run = remote_runs[static_cast<size_t>(i)];
    if (!run.ok()) {
      std::fprintf(stderr, "session %d failed: %s\n", i,
                   run.status().ToString().c_str());
      return 1;
    }
  }
  const ctrl::HelloResponse& remote = remotes[0];
  std::printf("connected to %s: policy '%s' (%s)\n", endpoint.c_str(),
              remote.policy_name.c_str(), remote.description.c_str());
  for (int i = 0; i < sessions; ++i) {
    const core::OnlineResult& result = *remote_runs[static_cast<size_t>(i)];
    std::printf("session %d (server id %llu) rewards (%d epochs):\n", i,
                static_cast<unsigned long long>(
                    remotes[static_cast<size_t>(i)].session_id),
                config.epochs);
    for (size_t e = 0; e < result.rewards.size(); ++e) {
      std::printf("  epoch %2zu  reward %.17g\n", e, result.rewards[e]);
    }
  }

  if (!flags.Has("check")) return 0;

  // Reconstruct the agent's policy locally (same key, same configuration,
  // same seeds — see agent_server.cpp) and replay the identical loop
  // in-process. With --threads=1 on both sides every reward must match
  // bit for bit: the wire protocol round-trips doubles as IEEE-754 bit
  // patterns and the exploration RNG state travels with each request.
  topo::App app = topo::BuildContinuousQueries(config.scale);
  const int n = app.topology.num_executors();
  const int m = cluster.num_machines;
  rl::StateEncoder encoder(n, m, app.topology.num_spouts(),
                           core::NominalSpoutRate(app.topology, app.workload));
  rl::PolicyContext policy_context;
  policy_context.encoder = &encoder;
  policy_context.topology = &app.topology;
  policy_context.cluster = &cluster;
  policy_context.ddpg.minibatch_size = 8;
  policy_context.ddpg.replay_capacity = 64;
  policy_context.ddpg.knn_k = 6;
  policy_context.ddpg.reward_shift = -8.0;
  policy_context.ddpg.reward_scale = 2.0;
  policy_context.ddpg.seed = config.agent_seed;
  policy_context.dqn.minibatch_size = 8;
  policy_context.dqn.replay_capacity = 64;
  policy_context.dqn.reward_shift = -8.0;
  policy_context.dqn.reward_scale = 2.0;
  policy_context.dqn.seed = config.agent_seed;
  int mismatches = 0;
  for (int s = 0; s < sessions; ++s) {
    // Each server session got a *fresh* policy instance, so each local
    // replay does too.
    auto local_policy =
        rl::PolicyRegistry::Get().Create(remote.registry_key, policy_context);
    if (!local_policy.ok()) {
      std::fprintf(stderr, "cannot rebuild '%s' locally: %s\n",
                   remote.registry_key.c_str(),
                   local_policy.status().ToString().c_str());
      return 1;
    }
    RunConfig session_config = config;
    session_config.seed = config.seed + static_cast<uint64_t>(s);
    auto local_run = RunLoop(local_policy->get(), session_config);
    if (!local_run.ok()) {
      std::fprintf(stderr, "local run failed: %s\n",
                   local_run.status().ToString().c_str());
      return 1;
    }
    const core::OnlineResult& remote_result =
        *remote_runs[static_cast<size_t>(s)];
    if (local_run->rewards.size() != remote_result.rewards.size()) {
      std::fprintf(stderr,
                   "check FAILED session %d: %zu local vs %zu remote epochs\n",
                   s, local_run->rewards.size(), remote_result.rewards.size());
      return 1;
    }
    for (size_t i = 0; i < local_run->rewards.size(); ++i) {
      if (local_run->rewards[i] != remote_result.rewards[i]) {
        std::fprintf(
            stderr,
            "check FAILED session %d epoch %zu: local %.17g != remote %.17g\n",
            s, i, local_run->rewards[i], remote_result.rewards[i]);
        ++mismatches;
      }
    }
    if (local_run->final_schedule.assignments() !=
        remote_result.final_schedule.assignments()) {
      std::fprintf(stderr, "check FAILED session %d: final schedules differ\n",
                   s);
      ++mismatches;
    }
  }
  if (mismatches > 0) return 1;
  std::printf("check OK: %d session(s), every reward and final schedule "
              "bit-identical to the in-process runs\n",
              sessions);
  return 0;
}
