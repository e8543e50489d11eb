// The DRL agent as an external service (paper Section 3.1: the agent runs
// *outside* the DSDPS and the master's custom scheduler talks to it over
// the network). Hosts any registry policy behind the binary control-plane
// protocol and serves GetSchedule/Observe/TrainStep/SaveArtifact RPCs until
// killed.
//
//   ./agent_server [--port=0] [--policy=ddpg] [--scale=small] [--seed=S]
//                  [--max-requests=N] [--sessions=N] [--shared-policy]
//
// --port=0 binds an ephemeral port and prints "listening on PORT" (the
// master_client example and EXPERIMENTS.md recipe read it from there).
// --max-requests=N makes the server drop a connection, without replying,
// after N policy RPCs — the deterministic "agent dies mid-run" switch used
// to demonstrate the master's degradation path.
//
// The server runs one poll() event loop serving every connection
// concurrently. By default each session gets its *own* policy instance,
// created through the registry from the key in its Hello (or --policy when
// the client doesn't ask for one), so N masters are served bit-identically
// to N separate agents. --shared-policy instead binds every session to one
// policy instance whose experience pool aggregates all masters' Observe
// transitions — the paper's transition sample database shared across
// masters. --sessions=N caps concurrent sessions.
//
// Observability: --http-port=P multiplexes a plaintext HTTP responder into
// the serving loop — GET /metrics (Prometheus) and GET /statusz (JSON
// session table) work mid-run. --slow-rpc-ms=T logs any request handled
// slower than T ms with its trace id. --trace-out=F records handler spans
// (see scripts/merge_traces.py for joining them with a master's trace).
//
// The policy configuration below must stay identical to master_client.cpp's
// local --check run: the check re-runs the whole control loop in-process
// with the same seeds and asserts bit-for-bit equal rewards.

#include <csignal>
#include <cstdio>

#include "common/flags.h"
#include "core/experiment.h"
#include "ctrl/agent_server.h"
#include "net/tcp.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"

using namespace drlstream;

namespace {

void PrintUsage() {
  std::printf(
      "usage: agent_server [--port=0] [--policy=NAME] "
      "[--scale=small|medium|large]\n"
      "                    [--seed=S] [--max-requests=N] [--sessions=N]\n"
      "                    [--shared-policy] [--http-port=P] "
      "[--slow-rpc-ms=T]\n"
      "registered policies: %s (default ddpg)\n",
      rl::PolicyRegistry::Get().KeysLine().c_str());
}

topo::Scale ParseScale(const std::string& s) {
  if (s == "medium") return topo::Scale::kMedium;
  if (s == "large") return topo::Scale::kLarge;
  return topo::Scale::kSmall;
}

// SIGINT/SIGTERM stop the event loop instead of killing the process, so
// the at-exit observability writers (--trace-out / --metrics-out) run.
// Set before the handlers are installed, on the only thread.
ctrl::AgentServer* g_server = nullptr;

void OnStopSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();  // async-signal-safe
}

void InstallStopHandlers(ctrl::AgentServer* server) {
  g_server = server;
  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(
      argc, argv,
      {"help", "http-host", "http-port", "max-requests", "policy", "port",
       "scale", "seed", "sessions", "shared-policy", "slow-rpc-ms"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }
  ApplyProcessFlags(flags);

  const std::string policy_key = flags.GetString("policy", "ddpg");
  if (!rl::PolicyRegistry::Get().Has(policy_key)) {
    std::fprintf(stderr, "%s\n",
                 rl::PolicyRegistry::Get()
                     .UnknownKeyError(policy_key)
                     .ToString()
                     .c_str());
    return 1;
  }

  // Keep in lockstep with master_client.cpp (see the header comment).
  topo::App app =
      topo::BuildContinuousQueries(ParseScale(flags.GetString("scale", "small")));
  topo::ClusterConfig cluster;
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
  policy_context.ddpg.seed = flags.GetInt("seed", 21);
  policy_context.dqn.minibatch_size = 8;
  policy_context.dqn.replay_capacity = 64;
  policy_context.dqn.reward_shift = -8.0;
  policy_context.dqn.reward_scale = 2.0;
  policy_context.dqn.seed = flags.GetInt("seed", 21);

  const bool shared_policy = flags.Has("shared-policy");

  auto listener_or = net::TcpListener::Bind("127.0.0.1",
                                            flags.GetInt("port", 0));
  if (!listener_or.ok()) {
    std::fprintf(stderr, "%s\n", listener_or.status().ToString().c_str());
    return 1;
  }

  ctrl::AgentServerOptions options;
  options.max_requests = flags.GetInt("max-requests", 0);
  options.max_sessions = flags.GetInt("sessions", 128);
  options.slow_rpc_ms = flags.GetDouble("slow-rpc-ms", 0.0);
  options.http_port = flags.Has("http-port") ? flags.GetInt("http-port", 0)
                                             : -1;
  options.http_host = flags.GetString("http-host", "127.0.0.1");

  Status served = Status::OK();
  if (shared_policy) {
    auto policy_or =
        rl::PolicyRegistry::Get().Create(policy_key, policy_context);
    if (!policy_or.ok()) {
      std::fprintf(stderr, "%s\n", policy_or.status().ToString().c_str());
      return 1;
    }
    std::printf("listening on %d\n", (*listener_or)->port());
    std::printf("serving shared policy '%s' (%s), up to %d sessions\n",
                policy_key.c_str(), (*policy_or)->Describe().c_str(),
                options.max_sessions);
    ctrl::AgentServer server(policy_or->get(), options);
    if (options.http_port >= 0) {
      auto http_or = server.BindHttp();
      if (!http_or.ok()) {
        std::fprintf(stderr, "%s\n", http_or.status().ToString().c_str());
        return 1;
      }
      std::printf("introspection on http://%s:%d\n", options.http_host.c_str(),
                  *http_or);
    }
    std::fflush(stdout);
    InstallStopHandlers(&server);
    served = server.ServeTcp(listener_or->get());
  } else {
    std::printf("listening on %d\n", (*listener_or)->port());
    std::printf("serving per-session policies (default '%s'), up to %d "
                "sessions\n",
                policy_key.c_str(), options.max_sessions);
    ctrl::AgentServer server(&policy_context, policy_key, options);
    if (options.http_port >= 0) {
      auto http_or = server.BindHttp();
      if (!http_or.ok()) {
        std::fprintf(stderr, "%s\n", http_or.status().ToString().c_str());
        return 1;
      }
      std::printf("introspection on http://%s:%d\n", options.http_host.c_str(),
                  *http_or);
    }
    std::fflush(stdout);
    InstallStopHandlers(&server);
    served = server.ServeTcp(listener_or->get());
  }
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.ToString().c_str());
    return 1;
  }
  return 0;
}
