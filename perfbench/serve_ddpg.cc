// serve_ddpg: the agent service of the paper's Section 3.1 as a closed
// loop. One ctrl::AgentServer thread serves a seeded DDPG policy for
// continuous queries (large: N=100, M=10, K=32) in shared-policy mode;
// three ctrl::MasterClient masters connect over TCP loopback. Each master
// sends a kExplore GetSchedule with a fixed epsilon, waits for the reply,
// sends an Observe carrying a seeded reward, and moves its state to the
// returned schedule. No simulator and no training: the decision path
// (miqp, nn forward, rl) and the control plane (ctrl, net) do all the
// work. Four threads (server + masters) and three connections. The timed
// region is a run of blocks, each a fixed number of cycles per master; the
// masters' loops carry on from one block to the next.

#include <algorithm>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "ctrl/agent_server.h"
#include "ctrl/master_client.h"
#include "ctrl/messages.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"

namespace perfbench {
namespace {

namespace ctrl = dl::ctrl;
namespace rl = dl::rl;
namespace sched = dl::sched;

constexpr int kMasters = 3;
constexpr double kEpsilon = 0.5;
constexpr int kKnnK = 32;
/// GetSchedule/Observe cycles per master in one block: about one and a
/// quarter seconds on a 4-vCPU x86-64 host.
constexpr int kBlockCycles = 1000;
constexpr int kSmallBlockCycles = 40;
/// At most this many blocks per process, so the latency logs, and with
/// them the peak resident set, do not grow with the host's speed.
constexpr int kMaxBlocks = 5;

/// A master's generated inputs: its initial state and RNG seeds.
struct MasterInput {
  rl::State state;
  uint64_t rng_seed = 0;
  uint64_t reward_seed = 0;
};

/// Server, listener, serving thread and connected masters. Destruction
/// closes the masters, stops the server and joins its thread.
class Setup {
 public:
  Setup()
      : app(dl::topo::BuildContinuousQueries(dl::topo::Scale::kLarge)) {}
  ~Setup() { Shutdown(); }
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  dl::Status Start(const Options& options, bool traced);
  void Shutdown();

  dl::topo::App app;
  dl::topo::ClusterConfig cluster;
  std::unique_ptr<rl::StateEncoder> encoder;
  rl::PolicyContext context;
  std::unique_ptr<rl::Policy> agent;
  std::unique_ptr<TimingPolicy> timed;  // traced pass only
  std::unique_ptr<ctrl::AgentServer> server;
  std::unique_ptr<dl::net::TcpListener> listener;
  std::vector<std::unique_ptr<ctrl::MasterClient>> clients;
  std::vector<MasterInput> inputs;
  dl::Status serve_status;
  std::thread server_thread;  // last: uses the members above
};

dl::Status Setup::Start(const Options& options, bool traced) {
  const int n = app.topology.num_executors();
  const int m = cluster.num_machines;
  encoder = std::make_unique<rl::StateEncoder>(
      n, m, app.topology.num_spouts(),
      dl::core::NominalSpoutRate(app.topology, app.workload));
  context.encoder = encoder.get();
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.ddpg.knn_k = kKnnK;
  context.ddpg.seed = options.seed;
  DRLSTREAM_ASSIGN_OR_RETURN(agent,
                             rl::PolicyRegistry::Get().Create("ddpg", context));
  rl::Policy* served = agent.get();
  if (traced) {
    timed = std::make_unique<TimingPolicy>(served);
    served = timed.get();
  }
  server = std::make_unique<ctrl::AgentServer>(served,
                                               ctrl::AgentServerOptions{});
  DRLSTREAM_ASSIGN_OR_RETURN(listener,
                             dl::net::TcpListener::Bind("127.0.0.1", 0));
  server_thread = std::thread(
      [this] { serve_status = server->ServeTcp(listener.get()); });

  dl::Rng rng(options.seed);
  const std::vector<double> base_rates =
      app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  for (int i = 0; i < kMasters; ++i) {
    MasterInput input;
    input.state.assignments =
        sched::Schedule::Random(n, m, &rng).assignments();
    const double load = rng.Uniform(0.8, 1.2);
    for (double rate : base_rates) input.state.spout_rates.push_back(rate * load);
    input.rng_seed = rng.UniformInt(1, 1 << 30);
    input.reward_seed = rng.UniformInt(1, 1 << 30);
    inputs.push_back(std::move(input));

    ctrl::MasterClientOptions client_options;
    client_options.num_machines = m;
    client_options.client_name = "perfbench master " + std::to_string(i);
    clients.push_back(std::make_unique<ctrl::MasterClient>(
        "127.0.0.1", listener->port(), client_options));
    DRLSTREAM_RETURN_NOT_OK(clients.back()->Connect());
  }
  return dl::Status::OK();
}

void Setup::Shutdown() {
  for (auto& client : clients) client->Shutdown();
  if (server != nullptr) server->Stop();
  if (listener != nullptr) listener->Close();
  if (server_thread.joinable()) server_thread.join();
}

/// Wire bytes of the four messages of one cycle, from the public codecs.
struct MessageBytes {
  double get_request = 0.0;
  double get_reply = 0.0;
  double observe_request = 0.0;
  double observe_reply = 0.0;
  int64_t cycles = 0;

  void Add(const MessageBytes& other) {
    get_request += other.get_request;
    get_reply += other.get_reply;
    observe_request += other.observe_request;
    observe_reply += other.observe_reply;
    cycles += other.cycles;
  }
};

/// One master's closed loop: its live state and RNGs, and what it saw.
struct MasterRun {
  explicit MasterRun(const MasterInput& input)
      : state(input.state), rng(input.rng_seed), reward_rng(input.reward_seed) {}

  rl::State state;
  dl::Rng rng;
  dl::Rng reward_rng;
  std::vector<double> decide_ms;
  std::vector<double> observe_ms;
  int64_t rpcs = 0;
  int64_t rpc_failed = 0;
  int64_t observes_sent = 0;
  int64_t invalid_replies = 0;
  uint64_t schedules_hash = HashInts({});
  std::string error;
  MessageBytes bytes;

  double RpcSeconds() const {
    double ms = 0.0;
    for (double d : decide_ms) ms += d;
    for (double o : observe_ms) ms += o;
    return ms / 1000.0;
  }
};

double MsSince(Clock::time_point start) { return 1000.0 * SecondsSince(start); }

void SizeMessages(const rl::State& state, const std::string& rng_before,
                  const rl::PolicyAction& action, const dl::Rng& rng_after,
                  const rl::Transition& transition, size_t frame_overhead,
                  MessageBytes* bytes) {
  ctrl::GetScheduleRequest request;
  request.mode = ctrl::ScheduleMode::kExplore;
  request.num_machines = action.schedule.num_machines();
  request.state = state;
  request.epsilon = kEpsilon;
  request.rng_state = rng_before;
  ctrl::GetScheduleResponse reply;
  reply.diff = ctrl::MakeScheduleDiffFromState(state, action.schedule);
  reply.move_index = action.move_index;
  reply.rng_state = rng_after.SerializeState();
  ctrl::ObserveRequest observe;
  observe.transition = transition;
  const double overhead = static_cast<double>(frame_overhead);
  bytes->get_request +=
      overhead + ctrl::EncodeGetScheduleRequest(request).size();
  bytes->get_reply +=
      overhead + ctrl::EncodeGetScheduleResponse(dl::Status::OK(), reply).size();
  bytes->observe_request += overhead + ctrl::EncodeObserveRequest(observe).size();
  bytes->observe_reply +=
      overhead + ctrl::EncodeObserveResponse(dl::Status::OK()).size();
  ++bytes->cycles;
}

/// `cycles` more turns of one master's closed loop: request, wait, observe,
/// move to the reply.
void RunMaster(ctrl::MasterClient* client, int cycles, int n, int m,
               bool size_messages, MasterRun* run) {
  rl::State& state = run->state;
  dl::Rng& rng = run->rng;
  const size_t frame_overhead =
      dl::net::kFrameHeaderBytes +
      (client->wire_version() >= dl::net::kWireVersionV3
           ? dl::net::kTraceEnvelopeBytes
           : 0);
  for (int c = 0; c < cycles; ++c) {
    const std::string rng_before = size_messages ? rng.SerializeState() : "";
    const Clock::time_point decide_start = Clock::now();
    dl::StatusOr<rl::PolicyAction> action =
        client->SelectAction(state, kEpsilon, &rng);
    run->decide_ms.push_back(MsSince(decide_start));
    ++run->rpcs;
    if (!action.ok()) {
      ++run->rpc_failed;
      run->error = action.status().ToString();
      break;
    }
    const sched::Schedule& schedule = action->schedule;
    if (!ValidSchedule(schedule, n, m)) ++run->invalid_replies;
    run->schedules_hash = HashInts(schedule.assignments(), run->schedules_hash);

    rl::Transition transition;
    transition.state = state;
    transition.action_assignments = schedule.assignments();
    transition.move_index = action->move_index;
    transition.reward = -run->reward_rng.Uniform(1.0, 6.0);
    transition.next_state = state;
    transition.next_state.assignments = schedule.assignments();
    if (size_messages) {
      SizeMessages(state, rng_before, *action, rng, transition, frame_overhead,
                   &run->bytes);
    }
    state.assignments = schedule.assignments();
    const Clock::time_point observe_start = Clock::now();
    client->Observe(std::move(transition));
    run->observe_ms.push_back(MsSince(observe_start));
    ++run->rpcs;
    ++run->observes_sent;
  }
}

struct ServeOutcome {
  std::vector<MasterRun> masters;
  double wall_s = 0.0;  // over all blocks
  double server_cpu_s = 0.0;
  int64_t observes_received = 0;
  /// The served schedules of the first block, of every master.
  std::string first_block_fingerprint;

  std::vector<double> All(std::vector<double> MasterRun::*field) const {
    std::vector<double> all;
    for (const MasterRun& r : masters) {
      all.insert(all.end(), (r.*field).begin(), (r.*field).end());
    }
    return all;
  }
};

std::string Fingerprint(const std::vector<MasterRun>& masters) {
  uint64_t hash = HashInts({});
  for (const MasterRun& run : masters) {
    hash = HashInts({static_cast<int>(run.schedules_hash),
                     static_cast<int>(run.schedules_hash >> 32)},
                    hash);
  }
  return Hex(hash);
}

/// The timed region: blocks of `cycles` cycles per master, all masters
/// starting each block together, until `jobs` wants no more or `max_blocks`
/// have run. Then the server stops.
dl::Status Serve(Setup* setup, const Options& options, int cycles,
                 int max_blocks, bool size_messages, ServeOutcome* out,
                 JobTimes* jobs) {
  const int n = setup->app.topology.num_executors();
  const int m = setup->cluster.num_machines;
  out->masters.clear();
  for (const MasterInput& input : setup->inputs) out->masters.emplace_back(input);
  const Clock::time_point start = Clock::now();
  while (jobs->repeats() < max_blocks && jobs->WantMore(options, start)) {
    std::latch ready(kMasters);
    std::latch go(1);
    std::vector<std::thread> threads;
    for (int i = 0; i < kMasters; ++i) {
      threads.emplace_back([&, i] {
        ready.count_down();
        go.wait();
        RunMaster(setup->clients[i].get(), cycles, n, m, size_messages,
                  &out->masters[i]);
      });
    }
    ready.wait();
    const double server_cpu0 =
        ThreadCpuSeconds(setup->server_thread.native_handle());
    {
      JobTimer timer(jobs);
      go.count_down();
      for (std::thread& thread : threads) thread.join();
    }
    out->wall_s += jobs->wall_s.back();
    out->server_cpu_s +=
        ThreadCpuSeconds(setup->server_thread.native_handle()) - server_cpu0;
    if (jobs->repeats() == 1) out->first_block_fingerprint = Fingerprint(out->masters);
    bool failed = false;
    for (const MasterRun& run : out->masters) failed = failed || run.rpc_failed > 0;
    if (failed) break;
  }

  // Stop serving before reading the experience pool the loop thread owns.
  setup->Shutdown();
  DRLSTREAM_RETURN_NOT_OK(setup->serve_status);
  out->observes_received = setup->server->experience_pool()->observed_total();
  return dl::Status::OK();
}

/// Replays each master's (state, epsilon, RNG) stream through an
/// in-process policy built from the same context and seed.
std::vector<std::string> Replay(const Setup& setup,
                                const ServeOutcome& served) {
  std::vector<std::string> mismatches(kMasters);
  std::vector<std::thread> threads;
  for (int i = 0; i < kMasters; ++i) {
    threads.emplace_back([&, i] {
      const MasterRun& run = served.masters[i];
      dl::StatusOr<std::unique_ptr<rl::Policy>> policy =
          rl::PolicyRegistry::Get().Create("ddpg", setup.context);
      if (!policy.ok()) {
        mismatches[i] = policy.status().ToString();
        return;
      }
      rl::State state = setup.inputs[i].state;
      dl::Rng rng(setup.inputs[i].rng_seed);
      uint64_t hash = HashInts({});
      const int64_t replies =
          static_cast<int64_t>(run.decide_ms.size()) - run.rpc_failed;
      for (int64_t c = 0; c < replies; ++c) {
        dl::StatusOr<rl::PolicyAction> action =
            (*policy)->SelectAction(state, kEpsilon, &rng);
        if (!action.ok()) {
          mismatches[i] = action.status().ToString();
          return;
        }
        hash = HashInts(action->schedule.assignments(), hash);
        state.assignments = action->schedule.assignments();
      }
      if (hash != run.schedules_hash) {
        mismatches[i] = "schedules differ";
      } else if (rng.SerializeState() != run.rng.SerializeState()) {
        mismatches[i] = "RNG streams differ";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return mismatches;
}


}  // namespace

dl::Status RunServeDdpg(const Options& options, RunResult* result) {
  const int cycles = options.small ? kSmallBlockCycles : kBlockCycles;
  auto setup = std::make_unique<Setup>();
  DRLSTREAM_RETURN_NOT_OK(setup->Start(options, false));
  if (result->SetupDone(options)) return dl::Status::OK();

  ServeOutcome served;
  JobTimes jobs;
  DRLSTREAM_RETURN_NOT_OK(Serve(setup.get(), options, cycles, kMaxBlocks,
                                false, &served, &jobs));
  const std::vector<double> decide = served.All(&MasterRun::decide_ms);
  const std::vector<double> observe = served.All(&MasterRun::observe_ms);
  const int64_t decisions = static_cast<int64_t>(decide.size());
  jobs.Report(result);
  result->SetMetric("peak_rss_mb", PeakRssMb(), "MB");
  result->SetMetric("decisions_per_s",
                    static_cast<double>(decisions) / served.wall_s, "1/s",
                    decisions);
  result->SetMetric("decide_p50_ms", Quantile(decide, 50.0), "ms", decisions);
  result->SetMetric("decide_p99_ms", Quantile(decide, 99.0), "ms", decisions);
  result->SetMetric("observe_p50_ms", Quantile(observe, 50.0), "ms",
                    static_cast<int64_t>(observe.size()));
  result->SetMetric("observe_p99_ms", Quantile(observe, 99.0), "ms",
                    static_cast<int64_t>(observe.size()));
  // The block count follows the host's speed; the first block does not.
  result->outputs["served_schedules"] = served.first_block_fingerprint;
  {
    uint64_t inputs = HashInts({});
    for (const MasterInput& input : setup->inputs) {
      inputs = HashInts(input.state.assignments, inputs);
      inputs = HashInts({static_cast<int>(input.rng_seed),
                         static_cast<int>(input.reward_seed)},
                        inputs);
    }
    result->outputs["inputs"] = Hex(inputs);
  }

  int64_t rpcs = 0, rpc_failed = 0, observes_sent = 0, invalid = 0;
  std::string errors;
  for (const MasterRun& run : served.masters) {
    rpcs += run.rpcs;
    rpc_failed += run.rpc_failed;
    observes_sent += run.observes_sent;
    invalid += run.invalid_replies;
    if (!run.error.empty()) errors += run.error + "; ";
  }
  const int64_t observes_lost =
      std::max<int64_t>(0, observes_sent - served.observes_received);
  result->ops = rpcs;
  result->ops_failed = rpc_failed + observes_lost;
  result->AddCheck("every RPC succeeded", rpc_failed == 0, errors);
  result->AddCheck("every reply is a valid N=100, M=10 schedule", invalid == 0,
                   std::to_string(invalid) + " invalid of " +
                       std::to_string(decisions));
  result->AddCheck("the server's policy received every Observe sent",
                   served.observes_received == observes_sent,
                   std::to_string(served.observes_received) + " of " +
                       std::to_string(observes_sent));
  const std::vector<std::string> mismatches = Replay(*setup, served);
  std::string replay_detail;
  for (int i = 0; i < kMasters; ++i) {
    if (!mismatches[i].empty()) {
      replay_detail += "master" + std::to_string(i) + ": " + mismatches[i] + "; ";
    }
  }
  result->AddCheck("in-process replay gives the served schedules",
                   replay_detail.empty(), replay_detail);

  if (!options.trace) return dl::Status::OK();

  Setup traced_setup;
  DRLSTREAM_RETURN_NOT_OK(traced_setup.Start(options, true));
  // One block, checked against the untraced run's first.
  ServeOutcome traced;
  JobTimes traced_jobs;
  BeginObs();
  const double tcpu0 = ProcessCpuSeconds();
  const Clock::time_point tstart = Clock::now();
  DRLSTREAM_RETURN_NOT_OK(Serve(&traced_setup, options, cycles, 1, true,
                                &traced, &traced_jobs));
  const double traced_wall = SecondsSince(tstart);
  const double traced_cpu = ProcessCpuSeconds() - tcpu0;
  const dl::obs::MetricsSnapshot obs = EndObs();

  std::map<std::string, double>& L = result->layers;
  const PolicyTimes& policy = traced_setup.timed->times();
  L["rl.decide_s"] = policy.decide_s;
  L["rl.decisions"] = static_cast<double>(policy.decisions);
  L["rl.observe_s"] = policy.observe_s;
  L["rl.batch_width_mean"] =
      policy.batches > 0 ? static_cast<double>(policy.batch_slots) /
                               static_cast<double>(policy.batches)
                         : 0.0;
  L["nn.actor_forward_s"] = ObsSeconds(obs, "phase.actor_forward_us");
  L["nn.critic_score_s"] = ObsSeconds(obs, "phase.critic_score_us");
  L["miqp.knn_solve_s"] = ObsSeconds(obs, "phase.knn_solve_us");
  L["miqp.solves"] = static_cast<double>(ObsCount(obs, "miqp.solves"));
  L["ctrl.server_cpu_s"] = traced.server_cpu_s;
  // Both sides are the server thread's CPU time, so time the thread spends
  // preempted inside the policy does not count as policy time.
  L["ctrl.loop_overhead_s"] = traced.server_cpu_s - policy.decide_observe_cpu_s;
  // The masters' RPC time overlaps across threads; coverage is the share of
  // the timed region the busiest master spent inside RPCs.
  MessageBytes bytes;
  double busiest_master_s = 0.0;
  for (const MasterRun& run : traced.masters) {
    L["ctrl.client_rpc_s"] += run.RpcSeconds();
    busiest_master_s = std::max(busiest_master_s, run.RpcSeconds());
    bytes.Add(run.bytes);
  }
  const std::vector<double> tdecide = traced.All(&MasterRun::decide_ms);
  const std::vector<double> tobserve = traced.All(&MasterRun::observe_ms);
  L["ctrl.decisions_per_s"] =
      static_cast<double>(tdecide.size()) / traced.wall_s;
  L["ctrl.decide_p50_ms"] = Quantile(tdecide, 50.0);
  L["ctrl.decide_p99_ms"] = Quantile(tdecide, 99.0);
  L["ctrl.observe_p50_ms"] = Quantile(tobserve, 50.0);
  L["ctrl.observe_p99_ms"] = Quantile(tobserve, 99.0);
  if (bytes.cycles > 0) {
    const double c = static_cast<double>(bytes.cycles);
    L["net.get_request_bytes"] = bytes.get_request / c;
    L["net.get_reply_bytes"] = bytes.get_reply / c;
    L["net.observe_request_bytes"] = bytes.observe_request / c;
    L["net.observe_reply_bytes"] = bytes.observe_reply / c;
  }
  L["proc.cpu_s"] = traced_cpu;
  L["proc.cores_used"] = traced_cpu / traced_wall;
  L["proc.trace_overhead_pct"] =
      100.0 * (traced.wall_s - jobs.MinWall()) / jobs.MinWall();
  L["trace.wall_s"] = traced.wall_s;
  L["trace.covered_pct"] = 100.0 * busiest_master_s / traced.wall_s;
  L["trace.unattributed_s"] = traced.wall_s - busiest_master_s;
  result->AddCheck("traced run serves the first block's schedules",
                   traced.first_block_fingerprint ==
                       served.first_block_fingerprint,
                   traced.first_block_fingerprint);
  return dl::Status::OK();
}

}  // namespace perfbench
