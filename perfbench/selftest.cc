// The benchmark's own test, run by `python3 perfbench/run.py --selftest`
// (or ctest in the benchmark's build tree):
//
//  * the timing decorators are transparent: a wrapped policy trains and
//    serves exactly like the bare one (rewards, final schedules, batched
//    replies), and a wrapped generator hands out the bare op stream;
//  * every workload at a small size is exact for a fixed seed (twice on
//    one seed: results, sim.events and served schedules repeat) and its
//    generated inputs change with the seed.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/environment.h"
#include "core/experiment.h"
#include "core/offline.h"
#include "core/online.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

namespace core = dl::core;
namespace rl = dl::rl;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

struct AgentRun {
  std::vector<double> rewards;
  std::vector<int> final_schedule;
  PolicyTimes times;
};

/// Pretrains and runs one registry agent online on continuous queries
/// (small), optionally behind a TimingPolicy.
dl::StatusOr<AgentRun> TrainAgent(const std::string& key, bool wrapped) {
  const dl::topo::App app =
      dl::topo::BuildContinuousQueries(dl::topo::Scale::kSmall);
  const dl::topo::ClusterConfig cluster;
  const int n = app.topology.num_executors();
  const int m = cluster.num_machines;
  rl::StateEncoder encoder(n, m, app.topology.num_spouts(),
                           core::NominalSpoutRate(app.topology, app.workload));
  core::MeasurementConfig measure;
  measure.stabilize_ms = 600.0;
  measure.num_measurements = 1;
  dl::sim::SimOptions sim_options;
  sim_options.seed = 5;

  core::SchedulingEnvironment collect_env(&app.topology, app.workload, cluster,
                                          sim_options, measure);
  dl::Rng rng(3);
  DRLSTREAM_RETURN_NOT_OK(
      collect_env.Reset(dl::sched::Schedule::Random(n, m, &rng)));
  core::CollectionOptions collect;
  collect.num_samples = 12;
  collect.mode = key == "dqn" ? core::CollectionMode::kSingleMoveRandom
                              : core::CollectionMode::kFullRandom;
  DRLSTREAM_ASSIGN_OR_RETURN(rl::TransitionDatabase db,
                             core::CollectOfflineSamples(&collect_env, collect));

  rl::PolicyContext context;
  context.encoder = &encoder;
  context.topology = &app.topology;
  context.cluster = &cluster;
  context.ddpg.minibatch_size = 8;
  context.ddpg.knn_k = 8;
  context.dqn.minibatch_size = 8;
  DRLSTREAM_ASSIGN_OR_RETURN(std::unique_ptr<rl::Policy> agent,
                             rl::PolicyRegistry::Get().Create(key, context));
  std::unique_ptr<TimingPolicy> timed;
  rl::Policy* policy = agent.get();
  if (wrapped) {
    timed = std::make_unique<TimingPolicy>(agent.get());
    policy = timed.get();
  }
  policy->PretrainOffline(db, 10);
  core::SchedulingEnvironment env(&app.topology, app.workload, cluster,
                                  sim_options, measure);
  DRLSTREAM_RETURN_NOT_OK(env.Reset(dl::sched::Schedule::Random(n, m, &rng)));
  core::OnlineOptions online;
  online.epochs = 8;
  online.seed = 9;
  DRLSTREAM_ASSIGN_OR_RETURN(core::OnlineResult result,
                             core::RunOnline(policy, &env, online));
  AgentRun run{result.rewards, result.final_schedule.assignments(), {}};
  if (timed != nullptr) run.times = timed->times();
  return run;
}

void TestPolicyDecoratorTrainsLikeBare() {
  for (const std::string key : {"ddpg", "dqn"}) {
    dl::StatusOr<AgentRun> bare = TrainAgent(key, false);
    dl::StatusOr<AgentRun> wrapped = TrainAgent(key, true);
    Expect(bare.ok() && wrapped.ok(), key + ": both runs complete");
    if (!bare.ok() || !wrapped.ok()) continue;
    Expect(bare->rewards == wrapped->rewards,
           key + ": wrapped rewards equal bare rewards bit for bit");
    Expect(bare->final_schedule == wrapped->final_schedule,
           key + ": wrapped final schedule equals bare");
    Expect(wrapped->times.decisions >= 8 && wrapped->times.train_steps == 8 &&
               wrapped->times.observes == 8 && wrapped->times.pretrain_s > 0.0,
           key + ": the decorator saw every call");
  }
}

void TestPolicyDecoratorForwardsBatches() {
  const dl::topo::App app =
      dl::topo::BuildContinuousQueries(dl::topo::Scale::kSmall);
  const dl::topo::ClusterConfig cluster;
  const int n = app.topology.num_executors();
  const int m = cluster.num_machines;
  rl::StateEncoder encoder(n, m, app.topology.num_spouts(),
                           core::NominalSpoutRate(app.topology, app.workload));
  rl::PolicyContext context;
  context.encoder = &encoder;
  context.topology = &app.topology;
  context.cluster = &cluster;
  dl::StatusOr<std::unique_ptr<rl::Policy>> bare =
      rl::PolicyRegistry::Get().Create("ddpg", context);
  dl::StatusOr<std::unique_ptr<rl::Policy>> inner =
      rl::PolicyRegistry::Get().Create("ddpg", context);
  if (!bare.ok() || !inner.ok()) {
    Expect(false, "ddpg agents construct");
    return;
  }
  TimingPolicy wrapped(inner->get());

  constexpr int kSlots = 3;
  dl::Rng state_rng(17);
  std::vector<rl::State> states(kSlots);
  for (rl::State& state : states) {
    state.assignments =
        dl::sched::Schedule::Random(n, m, &state_rng).assignments();
    state.spout_rates =
        app.workload.RatesVector(app.topology.SpoutComponents(), 0.0);
  }
  const auto decide = [&](const rl::Policy& policy,
                          std::vector<std::string>* rng_after) {
    std::vector<dl::Rng> rngs;
    for (int i = 0; i < kSlots; ++i) rngs.emplace_back(100 + i);
    std::vector<rl::PolicyAction> actions(kSlots);
    std::vector<rl::DecisionRequest> slots(kSlots);
    for (int i = 0; i < kSlots; ++i) {
      slots[i].state = &states[i];
      slots[i].epsilon = 0.5;
      slots[i].rng = &rngs[i];
      slots[i].out = &actions[i];
    }
    policy.SelectActionBatch(slots.data(), kSlots);
    std::vector<int> flat;
    for (int i = 0; i < kSlots; ++i) {
      if (!slots[i].status.ok()) flat.push_back(-1);
      const std::vector<int>& a = actions[i].schedule.assignments();
      flat.insert(flat.end(), a.begin(), a.end());
      rng_after->push_back(rngs[i].SerializeState());
    }
    return flat;
  };
  std::vector<std::string> bare_rngs, wrapped_rngs;
  const std::vector<int> bare_actions = decide(**bare, &bare_rngs);
  const std::vector<int> wrapped_actions = decide(wrapped, &wrapped_rngs);
  Expect(bare_actions == wrapped_actions && bare_rngs == wrapped_rngs,
         "batched replies through the decorator equal bare replies");
  Expect(wrapped.times().batches == 1 &&
             wrapped.times().batch_slots == kSlots,
         "the decorator forwards SelectActionBatch as one fused batch");
}

void TestGeneratorDecoratorForwardsOps() {
  std::vector<std::unique_ptr<dl::workload::WorkloadGenerator>> generators;
  dl::workload::DiurnalConfig diurnal;
  diurnal.jitter = 0.1;
  dl::workload::FlashCrowdConfig flash;
  flash.repeat_ms = 60000.0;  // longer than one spike's decay
  const auto add = [&](dl::StatusOr<std::unique_ptr<
                            dl::workload::WorkloadGenerator>> made) {
    if (made.ok()) generators.push_back(std::move(*made));
  };
  add(dl::workload::MakeDiurnal(diurnal));
  add(dl::workload::MakeFlashCrowd(flash));
  add(dl::workload::MakeDrift(dl::workload::DriftConfig{}));
  add(dl::workload::MakeConstant(1.1));
  Expect(generators.size() == 4, "four scenario generators construct");
  for (const auto& bare : generators) {
    TimingGenerator wrapped(bare.get());
    bool same = true;
    int ops = 0;
    for (int tenant = 0; tenant < 2; ++tenant) {
      double now = 0.0;
      while (now < 120000.0) {
        const auto a = bare->NextRateChange(tenant, now);
        const auto b = wrapped.NextRateChange(tenant, now);
        same = same && a.has_value() == b.has_value();
        if (!a.has_value() || !b.has_value()) break;
        same = same && a->time_ms == b->time_ms && a->spout == b->spout &&
               a->multiplier == b->multiplier &&
               bare->MultiplierAt(tenant, 0, a->time_ms) ==
                   wrapped.MultiplierAt(tenant, 0, a->time_ms);
        now = a->time_ms;
        ++ops;
      }
    }
    Expect(same && wrapped.times().ops == ops,
           bare->name() + ": wrapped op stream equals bare (" +
               std::to_string(ops) + " ops)");
  }
}

dl::StatusOr<RunResult> RunSmall(WorkloadFn run, uint64_t seed) {
  Options options;
  options.seed = seed;
  options.small = true;
  options.trace = true;
  RunResult result;
  DRLSTREAM_RETURN_NOT_OK(run(options, &result));
  return result;
}

void TestWorkloadSeeds() {
  for (const std::string name : {"train_cq", "scenario_day", "serve_ddpg"}) {
    const WorkloadFn run = FindWorkload(name);
    dl::StatusOr<RunResult> a = RunSmall(run, 11);
    dl::StatusOr<RunResult> again = RunSmall(run, 11);
    dl::StatusOr<RunResult> other = RunSmall(run, 12);
    Expect(a.ok() && again.ok() && other.ok(), name + ": three runs complete");
    if (!a.ok() || !again.ok() || !other.ok()) continue;
    for (const Check& check : a->checks) {
      Expect(check.ok, name + ": " + check.name + " " + check.detail);
    }
    Expect(a->ops > 0 && a->ops_failed == 0,
           name + ": " + std::to_string(a->ops) + " ops, none failed");
    Expect(a->outputs == again->outputs,
           name + ": a second run on the same seed repeats every output");
    for (const auto& [key, value] : a->outputs) {
      std::printf("     %s = %s\n", key.c_str(), value.c_str());
    }
    Expect(a->outputs.at("inputs") != other->outputs.at("inputs"),
           name + ": another seed generates other inputs");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPolicyDecoratorTrainsLikeBare();
  perfbench::TestPolicyDecoratorForwardsBatches();
  perfbench::TestGeneratorDecoratorForwardsOps();
  perfbench::TestWorkloadSeeds();
  std::printf("%s: %d failure(s)\n",
              perfbench::g_failures == 0 ? "OK" : "FAILED",
              perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
