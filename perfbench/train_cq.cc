// train_cq: the run people make most. One training pipeline on continuous
// queries (small) at a fixed reduced budget, core::TrainAllMethods followed
// by core::MeasureLatencySeries on the four methods' final schedules, as
// bench/summary_table does for one setup. A batch job with no arrivals. The
// timed region runs the pipeline on the same inputs again and again, and
// every repeat must reproduce the first exactly.
//
// The traced pass cannot time anything inside TrainAllMethods (the policy
// registry will not take a second "ddpg"/"dqn", so no decorator can be
// injected there), so it calls the same stages in the same order with the
// same seeds and checks that it reproduces the untraced pass exactly.

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/environment.h"
#include "core/experiment.h"
#include "core/offline.h"
#include "core/online.h"
#include "rl/policy_registry.h"
#include "sched/model_based.h"
#include "sched/scheduler.h"
#include "topo/apps.h"

namespace perfbench {
namespace {

namespace core = dl::core;
namespace rl = dl::rl;
namespace sched = dl::sched;

constexpr int kStabilizedTail = 5;  // summary_table's stabilized value
constexpr const char* kMethods[] = {"default", "model_based", "dqn",
                                    "actor_critic"};

struct Setup {
  dl::topo::App app;
  dl::topo::ClusterConfig cluster;
  core::PipelineConfig config;
  core::SeriesOptions series;
};

std::unique_ptr<Setup> MakeSetup(const Options& options) {
  auto setup = std::make_unique<Setup>(
      Setup{dl::topo::BuildContinuousQueries(dl::topo::Scale::kSmall), {},
            {}, {}});
  core::PipelineConfig& config = setup->config;
  // summary_table's method settings (bench/bench_util.cc) at a budget that
  // keeps one pipeline near two seconds of one x86-64 core.
  config.offline_samples = 16;
  config.pretrain_steps = options.small ? 40 : 64;
  config.online.epochs = options.small ? 10 : 16;
  config.online.train_steps_per_epoch = 2;
  config.ddpg.knn_k = 32;
  config.ddpg.gamma = 0.9;
  config.dqn.gamma = 0.9;
  config.seed = options.seed;
  setup->series.points = options.small ? 6 : 8;
  setup->series.seed = options.seed + 77;
  return setup;
}

/// What a pipeline produced, in kMethods order.
struct Outcome {
  std::vector<sched::Schedule> schedules;
  std::vector<std::vector<double>> series;
  std::vector<double> ddpg_rewards;
  std::vector<double> dqn_rewards;
  int64_t disruptions = 0;
  int64_t failed_epochs = 0;  // an action retry or a fallback

  void AddOnline(const core::OnlineResult& online) {
    disruptions += static_cast<int64_t>(online.disruptions.size());
    for (const core::DisruptionRecord& record : online.disruptions) {
      if (record.retries > 0 || record.used_fallback) ++failed_epochs;
    }
  }

  double Stabilized(size_t method) const {
    const std::vector<double>& s = series[method];
    const size_t take = std::min<size_t>(kStabilizedTail, s.size());
    double sum = 0.0;
    for (size_t i = s.size() - take; i < s.size(); ++i) sum += s[i];
    return take > 0 ? sum / static_cast<double>(take) : 0.0;
  }
  double AcLatencyMs() const { return Stabilized(3); }

  /// Whether another pipeline produced exactly the same results.
  bool SameResults(const Outcome& other) const {
    return schedules == other.schedules && series == other.series &&
           ddpg_rewards == other.ddpg_rewards &&
           dqn_rewards == other.dqn_rewards;
  }
};

dl::Status MeasureSeries(const Setup& s, Outcome* out) {
  out->series.clear();
  for (const sched::Schedule& schedule : out->schedules) {
    DRLSTREAM_ASSIGN_OR_RETURN(
        std::vector<double> values,
        core::MeasureLatencySeries(s.app.topology, s.app.workload, s.cluster,
                                   schedule, s.series));
    out->series.push_back(std::move(values));
  }
  return dl::Status::OK();
}

dl::Status RunPipeline(const Setup& s, Outcome* out) {
  DRLSTREAM_ASSIGN_OR_RETURN(
      core::TrainedMethods trained,
      core::TrainAllMethods(&s.app.topology, s.app.workload, s.cluster,
                            s.config));
  out->schedules = {trained.default_schedule, trained.model_based_schedule,
                    trained.dqn_online.final_schedule,
                    trained.ddpg_online.final_schedule};
  out->ddpg_rewards = trained.ddpg_online.rewards;
  out->dqn_rewards = trained.dqn_online.rewards;
  out->AddOnline(trained.ddpg_online);
  out->AddOnline(trained.dqn_online);
  return MeasureSeries(s, out);
}

/// The stages of core::TrainAllMethods, called in its order with its seeds,
/// each wrapped in a timer; any drift from the real pipeline fails the
/// traced-equals-untraced check.
dl::Status RunPipelineTraced(const Setup& s, Outcome* out,
                             std::map<std::string, double>* layers) {
  std::map<std::string, double>& L = *layers;
  const dl::topo::Topology* topology = &s.app.topology;
  const dl::topo::Workload& workload = s.app.workload;
  const dl::topo::ClusterConfig& cluster = s.cluster;
  const core::PipelineConfig& config = s.config;
  const int n = topology->num_executors();
  const int m = cluster.num_machines;
  SimTally sims;

  rl::StateEncoder encoder(n, m, topology->num_spouts(),
                           core::NominalSpoutRate(*topology, workload),
                           config.include_workload_in_state);
  dl::sim::SimOptions train_sim;
  train_sim.seed = config.seed;

  const auto collect = [&](core::CollectionMode mode, uint64_t sim_seed,
                           uint64_t init_seed, uint64_t collect_seed,
                           bool details, double* timer)
      -> dl::StatusOr<rl::TransitionDatabase> {
    dl::sim::SimOptions sim_options = train_sim;
    sim_options.seed = sim_seed;
    core::SchedulingEnvironment env(topology, workload, cluster, sim_options,
                                    config.measure);
    dl::Rng rng(init_seed);
    DRLSTREAM_RETURN_NOT_OK(env.Reset(sched::Schedule::Random(n, m, &rng)));
    core::CollectionOptions options;
    options.num_samples = config.offline_samples;
    options.mode = mode;
    options.seed = collect_seed;
    options.collect_details = details;
    options.workload_factor_min = config.workload_factor_min;
    options.workload_factor_max = config.workload_factor_max;
    dl::StatusOr<rl::TransitionDatabase> db = dl::Status::Internal("unset");
    {
      Stopwatch watch(timer);
      db = core::CollectOfflineSamples(&env, options);
    }
    sims.Add(env.simulator()->counters(), env.simulator()->now_ms());
    return db;
  };
  DRLSTREAM_ASSIGN_OR_RETURN(
      rl::TransitionDatabase full_db,
      collect(core::CollectionMode::kFullRandom, config.seed, config.seed,
              config.seed + 1, true, &L["core.collect_full_s"]));
  DRLSTREAM_ASSIGN_OR_RETURN(
      rl::TransitionDatabase single_db,
      collect(core::CollectionMode::kSingleMoveRandom, config.seed + 1000,
              config.seed + 2, config.seed + 3, false,
              &L["core.collect_single_s"]));

  sched::DelayModel delay_model(topology, &cluster);
  {
    Stopwatch watch(&L["sched.model_fit_s"]);
    DRLSTREAM_RETURN_NOT_OK(delay_model.Fit(full_db.ToPerfSamples()));
  }
  sched::ModelBasedScheduler model_sched(&delay_model, config.model_based);
  sched::SchedulingContext context;
  context.topology = topology;
  context.cluster = &cluster;
  context.spout_rates = workload.RatesVector(topology->SpoutComponents(), 0.0);
  dl::StatusOr<sched::Schedule> model_schedule = dl::Status::Internal("unset");
  {
    Stopwatch watch(&L["sched.model_search_s"]);
    model_schedule = model_sched.ComputeSchedule(context);
  }
  DRLSTREAM_RETURN_NOT_OK(model_schedule.status());
  sched::RoundRobinScheduler round_robin;
  dl::StatusOr<sched::Schedule> default_schedule =
      dl::Status::Internal("unset");
  {
    Stopwatch watch(&L["sched.decide_s"]);
    default_schedule = round_robin.ComputeSchedule(context);
  }
  DRLSTREAM_RETURN_NOT_OK(default_schedule.status());
  L["sched.decisions"] += 1;

  std::vector<double> raw_rewards;
  for (const rl::TransitionDatabase::Record& record : full_db.records()) {
    raw_rewards.push_back(record.transition.reward);
  }
  const double reward_shift = dl::Percentile(raw_rewards, 50.0);
  const double reward_scale = std::max(
      (dl::Percentile(raw_rewards, 75.0) - dl::Percentile(raw_rewards, 25.0)) /
          1.35,
      1e-2);

  rl::PolicyContext policy_context;
  policy_context.encoder = &encoder;
  policy_context.topology = topology;
  policy_context.cluster = &cluster;
  policy_context.ddpg = config.ddpg;
  policy_context.ddpg.seed = config.seed + 10;
  policy_context.ddpg.reward_shift = reward_shift;
  policy_context.ddpg.reward_scale = reward_scale;
  policy_context.dqn = config.dqn;
  policy_context.dqn.seed = config.seed + 20;
  policy_context.dqn.reward_shift = reward_shift;
  policy_context.dqn.reward_scale = reward_scale;

  double deploy_s = 0.0;
  // Pretrains and runs one agent online; returns its online result.
  const auto train_agent = [&](const char* key,
                               const rl::TransitionDatabase& db,
                               uint64_t sim_seed, uint64_t online_seed,
                               double* online_timer,
                               PolicyTimes* times)
      -> dl::StatusOr<core::OnlineResult> {
    DRLSTREAM_ASSIGN_OR_RETURN(
        std::unique_ptr<rl::Policy> agent,
        rl::PolicyRegistry::Get().Create(key, policy_context));
    TimingPolicy timed(agent.get());
    timed.PretrainOffline(db, config.pretrain_steps);
    dl::sim::SimOptions sim_options = train_sim;
    sim_options.seed = sim_seed;
    core::SchedulingEnvironment env(topology, workload, cluster, sim_options,
                                    config.measure);
    DRLSTREAM_RETURN_NOT_OK(env.Reset(*default_schedule));
    core::OnlineOptions online = config.online;
    online.seed = online_seed;
    const PolicyTimes before = timed.times();
    dl::StatusOr<core::OnlineResult> result = dl::Status::Internal("unset");
    double online_s = 0.0;
    {
      Stopwatch watch(&online_s);
      result = core::RunOnline(&timed, &env, online);
    }
    const PolicyTimes& after = timed.times();
    deploy_s += online_s - ((after.decide_s - before.decide_s) +
                            (after.observe_s - before.observe_s) +
                            (after.train_s - before.train_s));
    *online_timer += online_s;
    sims.Add(env.simulator()->counters(), env.simulator()->now_ms());
    *times = after;
    return result;
  };
  PolicyTimes ddpg_times, dqn_times;
  DRLSTREAM_ASSIGN_OR_RETURN(
      core::OnlineResult ddpg_online,
      train_agent("ddpg", full_db, config.seed + 2000, config.seed + 11,
                  &L["core.online_ddpg_s"], &ddpg_times));
  DRLSTREAM_ASSIGN_OR_RETURN(
      core::OnlineResult dqn_online,
      train_agent("dqn", single_db, config.seed + 3000, config.seed + 21,
                  &L["core.online_dqn_s"], &dqn_times));

  out->schedules = {*default_schedule, *model_schedule,
                    dqn_online.final_schedule, ddpg_online.final_schedule};
  out->ddpg_rewards = ddpg_online.rewards;
  out->dqn_rewards = dqn_online.rewards;
  out->AddOnline(ddpg_online);
  out->AddOnline(dqn_online);
  {
    Stopwatch watch(&L["core.series_s"]);
    DRLSTREAM_RETURN_NOT_OK(MeasureSeries(s, out));
  }

  for (const PolicyTimes* t : {&ddpg_times, &dqn_times}) {
    L["rl.pretrain_s"] += t->pretrain_s;
    L["rl.train_s"] += t->train_s;
    L["rl.train_steps"] += static_cast<double>(t->train_steps);
    L["rl.decide_s"] += t->decide_s;
    L["rl.decisions"] += static_cast<double>(t->decisions);
    L["rl.observe_s"] += t->observe_s;
  }
  L["core.deploy_s"] = deploy_s;
  const double owned_busy =
      L["core.collect_full_s"] + L["core.collect_single_s"] + deploy_s;
  L["sim.busy_s"] = owned_busy + L["core.series_s"];
  sims.Report(owned_busy, layers);
  L["core.stage_sum_s"] = L["core.collect_full_s"] +
                          L["core.collect_single_s"] +
                          L["sched.model_fit_s"] + L["sched.model_search_s"] +
                          L["sched.decide_s"] + L["rl.pretrain_s"] +
                          L["core.online_ddpg_s"] + L["core.online_dqn_s"] +
                          L["core.series_s"];
  return dl::Status::OK();
}

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void CheckOutcome(const Setup& s, const Outcome& outcome, RunResult* result) {
  const int n = s.app.topology.num_executors();
  const int m = s.cluster.num_machines;
  std::string bad;
  for (size_t i = 0; i < outcome.schedules.size(); ++i) {
    if (!ValidSchedule(outcome.schedules[i], n, m)) {
      bad += std::string(bad.empty() ? "" : ",") + kMethods[i];
    }
  }
  result->AddCheck("final schedules place every executor on a machine",
                   bad.empty(), bad.empty() ? "4 schedules" : "bad: " + bad);
  result->AddCheck("rewards are finite",
                   AllFinite(outcome.ddpg_rewards) &&
                       AllFinite(outcome.dqn_rewards),
                   std::to_string(outcome.ddpg_rewards.size() +
                                  outcome.dqn_rewards.size()) +
                       " rewards");
  result->AddCheck("no disruption occurred", outcome.disruptions == 0,
                   std::to_string(outcome.disruptions) + " disruptions");
  bool series_ok = outcome.series.size() == outcome.schedules.size();
  for (const std::vector<double>& s : outcome.series) {
    for (double v : s) series_ok = series_ok && std::isfinite(v) && v > 0.0;
  }
  result->AddCheck("latency series are finite and positive", series_ok, "");
}

std::string SchedulesFingerprint(const Outcome& outcome) {
  uint64_t hash = HashInts({});
  for (const sched::Schedule& schedule : outcome.schedules) {
    hash = HashInts(schedule.assignments(), hash);
  }
  return Hex(hash);
}

}  // namespace

dl::Status RunTrainCq(const Options& options, RunResult* result) {
  const std::unique_ptr<Setup> setup = MakeSetup(options);
  if (result->SetupDone(options)) return dl::Status::OK();

  Outcome untraced;
  JobTimes jobs;
  int differing = 0;  // repeats whose results differ from the first's
  int64_t failed_epochs = 0;
  const Clock::time_point start = Clock::now();
  while (jobs.WantMore(options, start)) {
    Outcome outcome;
    {
      JobTimer timer(&jobs);
      DRLSTREAM_RETURN_NOT_OK(RunPipeline(*setup, &outcome));
    }
    failed_epochs += outcome.failed_epochs;
    if (jobs.repeats() == 1) {
      untraced = std::move(outcome);
    } else if (!outcome.SameResults(untraced)) {
      ++differing;
    }
  }
  jobs.Report(result);
  result->SetMetric("peak_rss_mb", PeakRssMb(), "MB");
  result->SetMetric("ac_latency_ms", untraced.AcLatencyMs(), "ms",
                    kStabilizedTail);
  for (size_t i = 0; i < untraced.series.size(); ++i) {
    result->outputs[std::string("latency_ms.") + kMethods[i]] =
        Exact(untraced.Stabilized(i));
  }
  result->outputs["ac_latency_ms"] = Exact(untraced.AcLatencyMs());
  result->outputs["schedules"] = SchedulesFingerprint(untraced);
  {
    dl::Rng rng(setup->config.seed);
    result->outputs["inputs"] = Hex(HashInts(
        sched::Schedule::Random(setup->app.topology.num_executors(),
                                setup->cluster.num_machines, &rng)
            .assignments()));
  }
  CheckOutcome(*setup, untraced, result);
  result->AddCheck("every repeat reproduces the first's schedules, rewards "
                   "and latency series",
                   differing == 0,
                   std::to_string(differing) + " of " +
                       std::to_string(jobs.repeats()) + " repeats differ");
  const core::PipelineConfig& config = setup->config;
  result->ops = jobs.repeats() *
                (2 * static_cast<int64_t>(config.offline_samples) +
                 2 * static_cast<int64_t>(config.online.epochs));
  result->ops_failed = failed_epochs;

  if (!options.trace) return dl::Status::OK();

  Outcome traced;
  std::map<std::string, double>& L = result->layers;
  BeginObs();
  const double tcpu0 = ProcessCpuSeconds();
  const Clock::time_point tstart = Clock::now();
  DRLSTREAM_RETURN_NOT_OK(RunPipelineTraced(*setup, &traced, &L));
  const double traced_wall = SecondsSince(tstart);
  const double traced_cpu = ProcessCpuSeconds() - tcpu0;
  const dl::obs::MetricsSnapshot obs = EndObs();

  L["nn.train_targets_s"] = ObsSeconds(obs, "rl.ddpg.train_targets_us");
  L["nn.critic_update_s"] = ObsSeconds(obs, "rl.ddpg.critic_update_us");
  L["nn.actor_update_s"] = ObsSeconds(obs, "rl.ddpg.actor_update_us");
  L["nn.actor_forward_s"] = ObsSeconds(obs, "phase.actor_forward_us");
  L["nn.critic_score_s"] = ObsSeconds(obs, "phase.critic_score_us");
  L["miqp.knn_solve_s"] = ObsSeconds(obs, "phase.knn_solve_us");
  L["miqp.solves"] = static_cast<double>(ObsCount(obs, "miqp.solves"));
  L["result.ac_latency_ms"] = traced.AcLatencyMs();
  L["proc.cpu_s"] = traced_cpu;
  L["proc.cores_used"] = traced_cpu / traced_wall;
  L["proc.trace_overhead_pct"] =
      100.0 * (traced_wall - jobs.MinWall()) / jobs.MinWall();
  L["trace.wall_s"] = traced_wall;
  L["core.unattributed_s"] = traced_wall - L["core.stage_sum_s"];
  L["trace.unattributed_s"] = L["core.unattributed_s"];
  L["trace.covered_pct"] = 100.0 * L["core.stage_sum_s"] / traced_wall;
  result->outputs["sim.events"] = std::to_string(
      static_cast<int64_t>(L["sim.events"]));

  result->AddCheck("traced run reproduces the final schedules",
                   SchedulesFingerprint(traced) == result->outputs["schedules"],
                   SchedulesFingerprint(traced));
  result->AddCheck("traced run reproduces ac_latency_ms",
                   Exact(traced.AcLatencyMs()) ==
                       result->outputs["ac_latency_ms"],
                   Exact(traced.AcLatencyMs()));
  result->AddCheck("traced run reproduces the rewards",
                   traced.ddpg_rewards == untraced.ddpg_rewards &&
                       traced.dqn_rewards == untraced.dqn_rewards,
                   "");
  return dl::Status::OK();
}

}  // namespace perfbench
