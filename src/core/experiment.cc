#include "core/experiment.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/logging.h"
#include "common/stats.h"
#include "core/offline.h"
#include "core/scenario.h"
#include "workload/generator.h"

namespace drlstream::core {

double NominalSpoutRate(const topo::Topology& topology,
                        const topo::Workload& workload) {
  const std::vector<int> spouts = topology.SpoutComponents();
  double sum = 0.0;
  for (int s : spouts) sum += workload.RateAt(s, 0.0);
  const double mean = spouts.empty() ? 0.0 : sum / spouts.size();
  return mean > 0.0 ? mean : 100.0;
}

StatusOr<TrainedMethods> TrainAllMethods(const topo::Topology* topology,
                                         const topo::Workload& workload,
                                         const topo::ClusterConfig& cluster,
                                         const PipelineConfig& config) {
  DRLSTREAM_CHECK(topology != nullptr);
  TrainedMethods out;
  const int n = topology->num_executors();
  const int m = cluster.num_machines;

  out.encoder = std::make_unique<rl::StateEncoder>(
      n, m, topology->num_spouts(), NominalSpoutRate(*topology, workload),
      config.include_workload_in_state);

  sim::SimOptions train_sim;
  train_sim.seed = config.seed;

  // ---- Offline collection (full-random chain) ----
  {
    SchedulingEnvironment env(topology, workload, cluster, train_sim,
                              config.measure);
    Rng rng(config.seed);
    DRLSTREAM_RETURN_NOT_OK(env.Reset(sched::Schedule::Random(n, m, &rng)));
    CollectionOptions collect;
    collect.num_samples = config.offline_samples;
    collect.mode = CollectionMode::kFullRandom;
    collect.seed = config.seed + 1;
    collect.collect_details = true;
    collect.workload_factor_min = config.workload_factor_min;
    collect.workload_factor_max = config.workload_factor_max;
    DRLSTREAM_ASSIGN_OR_RETURN(out.full_random_db,
                               CollectOfflineSamples(&env, collect));
  }

  // ---- Offline collection (single-move chain, for the DQN baseline) ----
  if (config.collect_dqn_db) {
    sim::SimOptions sim2 = train_sim;
    sim2.seed = config.seed + 1000;
    SchedulingEnvironment env(topology, workload, cluster, sim2,
                              config.measure);
    Rng rng(config.seed + 2);
    DRLSTREAM_RETURN_NOT_OK(env.Reset(sched::Schedule::Random(n, m, &rng)));
    CollectionOptions collect;
    collect.num_samples = config.offline_samples;
    collect.mode = CollectionMode::kSingleMoveRandom;
    collect.seed = config.seed + 3;
    collect.collect_details = false;
    collect.workload_factor_min = config.workload_factor_min;
    collect.workload_factor_max = config.workload_factor_max;
    DRLSTREAM_ASSIGN_OR_RETURN(out.single_move_db,
                               CollectOfflineSamples(&env, collect));
  }

  // ---- Model-based baseline: fit the delay model, search a solution ----
  out.delay_model = std::make_unique<sched::DelayModel>(topology, &cluster);
  DRLSTREAM_RETURN_NOT_OK(
      out.delay_model->Fit(out.full_random_db.ToPerfSamples()));
  sched::ModelBasedScheduler model_sched(out.delay_model.get(),
                                         config.model_based);
  sched::SchedulingContext context;
  context.topology = topology;
  context.cluster = &cluster;
  context.spout_rates =
      workload.RatesVector(topology->SpoutComponents(), 0.0);
  DRLSTREAM_ASSIGN_OR_RETURN(out.model_based_schedule,
                             model_sched.ComputeSchedule(context));

  // ---- Default (round-robin) ----
  sched::RoundRobinScheduler round_robin;
  DRLSTREAM_ASSIGN_OR_RETURN(out.default_schedule,
                             round_robin.ComputeSchedule(context));

  // Robust reward normalization statistics from the collected samples.
  // Median/IQR rather than mean/std: random exploration regularly produces
  // overloaded schedules whose (capped) latencies would otherwise dominate
  // both moments and flatten the informative part of the reward scale.
  std::vector<double> raw_rewards;
  for (const rl::TransitionDatabase::Record& record :
       out.full_random_db.records()) {
    raw_rewards.push_back(record.transition.reward);
  }
  const double reward_shift = Percentile(raw_rewards, 50.0);
  const double reward_scale =
      std::max((Percentile(raw_rewards, 75.0) -
                Percentile(raw_rewards, 25.0)) / 1.35,
               1e-2);

  // ---- Actor-critic agent: offline pre-training + online learning ----
  rl::PolicyContext policy_context;
  policy_context.encoder = out.encoder.get();
  policy_context.topology = topology;
  policy_context.cluster = &cluster;
  policy_context.ddpg = config.ddpg;
  policy_context.ddpg.seed = config.seed + 10;
  policy_context.ddpg.reward_shift = reward_shift;
  policy_context.ddpg.reward_scale = reward_scale;
  DRLSTREAM_ASSIGN_OR_RETURN(
      out.ddpg, rl::PolicyRegistry::Get().Create("ddpg", policy_context));
  out.ddpg->PretrainOffline(out.full_random_db, config.pretrain_steps);
  {
    sim::SimOptions sim3 = train_sim;
    sim3.seed = config.seed + 2000;
    SchedulingEnvironment env(topology, workload, cluster, sim3,
                              config.measure);
    DRLSTREAM_RETURN_NOT_OK(env.Reset(out.default_schedule));
    OnlineOptions online = config.online;
    online.seed = config.seed + 11;
    DRLSTREAM_ASSIGN_OR_RETURN(out.ddpg_online,
                               RunOnline(out.ddpg.get(), &env, online));
  }

  // ---- DQN agent: offline pre-training + online learning ----
  if (!config.train_dqn) return out;
  policy_context.dqn = config.dqn;
  policy_context.dqn.seed = config.seed + 20;
  policy_context.dqn.reward_shift = reward_shift;
  policy_context.dqn.reward_scale = reward_scale;
  DRLSTREAM_ASSIGN_OR_RETURN(
      out.dqn, rl::PolicyRegistry::Get().Create("dqn", policy_context));
  if (config.collect_dqn_db) {
    out.dqn->PretrainOffline(out.single_move_db, config.pretrain_steps);
  }
  {
    sim::SimOptions sim4 = train_sim;
    sim4.seed = config.seed + 3000;
    SchedulingEnvironment env(topology, workload, cluster, sim4,
                              config.measure);
    DRLSTREAM_RETURN_NOT_OK(env.Reset(out.default_schedule));
    OnlineOptions online = config.online;
    online.seed = config.seed + 21;
    DRLSTREAM_ASSIGN_OR_RETURN(out.dqn_online,
                               RunOnline(out.dqn.get(), &env, online));
  }

  return out;
}

StatusOr<std::unique_ptr<sim::ClusterSim>> StartSeriesSimulator(
    const topo::Topology& topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, const SeriesOptions& options,
    const sim::FaultPlan& plan, const workload::WorkloadGenerator* generator) {
  sim::SimOptions sim_options;
  sim_options.seed = options.seed;
  sim_options.functional = options.functional;
  sim_options.warmup_extra = options.warmup_extra;
  sim_options.warmup_tau_ms = options.warmup_tau_min * options.minute_ms;
  auto simulator = std::make_unique<sim::ClusterSim>(cluster, sim_options);
  if (!plan.empty()) DRLSTREAM_RETURN_NOT_OK(simulator->InstallFaultPlan(plan));

  // The system was running under the default (round-robin, multi-process)
  // deployment before the scheduler under test takes over.
  sched::RoundRobinScheduler default_scheduler;
  sched::SchedulingContext default_context;
  default_context.topology = &topology;
  default_context.cluster = &cluster;
  default_context.spout_rates =
      workload.RatesVector(topology.SpoutComponents(), 0.0);
  DRLSTREAM_ASSIGN_OR_RETURN(
      const sched::Schedule previous,
      default_scheduler.ComputeSchedule(default_context));
  DRLSTREAM_RETURN_NOT_OK(
      simulator->AddTenant(&topology, &workload, previous).status());
  if (generator != nullptr) {
    DRLSTREAM_RETURN_NOT_OK(
        simulator->SetTenantWorkloadGenerator(0, generator));
  }
  DRLSTREAM_RETURN_NOT_OK(simulator->Start());
  return simulator;
}

StatusOr<std::vector<double>> MeasureLatencySeries(
    const topo::Topology& topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, const sched::Schedule& schedule,
    const SeriesOptions& options) {
  if (options.points <= 0) {
    return Status::InvalidArgument("points must be positive");
  }
  if (options.measure_window_ms > options.minute_ms) {
    return Status::InvalidArgument("measure window exceeds the minute");
  }
  // The solution under test is deployed at reported time 0.
  DRLSTREAM_ASSIGN_OR_RETURN(
      const std::unique_ptr<sim::ClusterSim> simulator,
      StartSeriesSimulator(topology, workload, cluster, options,
                           sim::FaultPlan(), nullptr));
  simulator->RunFor(options.pre_roll_ms);
  DRLSTREAM_RETURN_NOT_OK(simulator->Migrate(0, schedule));

  std::vector<double> series;
  series.reserve(options.points);
  for (int p = 0; p < options.points; ++p) {
    simulator->RunFor(options.minute_ms - options.measure_window_ms);
    simulator->ResetWindow();
    simulator->RunFor(options.measure_window_ms);
    series.push_back(simulator->WindowAvgLatencyMs());
  }
  return series;
}

StatusOr<std::vector<double>> MeasureAdaptiveSeries(
    const topo::Topology& topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, sched::Scheduler* scheduler,
    const AdaptiveSeriesOptions& options) {
  DRLSTREAM_CHECK(scheduler != nullptr);
  const SeriesOptions& series_opts = options.series;
  if (series_opts.points <= 0 ||
      options.surge_at_point >= series_opts.points) {
    return Status::InvalidArgument("bad adaptive series configuration");
  }
  // The Fig. 12 step-change is the degenerate drift scenario: a ramp of
  // zero width at the surge time. Routing it through the generator API
  // keeps one modulation path in the simulator.
  const double surge_ms =
      series_opts.pre_roll_ms + options.surge_at_point * series_opts.minute_ms;
  workload::DriftConfig drift;
  drift.from = 1.0;
  drift.to = options.surge_factor;
  drift.start_ms = surge_ms;
  drift.end_ms = surge_ms;
  DRLSTREAM_ASSIGN_OR_RETURN(
      const std::unique_ptr<workload::WorkloadGenerator> generator,
      workload::MakeDrift(drift));
  ScenarioOptions scenario;
  scenario.series = series_opts;
  scenario.generator = generator.get();
  DRLSTREAM_ASSIGN_OR_RETURN(
      const ScenarioRunResult result,
      MeasureScenarioSeries(topology, workload, cluster, scheduler, scenario));
  return result.series;
}

namespace {

std::string FormatMagnitude(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::string FaultBoundaryLabel(const sim::FaultEvent& event,
                               bool window_end) {
  const std::string target =
      event.machine < 0 ? "all" : "m" + std::to_string(event.machine);
  switch (event.type) {
    case sim::FaultType::kMachineCrash:
      return "crash(" + target + ")";
    case sim::FaultType::kMachineRecover:
      return "recover(" + target + ")";
    case sim::FaultType::kStraggler:
      return window_end ? "straggler(" + target + ") end"
                        : "straggler(" + target + ")x" +
                              FormatMagnitude(event.magnitude);
    case sim::FaultType::kLinkSpike:
      return window_end ? "link_spike(" + target + ") end"
                        : "link_spike(" + target + ")+" +
                              FormatMagnitude(event.magnitude) + "ms";
    case sim::FaultType::kSpoutShock:
      return "spout_shock x" + FormatMagnitude(event.magnitude);
  }
  return "fault";
}

}  // namespace

StatusOr<FaultRunResult> MeasureFaultSeries(const topo::Topology& topology,
                                            const topo::Workload& workload,
                                            const topo::ClusterConfig& cluster,
                                            sched::Scheduler* scheduler,
                                            const FaultSeriesOptions& options) {
  DRLSTREAM_CHECK(scheduler != nullptr);
  const SeriesOptions& series_opts = options.series;
  if (series_opts.points <= 0) {
    return Status::InvalidArgument("points must be positive");
  }
  DRLSTREAM_RETURN_NOT_OK(options.plan.Validate(cluster.num_machines));
  const double total_end_ms =
      series_opts.pre_roll_ms + series_opts.points * series_opts.minute_ms;

  DRLSTREAM_ASSIGN_OR_RETURN(
      const std::unique_ptr<sim::ClusterSim> simulator,
      StartSeriesSimulator(topology, workload, cluster, series_opts,
                           options.plan, nullptr));

  FaultRunResult result;
  result.timeline = options.plan.events();

  // Merged boundary walk: the run is cut at every fault boundary (event
  // time and, for windowed faults, window end), at the pre-roll end, and at
  // every reported-minute end. Each segment is measured in isolation
  // (ResetWindow before, weighted accumulation after), so per-minute and
  // per-phase averages are exact regardless of how boundaries interleave.
  enum class BoundaryKind { kFault, kPreRollEnd, kPointEnd };
  struct Boundary {
    double time_ms;
    BoundaryKind kind;
    int fault_index = -1;    // into plan.events() for kFault
    bool window_end = false; // kFault: end of a straggler/spike window
  };
  std::vector<Boundary> boundaries;
  const std::vector<sim::FaultEvent>& events = options.plan.events();
  for (int i = 0; i < static_cast<int>(events.size()); ++i) {
    const sim::FaultEvent& event = events[i];
    if (event.time_ms < total_end_ms) {
      boundaries.push_back({event.time_ms, BoundaryKind::kFault, i, false});
    }
    if ((event.type == sim::FaultType::kStraggler ||
         event.type == sim::FaultType::kLinkSpike) &&
        event.time_ms + event.duration_ms < total_end_ms) {
      boundaries.push_back({event.time_ms + event.duration_ms,
                            BoundaryKind::kFault, i, true});
    }
  }
  boundaries.push_back({series_opts.pre_roll_ms, BoundaryKind::kPreRollEnd});
  for (int p = 0; p < series_opts.points; ++p) {
    boundaries.push_back(
        {series_opts.pre_roll_ms + (p + 1) * series_opts.minute_ms,
         BoundaryKind::kPointEnd});
  }
  std::stable_sort(boundaries.begin(), boundaries.end(),
                   [](const Boundary& a, const Boundary& b) {
                     return a.time_ms < b.time_ms;
                   });

  // Re-computes the scheduler's solution against the current cluster state
  // (dead machines masked out) and migrates if it changed. A scheduler
  // failure degrades to keeping the repaired current schedule.
  const auto react = [&]() -> StatusOr<int> {
    sched::SchedulingContext context;
    context.topology = &topology;
    context.cluster = &cluster;
    context.spout_rates =
        workload.RatesVector(topology.SpoutComponents(), simulator->now_ms());
    const sched::Schedule current = simulator->TenantSchedule(0);
    context.current = &current;
    const std::vector<uint8_t> mask = simulator->MachineUpMask();
    const bool degraded = topo::AliveCount(mask) < cluster.num_machines;
    if (degraded) context.machine_up = mask;
    StatusOr<sched::Schedule> next_or = scheduler->ComputeSchedule(context);
    sched::Schedule next = next_or.ok() ? *next_or : current;
    if (!next_or.ok()) {
      DRLSTREAM_LOG(kWarning)
          << "fault run: scheduler '" << scheduler->name() << "' failed ("
          << next_or.status().ToString()
          << "); keeping the repaired current schedule";
    }
    if (degraded) next = sched::RepairToAliveMachines(next, mask);
    const int moved = next.DiffCount(current);
    if (moved > 0) DRLSTREAM_RETURN_NOT_OK(simulator->Migrate(0, next));
    return moved;
  };

  result.series.reserve(series_opts.points);
  double point_sum = 0.0;
  long long point_count = 0;

  FaultPhaseStats phase;
  phase.label = "healthy";
  phase.start_ms = 0.0;
  double phase_sum = 0.0;
  long long phase_count = 0;
  sim::SimCounters phase_base = simulator->counters();

  const auto close_phase = [&](double end_ms) {
    phase.end_ms = end_ms;
    phase.avg_latency_ms =
        phase_count > 0 ? phase_sum / static_cast<double>(phase_count) : 0.0;
    const sim::SimCounters& c = simulator->counters();
    phase.roots_completed = c.roots_completed - phase_base.roots_completed;
    phase.roots_failed = c.roots_failed - phase_base.roots_failed;
    phase.tuples_dropped = c.tuples_dropped - phase_base.tuples_dropped;
    result.phases.push_back(phase);
  };
  const auto open_phase = [&](double start_ms, const std::string& label,
                              int executors_moved) {
    phase = FaultPhaseStats();
    phase.label = label;
    phase.start_ms = start_ms;
    phase.executors_moved = executors_moved;
    phase.dead_machines =
        cluster.num_machines - topo::AliveCount(simulator->MachineUpMask());
    phase_sum = 0.0;
    phase_count = 0;
    phase_base = simulator->counters();
  };

  simulator->ResetWindow();
  for (const Boundary& boundary : boundaries) {
    simulator->RunUntil(boundary.time_ms);
    const long long seg_count =
        static_cast<long long>(simulator->window_latency().count());
    const double seg_sum = simulator->WindowAvgLatencyMs() * seg_count;
    phase_sum += seg_sum;
    phase_count += seg_count;
    if (boundary.time_ms > series_opts.pre_roll_ms) {
      point_sum += seg_sum;
      point_count += seg_count;
    }
    simulator->ResetWindow();

    switch (boundary.kind) {
      case BoundaryKind::kPreRollEnd: {
        // The measured scheduler takes over at reported time 0; the
        // pre-roll (round-robin deployment) never counts toward the series.
        point_sum = 0.0;
        point_count = 0;
        DRLSTREAM_RETURN_NOT_OK(react().status());
        break;
      }
      case BoundaryKind::kPointEnd: {
        result.series.push_back(
            point_count > 0 ? point_sum / static_cast<double>(point_count)
                            : 0.0);
        point_sum = 0.0;
        point_count = 0;
        DRLSTREAM_RETURN_NOT_OK(react().status());
        break;
      }
      case BoundaryKind::kFault: {
        const std::string label = FaultBoundaryLabel(
            events[boundary.fault_index], boundary.window_end);
        DRLSTREAM_ASSIGN_OR_RETURN(const int moved, react());
        if (boundary.time_ms <= phase.start_ms) {
          // Coincident fault boundaries fold into one phase instead of
          // emitting zero-length entries.
          phase.label += "+" + label;
          phase.executors_moved += moved;
          phase.dead_machines =
              cluster.num_machines -
              topo::AliveCount(simulator->MachineUpMask());
        } else {
          close_phase(boundary.time_ms);
          open_phase(boundary.time_ms, label, moved);
        }
        break;
      }
    }
  }
  close_phase(total_end_ms);

  result.final_counters = simulator->counters();
  result.final_machine_up = simulator->MachineUpMask();
  result.final_machine_executors = simulator->MachineExecutorCounts();
  result.executors_on_dead_machines = simulator->ExecutorsOnDeadMachines();
  if (obs::MetricsEnabled()) {
    result.metrics = obs::MetricsRegistry::Get().Snapshot();
  }
  return result;
}

}  // namespace drlstream::core
