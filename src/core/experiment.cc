#include "core/experiment.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/stats.h"
#include "core/offline.h"
#include "obs/metrics.h"

namespace drlstream::core {

double NominalSpoutRate(const topo::Topology& topology,
                        const topo::Workload& workload) {
  const std::vector<int> spouts = topology.SpoutComponents();
  double sum = 0.0;
  for (int s : spouts) sum += workload.BaseRate(s);
  const double mean = spouts.empty() ? 0.0 : sum / spouts.size();
  return mean > 0.0 ? mean : 100.0;
}

rl::PolicyContext PipelinePolicyContext(const topo::Topology* topology,
                                        const topo::Workload& workload,
                                        const topo::ClusterConfig& cluster,
                                        const PipelineConfig& config,
                                        TrainedMethods* out) {
  out->encoder = std::make_unique<rl::StateEncoder>(
      topology->num_executors(), cluster.num_machines, topology->num_spouts(),
      NominalSpoutRate(*topology, workload), config.include_workload_in_state);
  rl::PolicyContext context;
  context.encoder = out->encoder.get();
  context.topology = topology;
  context.cluster = &cluster;
  context.ddpg = config.ddpg;
  context.ddpg.seed = config.seed + 10;
  context.dqn = config.dqn;
  context.dqn.seed = config.seed + 20;
  return context;
}

StatusOr<TrainedMethods> TrainAllMethods(const topo::Topology* topology,
                                         const topo::Workload& workload,
                                         const topo::ClusterConfig& cluster,
                                         const PipelineConfig& config) {
  DRLSTREAM_CHECK(topology != nullptr);
  TrainedMethods out;
  rl::PolicyContext policy_context =
      PipelinePolicyContext(topology, workload, cluster, config, &out);
  const int n = topology->num_executors();
  const int m = cluster.num_machines;

  // ---- Offline collection: the full-random chain, and the single-move
  // chain for the DQN baseline. Only the model-based fit reads details. ----
  const auto collect = [&](CollectionMode mode, uint64_t sim_seed,
                           uint64_t start_seed, uint64_t collect_seed,
                           rl::TransitionDatabase* db) -> Status {
    sim::SimOptions sim_options;
    sim_options.seed = sim_seed;
    SchedulingEnvironment env(topology, workload, cluster, sim_options,
                              config.measure);
    Rng rng(start_seed);
    DRLSTREAM_RETURN_NOT_OK(env.Reset(sched::Schedule::Random(n, m, &rng)));
    CollectionOptions options;
    options.num_samples = config.offline_samples;
    options.mode = mode;
    options.seed = collect_seed;
    options.collect_details = mode == CollectionMode::kFullRandom;
    options.workload_factor_min = config.workload_factor_min;
    options.workload_factor_max = config.workload_factor_max;
    DRLSTREAM_ASSIGN_OR_RETURN(*db, CollectOfflineSamples(&env, options));
    return Status::OK();
  };
  DRLSTREAM_RETURN_NOT_OK(collect(CollectionMode::kFullRandom, config.seed,
                                  config.seed, config.seed + 1,
                                  &out.full_random_db));
  if (config.train_dqn) {
    DRLSTREAM_RETURN_NOT_OK(collect(CollectionMode::kSingleMoveRandom,
                                    config.seed + 1000, config.seed + 2,
                                    config.seed + 3, &out.single_move_db));
  }
  const double reward_cap_ms = CollectionOptions().reward_cap_ms;

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
    if (record.transition.reward <= -reward_cap_ms) ++out.samples_at_cap;
  }
  const double reward_shift = Percentile(raw_rewards, 50.0);
  const double reward_scale =
      std::max((Percentile(raw_rewards, 75.0) -
                Percentile(raw_rewards, 25.0)) / 1.35,
               kMinRewardScale);
  out.reward_shift = reward_shift;
  out.reward_scale = reward_scale;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Get();
  metrics.gauge("rl.reward_shift")->Set(reward_shift);
  metrics.gauge("rl.reward_scale")->Set(reward_scale);
  metrics.counter("core.samples_at_cap")->Add(out.samples_at_cap);
  if (reward_scale <= kMinRewardScale) {
    DRLSTREAM_LOG(kWarning)
        << "core: " << topology->name() << ": reward scale at its floor ("
        << kMinRewardScale << "): " << out.samples_at_cap << " of "
        << raw_rewards.size() << " full-random samples sit at the "
        << reward_cap_ms << " ms cap, so the rewards have no spread";
  }

  // ---- Each agent: offline pre-training + online learning ----
  policy_context.ddpg.reward_shift = reward_shift;
  policy_context.ddpg.reward_scale = reward_scale;
  policy_context.dqn.reward_shift = reward_shift;
  policy_context.dqn.reward_scale = reward_scale;
  const auto train_agent = [&](const char* key,
                               const rl::TransitionDatabase& db,
                               uint64_t sim_seed, uint64_t online_seed,
                               std::unique_ptr<rl::Policy>* agent,
                               OnlineResult* result) -> Status {
    DRLSTREAM_ASSIGN_OR_RETURN(
        *agent, rl::PolicyRegistry::Get().Create(key, policy_context));
    (*agent)->PretrainOffline(db, config.pretrain_steps);
    sim::SimOptions sim_options;
    sim_options.seed = sim_seed;
    SchedulingEnvironment env(topology, workload, cluster, sim_options,
                              config.measure);
    DRLSTREAM_RETURN_NOT_OK(env.Reset(out.default_schedule));
    OnlineOptions online = config.online;
    online.seed = online_seed;
    DRLSTREAM_ASSIGN_OR_RETURN(*result, RunOnline(agent->get(), &env, online));
    return Status::OK();
  };
  DRLSTREAM_RETURN_NOT_OK(train_agent("ddpg", out.full_random_db,
                                      config.seed + 2000, config.seed + 11,
                                      &out.ddpg, &out.ddpg_online));
  if (!config.train_dqn) return out;
  DRLSTREAM_RETURN_NOT_OK(train_agent("dqn", out.single_move_db,
                                      config.seed + 3000, config.seed + 21,
                                      &out.dqn, &out.dqn_online));
  return out;
}

namespace {

/// Time constant, in reported minutes, of a series' cold-start inflation
/// (SeriesOptions::warmup_extra).
constexpr double kWarmupTauMinutes = 2.5;

/// Starts the simulator a series runs on, seeded and warmed up as `spec`
/// says: `topology` is tenant 0 under the default round-robin deployment
/// the system ran before the solution under test, with the spec's fault
/// plan and generator installed.
StatusOr<std::unique_ptr<sim::ClusterSim>> StartSeriesSimulator(
    const topo::Topology& topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, const SeriesSpec& spec) {
  sim::SimOptions sim_options;
  sim_options.seed = spec.series.seed;
  sim_options.warmup_extra = spec.series.warmup_extra;
  sim_options.warmup_tau_ms = kWarmupTauMinutes * spec.series.minute_ms;
  auto simulator = std::make_unique<sim::ClusterSim>(cluster, sim_options);
  if (!spec.plan.empty()) {
    DRLSTREAM_RETURN_NOT_OK(simulator->InstallFaultPlan(spec.plan));
  }
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
  if (spec.generator != nullptr) {
    DRLSTREAM_RETURN_NOT_OK(
        simulator->SetTenantWorkloadGenerator(0, spec.generator));
  }
  DRLSTREAM_RETURN_NOT_OK(simulator->Start());
  return simulator;
}

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

/// A simulated time at which the series loop stops.
struct Cut {
  enum Kind { kPreRollEnd, kWindowStart, kMinuteEnd, kFault };
  Kind kind;
  double time_ms;
  int fault_index = -1;     // kFault: into plan.events()
  bool window_end = false;  // kFault: end of a straggler/spike window
};

/// Always proposes the schedule under test.
class FixedScheduler : public sched::Scheduler {
 public:
  explicit FixedScheduler(const sched::Schedule& schedule)
      : schedule_(schedule) {}
  std::string name() const override { return "fixed"; }
  StatusOr<sched::Schedule> ComputeSchedule(
      const sched::SchedulingContext& /*context*/) override {
    return schedule_;
  }

 private:
  const sched::Schedule& schedule_;
};

}  // namespace

std::vector<double> SeriesResult::LatencySeries() const {
  std::vector<double> series;
  series.reserve(points.size());
  for (const SeriesPoint& point : points) {
    series.push_back(point.avg_latency_ms);
  }
  return series;
}

StatusOr<SeriesResult> RunSeries(const topo::Topology& topology,
                                 const topo::Workload& workload,
                                 const topo::ClusterConfig& cluster,
                                 sched::Scheduler* scheduler,
                                 const SeriesSpec& spec) {
  DRLSTREAM_CHECK(scheduler != nullptr);
  const SeriesOptions& options = spec.series;
  if (options.points <= 0) {
    return Status::InvalidArgument("points must be positive");
  }
  if (options.measure_window_ms > options.minute_ms) {
    return Status::InvalidArgument("measure window exceeds the minute");
  }
  DRLSTREAM_ASSIGN_OR_RETURN(
      const std::unique_ptr<sim::ClusterSim> simulator,
      StartSeriesSimulator(topology, workload, cluster, spec));

  // The loop stops at the pre-roll end, at each minute's window start and
  // end, and at every fault boundary before the run's end. Minute times
  // accumulate as successive RunFor steps would.
  std::vector<Cut> cuts = {{Cut::kPreRollEnd, options.pre_roll_ms}};
  double end_ms = options.pre_roll_ms;
  for (int p = 0; p < options.points; ++p) {
    const double window_ms =
        end_ms + (options.minute_ms - options.measure_window_ms);
    end_ms = window_ms + options.measure_window_ms;
    cuts.push_back({Cut::kWindowStart, window_ms});
    cuts.push_back({Cut::kMinuteEnd, end_ms});
  }
  const std::vector<sim::FaultEvent>& events = spec.plan.events();
  for (int i = 0; i < static_cast<int>(events.size()); ++i) {
    const sim::FaultEvent& event = events[i];
    if (event.time_ms < end_ms) {
      cuts.push_back({Cut::kFault, event.time_ms, i, false});
    }
    if ((event.type == sim::FaultType::kStraggler ||
         event.type == sim::FaultType::kLinkSpike) &&
        event.time_ms + event.duration_ms < end_ms) {
      cuts.push_back({Cut::kFault, event.time_ms + event.duration_ms, i,
                      true});
    }
  }
  std::stable_sort(cuts.begin(), cuts.end(), [](const Cut& a, const Cut& b) {
    return a.time_ms < b.time_ms;
  });

  // Re-computes the scheduler's solution for the current state (dead
  // machines masked out) and migrates the executors that moved. A failing
  // scheduler keeps the current schedule.
  const auto react = [&]() -> StatusOr<int> {
    sched::SchedulingContext context;
    context.topology = &topology;
    context.cluster = &cluster;
    context.spout_rates = simulator->TenantEffectiveSpoutRates(0);
    const sched::Schedule current = simulator->TenantSchedule(0);
    context.current = &current;
    const std::vector<uint8_t> mask = simulator->MachineUpMask();
    const bool degraded = topo::AliveCount(mask) < cluster.num_machines;
    if (degraded) context.machine_up = mask;
    StatusOr<sched::Schedule> next_or = scheduler->ComputeSchedule(context);
    if (!next_or.ok()) {
      DRLSTREAM_LOG(kWarning)
          << "series: scheduler '" << scheduler->name() << "' failed ("
          << next_or.status().ToString()
          << "); keeping the current schedule";
    }
    sched::Schedule next = next_or.ok() ? std::move(next_or).value() : current;
    if (next.num_executors() != current.num_executors() ||
        next.num_machines() != current.num_machines()) {
      return Status::InvalidArgument("schedule dimensions mismatch");
    }
    if (degraded) next = sched::RepairToAliveMachines(next, mask);
    const int moved = next.DiffCount(current);
    if (moved > 0) DRLSTREAM_RETURN_NOT_OK(simulator->Migrate(0, next));
    return moved;
  };

  SeriesResult result;
  result.scheduler = scheduler->name();
  result.workload =
      spec.generator != nullptr ? spec.generator->Describe() : "none";
  result.timeline = events;
  result.points.reserve(options.points);
  const std::vector<int> spouts = topology.SpoutComponents();
  RunningStats window;  // the current minute's measurement window
  bool in_window = false;
  int moved_in_minute = 0;
  double joules_mark = 0.0;

  // With a fault plan, the run also splits into phases at fault boundaries.
  const bool phased = !spec.plan.empty();
  SeriesPhase phase;
  phase.label = "healthy";
  RunningStats phase_latency;
  sim::SimCounters phase_base = simulator->counters();
  const auto close_phase = [&](double end) {
    phase.end_ms = end;
    phase.avg_latency_ms = phase_latency.mean();
    const sim::SimCounters& c = simulator->counters();
    phase.roots_completed = c.roots_completed - phase_base.roots_completed;
    phase.roots_failed = c.roots_failed - phase_base.roots_failed;
    phase.tuples_dropped = c.tuples_dropped - phase_base.tuples_dropped;
    result.phases.push_back(phase);
  };

  // Each stop measures the segment since the previous one, then handles
  // every cut at its time, then lets the scheduler react once.
  for (size_t i = 0; i < cuts.size();) {
    const double now = cuts[i].time_ms;
    simulator->RunUntil(now);
    if (in_window) window.Merge(simulator->window_latency());
    if (phased) phase_latency.Merge(simulator->window_latency());
    simulator->ResetWindow();

    bool react_here = false;
    std::string label;
    for (; i < cuts.size() && cuts[i].time_ms == now; ++i) {
      const Cut& cut = cuts[i];
      switch (cut.kind) {
        case Cut::kPreRollEnd:
          // The scheduler under test takes over at reported time 0.
          joules_mark = simulator->TotalJoules();
          moved_in_minute = 0;
          react_here = true;
          break;
        case Cut::kWindowStart:
          in_window = true;
          break;
        case Cut::kMinuteEnd: {
          SeriesPoint point;
          point.time_ms = now;
          point.avg_latency_ms = window.mean();
          if (!spouts.empty()) {
            double sum = 0.0;
            for (int component : spouts) {
              sum += simulator->TenantRateMultiplier(0, component);
            }
            point.rate_multiplier = sum / static_cast<double>(spouts.size());
          }
          const double joules_now = simulator->TotalJoules();
          point.joules = joules_now - joules_mark;
          point.avg_power_watts = point.joules / (options.minute_ms / 1000.0);
          joules_mark = joules_now;
          for (int m = 0; m < cluster.num_machines; ++m) {
            if (simulator->MachineAsleep(m)) ++point.machines_asleep;
          }
          point.executors_moved = moved_in_minute;
          result.points.push_back(point);
          window.Reset();
          in_window = false;
          moved_in_minute = 0;
          // The next minute starts here.
          react_here = react_here ||
                       static_cast<int>(result.points.size()) < options.points;
          break;
        }
        case Cut::kFault:
          if (!label.empty()) label += "+";
          label += FaultBoundaryLabel(events[cut.fault_index], cut.window_end);
          react_here = true;
          break;
      }
    }
    if (!react_here) continue;
    DRLSTREAM_ASSIGN_OR_RETURN(const int moved, react());
    moved_in_minute += moved;
    if (label.empty()) continue;
    if (now > phase.start_ms) {
      close_phase(now);
      phase = SeriesPhase();
      phase.label = label;
      phase.start_ms = now;
      phase_latency.Reset();
      phase_base = simulator->counters();
    } else {
      // Boundaries at time 0 fold into the first phase.
      phase.label += "+" + label;
    }
    phase.executors_moved += moved;
    phase.dead_machines =
        cluster.num_machines - topo::AliveCount(simulator->MachineUpMask());
  }
  if (phased) close_phase(end_ms);

  result.total_joules = simulator->TotalJoules();
  const double total_ms = simulator->now_ms();
  result.avg_power_watts =
      total_ms > 0.0 ? result.total_joules / (total_ms / 1000.0) : 0.0;
  result.final_counters = simulator->counters();
  result.final_machine_up = simulator->MachineUpMask();
  result.final_machine_executors = simulator->MachineExecutorCounts();
  result.executors_on_dead_machines = simulator->ExecutorsOnDeadMachines();
  if (obs::MetricsEnabled()) {
    result.metrics = obs::MetricsRegistry::Get().Snapshot();
  }
  return result;
}

StatusOr<std::vector<double>> MeasureLatencySeries(
    const topo::Topology& topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, const sched::Schedule& schedule,
    const SeriesOptions& options) {
  FixedScheduler scheduler(schedule);
  SeriesSpec spec;
  spec.series = options;
  DRLSTREAM_ASSIGN_OR_RETURN(
      const SeriesResult result,
      RunSeries(topology, workload, cluster, &scheduler, spec));
  return result.LatencySeries();
}

}  // namespace drlstream::core
