#ifndef DRLSTREAM_CORE_EXPERIMENT_H_
#define DRLSTREAM_CORE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/environment.h"
#include "core/online.h"
#include "obs/metrics.h"
#include "rl/policy_registry.h"
#include "sched/model_based.h"
#include "sched/scheduler.h"
#include "sim/faults.h"
#include "topo/apps.h"
#include "workload/generator.h"

namespace drlstream::core {

/// Configuration of the end-to-end training pipeline (offline collection ->
/// model fitting / pre-training -> online learning). The defaults are the
/// reproduction's one set of settings, which `bench/repro` and the
/// `online_learning` example start from: a budget sized so the five-setup
/// table runs in about twenty minutes (the paper's 10,000 offline samples
/// and 1,500-2,000 epochs are reachable via flags), K = 32, two train steps
/// per epoch and gamma = 0.9 for both agents (DESIGN.md section 7). The
/// agent configs' own defaults stay the paper's (gamma = 0.99, K = 16).
struct PipelineConfig {
  int offline_samples = 600;
  int pretrain_steps = 2500;
  OnlineOptions online;
  MeasurementConfig measure;
  /// Workload randomization during offline collection (gives the agents
  /// exposure to the `w` part of the state; enables Fig. 12 adaptivity).
  double workload_factor_min = 0.8;
  double workload_factor_max = 1.7;
  rl::DdpgConfig ddpg;
  rl::DqnConfig dqn;
  sched::ModelBasedOptions model_based;
  uint64_t seed = 11;
  /// Encode the workload `w` into the DRL state (Section 3.2). Disabled by
  /// the state ablation bench.
  bool include_workload_in_state = true;
  /// Train the DQN baseline: collect its single-move database, pre-train
  /// on it and run online learning. Runs that only study the actor-critic
  /// agent (the ablations, workload_adaptation) turn this off.
  bool train_dqn = true;

  PipelineConfig() {
    // Stabilization must cover the migration pause plus queue drain, or the
    // reward measures deployment churn instead of the solution's quality.
    measure.stabilize_ms = 2500.0;
    measure.num_measurements = 3;
    measure.measurement_interval_ms = 400.0;
    online.epochs = 800;
    online.train_steps_per_epoch = 2;
    ddpg.knn_k = 32;
    ddpg.gamma = 0.9;
    dqn.gamma = 0.9;
  }
};

/// The floor of the reward scale TrainAllMethods derives. A scale at the
/// floor means the full-random rewards have no spread: most of them sit at
/// the collection's latency cap.
inline constexpr double kMinRewardScale = 1e-2;

/// Everything the benches need after training: the trained policies
/// (constructed through the policy registry; `ddpg` is "ddpg", `dqn` is
/// "dqn"), the fitted delay model, the learning curves, and the scheduling
/// solutions of all four compared methods.
struct TrainedMethods {
  std::unique_ptr<rl::StateEncoder> encoder;
  std::unique_ptr<rl::Policy> ddpg;
  std::unique_ptr<rl::Policy> dqn;
  std::unique_ptr<sched::DelayModel> delay_model;
  rl::TransitionDatabase full_random_db;
  rl::TransitionDatabase single_move_db;
  OnlineResult ddpg_online;
  OnlineResult dqn_online;
  sched::Schedule default_schedule{1, 1};
  sched::Schedule model_based_schedule{1, 1};
  /// The reward normalization both agents train under, taken from
  /// full_random_db: the median reward, the IQR / 1.35 floored at
  /// kMinRewardScale, and how many samples sit at the latency cap. The
  /// artifact cache does not keep them, so a loaded TrainedMethods has
  /// reward_scale 0.
  double reward_shift = 0.0;
  double reward_scale = 0.0;
  int samples_at_cap = 0;
};

/// Builds `out->encoder` and returns the policy context both agents are
/// created with: that encoder, `topology`, `cluster`, and the agent configs
/// under the pipeline's seeds. Training and the artifact cache both start
/// here, so a loaded agent encodes and seeds as the trained one did.
rl::PolicyContext PipelinePolicyContext(const topo::Topology* topology,
                                        const topo::Workload& workload,
                                        const topo::ClusterConfig& cluster,
                                        const PipelineConfig& config,
                                        TrainedMethods* out);

/// Runs the complete pipeline on one application. `topology`/`workload`
/// must outlive the returned agents.
StatusOr<TrainedMethods> TrainAllMethods(const topo::Topology* topology,
                                         const topo::Workload& workload,
                                         const topo::ClusterConfig& cluster,
                                         const PipelineConfig& config);

/// Options for the paper's 20-minute deployment series (Figs. 6, 8, 10,
/// 12). Reported minutes are simulated in compressed time (minute_ms of
/// simulated time per reported minute) — the series is stationary within a
/// minute, so sampling preserves the shape while keeping benches fast.
struct SeriesOptions {
  int points = 20;                   // reported minutes
  double minute_ms = 6000.0;         // simulated ms per reported minute
  double measure_window_ms = 3000.0; // measured slice at each minute's end
  /// Cold-start inflation reproducing the initial decline: service times
  /// start (1 + warmup_extra)x and relax with a time constant of 2.5
  /// reported minutes.
  double warmup_extra = 0.9;
  /// Simulated time under the pre-existing deployment before the measured
  /// solution is deployed at reported time 0.
  double pre_roll_ms = 2000.0;
  uint64_t seed = 5;
};

/// What one series run replays: its options, the load scenario and the
/// faults.
struct SeriesSpec {
  SeriesOptions series;
  /// Modulates the base workload's spout rates (not owned; must outlive
  /// the run). Null runs the base workload unmodulated. The Fig. 12 step
  /// is a zero-width `drift`.
  const workload::WorkloadGenerator* generator = nullptr;
  /// Faults at absolute simulated times: the run starts at 0 and spans
  /// pre_roll_ms + points * minute_ms. Empty runs a healthy cluster.
  sim::FaultPlan plan;
};

/// One reported minute of a series.
struct SeriesPoint {
  double time_ms = 0.0;          // simulated time at the end of the minute
  /// Completion-weighted average tuple latency over the minute's last
  /// measure_window_ms (0 if nothing completed).
  double avg_latency_ms = 0.0;
  /// Mean generator multiplier over the spout components at time_ms.
  double rate_multiplier = 1.0;
  double joules = 0.0;           // energy drawn during this minute
  double avg_power_watts = 0.0;  // joules / minute wall time
  int machines_asleep = 0;       // deep-sleep machines at time_ms
  /// Executors the scheduler moved during the minute: at its start and at
  /// fault boundaries inside it.
  int executors_moved = 0;
};

/// Latency and loss accounting for one phase of a fault run (the span
/// between two consecutive fault boundaries).
struct SeriesPhase {
  std::string label;  // "healthy", "crash(m1)", "straggler(m2)x3 end", ...
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// Completion-weighted average tuple latency over the phase (0 if
  /// nothing completed).
  double avg_latency_ms = 0.0;
  long long roots_completed = 0;
  long long roots_failed = 0;
  long long tuples_dropped = 0;
  int executors_moved = 0;  // migrations triggered entering this phase
  int dead_machines = 0;    // machines down during this phase
};

/// Everything a series run produces; SaveSeriesJson writes all of it.
struct SeriesResult {
  std::string scheduler;
  std::string workload;  // generator Describe(), "none" when unmodulated
  std::vector<SeriesPoint> points;
  /// Per-phase breakdown and the applied fault timeline; empty without a
  /// fault plan.
  std::vector<SeriesPhase> phases;
  std::vector<sim::FaultEvent> timeline;
  double total_joules = 0.0;
  double avg_power_watts = 0.0;  // whole run, pre-roll included
  /// Final cluster state (for asserting that no executor ended on a dead
  /// machine).
  sim::SimCounters final_counters;
  std::vector<uint8_t> final_machine_up;
  std::vector<int> final_machine_executors;
  int executors_on_dead_machines = 0;
  /// Process-wide metrics snapshot taken when the run finished; empty
  /// unless the obs registry is enabled (--metrics / --trace-out).
  obs::MetricsSnapshot metrics;

  /// The per-minute latencies, ms.
  std::vector<double> LatencySeries() const;
};

/// Runs the paper's deployment protocol: the system runs the default
/// round-robin deployment for the pre-roll, then `scheduler` takes over.
/// It re-computes its solution at the pre-roll end, at the start of every
/// later minute and at every fault boundary before the run's end,
/// observing the effective spout rates, the deployed schedule and (while a
/// machine is down) the machine-up mask; only the executors that moved
/// migrate. A failing scheduler keeps the current schedule, and every
/// schedule is repaired off dead machines. Deterministic for a fixed
/// (seed, generator, plan) at any thread count.
StatusOr<SeriesResult> RunSeries(const topo::Topology& topology,
                                 const topo::Workload& workload,
                                 const topo::ClusterConfig& cluster,
                                 sched::Scheduler* scheduler,
                                 const SeriesSpec& spec);

/// Deploys `schedule` on a freshly started system (previously running the
/// default round-robin deployment) and returns the per-minute average tuple
/// processing time series, ms: RunSeries with a scheduler that always
/// returns `schedule`.
StatusOr<std::vector<double>> MeasureLatencySeries(
    const topo::Topology& topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, const sched::Schedule& schedule,
    const SeriesOptions& options);

/// Average per-executor spout rate at time 0 (used to normalize the `w`
/// part of the state).
double NominalSpoutRate(const topo::Topology& topology,
                        const topo::Workload& workload);

}  // namespace drlstream::core

#endif  // DRLSTREAM_CORE_EXPERIMENT_H_
