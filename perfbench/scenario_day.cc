// scenario_day: one shared sim::ClusterSim run for a fixed simulated
// horizon. Four tenants of three topology shapes, each modulated by its own
// scenario generator (diurnal, flash_crowd, drift, constant), a fault plan
// with a straggler and a crash/recover pair, deep sleep on, and the
// round-robin registry scheduler re-deciding every tenant each epoch. The
// spouts are an open loop in simulated time; rates are sized so no
// tenant's backlog grows. Nearly all work is in `sim`, through the
// multi-tenant, rate-modulation, energy and fault paths; no learning and no
// K-NN code runs. The timed region runs the same day on a fresh cluster
// again and again, and every repeat must reproduce the first exactly.

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "rl/policy_registry.h"
#include "sim/cluster_sim.h"
#include "sim/faults.h"
#include "topo/apps.h"
#include "topo/cluster.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

namespace rl = dl::rl;
namespace sim = dl::sim;
namespace wl = dl::workload;

constexpr double kEpochMs = 1000.0;
/// Epochs of one day: about two and a half seconds of one x86-64 core.
constexpr int kDayEpochs = 180;
/// Backlog bound: a tenant whose in-flight roots at the end exceed this
/// many epochs of its completions is falling behind its arrivals.
constexpr double kBacklogEpochs = 2.0;

struct Tenant {
  explicit Tenant(dl::topo::App built) : app(std::move(built)) {}

  dl::topo::App app;
  std::unique_ptr<wl::WorkloadGenerator> generator;
  std::unique_ptr<TimingGenerator> timed;  // traced pass only
  std::unique_ptr<rl::Policy> policy;
};

struct Setup {
  dl::topo::ClusterConfig cluster;
  int epochs = 0;
  /// Epochs whose decisions are made while the crashed machine is down.
  int down_epochs = 0;
  sim::FaultPlan plan;
  std::vector<Tenant> tenants;
  std::unique_ptr<sim::ClusterSim> sim;
  std::string inputs;  // description of the generated inputs
};

dl::StatusOr<std::unique_ptr<wl::WorkloadGenerator>> MakeGenerator(
    int tenant, double horizon_ms, dl::Rng* rng, std::string* describe) {
  dl::StatusOr<std::unique_ptr<wl::WorkloadGenerator>> gen =
      dl::Status::Internal("unset");
  switch (tenant) {
    case 0: {
      wl::DiurnalConfig c;
      c.period_ms = horizon_ms / 2.0;
      c.phase_radians = rng->Uniform(0.0, 6.283185307179586);
      c.amplitude = 0.3;
      c.jitter = 0.05;
      c.seed = rng->UniformInt(1, 1 << 30);
      gen = wl::MakeDiurnal(c);
      break;
    }
    case 1: {
      wl::FlashCrowdConfig c;
      c.step_ms = kEpochMs / 2.0;
      // A whole number of steps, so every op time is an exact integer. With
      // a fractional start, rounding in the generator's repeat arithmetic can
      // hand back the next spike's front at the current time, over and over,
      // and the simulated clock stops.
      c.at_ms = c.step_ms *
                std::round(horizon_ms * rng->Uniform(0.2, 0.3) / c.step_ms);
      c.peak = 1.8;
      c.decay_tau_ms = horizon_ms * 0.05;
      c.repeat_ms = horizon_ms / 2.0;
      gen = wl::MakeFlashCrowd(c);
      break;
    }
    case 2: {
      wl::DriftConfig c;
      c.from = 1.0;
      c.to = 1.3;
      c.start_ms = horizon_ms * 0.1;
      c.end_ms = horizon_ms * 0.6;
      c.step_ms = kEpochMs;
      gen = wl::MakeDrift(c);
      break;
    }
    default:
      gen = wl::MakeConstant(0.95);
      break;
  }
  if (gen.ok()) *describe += (*gen)->Describe() + "\n";
  return gen;
}

/// Builds the cluster, tenants, generators, fault plan and policies, adds
/// the tenants and starts the simulator: everything before the first epoch.
dl::StatusOr<std::unique_ptr<Setup>> MakeSetup(const Options& options,
                                               bool traced) {
  auto setup = std::make_unique<Setup>();
  setup->cluster.machine.sleep_after_idle_ms = 0.4 * kEpochMs;
  setup->epochs = options.small ? 12 : kDayEpochs;
  const double horizon_ms = setup->epochs * kEpochMs;
  const int m = setup->cluster.num_machines;
  dl::Rng rng(options.seed);

  // Three topology shapes; the 100-executor ones run at reduced rates so
  // the shared cluster stays below saturation. The seed varies when and
  // where things happen (scenario phases, fault targets, the simulator's
  // draws) but not the load, so every seed asks for about the same work.
  dl::topo::AppOptions light;
  light.rate_scale = 0.11;
  // Reserved up front: the simulator keeps pointers into the tenants.
  setup->tenants.reserve(4);
  setup->tenants.emplace_back(
      dl::topo::BuildContinuousQueries(dl::topo::Scale::kSmall));
  setup->tenants.emplace_back(dl::topo::BuildWordCount(light));
  setup->tenants.emplace_back(
      dl::topo::BuildContinuousQueries(dl::topo::Scale::kSmall));
  setup->tenants.emplace_back(dl::topo::BuildLogProcessing(light));
  setup->tenants[2].app.workload.ScaleAllRates(0.85);

  // A straggler window, then a crash/recover pair on another machine. The
  // recovery lands a quarter epoch past an epoch boundary, so the machine
  // idles hostless long enough to fall into deep sleep before round-robin
  // hands it executors again (and it has to wake).
  const int straggler = rng.UniformInt(0, m - 1);
  const int crashed = (straggler + rng.UniformInt(1, m - 1)) % m;
  const int crash_epoch = static_cast<int>(setup->epochs * 0.35);
  const int recover_epoch = static_cast<int>(setup->epochs * 0.5);
  setup->plan.AddStraggler(horizon_ms * 0.15, straggler, 3.0,
                           horizon_ms * 0.1);
  setup->plan.AddCrash((crash_epoch + 0.25) * kEpochMs, crashed);
  setup->plan.AddRecover((recover_epoch + 0.25) * kEpochMs, crashed);
  setup->down_epochs = recover_epoch - crash_epoch;
  setup->inputs = setup->plan.ToCsv();

  sim::SimOptions sim_options;
  sim_options.seed = options.seed;
  setup->sim = std::make_unique<sim::ClusterSim>(setup->cluster, sim_options);
  DRLSTREAM_RETURN_NOT_OK(setup->sim->InstallFaultPlan(setup->plan));
  for (int t = 0; t < static_cast<int>(setup->tenants.size()); ++t) {
    Tenant& tenant = setup->tenants[t];
    DRLSTREAM_ASSIGN_OR_RETURN(
        tenant.generator,
        MakeGenerator(t, horizon_ms, &rng, &setup->inputs));
    rl::PolicyContext context;
    context.topology = &tenant.app.topology;
    context.cluster = &setup->cluster;
    DRLSTREAM_ASSIGN_OR_RETURN(
        tenant.policy, rl::PolicyRegistry::Get().Create("round-robin", context));
    rl::State state;
    state.tenant = t;
    state.spout_rates = tenant.app.workload.RatesVector(
        tenant.app.topology.SpoutComponents(), 0.0);
    DRLSTREAM_ASSIGN_OR_RETURN(dl::sched::Schedule initial,
                               tenant.policy->GreedyAction(state));
    DRLSTREAM_ASSIGN_OR_RETURN(
        const int id, setup->sim->AddTenant(&tenant.app.topology,
                                            &tenant.app.workload, initial));
    if (id != t) return dl::Status::Internal("unexpected tenant id");
    const wl::WorkloadGenerator* gen = tenant.generator.get();
    if (traced) {
      tenant.timed = std::make_unique<TimingGenerator>(gen);
      gen = tenant.timed.get();
    }
    DRLSTREAM_RETURN_NOT_OK(setup->sim->SetTenantWorkloadGenerator(t, gen));
  }
  DRLSTREAM_RETURN_NOT_OK(setup->sim->Start());
  return setup;
}

struct DayOutcome {
  double latency_weighted_sum = 0.0;
  double latency_count = 0.0;
  double energy_kj = 0.0;
  int64_t events = 0;
  int64_t decisions = 0;
  int64_t failed = 0;
  std::string first_error;
  /// Epochs that, once their decisions were deployed, still had executors
  /// on a machine that is down, and epochs decided with a machine down.
  int64_t stranded_epochs = 0;
  int64_t machine_down_epochs = 0;
  // Timers of the top-level calls (read by the traced pass).
  double sim_s = 0.0;
  double sched_s = 0.0;

  double TenantLatencyMs() const {
    return latency_count > 0.0 ? latency_weighted_sum / latency_count : 0.0;
  }
  /// Whether another day produced exactly the same results.
  bool SameResults(const DayOutcome& other) const {
    return latency_weighted_sum == other.latency_weighted_sum &&
           latency_count == other.latency_count &&
           energy_kj == other.energy_kj && events == other.events &&
           decisions == other.decisions && failed == other.failed &&
           stranded_epochs == other.stranded_epochs &&
           machine_down_epochs == other.machine_down_epochs;
  }
};

void NoteFailure(const dl::Status& status, DayOutcome* out) {
  ++out->failed;
  if (out->first_error.empty()) out->first_error = status.ToString();
}

/// The timed region: every epoch the scheduler re-decides every tenant from
/// its live state, changed decisions are deployed, and the cluster runs one
/// epoch. Executors stranded by a crash stay stranded only until the next
/// epoch's decisions, which is when they are counted.
void RunDay(Setup* setup, DayOutcome* out) {
  sim::ClusterSim& cluster_sim = *setup->sim;
  const int tenants = static_cast<int>(setup->tenants.size());
  const int machines = setup->cluster.num_machines;
  for (int epoch = 0; epoch < setup->epochs; ++epoch) {
    for (int t = 0; t < tenants; ++t) {
      rl::State state;
      state.tenant = t;
      state.assignments = cluster_sim.TenantSchedule(t).assignments();
      state.spout_rates = cluster_sim.TenantEffectiveSpoutRates(t);
      state.machine_up = cluster_sim.MachineUpMask();
      dl::StatusOr<dl::sched::Schedule> next = dl::Status::Internal("unset");
      {
        Stopwatch watch(&out->sched_s);
        next = setup->tenants[t].policy->GreedyAction(state);
      }
      ++out->decisions;
      if (!next.ok()) {
        NoteFailure(next.status(), out);
        continue;
      }
      if (*next == cluster_sim.TenantSchedule(t)) continue;
      Stopwatch watch(&out->sim_s);
      const dl::Status migrated = cluster_sim.Migrate(t, *next);
      if (!migrated.ok()) NoteFailure(migrated, out);
    }
    if (cluster_sim.ExecutorsOnDeadMachines() > 0) ++out->stranded_epochs;
    if (dl::topo::AliveCount(cluster_sim.MachineUpMask()) < machines) {
      ++out->machine_down_epochs;
    }
    {
      Stopwatch watch(&out->sim_s);
      cluster_sim.RunFor(kEpochMs);
    }
    for (int t = 0; t < tenants; ++t) {
      const dl::RunningStats& window = cluster_sim.tenant_window_latency(t);
      out->latency_weighted_sum +=
          window.mean() * static_cast<double>(window.count());
      out->latency_count += static_cast<double>(window.count());
    }
    cluster_sim.ResetWindow();
  }
  out->energy_kj = cluster_sim.TotalJoules() / 1000.0;
  out->events = cluster_sim.counters().events_processed;
}

/// Fault applications the plan makes within the horizon: every event, plus
/// the closing edge of each straggler / link-spike window.
int64_t ExpectedFaultApplications(const sim::FaultPlan& plan,
                                  double horizon_ms) {
  int64_t count = 0;
  for (const sim::FaultEvent& event : plan.events()) {
    if (event.time_ms < horizon_ms) ++count;
    if ((event.type == sim::FaultType::kStraggler ||
         event.type == sim::FaultType::kLinkSpike) &&
        event.time_ms + event.duration_ms < horizon_ms) {
      ++count;
    }
  }
  return count;
}

void CheckDay(Setup& setup, const DayOutcome& day, RunResult* result) {
  sim::ClusterSim& cluster_sim = *setup.sim;
  std::string unbalanced;
  std::string backlogged;
  for (int t = 0; t < static_cast<int>(setup.tenants.size()); ++t) {
    const sim::SimCounters& c = cluster_sim.TenantCounters(t);
    const int64_t inflight = cluster_sim.TenantInflightRoots(t);
    if (c.roots_emitted != c.roots_completed + c.roots_failed + inflight) {
      unbalanced += " tenant" + std::to_string(t);
    }
    const double per_epoch =
        static_cast<double>(c.roots_completed) / setup.epochs;
    if (static_cast<double>(inflight) > kBacklogEpochs * per_epoch) {
      backlogged += " tenant" + std::to_string(t) + "(" +
                    std::to_string(inflight) + " in flight)";
    }
  }
  result->AddCheck("roots conserved per tenant (emitted = completed + "
                   "failed + in flight)",
                   unbalanced.empty(), unbalanced);
  result->AddCheck("no tenant backlog grows", backlogged.empty(), backlogged);
  const int on_dead = cluster_sim.ExecutorsOnDeadMachines();
  result->AddCheck("no executor on a dead machine once an epoch's decisions "
                   "are deployed, nor after the last epoch",
                   day.stranded_epochs == 0 && on_dead == 0,
                   std::to_string(day.stranded_epochs) + " of " +
                       std::to_string(setup.epochs) + " epochs, " +
                       std::to_string(on_dead) + " executors at the end");
  result->AddCheck("the crashed machine was down for the planned epochs",
                   day.machine_down_epochs == setup.down_epochs,
                   std::to_string(day.machine_down_epochs) + " of " +
                       std::to_string(setup.down_epochs));
  const int64_t applied = cluster_sim.counters().faults_applied;
  const int64_t expected =
      ExpectedFaultApplications(setup.plan, setup.epochs * kEpochMs);
  result->AddCheck("faults_applied equals the plan's event count",
                   applied == expected,
                   std::to_string(applied) + " of " + std::to_string(expected));
  result->AddCheck("no decision or migration failed", day.failed == 0,
                   day.first_error);
  result->AddCheck("tenant latency is finite and positive",
                   std::isfinite(day.TenantLatencyMs()) &&
                       day.TenantLatencyMs() > 0.0,
                   Exact(day.TenantLatencyMs()));
}

}  // namespace

dl::Status RunScenarioDay(const Options& options, RunResult* result) {
  DRLSTREAM_ASSIGN_OR_RETURN(std::unique_ptr<Setup> setup,
                             MakeSetup(options, false));
  if (result->SetupDone(options)) return dl::Status::OK();

  DayOutcome day;
  JobTimes jobs;
  int differing = 0;  // repeats whose results differ from the first's
  int64_t decisions = 0, failed = 0;
  const Clock::time_point start = Clock::now();
  while (jobs.WantMore(options, start)) {
    if (jobs.repeats() > 0) {
      // A fresh cluster for every day, built outside the job's timer.
      setup.reset();
      DRLSTREAM_ASSIGN_OR_RETURN(setup, MakeSetup(options, false));
    }
    DayOutcome outcome;
    {
      JobTimer timer(&jobs);
      RunDay(setup.get(), &outcome);
    }
    decisions += outcome.decisions;
    failed += outcome.failed;
    if (jobs.repeats() == 1) {
      day = outcome;
    } else if (!outcome.SameResults(day)) {
      ++differing;
    }
  }
  // `setup` holds the last day's cluster, which the checks read; with no
  // differing repeat its results are the first day's.
  const int64_t completed = setup->sim->counters().roots_completed;
  jobs.Report(result);
  result->SetMetric("peak_rss_mb", PeakRssMb(), "MB");
  result->SetMetric("tenant_latency_ms", day.TenantLatencyMs(), "ms",
                    static_cast<int64_t>(day.latency_count));
  result->SetMetric("energy_kj", day.energy_kj, "kJ");
  result->outputs["tenant_latency_ms"] = Exact(day.TenantLatencyMs());
  result->outputs["energy_kj"] = Exact(day.energy_kj);
  result->outputs["sim.events"] = std::to_string(day.events);
  result->outputs["roots_completed"] = std::to_string(completed);
  result->outputs["inputs"] = setup->inputs;
  result->ops = decisions;
  result->ops_failed = failed;
  CheckDay(*setup, day, result);
  result->AddCheck("every repeat reproduces the first's latency, energy and "
                   "events",
                   differing == 0,
                   std::to_string(differing) + " of " +
                       std::to_string(jobs.repeats()) + " repeats differ");

  if (!options.trace) return dl::Status::OK();

  DRLSTREAM_ASSIGN_OR_RETURN(std::unique_ptr<Setup> traced,
                             MakeSetup(options, true));
  DayOutcome tday;
  BeginObs();
  const double tcpu0 = ProcessCpuSeconds();
  const Clock::time_point tstart = Clock::now();
  RunDay(traced.get(), &tday);
  const double traced_wall = SecondsSince(tstart);
  const double traced_cpu = ProcessCpuSeconds() - tcpu0;
  EndObs();

  std::map<std::string, double>& L = result->layers;
  SimTally sims;
  sims.Add(traced->sim->counters(), traced->sim->now_ms());
  sims.Report(tday.sim_s, &L);
  L["sim.busy_s"] = tday.sim_s;
  L["sched.decide_s"] = tday.sched_s;
  L["sched.decisions"] = static_cast<double>(tday.decisions);
  for (const Tenant& tenant : traced->tenants) {
    const GeneratorTimes& g = tenant.timed->times();
    L["workload.calls"] += static_cast<double>(g.calls);
    L["workload.ops"] += static_cast<double>(g.ops);
    L["workload.gen_s"] += g.gen_s;
  }
  L["result.tenant_latency_ms"] = tday.TenantLatencyMs();
  L["result.energy_kj"] = tday.energy_kj;
  L["proc.cpu_s"] = traced_cpu;
  L["proc.cores_used"] = traced_cpu / traced_wall;
  L["proc.trace_overhead_pct"] =
      100.0 * (traced_wall - jobs.MinWall()) / jobs.MinWall();
  // Generator time is spent inside the simulator calls, so the covered
  // share counts the top-level sim and sched calls only.
  const double covered = tday.sim_s + tday.sched_s;
  L["trace.wall_s"] = traced_wall;
  L["trace.covered_pct"] = 100.0 * covered / traced_wall;
  L["trace.unattributed_s"] = traced_wall - covered;

  result->AddCheck("traced run reproduces tenant latency, energy and events",
                   Exact(tday.TenantLatencyMs()) ==
                           result->outputs["tenant_latency_ms"] &&
                       Exact(tday.energy_kj) == result->outputs["energy_kj"] &&
                       tday.events == day.events,
                   Exact(tday.TenantLatencyMs()));
  return dl::Status::OK();
}

}  // namespace perfbench
