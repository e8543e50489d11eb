// Crash-recovery demo: run a stream application through a deterministic
// fault plan — a machine crash, a straggler window, a recovery, and a spout
// rate shock — while the control loop re-schedules around the damage. The
// run must end with zero executors on dead machines; the full fault
// timeline and per-phase latency land in a JSON artifact.
//
//   ./fault_recovery [--policy=round-robin] [--fault-plan=plan.csv]
//                    [--out=fault_run.json] [--points=10] [--seed=7]
//                    [--print-plan]
//
// --policy selects the scheduler by policy-registry key (--help lists the
// registered names). DRL policies run untrained here — the demo exercises
// the recovery machinery, not learning quality.
//
// Without --fault-plan a built-in plan is used (crash machine 1 at 8s,
// straggle machine 2 by 3x at 14s for 6s, recover machine 1 at 26s, +40%
// spout rates at 38s). CSV format: time_ms,type,machine,magnitude,duration_ms
// with types crash/recover/straggler/link_spike/spout_shock.

#include <cstdio>

#include "common/flags.h"
#include "core/artifacts.h"
#include "core/drl_scheduler.h"
#include "core/experiment.h"
#include "rl/policy_registry.h"
#include "sim/faults.h"
#include "topo/apps.h"

using namespace drlstream;

namespace {

void PrintUsage() {
  std::printf(
      "usage: fault_recovery [--policy=NAME] [--fault-plan=plan.csv]\n"
      "                      [--out=fault_run.json] [--points=N] [--seed=S]\n"
      "                      [--minute-ms=MS] [--print-plan]\n"
      "registered policies: %s (default round-robin)\n",
      rl::PolicyRegistry::Get().KeysLine().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }
  ApplyProcessFlags(flags);

  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;

  sim::FaultPlan plan;
  const std::string plan_path = flags.GetString("fault-plan", "");
  if (!plan_path.empty()) {
    auto loaded = sim::FaultPlan::LoadCsvFile(plan_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "bad fault plan: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    plan = *loaded;
  } else {
    plan.AddCrash(8000.0, 1);
    plan.AddStraggler(14000.0, 2, 3.0, 6000.0);
    plan.AddRecover(26000.0, 1);
    plan.AddSpoutShock(38000.0, 1.4);
  }
  if (flags.GetBool("print-plan", false)) {
    std::printf("%s", plan.ToCsv().c_str());
    return 0;
  }

  core::SeriesSpec spec;
  spec.plan = plan;
  spec.series.points = flags.GetInt("points", 10);
  spec.series.minute_ms = flags.GetDouble("minute-ms", 6000.0);
  // Whole minutes: every completion counts toward its minute's latency.
  spec.series.measure_window_ms = spec.series.minute_ms;
  spec.series.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  const std::string policy_key = flags.GetString("policy", "round-robin");
  rl::StateEncoder encoder(app.topology.num_executors(),
                           cluster.num_machines, app.topology.num_spouts(),
                           core::NominalSpoutRate(app.topology, app.workload));
  rl::PolicyContext policy_context;
  policy_context.encoder = &encoder;
  policy_context.topology = &app.topology;
  policy_context.cluster = &cluster;
  auto policy = rl::PolicyRegistry::Get().Create(policy_key, policy_context);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }
  core::PolicyScheduler scheduler(policy->get());

  std::printf("running %zu-event fault plan over %d reported minutes "
              "(policy: %s)...\n",
              plan.size(), spec.series.points, scheduler.name().c_str());
  auto result =
      core::RunSeries(app.topology, app.workload, cluster, &scheduler, spec);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nper-minute latency:\n");
  for (size_t p = 0; p < result->points.size(); ++p) {
    std::printf("  minute %2zu  %8.3f ms\n", p + 1,
                result->points[p].avg_latency_ms);
  }
  std::printf("\nphases:\n");
  for (const core::SeriesPhase& phase : result->phases) {
    std::printf("  %-24s [%7.0f, %7.0f) ms  avg %8.3f ms  done %lld  "
                "failed %lld  dropped %lld  moved %d  dead %d\n",
                phase.label.c_str(), phase.start_ms, phase.end_ms,
                phase.avg_latency_ms, phase.roots_completed,
                phase.roots_failed, phase.tuples_dropped,
                phase.executors_moved, phase.dead_machines);
  }
  const sim::SimCounters& c = result->final_counters;
  std::printf("\nroots: emitted %lld, completed %lld, failed %lld; tuples "
              "dropped %lld; faults applied %lld; migrations %lld\n",
              c.roots_emitted, c.roots_completed, c.roots_failed,
              c.tuples_dropped, c.faults_applied, c.migrations);
  std::printf("executors on dead machines after settle: %d\n",
              result->executors_on_dead_machines);

  const std::string out_path = flags.GetString("out", "fault_run.json");
  const Status save = core::SaveSeriesJson(out_path, *result);
  if (!save.ok()) {
    std::fprintf(stderr, "%s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // The demo's contract: the control loop absorbed the faults — nothing is
  // left scheduled on a dead machine.
  if (result->executors_on_dead_machines != 0) {
    std::fprintf(stderr,
                 "FAILED: %d executor(s) still on dead machines\n",
                 result->executors_on_dead_machines);
    return 1;
  }
  return 0;
}
