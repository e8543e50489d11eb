// Multi-tenant cluster demo: N copies of a stream application share ONE
// simulated cluster — machines, cores and NIC uplinks are contended across
// tenants — while a single scheduler brain (one policy instance) makes
// every tenant's re-scheduling decision each control epoch. Per-tenant
// latency and throughput land in a summary JSON together with Jain's
// fairness index over tenant throughputs.
//
//   ./multi_tenant_cluster [--tenants=4] [--policy=round-robin]
//                          [--fault-plan=plan.csv] [--epochs=10]
//                          [--epoch-ms=2000] [--seed=7]
//                          [--workload="diurnal:period_ms=20000;constant"]
//                          [--sleep-after-ms=-1]
//                          [--out=multi_tenant.json]
//
// --policy selects the shared brain by policy-registry key (--help lists
// the registered names); all tenants run the same topology shape, so one
// encoder/agent serves every tenant's states. DRL policies run untrained
// here — the demo exercises the shared-cluster control path, not learning
// quality. Tenants get staggered initial deployments and slightly skewed
// arrival rates, so fairness is measured under genuinely asymmetric load.
//
// --workload applies per-tenant load scenarios: ';'-separated workload
// registry specs (',' separates parameters inside one spec); tenant t runs
// spec[t % count] seeded with seed+t. --sleep-after-ms >= 0 lets hostless
// machines drop to deep sleep, making the per-tenant joules column react
// to consolidation (try --policy=energy-aware).
//
// Without --fault-plan the cluster stays healthy. CSV format:
// time_ms,type,machine,magnitude,duration_ms with types
// crash/recover/straggler/link_spike/spout_shock.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/experiment.h"
#include "rl/policy_registry.h"
#include "sched/schedule.h"
#include "sim/cluster_sim.h"
#include "sim/faults.h"
#include "topo/apps.h"
#include "workload/registry.h"

using namespace drlstream;

namespace {

void PrintUsage() {
  std::printf(
      "usage: multi_tenant_cluster [--tenants=N] [--policy=NAME]\n"
      "                            [--fault-plan=plan.csv] [--epochs=N]\n"
      "                            [--epoch-ms=MS] [--seed=S]\n"
      "                            [--workload=\"SPEC[;SPEC...]\"]\n"
      "                            [--sleep-after-ms=MS]\n"
      "                            [--out=multi_tenant.json]\n"
      "registered policies: %s (default round-robin)\n"
      "registered workload scenarios: %s (tenant t runs spec t %% count)\n",
      rl::PolicyRegistry::Get().KeysLine().c_str(),
      workload::WorkloadRegistry::Get().KeysLine().c_str());
}

struct TenantSummary {
  std::vector<double> epoch_latency_ms;
  double mean_latency_ms = 0.0;
  sim::SimCounters counters;
  int inflight = 0;
  std::string workload;  // scenario spec the tenant ran ("" = none)
  double joules = 0.0;   // energy attributed to the tenant's executors
};

/// Splits a ';'-separated list of workload specs (',' separates parameters
/// inside one spec, so it cannot be the list separator).
std::vector<std::string> SplitSpecs(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t semi = list.find(';', start);
    const size_t end = semi == std::string::npos ? list.size() : semi;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  return out;
}

/// Jain's fairness index over per-tenant throughputs: 1.0 when every
/// tenant completes the same number of roots, 1/N when one tenant starves
/// all others.
double JainFairness(const std::vector<TenantSummary>& tenants) {
  double sum = 0.0, sum_sq = 0.0;
  for (const TenantSummary& t : tenants) {
    const double x = static_cast<double>(t.counters.roots_completed);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(tenants.size()) * sum_sq);
}

Status WriteSummaryJson(const std::string& path, const std::string& policy,
                        const std::vector<TenantSummary>& tenants,
                        const sim::SimCounters& cluster, double fairness,
                        double total_joules) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out << "{\n  \"policy\": \"" << policy << "\",\n";
  out << "  \"fairness_jain\": " << fairness << ",\n";
  out << "  \"cluster\": {\"roots_emitted\": " << cluster.roots_emitted
      << ", \"roots_completed\": " << cluster.roots_completed
      << ", \"roots_failed\": " << cluster.roots_failed
      << ", \"tuples_dropped\": " << cluster.tuples_dropped
      << ", \"faults_applied\": " << cluster.faults_applied
      << ", \"energy_joules\": " << total_joules << "},\n";
  out << "  \"tenants\": [\n";
  for (size_t t = 0; t < tenants.size(); ++t) {
    const TenantSummary& s = tenants[t];
    out << "    {\"tenant\": " << t
        << ", \"workload\": \"" << s.workload << "\""
        << ", \"mean_latency_ms\": " << s.mean_latency_ms
        << ", \"joules\": " << s.joules
        << ", \"roots_completed\": " << s.counters.roots_completed
        << ", \"roots_failed\": " << s.counters.roots_failed
        << ", \"migrations\": " << s.counters.migrations
        << ", \"inflight\": " << s.inflight << ", \"epoch_latency_ms\": [";
    for (size_t e = 0; e < s.epoch_latency_ms.size(); ++e) {
      out << (e == 0 ? "" : ", ") << s.epoch_latency_ms[e];
    }
    out << "]}" << (t + 1 < tenants.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(
      argc, argv,
      {"epoch-ms", "epochs", "fault-plan", "help", "out", "policy", "seed",
       "sleep-after-ms", "tenants", "workload"});
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

  const int num_tenants = flags.GetInt("tenants", 4);
  const int epochs = flags.GetInt("epochs", 10);
  const double epoch_ms = flags.GetDouble("epoch-ms", 2000.0);
  if (num_tenants < 1 || epochs < 1 || epoch_ms <= 0.0) {
    std::fprintf(stderr, "need tenants >= 1, epochs >= 1, epoch-ms > 0\n");
    return 1;
  }

  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  // Negative (the default) keeps deep sleep off and trajectories identical
  // to the pre-energy-model demo.
  cluster.machine.sleep_after_idle_ms = flags.GetDouble("sleep-after-ms", -1.0);

  const std::vector<std::string> workload_specs =
      SplitSpecs(flags.GetString("workload", ""));

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
  }

  sim::SimOptions sim_options;
  sim_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  sim::ClusterSim sim(cluster, sim_options);
  if (!plan.empty()) {
    const Status installed = sim.InstallFaultPlan(plan);
    if (!installed.ok()) {
      std::fprintf(stderr, "%s\n", installed.ToString().c_str());
      return 1;
    }
  }

  // Per-tenant workloads: same shape, slightly skewed rates (tenant t runs
  // (1 + t/10)x the base load), so fairness is measured under asymmetry.
  std::vector<topo::Workload> workloads(static_cast<size_t>(num_tenants),
                                        app.workload);
  // Per-tenant scenario generators (installed before Start so the sources
  // prime with the modulated rates); owned here, borrowed by the sim.
  std::vector<std::unique_ptr<workload::WorkloadGenerator>> generators(
      static_cast<size_t>(num_tenants));
  std::vector<std::string> tenant_specs(static_cast<size_t>(num_tenants));
  const int n = app.topology.num_executors();
  const int m = cluster.num_machines;
  for (int t = 0; t < num_tenants; ++t) {
    workloads[static_cast<size_t>(t)].ScaleAllRates(1.0 + 0.1 * t);
    sched::Schedule initial(n, m);
    initial.set_tenant(t);
    for (int j = 0; j < n; ++j) initial.Assign(j, (j + t) % m);
    auto added =
        sim.AddTenant(&app.topology, &workloads[static_cast<size_t>(t)],
                      initial);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
      return 1;
    }
    if (!workload_specs.empty()) {
      const std::string& spec =
          workload_specs[static_cast<size_t>(t) % workload_specs.size()];
      auto generator = workload::ParseWorkloadSpec(
          spec, sim_options.seed + static_cast<uint64_t>(t));
      if (!generator.ok()) {
        std::fprintf(stderr, "tenant %d --workload '%s': %s\n", t,
                     spec.c_str(), generator.status().ToString().c_str());
        return 1;
      }
      generators[static_cast<size_t>(t)] = std::move(*generator);
      tenant_specs[static_cast<size_t>(t)] = spec;
      const Status installed = sim.SetTenantWorkloadGenerator(
          t, generators[static_cast<size_t>(t)].get());
      if (!installed.ok()) {
        std::fprintf(stderr, "%s\n", installed.ToString().c_str());
        return 1;
      }
    }
  }
  const Status started = sim.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  // One scheduler brain for every tenant: all tenants share the topology
  // shape, so a single policy (and encoder) serves each tenant's state.
  const std::string policy_key = flags.GetString("policy", "round-robin");
  rl::StateEncoder encoder(n, m, app.topology.num_spouts(),
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

  std::printf("%d tenants x %d executors on %d shared machines, policy %s, "
              "%d epochs x %.0f ms\n",
              num_tenants, n, m, (*policy)->name().c_str(), epochs, epoch_ms);

  std::vector<TenantSummary> tenants(static_cast<size_t>(num_tenants));
  const std::vector<int> spouts = app.topology.SpoutComponents();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    // The brain decides every tenant's next deployment from its live state
    // on the shared substrate, then each decision is deployed.
    for (int t = 0; t < num_tenants; ++t) {
      rl::State state;
      state.tenant = t;
      state.assignments = sim.TenantSchedule(t).assignments();
      // With a scenario installed the brain observes the modulated rates —
      // the same (X, w) the single-tenant environment would feed it.
      state.spout_rates =
          generators[static_cast<size_t>(t)] != nullptr
              ? sim.TenantEffectiveSpoutRates(t)
              : workloads[static_cast<size_t>(t)].RatesVector(spouts,
                                                              sim.now_ms());
      state.machine_up = sim.MachineUpMask();
      auto schedule = (*policy)->GreedyAction(state);
      if (!schedule.ok()) {
        std::fprintf(stderr, "tenant %d decision: %s\n", t,
                     schedule.status().ToString().c_str());
        return 1;
      }
      const Status migrated = sim.Migrate(t, *schedule);
      if (!migrated.ok()) {
        std::fprintf(stderr, "tenant %d migrate: %s\n", t,
                     migrated.ToString().c_str());
        return 1;
      }
    }
    sim.RunFor(epoch_ms);
    for (int t = 0; t < num_tenants; ++t) {
      tenants[static_cast<size_t>(t)].epoch_latency_ms.push_back(
          sim.TenantWindowAvgLatencyMs(t));
    }
    sim.ResetWindow();
  }

  for (int t = 0; t < num_tenants; ++t) {
    TenantSummary& s = tenants[static_cast<size_t>(t)];
    s.counters = sim.TenantCounters(t);
    s.inflight = sim.TenantInflightRoots(t);
    s.workload = tenant_specs[static_cast<size_t>(t)];
    s.joules = sim.TenantJoules(t);
    double sum = 0.0;
    int measured = 0;
    for (double l : s.epoch_latency_ms) {
      if (l > 0.0) {
        sum += l;
        ++measured;
      }
    }
    s.mean_latency_ms = measured > 0 ? sum / measured : 0.0;
  }
  const double fairness = JainFairness(tenants);

  const double total_joules = sim.TotalJoules();

  std::printf("\n%-7s %14s %12s %10s %10s %12s\n", "tenant", "mean latency",
              "completed", "failed", "migrations", "joules");
  for (int t = 0; t < num_tenants; ++t) {
    const TenantSummary& s = tenants[static_cast<size_t>(t)];
    std::printf("%-7d %11.3f ms %12lld %10lld %10lld %10.1f J\n", t,
                s.mean_latency_ms, s.counters.roots_completed,
                s.counters.roots_failed, s.counters.migrations, s.joules);
  }
  const sim::SimCounters& c = sim.counters();
  std::printf("\ncluster: emitted %lld, completed %lld, failed %lld, "
              "dropped %lld, faults %lld, %.1f J drawn\n",
              c.roots_emitted, c.roots_completed, c.roots_failed,
              c.tuples_dropped, c.faults_applied, total_joules);
  std::printf("Jain fairness over tenant throughputs: %.4f\n", fairness);

  const std::string out_path = flags.GetString("out", "multi_tenant.json");
  const Status saved = WriteSummaryJson(out_path, (*policy)->name(), tenants,
                                        c, fairness, total_joules);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
