// Multi-tenant shared-cluster simulator coverage: the single-tenant views
// (a one-tenant ClusterSim's tenant-0 statistics must equal its cluster-wide
// ones bit for bit, and replay identically at several thread counts),
// per-tenant root conservation under machine crashes, and determinism of
// tenant add/remove mid-run. The single-topology goldens themselves are held
// by the policy-equivalence and fault suites, which pin the trajectory bytes
// tenant 0 must keep producing.

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "sched/schedule.h"
#include "sim/cluster_sim.h"
#include "sim/faults.h"
#include "topo/cluster.h"
#include "topo/topology.h"
#include "topo/workload.h"

namespace drlstream::sim {
namespace {

/// A minimal 2-component chain: spout -> bolt, shuffle grouping.
topo::Topology ChainTopology(int spouts, int bolts, double bolt_service_ms) {
  topo::Topology topology("chain");
  topo::Component spout;
  spout.name = "spout";
  spout.parallelism = spouts;
  spout.service_mean_ms = 0.01;
  spout.service_cv = 0.0;
  spout.tuple_bytes = 64;
  spout.emit_factor = 1.0;
  topo::Component bolt;
  bolt.name = "bolt";
  bolt.parallelism = bolts;
  bolt.service_mean_ms = bolt_service_ms;
  bolt.service_cv = 0.0;
  bolt.emit_factor = 0.0;
  bolt.tuple_bytes = 64;
  const int s = topology.AddSpout(spout);
  const int b = topology.AddBolt(bolt);
  EXPECT_TRUE(topology.Connect(s, b, topo::Grouping::kShuffle).ok());
  return topology;
}

topo::Workload ChainWorkload(double rate) {
  topo::Workload workload;
  workload.SetBaseRate(0, rate);
  return workload;
}

topo::ClusterConfig TestCluster() {
  topo::ClusterConfig cluster;
  cluster.num_machines = 4;
  cluster.cores_per_machine = 2;
  return cluster;
}

sched::Schedule SpreadSchedule(const topo::Topology& topology,
                               int num_machines, int offset = 0) {
  sched::Schedule schedule(topology.num_executors(), num_machines);
  for (int i = 0; i < topology.num_executors(); ++i) {
    schedule.Assign(i, (i + offset) % num_machines);
  }
  return schedule;
}

/// Everything one run observes about one tenant; compared field by field
/// (doubles with EXPECT_EQ: the contract is bit-identity, not closeness).
struct TenantSnapshot {
  SimCounters counters;
  int inflight = 0;
  double window_latency = 0.0;
  std::vector<int> queue_depths;

  bool operator==(const TenantSnapshot& other) const {
    return counters.roots_emitted == other.counters.roots_emitted &&
           counters.roots_completed == other.counters.roots_completed &&
           counters.roots_failed == other.counters.roots_failed &&
           counters.roots_throttled == other.counters.roots_throttled &&
           counters.tuples_processed == other.counters.tuples_processed &&
           counters.local_transfers == other.counters.local_transfers &&
           counters.remote_transfers == other.counters.remote_transfers &&
           counters.migrations == other.counters.migrations &&
           counters.tuples_dropped == other.counters.tuples_dropped &&
           inflight == other.inflight &&
           window_latency == other.window_latency &&
           queue_depths == other.queue_depths;
  }
};

TenantSnapshot SnapshotTenant(const ClusterSim& sim, int tenant) {
  TenantSnapshot snap;
  snap.counters = sim.TenantCounters(tenant);
  snap.inflight = sim.TenantInflightRoots(tenant);
  snap.window_latency = sim.TenantWindowAvgLatencyMs(tenant);
  snap.queue_depths = sim.TenantExecutorQueueDepths(tenant);
  return snap;
}

// ---------------------------------------------------------------------------
// Single-tenant views: tenant 0 == cluster-wide, bit for bit
// ---------------------------------------------------------------------------

/// What one epoch of the single-tenant run observes; compared with EXPECT_EQ
/// across thread counts (the contract is bit-identity).
struct EpochViews {
  double window_latency = 0.0;
  std::vector<double> component_proc;
  std::vector<double> edge_transfer;
  std::vector<int> queue_depths;
  int inflight = 0;

  bool operator==(const EpochViews&) const = default;
};

TEST(MultiTenantTest, SingleTenantViewsMatchClusterWideBitwise) {
  const topo::Topology topology = ChainTopology(2, 3, 0.2);
  const topo::Workload workload = ChainWorkload(400.0);
  const topo::ClusterConfig cluster = TestCluster();
  const sched::Schedule initial = SpreadSchedule(topology, 4);
  sched::Schedule moved = SpreadSchedule(topology, 4, 1);

  std::vector<EpochViews> reference;
  SimCounters reference_counters;
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    SimOptions options;
    options.seed = 17;

    ClusterSim sim(cluster, options);
    ASSERT_TRUE(sim.AddTenant(&topology, &workload, initial).ok());
    ASSERT_TRUE(sim.Start().ok());

    // Run, measure, migrate, repeat; every tenant-0 view must equal its
    // cluster-wide counterpart.
    std::vector<EpochViews> epochs;
    for (int epoch = 0; epoch < 3; ++epoch) {
      sim.RunFor(700.0);
      EpochViews views;
      views.window_latency = sim.TenantWindowAvgLatencyMs(0);
      EXPECT_EQ(views.window_latency, sim.WindowAvgLatencyMs());
      EXPECT_EQ(sim.tenant_window_latency(0).count(),
                sim.window_latency().count());
      views.component_proc = sim.TenantWindowComponentProcMs(0);
      views.edge_transfer = sim.TenantWindowEdgeTransferMs(0);
      views.queue_depths = sim.TenantExecutorQueueDepths(0);
      EXPECT_EQ(views.queue_depths, sim.ExecutorQueueDepths());
      views.inflight = sim.TenantInflightRoots(0);
      EXPECT_EQ(views.inflight, sim.inflight_roots());
      epochs.push_back(views);
      sim.ResetWindow();
      ASSERT_TRUE(sim.Migrate(0, epoch % 2 == 0 ? moved : initial).ok());
    }
    // The tenant view of a single-tenant run carries the same root, tuple
    // and migration accounting (events/faults are cluster-level by design).
    const SimCounters& b = sim.counters();
    const SimCounters& t = sim.TenantCounters(0);
    EXPECT_EQ(t.roots_emitted, b.roots_emitted);
    EXPECT_EQ(t.roots_completed, b.roots_completed);
    EXPECT_EQ(t.roots_failed, b.roots_failed);
    EXPECT_EQ(t.tuples_processed, b.tuples_processed);
    EXPECT_EQ(t.local_transfers, b.local_transfers);
    EXPECT_EQ(t.remote_transfers, b.remote_transfers);
    EXPECT_EQ(t.migrations, b.migrations);

    // Every thread count replays the first run exactly.
    if (reference.empty()) {
      reference = epochs;
      reference_counters = b;
      continue;
    }
    EXPECT_TRUE(epochs == reference) << "threads=" << threads;
    const SimCounters& r = reference_counters;
    EXPECT_EQ(b.events_processed, r.events_processed);
    EXPECT_EQ(b.roots_emitted, r.roots_emitted);
    EXPECT_EQ(b.roots_completed, r.roots_completed);
    EXPECT_EQ(b.roots_failed, r.roots_failed);
    EXPECT_EQ(b.tuples_processed, r.tuples_processed);
    EXPECT_EQ(b.local_transfers, r.local_transfers);
    EXPECT_EQ(b.remote_transfers, r.remote_transfers);
    EXPECT_EQ(b.migrations, r.migrations);
  }
  SetGlobalThreadCount(0);
}

// ---------------------------------------------------------------------------
// Per-tenant root conservation under machine crashes
// ---------------------------------------------------------------------------

TEST(MultiTenantTest, PerTenantRootConservationUnderCrashes) {
  const topo::Topology chain_a = ChainTopology(1, 2, 0.3);
  const topo::Topology chain_b = ChainTopology(2, 2, 0.2);
  const topo::Topology chain_c = ChainTopology(1, 3, 0.4);
  const topo::Workload load_a = ChainWorkload(300.0);
  const topo::Workload load_b = ChainWorkload(500.0);
  const topo::Workload load_c = ChainWorkload(200.0);
  const topo::ClusterConfig cluster = TestCluster();

  FaultPlan plan;
  plan.AddCrash(1000.0, 1);
  plan.AddRecover(3000.0, 1);
  plan.AddCrash(3500.0, 2);
  plan.AddRecover(4500.0, 2);

  SimOptions options;
  options.seed = 23;
  ClusterSim sim(cluster, options);
  ASSERT_TRUE(sim.InstallFaultPlan(plan).ok());
  ASSERT_TRUE(sim.AddTenant(&chain_a, &load_a, SpreadSchedule(chain_a, 4)).ok());
  ASSERT_TRUE(
      sim.AddTenant(&chain_b, &load_b, SpreadSchedule(chain_b, 4, 1)).ok());
  ASSERT_TRUE(
      sim.AddTenant(&chain_c, &load_c, SpreadSchedule(chain_c, 4, 2)).ok());
  ASSERT_TRUE(sim.Start().ok());
  sim.RunFor(6000.0);

  ASSERT_EQ(sim.num_tenants(), 3);
  SimCounters sums;
  for (int t = 0; t < sim.num_tenants(); ++t) {
    const SimCounters& c = sim.TenantCounters(t);
    // Every root this tenant emitted completed, failed, or is in flight.
    EXPECT_EQ(c.roots_emitted,
              c.roots_completed + c.roots_failed + sim.TenantInflightRoots(t))
        << "tenant " << t;
    // The crashes actually hit every tenant's traffic.
    EXPECT_GT(c.roots_emitted, 0) << "tenant " << t;
    EXPECT_GT(c.roots_completed, 0) << "tenant " << t;
    sums.roots_emitted += c.roots_emitted;
    sums.roots_completed += c.roots_completed;
    sums.roots_failed += c.roots_failed;
    sums.roots_throttled += c.roots_throttled;
    sums.tuples_processed += c.tuples_processed;
    sums.tuples_dropped += c.tuples_dropped;
    sums.local_transfers += c.local_transfers;
    sums.remote_transfers += c.remote_transfers;
  }
  EXPECT_GT(sums.tuples_dropped, 0);  // the crashes caught tuples mid-flight
  // Cluster-wide accounting is exactly the sum of the tenant views.
  const SimCounters& cl = sim.counters();
  EXPECT_EQ(cl.roots_emitted, sums.roots_emitted);
  EXPECT_EQ(cl.roots_completed, sums.roots_completed);
  EXPECT_EQ(cl.roots_failed, sums.roots_failed);
  EXPECT_EQ(cl.roots_throttled, sums.roots_throttled);
  EXPECT_EQ(cl.tuples_processed, sums.tuples_processed);
  EXPECT_EQ(cl.tuples_dropped, sums.tuples_dropped);
  EXPECT_EQ(cl.local_transfers, sums.local_transfers);
  EXPECT_EQ(cl.remote_transfers, sums.remote_transfers);
  EXPECT_EQ(cl.faults_applied, 4);
  const int inflight_sum = sim.TenantInflightRoots(0) +
                           sim.TenantInflightRoots(1) +
                           sim.TenantInflightRoots(2);
  EXPECT_EQ(sim.inflight_roots(), inflight_sum);
}

// ---------------------------------------------------------------------------
// The tenant set: fixed at Start, deterministic across thread counts
// ---------------------------------------------------------------------------

/// Three tenants of different shapes and rates on one cluster; returns
/// every tenant's final snapshot.
std::vector<TenantSnapshot> RunThreeTenantScenario() {
  static const topo::Topology chain_a = ChainTopology(1, 2, 0.3);
  static const topo::Topology chain_b = ChainTopology(2, 2, 0.2);
  static const topo::Topology chain_c = ChainTopology(1, 1, 0.5);
  static const topo::Workload load_a = ChainWorkload(300.0);
  static const topo::Workload load_b = ChainWorkload(400.0);
  static const topo::Workload load_c = ChainWorkload(250.0);
  const topo::ClusterConfig cluster = TestCluster();

  SimOptions options;
  options.seed = 31;
  ClusterSim sim(cluster, options);
  EXPECT_TRUE(sim.AddTenant(&chain_a, &load_a, SpreadSchedule(chain_a, 4)).ok());
  EXPECT_TRUE(
      sim.AddTenant(&chain_b, &load_b, SpreadSchedule(chain_b, 4, 1)).ok());
  EXPECT_TRUE(
      sim.AddTenant(&chain_c, &load_c, SpreadSchedule(chain_c, 4, 2)).ok());
  EXPECT_TRUE(sim.Start().ok());
  sim.RunFor(3000.0);

  std::vector<TenantSnapshot> snaps;
  for (int t = 0; t < sim.num_tenants(); ++t) {
    snaps.push_back(SnapshotTenant(sim, t));
  }
  return snaps;
}

TEST(MultiTenantTest, AddRemoveMidRunIsDeterministicAcrossThreadCounts) {
  SetGlobalThreadCount(1);
  const std::vector<TenantSnapshot> baseline = RunThreeTenantScenario();
  ASSERT_EQ(baseline.size(), 3u);
  for (const TenantSnapshot& snap : baseline) {
    EXPECT_GT(snap.counters.roots_completed, 0);
  }
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    const std::vector<TenantSnapshot> rerun = RunThreeTenantScenario();
    ASSERT_EQ(rerun.size(), baseline.size());
    for (size_t t = 0; t < baseline.size(); ++t) {
      EXPECT_TRUE(rerun[t] == baseline[t])
          << "threads " << threads << " tenant " << t;
    }
  }
  SetGlobalThreadCount(0);
}

TEST(MultiTenantTest, AddTenantAfterStartFails) {
  const topo::Topology chain_a = ChainTopology(1, 2, 0.3);
  const topo::Topology chain_b = ChainTopology(1, 2, 0.3);
  const topo::Workload load = ChainWorkload(300.0);
  const topo::ClusterConfig cluster = TestCluster();

  SimOptions options;
  options.seed = 41;
  ClusterSim sim(cluster, options);
  ASSERT_TRUE(sim.AddTenant(&chain_a, &load, SpreadSchedule(chain_a, 4)).ok());
  ASSERT_TRUE(sim.Start().ok());
  sim.RunFor(500.0);
  const auto added = sim.AddTenant(&chain_b, &load, SpreadSchedule(chain_b, 4));
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sim.num_tenants(), 1);
  // The rejected tenant took no machine slots and the run goes on.
  int hosted = 0;
  for (int c : sim.MachineExecutorCounts()) hosted += c;
  EXPECT_EQ(hosted, chain_a.num_executors());
  const long long before = sim.TenantCounters(0).roots_completed;
  sim.RunFor(500.0);
  EXPECT_GT(sim.TenantCounters(0).roots_completed, before);
}

// ---------------------------------------------------------------------------
// Per-tenant observability: labelled metrics exist and carry traffic
// ---------------------------------------------------------------------------

TEST(MultiTenantTest, TenantLabelledMetricsAreRegistered) {
  const topo::Topology topology = ChainTopology(1, 1, 0.2);
  const topo::Workload workload = ChainWorkload(300.0);

  SimOptions options;
  options.seed = 47;
  ClusterSim sim(TestCluster(), options);
  ASSERT_TRUE(
      sim.AddTenant(&topology, &workload, SpreadSchedule(topology, 4)).ok());
  ASSERT_TRUE(
      sim.AddTenant(&topology, &workload, SpreadSchedule(topology, 4, 1)).ok());
  ASSERT_TRUE(sim.Start().ok());
  sim.RunFor(1500.0);

  // The per-tenant instruments follow the base#key=value convention that
  // the Prometheus exporter renders as labels.
  const std::string text =
      obs::ToPrometheusText(obs::MetricsRegistry::Get().Snapshot());
  EXPECT_NE(text.find("drlstream_sim_tuple_latency_ms_count{tenant=\"0\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("drlstream_sim_tuple_latency_ms_count{tenant=\"1\"}"),
            std::string::npos)
      << text;
  const obs::MetricNameParts parts =
      obs::SplitMetricName("sim.tuple_latency_ms#tenant=1");
  EXPECT_EQ(parts.base, "sim.tuple_latency_ms");
  ASSERT_EQ(parts.labels.size(), 1u);
  EXPECT_EQ(parts.labels[0].first, "tenant");
  EXPECT_EQ(parts.labels[0].second, "1");
}

TEST(MultiTenantTest, TotalJoulesPushesTenantEnergyGauges) {
  // A run that only reads the cluster total (as the control loop does for
  // its energy term) still exports every tenant's share.
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Get().ResetValues();
  const topo::Topology topology = ChainTopology(1, 2, 0.2);
  const topo::Workload workload = ChainWorkload(300.0);
  SimOptions options;
  options.seed = 53;
  ClusterSim sim(TestCluster(), options);
  ASSERT_TRUE(
      sim.AddTenant(&topology, &workload, SpreadSchedule(topology, 4)).ok());
  ASSERT_TRUE(sim.Start().ok());
  sim.RunFor(1500.0);
  sim.TotalJoules();
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  obs::SetMetricsEnabled(metrics_were_enabled);

  const auto gauge = snapshot.gauges.find("sim.energy_joules#tenant=0");
  ASSERT_NE(gauge, snapshot.gauges.end());
  EXPECT_EQ(gauge->second, sim.TenantCounters(0).energy_joules);
  EXPECT_GT(gauge->second, 0.0);
}

}  // namespace
}  // namespace drlstream::sim
