#include "sim/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace drlstream::sim {
namespace {

/// Registry handles for the simulator. All values recorded here are
/// sim-time quantities (deterministic given the seed), so snapshots are
/// run-identical at any thread count.
struct SimMetrics {
  obs::Histogram* tuple_latency_ms;
  obs::Counter* roots_failed;
  obs::Counter* tuples_dropped;
  obs::Counter* faults_applied;
  obs::Counter* migrations_moved;
  obs::Gauge* energy_joules;
};

const SimMetrics& Metrics() {
  static const SimMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
    return SimMetrics{
        reg.histogram("sim.tuple_latency_ms"),
        reg.counter("sim.roots_failed"),
        reg.counter("sim.tuples_dropped"),
        reg.counter("sim.faults_applied"),
        reg.counter("sim.migrations_moved"),
        reg.gauge("sim.energy_joules"),
    };
  }();
  return metrics;
}

/// Dwell bucket indices of MachineState::dwell_ms.
enum PowerState { kPowerActive = 0, kPowerIdle, kPowerSleep, kPowerDown };

/// Completion-lane entry of a machine with nothing in service.
constexpr double kIdleCompletionMs = std::numeric_limits<double>::infinity();
constexpr EventKey kIdleCompletionKey =
    MakeEventKey(kIdleCompletionMs, std::numeric_limits<uint64_t>::max());

/// What a simulator random stream is drawn for; one stream per (seed,
/// tenant, tenant-scoped executor, purpose).
enum class StreamPurpose : uint64_t { kArrivals = 1, kService, kRouting };

SplitMix64 DeriveStream(uint64_t seed, int tenant, int executor,
                        StreamPurpose purpose) {
  uint64_t h = SplitMix64Hash(seed);
  h = SplitMix64Hash(h ^ static_cast<uint64_t>(tenant));
  h = SplitMix64Hash(h ^ static_cast<uint64_t>(executor));
  return SplitMix64(SplitMix64Hash(h ^ static_cast<uint64_t>(purpose)));
}

/// Trace-instant label; distinct from FaultTypeName (faults.h) which feeds
/// the CSV/JSON artifacts.
const char* FaultInstantName(FaultType type) {
  switch (type) {
    case FaultType::kMachineCrash:
      return "fault:machine_crash";
    case FaultType::kMachineRecover:
      return "fault:machine_recover";
    case FaultType::kStraggler:
      return "fault:straggler";
    case FaultType::kLinkSpike:
      return "fault:link_spike";
    case FaultType::kSpoutShock:
      return "fault:spout_shock";
  }
  return "fault:unknown";
}

}  // namespace

void IntFifo::Grow() {
  std::vector<int> bigger(std::max<size_t>(8, 2 * ring_.size()));
  const size_t count = size();
  for (size_t i = 0; i < count; ++i) bigger[i] = (*this)[i];
  ring_.swap(bigger);
  mask_ = ring_.size() - 1;
  head_ = 0;
  tail_ = count;
}

ClusterSim::ClusterSim(const topo::ClusterConfig& cluster, SimOptions options)
    : cluster_(cluster), options_(options), payload_rng_(options.seed) {
  DRLSTREAM_CHECK(cluster.Validate().ok());
  machines_.resize(cluster_.num_machines);
  completion_key_.assign(cluster_.num_machines, kIdleCompletionKey);
}

ClusterSim::~ClusterSim() = default;

Status ClusterSim::InstallFaultPlan(const FaultPlan& plan) {
  if (initialized_) {
    return Status::FailedPrecondition(
        "fault plan must be installed before Init");
  }
  DRLSTREAM_RETURN_NOT_OK(plan.Validate(cluster_.num_machines));
  fault_plan_ = plan;
  return Status::OK();
}

StatusOr<int> ClusterSim::AddTenant(const topo::Topology* topology,
                                    const topo::Workload* workload,
                                    const sched::Schedule& initial) {
  if (initialized_) {
    return Status::FailedPrecondition("tenants must be added before Start");
  }
  if (topology == nullptr || workload == nullptr) {
    return Status::InvalidArgument("tenant needs topology + workload");
  }
  DRLSTREAM_RETURN_NOT_OK(topology->Validate());
  if (initial.num_executors() != topology->num_executors()) {
    return Status::InvalidArgument("schedule executor count mismatch");
  }
  if (initial.num_machines() != cluster_.num_machines) {
    return Status::InvalidArgument("schedule machine count mismatch");
  }

  const int tenant = static_cast<int>(tenants_.size());
  TenantState state;
  state.topology = topology;
  state.workload = workload;
  state.schedule = std::make_unique<sched::Schedule>(initial);
  state.schedule->set_tenant(tenant);
  state.exec_base = static_cast<int>(executors_.size());
  state.num_executors = topology->num_executors();
  state.rate_multiplier.assign(topology->num_components(), 1.0);
  state.service.reserve(topology->num_components());
  state.exp_neg_emit.reserve(topology->num_components());
  for (int c = 0; c < topology->num_components(); ++c) {
    const topo::Component& comp = topology->component(c);
    DRLSTREAM_CHECK_GE(comp.emit_factor, 0.0);
    state.service.emplace_back(comp.service_mean_ms, comp.service_cv);
    state.exp_neg_emit.push_back(std::exp(-comp.emit_factor));
  }
  state.window_component_proc.assign(topology->num_components(),
                                     WindowMean());
  state.window_edge_transfer.assign(topology->edges().size(), WindowMean());
  const std::string label = "#tenant=" + std::to_string(tenant);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
  state.latency_metric = reg.histogram("sim.tuple_latency_ms" + label);
  state.roots_failed_metric = reg.counter("sim.roots_failed" + label);
  state.tuples_dropped_metric = reg.counter("sim.tuples_dropped" + label);
  state.energy_metric = reg.gauge("sim.energy_joules" + label);
  tenants_.push_back(std::move(state));

  executors_.resize(executors_.size() + topology->num_executors());
  for (int i = 0; i < topology->num_executors(); ++i) {
    ExecutorState& exec = executors_[tenants_[tenant].exec_base + i];
    exec.tenant = tenant;
    exec.component = topology->ComponentOfExecutor(i);
    exec.machine = initial.MachineOf(i);
    exec.process = initial.ProcessOf(i);
    exec.arrivals =
        DeriveStream(options_.seed, tenant, i, StreamPurpose::kArrivals);
    exec.service =
        DeriveStream(options_.seed, tenant, i, StreamPurpose::kService);
    exec.routing =
        DeriveStream(options_.seed, tenant, i, StreamPurpose::kRouting);
    HostExecutor(exec.machine);
    const topo::Component& comp = topology->component(exec.component);
    if (options_.functional) {
      if (comp.is_spout && comp.source_factory) {
        exec.source = comp.source_factory();
      } else if (!comp.is_spout && comp.udf_factory) {
        exec.udf = comp.udf_factory();
      }
    }
  }
  RebuildLocalTargets(tenant);
  return tenant;
}

Status ClusterSim::Start() {
  if (initialized_) {
    return Status::FailedPrecondition("simulator already initialized");
  }
  // The executor count is final now, and it bounds every active list.
  for (int machine = 0; machine < cluster_.num_machines; ++machine) {
    BuildRateTable(machine);
  }
  // Prime scenario generators first (multipliers in effect at t=0 and the
  // first rate-change ops armed) so the sources below sample the modulated
  // rates. Generator-free tenants (and `constant` generators, which emit
  // no ops) leave the event/seq stream untouched.
  for (int tenant = 0; tenant < num_tenants(); ++tenant) {
    if (tenants_[tenant].generator != nullptr) PrimeTenantGenerator(tenant);
  }
  // A spout shock due now is in effect before the sources' first draw; its
  // event below still fires (and counts) at this time.
  UpdateSpoutShock();
  // Start the data sources (staggered by their exponential inter-arrivals),
  // tenant by tenant in registration order.
  for (const TenantState& t : tenants_) {
    for (int i = 0; i < t.num_executors; ++i) {
      const ExecutorState& exec = executors_[t.exec_base + i];
      if (!t.topology->component(exec.component).is_spout) continue;
      ScheduleNextSpoutEmit(t.exec_base + i);
    }
  }
  Schedule(now_ms_ + 1000.0, EventType::kTimeoutSweep, -1, -1);

  // Schedule the fault plan; windowed faults get a closing edge too.
  const std::vector<FaultEvent>& fault_events = fault_plan_.events();
  for (size_t i = 0; i < fault_events.size(); ++i) {
    const FaultEvent& event = fault_events[i];
    Schedule(event.time_ms, EventType::kFault, static_cast<int>(i),
             /*tuple_slot=*/0);
    if (event.type == FaultType::kStraggler ||
        event.type == FaultType::kLinkSpike) {
      Schedule(event.time_ms + event.duration_ms, EventType::kFault,
               static_cast<int>(i), /*tuple_slot=*/1);
    }
  }

  initialized_ = true;
  return Status::OK();
}

Status ClusterSim::Migrate(int tenant, const sched::Schedule& target) {
  if (!initialized_) {
    return Status::FailedPrecondition("simulator not initialized");
  }
  if (tenant < 0 || tenant >= num_tenants()) {
    return Status::InvalidArgument("no such tenant");
  }
  TenantState& t = tenants_[tenant];
  if (target.num_executors() != t.topology->num_executors() ||
      target.num_machines() != cluster_.num_machines) {
    return Status::InvalidArgument("schedule dimensions mismatch");
  }
  const std::vector<int> changed = t.schedule->ChangedExecutors(target);
  for (int e : changed) {
    ExecutorState& exec = executors_[t.exec_base + e];
    UnhostExecutor(exec.machine);
    exec.machine = target.MachineOf(e);
    exec.process = target.ProcessOf(e);
    HostExecutor(exec.machine);
    // Landing on a sleeping machine extends the pause to the end of its
    // wake transition (wake_until_ms stays 0 with deep sleep disabled, so
    // the pause is exactly the historical migration pause).
    exec.paused_until_ms = std::max(now_ms_ + cluster_.migration_pause_ms,
                                    machines_[exec.machine].wake_until_ms);
    Schedule(exec.paused_until_ms, EventType::kResume, t.exec_base + e, -1);
    ++counters_.migrations;
    ++t.counters.migrations;
  }
  if (!changed.empty()) {
    Metrics().migrations_moved->Add(static_cast<int64_t>(changed.size()));
    obs::Tracer::Get().AddSimSpan("migrate", now_ms_,
                                  now_ms_ + cluster_.migration_pause_ms);
  }
  *t.schedule = target;
  t.schedule->set_tenant(tenant);
  RebuildLocalTargets(tenant);
  return Status::OK();
}

void ClusterSim::RebuildLocalTargets(int tenant) {
  TenantState& t = tenants_[tenant];
  const int slots = cluster_.slots_per_machine;
  t.local_targets.assign(
      t.topology->num_components(),
      std::vector<std::vector<int>>(
          static_cast<size_t>(cluster_.num_machines) * slots));
  for (int i = 0; i < t.num_executors; ++i) {
    const ExecutorState& exec = executors_[t.exec_base + i];
    DRLSTREAM_CHECK_LT(exec.process, slots);
    t.local_targets[exec.component][exec.machine * slots + exec.process]
        .push_back(t.exec_base + i);
  }
}

void ClusterSim::RunUntil(double time_ms) {
  DRLSTREAM_CHECK(initialized_);
  while (true) {
    // The next event is the one with the smaller key of the queue's top
    // and the earliest live completion. An idle lane entry sorts after
    // every queued event, so it is only ever first with the queue empty,
    // and it never dispatches.
    const int machine = EarliestCompletion();
    const EventKey completion_key = completion_key_[machine];
    if (events_.empty() || completion_key < events_.top().key) {
      const double completion = EventKeyTimeMs(completion_key);
      if (completion > time_ms || completion == kIdleCompletionMs) break;
      now_ms_ = std::max(now_ms_, completion);
      ++counters_.events_processed;
      HandleMachineCompletion(machine);
      continue;
    }
    const Event event = events_.top();
    const double event_ms = event.time_ms();
    if (event_ms > time_ms) break;
    events_.pop();
    now_ms_ = std::max(now_ms_, event_ms);
    ++counters_.events_processed;
    switch (event.type) {
      case EventType::kSpoutEmit:
        if (event.tuple_slot == 1) {
          // Rate-boundary recheck: re-sample without emitting.
          ScheduleNextSpoutEmit(event.executor);
        } else {
          HandleSpoutEmit(event.executor);
        }
        break;
      case EventType::kArrive:
        HandleArrive(event.tuple_slot);
        break;
      case EventType::kResume:
        HandleResume(event.executor);
        break;
      case EventType::kTimeoutSweep:
        HandleTimeoutSweep();
        break;
      case EventType::kFault:
        HandleFault(event.executor, event.tuple_slot == 1);
        break;
      case EventType::kRateChange:
        HandleRateChange(event.executor, event.tuple_slot);
        break;
    }
  }
  now_ms_ = std::max(now_ms_, time_ms);
}

void ClusterSim::ResetWindow() {
  window_latency_.Reset();
  for (TenantState& t : tenants_) {
    t.window_latency.Reset();
    for (WindowMean& s : t.window_component_proc) s = WindowMean();
    for (WindowMean& s : t.window_edge_transfer) s = WindowMean();
  }
}

const sched::Schedule& ClusterSim::TenantSchedule(int tenant) const {
  return *tenants_[tenant].schedule;
}

double ClusterSim::TenantWindowAvgLatencyMs(int tenant) const {
  return tenants_[tenant].window_latency.mean();
}

const RunningStats& ClusterSim::tenant_window_latency(int tenant) const {
  return tenants_[tenant].window_latency;
}

std::vector<double> ClusterSim::TenantWindowComponentProcMs(
    int tenant) const {
  const TenantState& t = tenants_[tenant];
  std::vector<double> out;
  out.reserve(t.window_component_proc.size());
  for (const WindowMean& s : t.window_component_proc) out.push_back(s.mean);
  return out;
}

std::vector<double> ClusterSim::TenantWindowEdgeTransferMs(int tenant) const {
  const TenantState& t = tenants_[tenant];
  std::vector<double> out;
  out.reserve(t.window_edge_transfer.size());
  for (const WindowMean& s : t.window_edge_transfer) out.push_back(s.mean);
  return out;
}

const SimCounters& ClusterSim::TenantCounters(int tenant) const {
  return tenants_[tenant].counters;
}

int ClusterSim::TenantInflightRoots(int tenant) const {
  return tenants_[tenant].inflight_roots;
}

std::vector<int> ClusterSim::ExecutorQueueDepths() const {
  std::vector<int> depths;
  depths.reserve(executors_.size());
  for (const ExecutorState& exec : executors_) {
    depths.push_back(static_cast<int>(exec.queue.size()));
  }
  return depths;
}

std::vector<int> ClusterSim::TenantExecutorQueueDepths(int tenant) const {
  const TenantState& t = tenants_[tenant];
  std::vector<int> depths;
  depths.reserve(t.num_executors);
  for (int i = 0; i < t.num_executors; ++i) {
    depths.push_back(
        static_cast<int>(executors_[t.exec_base + i].queue.size()));
  }
  return depths;
}

double ClusterSim::RemoteTransferFraction() const {
  const long long total =
      counters_.local_transfers + counters_.remote_transfers;
  if (total == 0) return 0.0;
  return static_cast<double>(counters_.remote_transfers) /
         static_cast<double>(total);
}

std::vector<int> ClusterSim::MachineExecutorCounts() const {
  std::vector<int> counts(cluster_.num_machines, 0);
  for (const ExecutorState& exec : executors_) {
    ++counts[exec.machine];
  }
  return counts;
}

bool ClusterSim::MachineUp(int machine) const {
  return machines_[machine].health.up;
}

std::vector<uint8_t> ClusterSim::MachineUpMask() const {
  std::vector<uint8_t> mask(machines_.size(), 1);
  for (size_t m = 0; m < machines_.size(); ++m) {
    mask[m] = machines_[m].health.up ? 1 : 0;
  }
  return mask;
}

std::vector<topo::MachineHealth> ClusterSim::MachineHealths() const {
  std::vector<topo::MachineHealth> healths;
  healths.reserve(machines_.size());
  for (const MachineState& m : machines_) healths.push_back(m.health);
  return healths;
}

int ClusterSim::ExecutorsOnDeadMachines() const {
  int count = 0;
  for (const ExecutorState& exec : executors_) {
    if (!machines_[exec.machine].health.up) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Event plumbing.
// ---------------------------------------------------------------------------

void ClusterSim::Schedule(double time_ms, EventType type, int executor,
                          int tuple_slot) {
  events_.push(
      Event{MakeEventKey(time_ms, next_seq_++), type, executor, tuple_slot});
}

int ClusterSim::AllocTupleSlot() {
  if (!free_slots_.empty()) {
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  tuple_pool_.emplace_back();
  if (options_.functional) payloads_.emplace_back();
  return static_cast<int>(tuple_pool_.size()) - 1;
}

void ClusterSim::FreeTupleSlot(int slot) {
  // A taken slot's fields are written (by SendTo, and its enqueue time by
  // HandleArrive) before they are read. A free slot's payload is empty, so
  // SendTo stores a key-only one by setting its key.
  if (options_.functional) payloads_[slot] = topo::TupleData();
  free_slots_.push_back(slot);
}

// ---------------------------------------------------------------------------
// Handlers.
// ---------------------------------------------------------------------------

double ClusterSim::SpoutRate(int tenant, int component) const {
  // Workload rates are tuples/second per executor; the event clock is ms.
  // Without a generator or a shock both factors are exactly 1.0.
  const TenantState& t = tenants_[tenant];
  return t.workload->BaseRate(component) * t.rate_multiplier[component] /
         1000.0 * spout_shock_;
}

void ClusterSim::UpdateSpoutShock() {
  // The plan is sorted by time; at equal times the later shock wins.
  spout_shock_ = 1.0;
  next_shock_ms_ = std::numeric_limits<double>::infinity();
  for (const FaultEvent& event : fault_plan_.events()) {
    if (event.type != FaultType::kSpoutShock) continue;
    if (event.time_ms > now_ms_) {
      next_shock_ms_ = event.time_ms;
      break;
    }
    spout_shock_ = event.magnitude;
  }
}

void ClusterSim::ScheduleNextSpoutEmit(int executor) {
  // Exponential inter-arrivals give a Poisson process; at a scheduled rate
  // change we re-sample instead of emitting (memorylessness makes this an
  // exact simulation of a piecewise-constant-rate Poisson process, and it
  // lets a near-silent source notice its rate coming back up).
  ExecutorState& exec = executors_[executor];
  const TenantState& t = tenants_[exec.tenant];
  const double rate = SpoutRate(exec.tenant, exec.component);
  // The tenant's next kRateChange op and the next spout shock cap the
  // sample.
  const double boundary = std::min(t.next_rate_change_ms, next_shock_ms_);
  const double sample =
      rate > 0.0 ? exec.arrivals.Exponential(rate)
                 : std::numeric_limits<double>::infinity();
  // A silent source's infinite sample never lands: it waits for the
  // boundary, or polls when there is none.
  if (rate > 0.0 && now_ms_ + sample <= boundary) {
    Schedule(now_ms_ + sample, EventType::kSpoutEmit, executor,
             /*tuple_slot=*/0);
  } else if (std::isfinite(boundary)) {
    Schedule(boundary + 1e-6, EventType::kSpoutEmit, executor,
             /*tuple_slot=*/1);
  } else {
    // Dead source with no scheduled revival: poll occasionally (a
    // generator installed later may revive it).
    Schedule(now_ms_ + 1000.0, EventType::kSpoutEmit, executor,
             /*tuple_slot=*/1);
  }
}

void ClusterSim::PrimeTenantGenerator(int tenant) {
  TenantState& t = tenants_[tenant];
  for (int component : t.topology->SpoutComponents()) {
    t.rate_multiplier[component] =
        t.generator->MultiplierAt(tenant, component, now_ms_);
  }
  const auto op = t.generator->NextRateChange(tenant, now_ms_);
  if (op.has_value()) {
    t.next_rate_change_ms = op->time_ms;
    Schedule(op->time_ms, EventType::kRateChange, tenant,
             t.rate_event_version);
  } else {
    t.next_rate_change_ms = std::numeric_limits<double>::infinity();
  }
}

void ClusterSim::HandleRateChange(int tenant, int version) {
  TenantState& t = tenants_[tenant];
  if (t.generator == nullptr) return;
  if (version != t.rate_event_version) return;  // Stale after a swap.
  // Re-reading MultiplierAt at the op time (instead of applying the op's
  // payload) keeps spout-targeted and composed ops uniform, and arms the
  // next op of the stream.
  PrimeTenantGenerator(tenant);
}

Status ClusterSim::SetTenantWorkloadGenerator(
    int tenant, const workload::WorkloadGenerator* gen) {
  if (tenant < 0 || tenant >= num_tenants()) {
    return Status::InvalidArgument("no such tenant");
  }
  TenantState& t = tenants_[tenant];
  t.generator = gen;
  ++t.rate_event_version;  // Orphan any pending kRateChange events.
  std::fill(t.rate_multiplier.begin(), t.rate_multiplier.end(), 1.0);
  t.next_rate_change_ms = std::numeric_limits<double>::infinity();
  // Before Start the generator is primed there (ahead of the sources); a
  // mid-run install takes effect immediately.
  if (initialized_ && gen != nullptr) PrimeTenantGenerator(tenant);
  return Status::OK();
}

std::vector<double> ClusterSim::TenantEffectiveSpoutRates(int tenant) const {
  const TenantState& t = tenants_[tenant];
  std::vector<double> rates;
  const std::vector<int> spouts = t.topology->SpoutComponents();
  rates.reserve(spouts.size());
  for (int component : spouts) {
    rates.push_back(t.workload->BaseRate(component) *
                    t.rate_multiplier[component]);
  }
  return rates;
}

double ClusterSim::TenantRateMultiplier(int tenant, int component) const {
  return tenants_[tenant].rate_multiplier[component];
}

void ClusterSim::HandleSpoutEmit(int executor) {
  ExecutorState& exec = executors_[executor];
  TenantState& tenant = tenants_[exec.tenant];
  const double rate = SpoutRate(exec.tenant, exec.component);
  // Schedule the next arrival first so throttling never stops the source
  // (and a spout on a crashed machine resumes on recovery).
  ScheduleNextSpoutEmit(executor);
  if (rate <= 0.0) return;
  if (!machines_[exec.machine].health.up) return;

  // Per-tenant backpressure: one overloaded tenant throttles only itself,
  // never its cluster neighbours.
  if (tenant.inflight_roots >= options_.max_inflight_roots) {
    ++counters_.roots_throttled;
    ++tenant.counters.roots_throttled;
    return;
  }

  const uint64_t root_id = AllocRoot(exec.tenant);
  ++counters_.roots_emitted;
  ++tenant.counters.roots_emitted;

  // The spout's own processing cost (reading/serializing the tuple);
  // spouts emit without queueing through the machine's executor pool, so a
  // straggler window scales their service time directly.
  const double service =
      SampleServiceWork(executor) * machines_[exec.machine].health.speed_factor;
  tenant.window_component_proc[exec.component].Add(service);
  const double send_time = now_ms_ + service;

  topo::TupleData data;
  const topo::TupleData* payload = nullptr;
  if (exec.source != nullptr) {
    data = exec.source->Next(&payload_rng_);
    payload = &data;
  } else {
    data.key = exec.routing.Next();
  }

  int children = 0;
  for (int edge_id : tenant.topology->OutEdges(exec.component)) {
    children +=
        SendOnEdge(edge_id, executor, root_id, data.key, payload, send_time);
  }
  if (children == 0) {
    ReleaseRoot(static_cast<uint32_t>(root_id));
    window_latency_.Add(service);
    tenant.window_latency.Add(service);
    ++counters_.roots_completed;
    ++tenant.counters.roots_completed;
    Metrics().tuple_latency_ms->Record(service);
    tenant.latency_metric->Record(service);
    return;
  }
  roots_[static_cast<uint32_t>(root_id)].pending = children;
}

void ClusterSim::HandleArrive(int tuple_slot) {
  TupleInstance& tuple = tuple_pool_[tuple_slot];
  TenantState& tenant = tenants_[tuple.tenant];
  const int executor = tuple.dest_executor;
  if (!machines_[executors_[executor].machine].health.up) {
    // Destination machine is down: the tuple is lost; its root fails via
    // the ack timeout and the source replays it.
    ++counters_.tuples_dropped;
    ++tenant.counters.tuples_dropped;
    Metrics().tuples_dropped->Add(1);
    tenant.tuples_dropped_metric->Add(1);
    FreeTupleSlot(tuple_slot);
    return;
  }
  if (tuple.via_edge >= 0) {
    tenant.window_edge_transfer[tuple.via_edge].Add(now_ms_ - tuple.sent_ms);
  }
  tuple.enqueue_ms = now_ms_;
  executors_[executor].queue.push_back(tuple_slot);
  StartServiceIfIdle(executor);
}

// ---------------------------------------------------------------------------
// Energy accounting (topo::MachineSpec power model).
// ---------------------------------------------------------------------------

bool ClusterSim::MachineAsleep(int machine) const {
  const topo::MachineSpec& spec = cluster_.machine;
  if (spec.sleep_after_idle_ms < 0.0) return false;
  const MachineState& m = machines_[machine];
  return m.health.up && m.hosted == 0 && m.active.empty() &&
         now_ms_ >= m.hostless_since_ms + spec.sleep_after_idle_ms;
}

void ClusterSim::SettleEnergy(int machine) {
  MachineState& m = machines_[machine];
  if (now_ms_ <= m.energy_settled_ms) return;
  const topo::MachineSpec& spec = cluster_.machine;
  const double t0 = m.energy_settled_ms;
  const double t1 = now_ms_;
  m.energy_settled_ms = t1;

  // SettleEnergy runs before every mutation of the machine's power
  // classification (serving set, hosted count, health), so within
  // (t0, t1] the classification changes only at the two model-internal
  // breakpoints: the sleep onset and the end of a wake transition.
  const auto charge = [&](int state, double watts, double from, double to) {
    if (to <= from) return;
    const double joules = watts * (to - from) / 1000.0;
    m.dwell_ms[state] += to - from;
    m.joules += joules;
    counters_.energy_joules += joules;
  };

  if (!m.health.up) {
    charge(kPowerDown, spec.sleep_watts, t0, t1);
    return;
  }
  if (!m.active.empty()) {
    charge(kPowerActive, spec.active_watts, t0, t1);
    // Dynamic-share attribution: the draw above idle, split evenly over
    // the executors in service, billed to their tenants.
    const double share = std::max(0.0, spec.active_watts - spec.idle_watts) *
                         (t1 - t0) /
                         (1000.0 * static_cast<double>(m.active.size()));
    for (int e : m.active) {
      tenants_[executors_[e].tenant].counters.energy_joules += share;
    }
    return;
  }
  if (m.hosted > 0) {
    // Hosted but nothing in service: finish any wake transition at full
    // draw, then idle.
    const double wake_end = std::min(std::max(m.wake_until_ms, t0), t1);
    charge(kPowerActive, spec.active_watts, t0, wake_end);
    charge(kPowerIdle, spec.idle_watts, wake_end, t1);
    return;
  }
  // Hostless: idle until the sleep window elapses, deep sleep after.
  double sleep_start = t1;
  if (spec.sleep_after_idle_ms >= 0.0) {
    sleep_start = std::min(
        std::max(m.hostless_since_ms + spec.sleep_after_idle_ms, t0), t1);
  }
  charge(kPowerIdle, spec.idle_watts, t0, sleep_start);
  charge(kPowerSleep, spec.sleep_watts, sleep_start, t1);
}

void ClusterSim::HostExecutor(int machine) {
  MachineState& m = machines_[machine];
  SettleEnergy(machine);
  if (MachineAsleep(machine)) {
    m.wake_until_ms = now_ms_ + cluster_.machine.wake_ms;
  }
  ++m.hosted;
}

void ClusterSim::UnhostExecutor(int machine) {
  MachineState& m = machines_[machine];
  SettleEnergy(machine);
  DRLSTREAM_CHECK_GT(m.hosted, 0);
  --m.hosted;
  if (m.hosted == 0) m.hostless_since_ms = now_ms_;
}

double ClusterSim::TotalJoules() {
  for (int machine = 0; machine < cluster_.num_machines; ++machine) {
    SettleEnergy(machine);
  }
  Metrics().energy_joules->Set(counters_.energy_joules);
  for (const TenantState& t : tenants_) {
    t.energy_metric->Set(t.counters.energy_joules);
  }
  return counters_.energy_joules;
}

ClusterSim::MachinePowerBreakdown ClusterSim::MachineEnergy(int machine) {
  SettleEnergy(machine);
  const MachineState& m = machines_[machine];
  MachinePowerBreakdown out;
  out.joules = m.joules;
  out.active_ms = m.dwell_ms[kPowerActive];
  out.idle_ms = m.dwell_ms[kPowerIdle];
  out.sleep_ms = m.dwell_ms[kPowerSleep];
  out.down_ms = m.dwell_ms[kPowerDown];
  out.asleep = MachineAsleep(machine);
  return out;
}

double ClusterSim::TenantJoules(int tenant) {
  TotalJoules();
  return tenants_[tenant].counters.energy_joules;
}

void ClusterSim::BuildRateTable(int machine) {
  MachineState& m = machines_[machine];
  m.rate.resize(executors_.size() + 1);
  m.rate[0] = 0.0;  // never read: nothing in service
  for (size_t k = 1; k < m.rate.size(); ++k) {
    m.rate[k] = std::min(1.0, static_cast<double>(cluster_.cores_per_machine) /
                                  static_cast<double>(k)) /
                m.health.speed_factor;
  }
}

void ClusterSim::AdvanceMachine(int machine) {
  MachineState& m = machines_[machine];
  SettleEnergy(machine);
  const double dt = now_ms_ - m.last_update_ms;
  if (dt <= 0.0) {
    m.last_update_ms = now_ms_;
    return;
  }
  if (!m.active.empty()) {
    const double rate = m.rate[m.active.size()];
    for (int e : m.active) {
      executors_[e].remaining_work_ms =
          std::max(0.0, executors_[e].remaining_work_ms - rate * dt);
    }
  }
  m.last_update_ms = now_ms_;
}

void ClusterSim::ScheduleNextCompletion(int machine) {
  const MachineState& m = machines_[machine];
  if (m.active.empty()) {
    SetCompletion(machine, kIdleCompletionKey);
    return;
  }
  const double rate = m.rate[m.active.size()];
  double min_remaining = std::numeric_limits<double>::infinity();
  for (int e : m.active) {
    min_remaining = std::min(min_remaining, executors_[e].remaining_work_ms);
  }
  // Like a queued event, the completion takes the next seq, which orders
  // it against queued events of the same time.
  SetCompletion(machine,
                MakeEventKey(now_ms_ + min_remaining / rate, next_seq_++));
}

void ClusterSim::SetCompletion(int machine, EventKey key) {
  completion_key_[machine] = key;
  if (lane_stale_) return;
  if (machine == lane_min_) {
    lane_stale_ = true;  // The earliest entry moved; rescan on demand.
  } else if (key < completion_key_[lane_min_]) {
    lane_min_ = machine;
  }
}

int ClusterSim::EarliestCompletion() {
  if (!lane_stale_) return lane_min_;
  // A key minimum, written as selects, over one contiguous array: a few
  // dozen machines scan faster than a tree of keys is kept up to date.
  const EventKey* keys = completion_key_.data();
  const int n = static_cast<int>(completion_key_.size());
  int best = 0;
  EventKey best_key = keys[0];
  for (int m = 1; m < n; ++m) {
    const bool earlier = keys[m] < best_key;
    best = earlier ? m : best;
    best_key = earlier ? keys[m] : best_key;
  }
  lane_min_ = best;
  lane_stale_ = false;
  return best;
}

void ClusterSim::StartServiceIfIdle(int executor) {
  ExecutorState& exec = executors_[executor];
  if (exec.busy || exec.queue.empty() || exec.paused_until_ms > now_ms_) {
    return;
  }
  if (!machines_[exec.machine].health.up) return;
  exec.current_slot = exec.queue.front();
  exec.queue.pop_front();
  exec.busy = true;
  exec.remaining_work_ms = SampleServiceWork(executor);
  AdvanceMachine(exec.machine);
  machines_[exec.machine].active.push_back(executor);
  // The machine being completed re-arms once, when its handler ends.
  if (exec.machine != completing_machine_) {
    ScheduleNextCompletion(exec.machine);
  }
}

void ClusterSim::FinishService(int executor) {
  ExecutorState& exec = executors_[executor];
  TenantState& tenant = tenants_[exec.tenant];
  DRLSTREAM_CHECK(exec.busy);
  exec.busy = false;
  ++counters_.tuples_processed;
  ++tenant.counters.tuples_processed;
  const int slot = exec.current_slot;
  const TupleInstance& current = tuple_pool_[slot];
  tenant.window_component_proc[exec.component].Add(now_ms_ -
                                                   current.enqueue_ms);

  const uint64_t root_id = current.root_id;
  std::vector<topo::TupleData> outputs;
  if (exec.udf != nullptr) {
    exec.udf->Process(payloads_[slot], &outputs);
  }
  FreeTupleSlot(slot);
  const int children = EmitDownstream(executor, root_id, outputs, now_ms_);

  RootState* root = FindRoot(root_id);
  if (root != nullptr) {  // May have been failed by the timeout sweep.
    root->pending += children - 1;
    if (root->pending == 0) {
      CompleteRoot(static_cast<uint32_t>(root_id), now_ms_ - root->emit_ms);
    }
  }
  StartServiceIfIdle(executor);
}

void ClusterSim::HandleMachineCompletion(int machine) {
  MachineState& m = machines_[machine];
  AdvanceMachine(machine);
  // Pull out every executor that has finished its work.
  finished_.clear();
  for (size_t i = m.active.size(); i-- > 0;) {
    const int e = m.active[i];
    if (executors_[e].remaining_work_ms <= 1e-9) {
      finished_.push_back(e);
      m.active.erase(m.active.begin() + i);
    }
  }
  // FinishService may start new services on this machine; process
  // completions oldest-scheduled-first for determinism. No handler it
  // reaches re-enters this one, so finished_ stays intact while it is
  // walked. The machine's completion is re-armed once, at the end, not
  // per service started here: those entries would be overwritten before
  // any dispatch, and skipping the seqs they would take shifts every
  // later seq by the same count, so every later key keeps its order.
  completing_machine_ = machine;
  for (size_t i = finished_.size(); i-- > 0;) {
    FinishService(finished_[i]);
  }
  completing_machine_ = -1;
  ScheduleNextCompletion(machine);
}

int ClusterSim::EmitDownstream(int executor, uint64_t root_id,
                               const std::vector<topo::TupleData>& outputs,
                               double send_time_ms) {
  ExecutorState& exec = executors_[executor];
  const TenantState& tenant = tenants_[exec.tenant];
  const topo::Topology* topology = tenant.topology;
  int children = 0;
  for (int edge_id : topology->OutEdges(exec.component)) {
    if (exec.udf != nullptr) {
      // Functional mode: route the UDF's real outputs.
      for (const topo::TupleData& out : outputs) {
        children +=
            SendOnEdge(edge_id, executor, root_id, out.key, &out, send_time_ms);
      }
    } else {
      // Timing-only: integer fan-out drawn around the emit factor.
      const int k =
          exec.routing.Poisson(tenant.exp_neg_emit[exec.component]);
      for (int t = 0; t < k; ++t) {
        const uint64_t key = exec.routing.Next();
        children +=
            SendOnEdge(edge_id, executor, root_id, key, nullptr, send_time_ms);
      }
    }
  }
  return children;
}

int ClusterSim::PickDestination(int tenant, const topo::StreamEdge& edge,
                                int from_executor, uint64_t key) {
  const TenantState& t = tenants_[tenant];
  const int first = t.exec_base + t.topology->FirstExecutorOf(edge.to);
  const int p = t.topology->component(edge.to).parallelism;
  ExecutorState& from = executors_[from_executor];
  switch (edge.grouping) {
    case topo::Grouping::kShuffle: {
      // Storm 1.x load-aware shuffle: prefer a same-process target while it
      // is lightly loaded; otherwise spill to the less loaded of two random
      // targets among the tenant's executors (power of two choices).
      const std::vector<int>& local =
          t.local_targets[edge.to]
                         [from.machine * cluster_.slots_per_machine +
                          from.process];
      if (!local.empty()) {
        int best = local[0];
        if (local.size() > 1) {
          const uint32_t size = static_cast<uint32_t>(local.size());
          const int a = local[from.routing.Below(size)];
          const int b = local[from.routing.Below(size)];
          best = executors_[a].queue.size() <= executors_[b].queue.size() ? a
                                                                          : b;
        }
        if (static_cast<int>(executors_[best].queue.size()) <=
            cluster_.shuffle_spill_queue_len) {
          return best;
        }
      }
      const uint32_t width = static_cast<uint32_t>(p);
      const int a = first + static_cast<int>(from.routing.Below(width));
      const int b = first + static_cast<int>(from.routing.Below(width));
      return executors_[a].queue.size() <= executors_[b].queue.size() ? a : b;
    }
    case topo::Grouping::kFields:
      return first + static_cast<int>(key % static_cast<uint64_t>(p));
    case topo::Grouping::kGlobal:
    case topo::Grouping::kAll:  // SendOnEdge sends broadcasts itself.
      return first;
  }
  return first;
}

int ClusterSim::SendOnEdge(int edge_id, int from_executor, uint64_t root_id,
                           uint64_t key, const topo::TupleData* payload,
                           double send_time_ms) {
  const ExecutorState& from = executors_[from_executor];
  const TenantState& tenant = tenants_[from.tenant];
  const topo::StreamEdge& edge = tenant.topology->edges()[edge_id];
  if (edge.grouping != topo::Grouping::kAll) {
    SendTo(PickDestination(from.tenant, edge, from_executor, key), edge_id,
           from_executor, root_id, key, payload, send_time_ms);
    return 1;
  }
  // A broadcast sends copy t to the t-th executor of the target component.
  const int first =
      tenant.exec_base + tenant.topology->FirstExecutorOf(edge.to);
  const int p = tenant.topology->component(edge.to).parallelism;
  for (int t = 0; t < p; ++t) {
    SendTo(first + t, edge_id, from_executor, root_id, key, payload,
           send_time_ms);
  }
  return p;
}

void ClusterSim::SendTo(int dest, int edge_id, int from_executor,
                        uint64_t root_id, uint64_t key,
                        const topo::TupleData* payload, double send_time_ms) {
  const ExecutorState& from = executors_[from_executor];
  TenantState& tenant = tenants_[from.tenant];
  const int dest_machine = executors_[dest].machine;
  const int slot = AllocTupleSlot();
  // Functional mode gives every destination its own copy of the payload; a
  // key-only tuple's payload is its key alone.
  const topo::TupleData* data = nullptr;
  if (options_.functional) {
    topo::TupleData& stored = payloads_[slot];
    if (payload != nullptr) {
      stored = *payload;
    } else {
      stored.key = key;
    }
    data = &stored;
  }

  double arrive;
  if (dest_machine == from.machine) {
    // Same worker process: in-memory handoff. Different process on the same
    // machine: loopback serialization (no NIC queueing).
    const bool same_process =
        executors_[dest].process == from.process;
    arrive = send_time_ms + (same_process ? cluster_.local_hop_ms
                                          : cluster_.interprocess_hop_ms);
    ++counters_.local_transfers;
    ++tenant.counters.local_transfers;
  } else {
    const int bytes =
        data != nullptr
            ? data->SerializedBytes()
            : tenant.topology->component(from.component).tuple_bytes;
    MachineState& machine = machines_[from.machine];
    const double start = std::max(send_time_ms, machine.nic_free_ms);
    const double tx = cluster_.nic_per_tuple_ms + cluster_.WireTimeMs(bytes);
    machine.nic_free_ms = start + tx;
    arrive = start + tx + cluster_.remote_base_ms +
             machine.health.link_extra_ms;
    ++counters_.remote_transfers;
    ++tenant.counters.remote_transfers;
  }

  TupleInstance& tuple = tuple_pool_[slot];
  tuple.root_id = root_id;
  tuple.sent_ms = send_time_ms;
  tuple.tenant = from.tenant;
  tuple.dest_executor = dest;
  tuple.via_edge = edge_id;
  Schedule(arrive, EventType::kArrive, -1, slot);
}

void ClusterSim::HandleResume(int executor) {
  StartServiceIfIdle(executor);
}

void ClusterSim::HandleTimeoutSweep() {
  // Failing a root only bumps counters and frees its slot, so the walk
  // order cannot change the outcome.
  for (uint32_t slot = 0; slot < roots_.size(); ++slot) {
    const RootState& root = roots_[slot];
    if (root.live && now_ms_ - root.emit_ms > cluster_.ack_timeout_ms) {
      FailRoot(slot);
    }
  }
  Schedule(now_ms_ + 1000.0, EventType::kTimeoutSweep, -1, -1);
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

void ClusterSim::HandleFault(int plan_index, bool window_end) {
  const FaultEvent& fault = fault_plan_.events()[plan_index];
  ++counters_.faults_applied;
  Metrics().faults_applied->Add(1);
  obs::Tracer::Get().AddSimInstant(FaultInstantName(fault.type), now_ms_);
  switch (fault.type) {
    case FaultType::kMachineCrash:
      CrashMachine(fault.machine);
      break;
    case FaultType::kMachineRecover:
      RecoverMachine(fault.machine);
      break;
    case FaultType::kStraggler: {
      // Account progress under the old factor before switching.
      AdvanceMachine(fault.machine);
      machines_[fault.machine].health.speed_factor =
          window_end ? 1.0 : fault.magnitude;
      BuildRateTable(fault.machine);
      ScheduleNextCompletion(fault.machine);
      break;
    }
    case FaultType::kLinkSpike: {
      const double extra = window_end ? 0.0 : fault.magnitude;
      if (fault.machine < 0) {
        for (MachineState& m : machines_) m.health.link_extra_ms = extra;
      } else {
        machines_[fault.machine].health.link_extra_ms = extra;
      }
      break;
    }
    case FaultType::kSpoutShock:
      // Spout samples were capped at this time, so every spout re-samples
      // just after it at the new rate.
      UpdateSpoutShock();
      break;
  }
}

void ClusterSim::CrashMachine(int machine) {
  AdvanceMachine(machine);
  MachineState& m = machines_[machine];
  m.health.up = false;

  // Every executor mid-service on this machine loses its current tuple.
  // (An executor that migrated away mid-service is still in `active` here;
  // it may resume from its queue on its new machine.)
  std::vector<int> displaced = std::move(m.active);
  m.active.clear();
  for (int e : displaced) {
    ExecutorState& exec = executors_[e];
    exec.busy = false;
    exec.remaining_work_ms = 0.0;
    FreeTupleSlot(exec.current_slot);
    ++counters_.tuples_dropped;
    ++tenants_[exec.tenant].counters.tuples_dropped;
    Metrics().tuples_dropped->Add(1);
    tenants_[exec.tenant].tuples_dropped_metric->Add(1);
  }
  ScheduleNextCompletion(machine);  // Idles the machine's lane entry.

  // Queued tuples of executors hosted here are lost with the worker. Their
  // roots stay pending and fail via the ack timeout — exactly how a Storm
  // worker loss surfaces — so root conservation holds per tenant.
  for (auto& exec : executors_) {
    if (exec.machine != machine) continue;
    for (size_t q = 0; q < exec.queue.size(); ++q) {
      FreeTupleSlot(exec.queue[q]);
      ++counters_.tuples_dropped;
      ++tenants_[exec.tenant].counters.tuples_dropped;
      Metrics().tuples_dropped->Add(1);
      tenants_[exec.tenant].tuples_dropped_metric->Add(1);
    }
    exec.queue.clear();
  }

  // Displaced executors already re-assigned elsewhere can pick up queued
  // work on their new machine.
  for (int e : displaced) {
    if (executors_[e].machine != machine) StartServiceIfIdle(e);
  }
}

void ClusterSim::RecoverMachine(int machine) {
  MachineState& m = machines_[machine];
  SettleEnergy(machine);  // Close the down interval before flipping up.
  m.health.up = true;
  // Restart the idle clock: a recovered hostless machine earns its sleep
  // window from scratch.
  if (m.hosted == 0) m.hostless_since_ms = now_ms_;
  m.wake_until_ms = 0.0;
  m.last_update_ms = now_ms_;
  m.nic_free_ms = std::max(m.nic_free_ms, now_ms_);
  for (int e = 0; e < static_cast<int>(executors_.size()); ++e) {
    if (executors_[e].machine == machine) StartServiceIfIdle(e);
  }
}

uint64_t ClusterSim::AllocRoot(int tenant) {
  uint32_t slot;
  if (!free_roots_.empty()) {
    slot = free_roots_.back();
    free_roots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(roots_.size());
    roots_.emplace_back();
  }
  RootState& root = roots_[slot];
  root.emit_ms = now_ms_;
  root.tenant = tenant;
  root.pending = 0;
  root.live = true;
  ++live_roots_;
  ++tenants_[tenant].inflight_roots;
  return (uint64_t{root.generation} << 32) | slot;
}

ClusterSim::RootState* ClusterSim::FindRoot(uint64_t root_id) {
  RootState& root = roots_[static_cast<uint32_t>(root_id)];
  return root.live && root.generation == (root_id >> 32) ? &root : nullptr;
}

void ClusterSim::ReleaseRoot(uint32_t slot) {
  RootState& root = roots_[slot];
  root.live = false;
  --live_roots_;
  --tenants_[root.tenant].inflight_roots;
  if (root.generation == std::numeric_limits<uint32_t>::max()) return;
  ++root.generation;
  free_roots_.push_back(slot);
}

void ClusterSim::CompleteRoot(uint32_t slot, double latency_ms) {
  TenantState& t = tenants_[roots_[slot].tenant];
  window_latency_.Add(latency_ms);
  t.window_latency.Add(latency_ms);
  ++counters_.roots_completed;
  ++t.counters.roots_completed;
  Metrics().tuple_latency_ms->Record(latency_ms);
  t.latency_metric->Record(latency_ms);
  ReleaseRoot(slot);
}

void ClusterSim::FailRoot(uint32_t slot) {
  // The data source replays failed tuples (Storm's at-least-once recovery);
  // in-flight children of the failed tree are processed but no longer
  // tracked. Replay happens through the regular emission stream: dropping
  // the root here and counting the failure models the latency impact
  // (the replayed tuple re-enters as a fresh root).
  TenantState& t = tenants_[roots_[slot].tenant];
  ++counters_.roots_failed;
  ++t.counters.roots_failed;
  Metrics().roots_failed->Add(1);
  t.roots_failed_metric->Add(1);
  ReleaseRoot(slot);
}

double ClusterSim::WarmupFactor() const {
  if (options_.warmup_extra <= 0.0) return 1.0;
  return 1.0 +
         options_.warmup_extra * std::exp(-now_ms_ / options_.warmup_tau_ms);
}

double ClusterSim::SampleServiceWork(int executor) {
  ExecutorState& exec = executors_[executor];
  return exec.service.LogNormal(
             tenants_[exec.tenant].service[exec.component]) *
         WarmupFactor();
}

}  // namespace drlstream::sim
