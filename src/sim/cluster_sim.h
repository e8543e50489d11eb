#ifndef DRLSTREAM_SIM_CLUSTER_SIM_H_
#define DRLSTREAM_SIM_CLUSTER_SIM_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "sched/schedule.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "topo/cluster.h"
#include "topo/topology.h"
#include "topo/workload.h"
#include "workload/generator.h"

namespace drlstream::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace drlstream::obs

namespace drlstream::sim {

/// Simulation knobs independent of cluster/topology shape.
struct SimOptions {
  uint64_t seed = 7;
  /// Execute real UDFs and route real payloads (functional mode). Off =
  /// timing-only mode: fan-outs are drawn from each component's emit factor.
  bool functional = false;
  /// Cold-start model: service times are inflated by
  /// (1 + warmup_extra * exp(-t / warmup_tau_ms)), reproducing the gradual
  /// stabilization visible in the paper's 20-minute series. 0 disables.
  double warmup_extra = 0.0;
  double warmup_tau_ms = 180000.0;  // ~3 simulated minutes
  /// A tenant's spouts stop emitting while this many of its root tuples are
  /// in flight (per-tenant backpressure guard against unbounded queues in
  /// overload; with a single tenant this is exactly the historical
  /// cluster-wide guard).
  int max_inflight_roots = 100000;
};

/// Aggregate counters exposed for tests/benches. Kept both cluster-wide and
/// per tenant; `events_processed` and `faults_applied` are properties of the
/// shared substrate and stay zero in per-tenant views. `events_processed`
/// counts dispatched events: queued events plus live service completions.
struct SimCounters {
  long long events_processed = 0;
  long long roots_emitted = 0;
  long long roots_completed = 0;
  long long roots_failed = 0;      // ack timeout -> replayed
  long long roots_throttled = 0;   // skipped by backpressure
  long long tuples_processed = 0;
  long long local_transfers = 0;
  long long remote_transfers = 0;
  long long migrations = 0;
  /// Tuples lost to machine crashes (in service, queued on, or arriving at
  /// a dead machine). Their roots fail through the ack timeout, so root
  /// conservation (emitted = completed + failed + in flight) still holds.
  long long tuples_dropped = 0;
  long long faults_applied = 0;
  /// Energy drawn so far, joules. Cluster-wide this is the sum over
  /// machines of dwell x per-state wattage; per tenant it is the dynamic
  /// share (active minus idle watts, split over the executors in service).
  /// Settled lazily — read through TotalJoules()/TenantJoules() (or any
  /// mutation of the machine's power classification) for an up-to-now
  /// value.
  double energy_joules = 0.0;
};

/// FIFO of ints in a grow-only power-of-two ring. Once it has reached its
/// peak depth, pushes and pops never touch the heap; libstdc++'s std::deque
/// allocates and frees a 512-byte block every 128 ints pushed, and holds
/// its map and one block even while empty. The simulator queues tuple
/// slots per executor in it.
class IntFifo {
 public:
  bool empty() const { return head_ == tail_; }
  size_t size() const { return tail_ - head_; }
  int front() const { return ring_[head_ & mask_]; }
  /// The i-th element from the front; requires i < size().
  int operator[](size_t i) const { return ring_[(head_ + i) & mask_]; }
  void push_back(int value) {
    if (size() == ring_.size()) Grow();
    ring_[tail_++ & mask_] = value;
  }
  void pop_front() { ++head_; }
  /// Empties the queue; the ring keeps its capacity.
  void clear() { head_ = tail_ = 0; }

 private:
  void Grow();

  // The counters come first: size() reads only them.
  size_t head_ = 0;        // pops so far; the front is ring_[head_ & mask_]
  size_t tail_ = 0;        // pushes so far
  size_t mask_ = 0;        // ring_.size() - 1
  std::vector<int> ring_;  // power-of-two size once allocated
};

/// Shared-cluster discrete-event simulator: one set of machines (cores,
/// serialized NIC uplinks, fault plan, one event queue and clock) hosting
/// any number of tenant topologies whose executors contend for the shared
/// CPU and NIC resources. The tenant set is fixed at Start; each tenant
/// keeps its own schedule, measurement windows, counters, and in-flight
/// root accounting, while all
/// tuple-level mechanics (processor sharing, routing, acking, timeouts,
/// migration, faults) run through one event loop.
///
/// A single-topology run is tenant 0, set up in this order: construct,
/// InstallFaultPlan, AddTenant, SetTenantWorkloadGenerator(0, ...), Start.
/// Its event order, random draws, counters and window statistics are
/// pinned bit for bit by the policy equivalence and fault suites.
///
/// Random streams: every executor draws from its own SplitMix64 streams,
/// derived at AddTenant from (seed, tenant, tenant-scoped executor id,
/// purpose): a spout's arrival gaps, an executor's service times, and the
/// fan-outs, keys and destinations of the tuples it sends. No two
/// executors' draws interleave, so for a fixed seed a spout's arrivals do
/// not depend on the schedule or on anything else the simulator does, and
/// an executor's n-th service time is the same under any schedule (common
/// random numbers across the schedules being compared).
///
/// Executor ids: each tenant's executors are numbered [0, n_t) against its
/// own topology (tenant-scoped ids, as in `sched::Schedule`); internally
/// they live in one flat array at `exec_base + local_id`. All public
/// per-tenant APIs speak tenant-scoped ids.
class ClusterSim {
 public:
  ClusterSim(const topo::ClusterConfig& cluster, SimOptions options);
  ~ClusterSim();

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Installs a deterministic fault plan (validated against the cluster).
  /// Must be called before Start; events fire at their absolute simulated
  /// times, so a fixed (seed, plan) pair replays bit-identically.
  Status InstallFaultPlan(const FaultPlan& plan);

  /// Registers a tenant topology with its initial schedule and returns the
  /// tenant id. The tenant set is fixed at Start: tenants begin emitting
  /// there, in registration order, and AddTenant after Start fails with
  /// FailedPrecondition. Component service-time parameters are read here,
  /// once; the topology and workload must outlive the simulator.
  StatusOr<int> AddTenant(const topo::Topology* topology,
                          const topo::Workload* workload,
                          const sched::Schedule& initial);

  /// Installs a scenario generator modulating `tenant`'s spout rates (see
  /// workload/generator.h). The generator is not owned and must outlive the
  /// simulator; nullptr uninstalls. Rate-change ops become events on the
  /// shared clock, so trajectories replay bit-identically for a fixed
  /// (seed, generator) pair. A `constant` factor-1 generator emits no ops
  /// and multiplies every rate by exactly 1, reproducing the un-modulated
  /// trajectory bit for bit.
  Status SetTenantWorkloadGenerator(int tenant,
                                    const workload::WorkloadGenerator* gen);

  /// Starts the data sources of all registered tenants and arms the fault
  /// plan. Must be called exactly once before Run*.
  Status Start();
  bool started() const { return initialized_; }

  /// Deploys a new scheduling solution for one tenant incrementally: only
  /// executors whose assignment changed are re-assigned (each pausing for
  /// the configured migration time), as the paper's custom scheduler does.
  Status Migrate(int tenant, const sched::Schedule& target);

  /// Advances simulated time. Times are in milliseconds.
  void RunUntil(double time_ms);
  void RunFor(double duration_ms) { RunUntil(now_ms_ + duration_ms); }

  double now_ms() const { return now_ms_; }
  const topo::ClusterConfig& cluster() const { return cluster_; }

  /// ---- Tenants -----------------------------------------------------------
  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const sched::Schedule& TenantSchedule(int tenant) const;

  /// ---- Measurement windows (the framework's statistics collection) -------
  /// Clears windowed statistics — cluster-wide and per tenant.
  void ResetWindow();
  /// Average end-to-end tuple processing time of roots completed in the
  /// current window, ms, across all tenants. 0 if none completed.
  double WindowAvgLatencyMs() const { return window_latency_.mean(); }
  const RunningStats& window_latency() const { return window_latency_; }
  double TenantWindowAvgLatencyMs(int tenant) const;
  const RunningStats& tenant_window_latency(int tenant) const;
  /// Mean queue+service delay per component of `tenant` in the window.
  std::vector<double> TenantWindowComponentProcMs(int tenant) const;
  /// Mean transfer delay per stream edge of `tenant` in the window.
  std::vector<double> TenantWindowEdgeTransferMs(int tenant) const;

  const SimCounters& counters() const { return counters_; }
  const SimCounters& TenantCounters(int tenant) const;
  int inflight_roots() const { return live_roots_; }
  int TenantInflightRoots(int tenant) const;

  /// Current queue depth of each executor (diagnostics / load-aware tests):
  /// flat over every executor ever added, in tenant registration order.
  std::vector<int> ExecutorQueueDepths() const;
  /// Queue depths of one tenant's executors, indexed by tenant-scoped id.
  std::vector<int> TenantExecutorQueueDepths(int tenant) const;
  /// Fraction of remote transfers among all transfers so far.
  double RemoteTransferFraction() const;
  /// Executors hosted per machine.
  std::vector<int> MachineExecutorCounts() const;

  /// ---- Energy accounting (topo::MachineSpec power model) -----------------
  /// Per-machine dwell/energy ledger. `asleep` reflects the deep-sleep
  /// state machine (only ever true with machine.sleep_after_idle_ms >= 0).
  struct MachinePowerBreakdown {
    double joules = 0.0;
    double active_ms = 0.0;  // serving a tuple, or spinning up from sleep
    double idle_ms = 0.0;
    double sleep_ms = 0.0;
    double down_ms = 0.0;    // crashed (drawing sleep_watts)
    bool asleep = false;
  };

  /// Total joules drawn by the cluster so far (settles all machines and
  /// sets the cluster's and every tenant's energy gauge).
  double TotalJoules();
  MachinePowerBreakdown MachineEnergy(int machine);
  /// Dynamic energy attributed to one tenant: (active - idle) watts split
  /// evenly over the executors in service during each active interval.
  double TenantJoules(int tenant);
  /// True while `machine` is in deep sleep (hostless past the idle window).
  bool MachineAsleep(int machine) const;

  /// ---- Workload-generator observation -------------------------------------
  /// Per-spout effective rates (tuples/sec per executor) of `tenant` at the
  /// current time: base workload rate x generator multiplier, in
  /// SpoutComponents() order. Fault spout shocks are excluded, matching the
  /// rates the control loop has always observed.
  std::vector<double> TenantEffectiveSpoutRates(int tenant) const;
  /// Generator multiplier currently applied to `component` (1 when no
  /// generator is installed).
  double TenantRateMultiplier(int tenant, int component) const;

  /// ---- Machine health (fault injection) ----
  bool MachineUp(int machine) const;
  /// Per-machine up flags (1 = up), the mask the control loop feeds to the
  /// schedulers and the K-NN action solver. Shared by all tenants.
  std::vector<uint8_t> MachineUpMask() const;
  /// Snapshot of each machine's live health (up, straggler factor, link
  /// spike) for artifacts/diagnostics.
  std::vector<topo::MachineHealth> MachineHealths() const;
  /// Executors whose current assignment targets a down machine (should be
  /// zero once a reschedule settles).
  int ExecutorsOnDeadMachines() const;

 private:
  // Event, EventType, the dispatch order and the EventQueue live in
  // sim/event_queue.h.

  /// An in-flight tuple instance headed to, queued at or served by an
  /// executor. It carries no payload: a timing-mode tuple's key is read
  /// only when it is sent, and a functional-mode payload waits in
  /// `payloads_` at the tuple's slot.
  struct TupleInstance {
    uint64_t root_id = 0;
    double sent_ms = 0.0;    // emission time (for transfer stats)
    double enqueue_ms = 0.0; // set on arrival (for proc stats)
    int tenant = 0;
    int dest_executor = -1;  // flat executor id
    int via_edge = -1;       // tenant-scoped stream edge it travelled on
  };

  /// Welford's running mean without the spread: the same operations as
  /// RunningStats::Add's mean, so the same bits. The per-component and
  /// per-edge window statistics are read only as means.
  struct WindowMean {
    size_t count = 0;
    double mean = 0.0;  // 0 while empty, like RunningStats::mean()
    void Add(double x) {
      ++count;
      mean += (x - mean) / static_cast<double>(count);
    }
  };

  /// The fields the event handlers touch come first, in the executor's
  /// first cache line; the queue's counters end it.
  struct alignas(64) ExecutorState {
    int tenant = 0;
    int component = -1;  // tenant-scoped component index
    int machine = -1;
    int process = 0;  // worker process on the machine
    bool busy = false;
    /// Slot of the tuple being served while busy; the slot stays taken
    /// until the service finishes.
    int current_slot = -1;
    double remaining_work_ms = 0.0;  // CPU time left for the current tuple
    double paused_until_ms = -1.0;
    IntFifo queue;  // tuple slots
    SplitMix64 arrivals;  // spouts: exponential inter-arrival gaps
    SplitMix64 service;   // log-normal service times
    SplitMix64 routing;   // fan-outs, keys, destinations of tuples it sends
    std::unique_ptr<topo::Udf> udf;          // bolts, functional mode
    std::unique_ptr<topo::SpoutSource> source;  // spouts, functional mode
  };

  /// Machines run their busy executors under processor sharing: each of the
  /// `active` executors progresses at rate min(1, cores / |active|), so a
  /// machine's total service capacity is exactly `cores` erlangs and
  /// latency degrades smoothly as it saturates. With several tenants the
  /// `active` list mixes their executors — this is the shared contention.
  struct MachineState {
    std::vector<int> active;   // executors currently executing a tuple
    /// rate[k]: the work each of k active executors does per ms,
    /// min(1, cores / k) / health.speed_factor, for every k up to the
    /// cluster's executor count. Built at Start and rebuilt when a
    /// straggler window changes the speed factor.
    std::vector<double> rate;
    double last_update_ms = 0.0;
    double nic_free_ms = 0.0;    // uplink serialized-transmit horizon
    topo::MachineHealth health;  // fault-injection state (up/straggler/link)

    /// ---- Power/energy ledger (topo::MachineSpec) ----
    /// Executors assigned here (deep sleep requires 0).
    int hosted = 0;
    /// When `hosted` last dropped to 0 (machines start hostless at t=0).
    double hostless_since_ms = 0.0;
    /// End of the most recent sleep->active transition; executors landing
    /// on a waking machine stay paused until then.
    double wake_until_ms = 0.0;
    /// Energy is settled lazily: dwell/joules are exact up to this time,
    /// and SettleEnergy() is called before any mutation that changes the
    /// machine's power classification.
    double energy_settled_ms = 0.0;
    double joules = 0.0;
    double dwell_ms[4] = {0.0, 0.0, 0.0, 0.0};  // active/idle/sleep/down
  };

  /// One slot of `roots_`. A root's id is (generation << 32) | slot, and
  /// the slot's generation advances when the root completes or fails, so a
  /// late child of a failed root never matches a newer root in the same
  /// slot.
  struct RootState {
    double emit_ms = 0.0;
    int tenant = 0;
    int pending = 0;  // child tuples not yet processed
    uint32_t generation = 0;
    bool live = false;
  };

  struct TenantState {
    const topo::Topology* topology = nullptr;
    const topo::Workload* workload = nullptr;
    /// Optional scenario generator (not owned); its ops modulate this
    /// tenant's spout rates via `rate_multiplier`.
    const workload::WorkloadGenerator* generator = nullptr;
    /// Generator multiplier per component (spout entries are the ones
    /// consulted); all 1.0 when no generator is installed.
    std::vector<double> rate_multiplier;
    /// Service-time law per component, derived at AddTenant.
    std::vector<LogNormalLaw> service;
    /// exp(-emit_factor) per component: the timing-mode fan-out's Poisson
    /// threshold, derived at AddTenant.
    std::vector<double> exp_neg_emit;
    /// Time of the next pending rate-change op (+inf when none).
    double next_rate_change_ms = std::numeric_limits<double>::infinity();
    /// Invalidates stale kRateChange events after a generator swap.
    int rate_event_version = 0;
    std::unique_ptr<sched::Schedule> schedule;
    int exec_base = 0;       // flat id of tenant-scoped executor 0
    int num_executors = 0;
    int inflight_roots = 0;
    /// local_targets[component][machine * slots + process] = flat executors
    /// of the tenant-scoped `component` in that worker process (shuffle
    /// grouping prefers a same-process target, like Storm's
    /// local-or-shuffle grouping).
    std::vector<std::vector<std::vector<int>>> local_targets;
    RunningStats window_latency;
    std::vector<WindowMean> window_component_proc;
    std::vector<WindowMean> window_edge_transfer;
    SimCounters counters;
    /// Tenant-labelled observability instruments (see obs/metrics.h label
    /// naming: `name#tenant=<id>` renders as a `tenant="<id>"` label).
    obs::Histogram* latency_metric = nullptr;
    obs::Counter* roots_failed_metric = nullptr;
    obs::Counter* tuples_dropped_metric = nullptr;
    obs::Gauge* energy_metric = nullptr;
  };

  void Schedule(double time_ms, EventType type, int executor, int tuple_slot);
  int AllocTupleSlot();
  void FreeTupleSlot(int slot);

  void HandleSpoutEmit(int executor);
  /// Re-reads the tenant's generator multipliers at now and arms the next
  /// kRateChange event (`version` guards against stale events after a
  /// generator swap).
  void HandleRateChange(int tenant, int version);
  /// Applies the generator's multipliers as of now and schedules its first
  /// pending op. Called at Start (before sources) or on mid-run install.
  void PrimeTenantGenerator(int tenant);
  /// Schedules the spout's next emission, re-sampling at rate-change and
  /// spout-shock boundaries (event tuple_slot == 1 marks a re-sample-only
  /// wakeup).
  void ScheduleNextSpoutEmit(int executor);
  void HandleArrive(int tuple_slot);
  void HandleMachineCompletion(int machine);
  void HandleResume(int executor);
  void HandleTimeoutSweep();
  /// Applies fault-plan event `plan_index` (`window_end` marks the closing
  /// edge of a straggler / link-spike window).
  void HandleFault(int plan_index, bool window_end);
  void CrashMachine(int machine);
  void RecoverMachine(int machine);

  void StartServiceIfIdle(int executor);
  /// Fills `machine`'s rate table for its current speed factor.
  void BuildRateTable(int machine);
  /// Advances the remaining work of a machine's active executors to now.
  void AdvanceMachine(int machine);
  /// Settles the machine's energy ledger up to now. Must run before any
  /// mutation that changes its power classification (serving set, hosted
  /// count, health) — AdvanceMachine calls it, the rest call it directly.
  void SettleEnergy(int machine);
  /// Hosted-count maintenance around assignment changes: HostExecutor wakes
  /// a sleeping destination (arrivals pause until wake_until_ms),
  /// UnhostExecutor restarts the idle clock when a machine empties.
  void HostExecutor(int machine);
  void UnhostExecutor(int machine);
  /// Re-schedules the machine's next service completion: rewrites its
  /// completion-lane entry in place (idle when nothing is in service).
  void ScheduleNextCompletion(int machine);
  /// Writes `machine`'s completion-lane entry, keeping the cached earliest
  /// entry valid unless the entry that changed was the earliest.
  void SetCompletion(int machine, EventKey key);
  /// The machine whose live completion has the smallest key, rescanning
  /// the lane when the cached one changed. With every machine idle it
  /// names an idle machine.
  int EarliestCompletion();
  /// Completes the tuple `executor` was running (emit downstream, ack
  /// bookkeeping) and pulls its next queued tuple if any.
  void FinishService(int executor);
  /// Emits `outputs` (the UDF's, functional mode) or sampled fan-outs from
  /// `executor` for the processed tuple. Returns the number of child
  /// tuples created.
  int EmitDownstream(int executor, uint64_t root_id,
                     const std::vector<topo::TupleData>& outputs,
                     double send_time_ms);
  /// Routes one output tuple with routing key `key` over the tenant-scoped
  /// `edge_id`: a copy to every executor of the target component under all
  /// grouping, to one picked executor otherwise. `payload` is its
  /// functional-mode payload (nullptr in timing mode, and for a key-only
  /// tuple in functional mode). `send_time_ms` is when the sender finished
  /// producing it (>= now). Returns the copies sent.
  int SendOnEdge(int edge_id, int from_executor, uint64_t root_id,
                 uint64_t key, const topo::TupleData* payload,
                 double send_time_ms);
  /// Sends one copy of a tuple over `edge_id` to executor `dest`.
  void SendTo(int dest, int edge_id, int from_executor, uint64_t root_id,
              uint64_t key, const topo::TupleData* payload,
              double send_time_ms);
  int PickDestination(int tenant, const topo::StreamEdge& edge,
                      int from_executor, uint64_t key);
  /// Rebuilds the tenant's per-(component, machine) executor lists used by
  /// local-or-shuffle routing.
  void RebuildLocalTargets(int tenant);

  /// Takes a free `roots_` slot for a root of `tenant` emitted now (pending
  /// 0), counts it in flight, and returns its id.
  uint64_t AllocRoot(int tenant);
  /// The live root `root_id` names, or nullptr once it completed or failed.
  RootState* FindRoot(uint64_t root_id);
  /// Ends a root's flight and frees its slot; a slot whose generation would
  /// wrap is retired instead, so no root id is ever issued twice.
  void ReleaseRoot(uint32_t slot);
  void CompleteRoot(uint32_t slot, double latency_ms);
  void FailRoot(uint32_t slot);

  double SampleServiceWork(int executor);
  double WarmupFactor() const;
  /// Spout rate of one executor of `component` of `tenant`, per ms: base
  /// rate x generator multiplier x spout shock.
  double SpoutRate(int tenant, int component) const;
  /// Sets `spout_shock_` to the magnitude of the plan's latest spout shock
  /// at or before now (1 if none) and `next_shock_ms_` to the first one
  /// after now.
  void UpdateSpoutShock();

  topo::ClusterConfig cluster_;
  SimOptions options_;
  /// Functional-mode spout payloads (SpoutSource::Next); timing mode never
  /// draws from it.
  Rng payload_rng_;

  FaultPlan fault_plan_;
  /// Cluster-wide spout-rate multiplier of the latest spout shock (fault
  /// event) applied, and the time of the next one (+inf when none).
  double spout_shock_ = 1.0;
  double next_shock_ms_ = std::numeric_limits<double>::infinity();

  std::vector<TenantState> tenants_;
  std::vector<ExecutorState> executors_;
  std::vector<MachineState> machines_;
  /// In-flight roots, indexed by the low half of their id.
  std::vector<RootState> roots_;
  std::vector<uint32_t> free_roots_;
  int live_roots_ = 0;
  /// HandleMachineCompletion's finished executors (kept for its capacity).
  std::vector<int> finished_;

  EventQueue events_;
  /// The completion lane: each machine's one pending service completion,
  /// kept out of the event queue. completion_key_[m] is the EventKey of
  /// when machine m's next executor finishes and its tie-breaking seq;
  /// while the machine serves nothing it is (+inf, UINT64_MAX), which
  /// sorts after every queued event. RunUntil dispatches the earliest
  /// entry when it precedes the queue's top.
  std::vector<EventKey> completion_key_;
  /// Machine holding the earliest lane entry; valid while !lane_stale_.
  int lane_min_ = 0;
  bool lane_stale_ = true;
  /// The machine HandleMachineCompletion is completing, or -1. Services it
  /// starts on that machine leave the lane entry to its one re-arm at the
  /// end.
  int completing_machine_ = -1;
  std::vector<TupleInstance> tuple_pool_;
  /// Functional-mode payloads, indexed by tuple slot (empty in timing
  /// mode).
  std::vector<topo::TupleData> payloads_;
  std::vector<int> free_slots_;

  double now_ms_ = 0.0;
  uint64_t next_seq_ = 0;
  bool initialized_ = false;

  RunningStats window_latency_;
  SimCounters counters_;
};

}  // namespace drlstream::sim

#endif  // DRLSTREAM_SIM_CLUSTER_SIM_H_
