#ifndef DRLSTREAM_TOPO_CLUSTER_H_
#define DRLSTREAM_TOPO_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace drlstream::topo {

/// Live capability state of one machine: whether it is up, and the
/// degradations currently in effect. The static ClusterConfig below
/// describes the healthy cluster; MachineHealth is what faults (crash,
/// straggler, link spike — see sim/faults.h) mutate at runtime, and what
/// the control loop reads back to mask dead machines out of its candidate
/// actions.
struct MachineHealth {
  bool up = true;
  /// Service-time multiplier in effect (> 1 = straggler; 1 = nominal).
  double speed_factor = 1.0;
  /// Extra latency added to every inter-machine transfer leaving this
  /// machine's uplink, in ms (0 = nominal).
  double link_extra_ms = 0.0;
};

/// Number of machines that are up. An empty mask means "all up" by
/// convention throughout the control loop.
int AliveCount(const std::vector<uint8_t>& up_mask);

/// Fills `out` (cleared first) with the indices of machines that are up —
/// an empty mask lists every machine, per the convention above. The one
/// shared mask-to-machine-list path for schedulers and agents; callers on
/// hot paths pass a reused scratch vector to stay allocation-free.
void AliveMachineList(const std::vector<uint8_t>& up_mask, int num_machines,
                      std::vector<int>* out);

/// Power model of one worker machine: per-state wattage plus the deep-sleep
/// transition behaviour. Defaults approximate a commodity dual-socket server
/// (active ~190 W, idle ~95 W, suspend-to-RAM ~9 W, ~3 s wake). Deep sleep
/// is opt-in: with `sleep_after_idle_ms < 0` (the default) machines never
/// sleep and energy accounting reduces to an active/idle dwell ledger, so
/// existing trajectories are untouched.
struct MachineSpec {
  /// Draw while at least one hosted executor is mid-service (W).
  double active_watts = 190.0;
  /// Draw while up but with no executor in service (W).
  double idle_watts = 95.0;
  /// Draw in deep sleep — and, approximately, while crashed (W).
  double sleep_watts = 9.0;
  /// Latency of a deep-sleep -> active transition; executors landing on a
  /// sleeping machine stay paused this long (ms).
  double wake_ms = 3000.0;
  /// A machine hosting no executors of any active tenant enters deep sleep
  /// after idling this long; < 0 disables sleeping entirely (default).
  double sleep_after_idle_ms = -1.0;
};

/// Physical cluster description, modeled after the paper's testbed: 10 worker
/// machines (plus a master), each with a quad-core CPU and 10 slots,
/// connected by a 1 Gbps network.
///
/// Timing parameters model the two effects that make scheduling matter:
///  * communication: an intra-process hop is cheap; an inter-machine hop pays
///    the sender's serialized NIC (per-tuple overhead + wire time) plus a
///    fixed base latency, so inter-machine traffic both costs more per hop
///    and queues under load;
///  * computation: executor service times are scaled by CPU contention on
///    the machine (busy executors / cores) when a machine is oversubscribed.
struct ClusterConfig {
  int num_machines = 10;
  int slots_per_machine = 10;
  /// Cores effectively available to executor threads on each quad-core
  /// worker machine (the remainder serves the OS, the supervisor daemon,
  /// ackers and JVM overheads). Two is what makes the simulated cluster's
  /// locality-vs-contention tradeoff match the paper's testbed behaviour:
  /// packing the whole topology on one machine overloads it, spreading
  /// everything maximizes communication delay, and the optimum lies
  /// in between.
  int cores_per_machine = 2;

  /// Delay for a hop between executors in the same worker process (ms).
  double local_hop_ms = 0.02;
  /// Delay for a hop between two worker processes on the same machine
  /// (loopback serialization; no NIC queueing). The paper (citing [52])
  /// notes that splitting an application across multiple processes on one
  /// machine seriously degrades performance — this is why its schedulers
  /// enforce one worker process per machine while Storm's default scheduler
  /// deals executors over many pre-configured processes.
  double interprocess_hop_ms = 0.35;
  /// Fixed extra latency for an inter-machine hop (propagation + kernel +
  /// deserialization), in ms.
  double remote_base_ms = 0.70;
  /// Per-tuple serialization/NIC overhead paid on the sender's uplink (ms);
  /// transfers on one uplink are serialized, so this creates queueing.
  double nic_per_tuple_ms = 0.06;
  /// Uplink bandwidth in Mbps (1 Gbps in the paper's cluster).
  double nic_bandwidth_mbps = 1000.0;

  /// Pause experienced by a migrated executor when a new scheduling solution
  /// re-assigns it (state transfer + process spin-up), in ms. Produces the
  /// transient spikes of Fig. 12.
  double migration_pause_ms = 1500.0;

  /// Load-aware shuffle routing (Storm 1.x LoadAwareShuffleGrouping):
  /// same-process targets are preferred while their queue depth is at most
  /// this threshold; beyond it tuples spill to the less loaded of two
  /// random targets anywhere in the cluster.
  int shuffle_spill_queue_len = 4;

  /// Tuples not fully acked within this horizon are failed and replayed by
  /// the data source (Storm's acknowledgment timeout), in ms.
  double ack_timeout_ms = 30000.0;

  /// Power model shared by every worker machine (energy accounting and the
  /// deep-sleep state machine in sim::ClusterSim).
  MachineSpec machine;

  /// Returns InvalidArgument if any field is non-positive/inconsistent.
  Status Validate() const;

  /// Wire time for one tuple of `bytes` bytes on the uplink, in ms.
  double WireTimeMs(int bytes) const {
    return (static_cast<double>(bytes) * 8.0) /
           (nic_bandwidth_mbps * 1000.0);  // Mbps -> bits per ms.
  }
};

}  // namespace drlstream::topo

#endif  // DRLSTREAM_TOPO_CLUSTER_H_
