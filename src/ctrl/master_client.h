#ifndef DRLSTREAM_CTRL_MASTER_CLIENT_H_
#define DRLSTREAM_CTRL_MASTER_CLIENT_H_

#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "ctrl/messages.h"
#include "net/transport.h"
#include "net/wire.h"
#include "rl/policy.h"

namespace drlstream::ctrl {

struct MasterClientOptions {
  /// Per-RPC response deadline. A timed-out RPC closes the connection (a
  /// late reply would desynchronize the request/response stream) and, when
  /// the client owns an endpoint, reconnects on the next attempt.
  int rpc_deadline_ms = 5000;
  int connect_timeout_ms = 2000;
  /// Attempts per RPC (1 = no retry). Only transport failures retry;
  /// an error *returned by the remote policy* is a valid answer and is
  /// handed to the caller unchanged.
  int max_rpc_attempts = 3;
  /// Wall-clock backoff between attempts, linear: attempt k sleeps
  /// k * retry_backoff_ms.
  double retry_backoff_ms = 100.0;
  /// Sent in the Hello handshake, for the agent's logs.
  std::string client_name = "master";
  /// Registry key of the policy this session wants (multi-session servers
  /// in registry mode create a per-session instance from it). Empty = the
  /// server's default; shared-policy servers ignore it.
  std::string policy_key;
  /// Cluster machine count M, needed to interpret State.assignments (the
  /// state alone only determines N). 0 = take machine_up.size() from each
  /// state, which is only set under fault injection.
  int num_machines = 0;
};

/// The master's stub for a remote agent: an rl::Policy whose every entry
/// point is an RPC. Because it *is* a Policy, the whole in-process stack —
/// core::RunOnline, its bounded-retry/fallback degradation, the scheduler
/// adapter — runs unchanged against an agent living in another process;
/// when the agent dies mid-run the same PR-2 semantics apply at the process
/// boundary (SelectAction returns kUnavailable, the loop retries with
/// backoff, then falls back to the deployed schedule).
///
/// Thread safety: all RPCs serialize on an internal mutex, so the client
/// may be shared across threads.
class MasterClient : public rl::Policy {
 public:
  /// Wraps an already-connected transport (e.g. one end of
  /// net::MakeLoopbackPair). The client cannot reconnect this flavor: once
  /// the transport dies, every RPC fails with kUnavailable.
  MasterClient(std::unique_ptr<net::Transport> transport,
               MasterClientOptions options);

  /// Dials `host`:`port` lazily (first RPC or explicit Connect) and
  /// re-dials after failures.
  MasterClient(std::string host, int port, MasterClientOptions options);

  ~MasterClient() override;
  MasterClient(const MasterClient&) = delete;
  MasterClient& operator=(const MasterClient&) = delete;

  /// Ensures a live connection and a completed Hello handshake.
  Status Connect();

  /// Remote policy identity from the handshake (empty before Connect).
  HelloResponse remote_info() const;

  /// One heartbeat round-trip (single attempt, no retry). Against a server
  /// that stamps Pongs, each Ping also refreshes the NTP-style clock-offset
  /// estimate (see EstimatedClockOffsetUs).
  Status Ping();

  /// Latest clock-offset estimate in microseconds, defined as
  /// server_tracer_clock - client_tracer_clock: add it to a client-side
  /// trace timestamp to land on the server's trace timeline (what
  /// scripts/merge_traces.py does). Kept from the minimum-RTT Ping seen so
  /// far, the standard NTP trick — the symmetric-delay assumption is least
  /// wrong on the fastest round trip. Fails with kFailedPrecondition until
  /// a Ping has completed against a stamping server.
  StatusOr<double> EstimatedClockOffsetUs() const;

  /// net::kWireVersion once the Hello handshake has completed, 0 before.
  uint16_t wire_version() const;

  /// Closes the connection (the destructor does this too).
  void Shutdown();

  /// ---- rl::Policy -------------------------------------------------------
  std::string name() const override;
  std::string Describe() const override;
  StatusOr<rl::PolicyAction> SelectAction(const rl::State& state,
                                          double epsilon,
                                          Rng* rng) const override;
  StatusOr<sched::Schedule> GreedyAction(const rl::State& state) const override;
  StatusOr<sched::Schedule> FinalSchedule(
      const rl::State& state) const override;
  bool trainable() const override;
  void Observe(rl::Transition transition) override;
  double TrainStep() override;
  /// Saves on the *agent's* filesystem via the SaveArtifact RPC.
  Status Save(const std::string& prefix) const override;

 private:
  /// One RPC: ensure connected, send, await the typed response. Retries
  /// transport failures per options; never retries a remote error.
  StatusOr<std::string> Call(net::MsgType request_type,
                             const std::string& payload,
                             net::MsgType response_type) const;
  StatusOr<std::string> CallOnceLocked(net::MsgType request_type,
                                       const std::string& payload,
                                       net::MsgType response_type) const;
  /// Dials when needed, then runs the Hello handshake through
  /// CallOnceLocked unless it already completed.
  Status EnsureConnectedLocked() const;
  /// A traced request's envelope: a fresh span id under this client's
  /// trace id. Untraced requests send a zero envelope instead.
  net::TraceContext NewSpanLocked() const;
  void DropConnectionLocked() const;
  /// The GetSchedule RPC behind SelectAction (kExplore, which sends and
  /// then adopts `rng`'s stream), GreedyAction and FinalSchedule (no RNG):
  /// builds the request and applies the returned diff to `state`.
  StatusOr<rl::PolicyAction> GetSchedule(ScheduleMode mode,
                                         const rl::State& state,
                                         double epsilon, Rng* rng) const;
  int NumMachinesFor(const rl::State& state) const;

  const std::string host_;
  const int port_ = 0;
  /// True when constructed from an endpoint (may re-dial), false when
  /// wrapping a caller-provided transport.
  const bool owns_endpoint_;
  const MasterClientOptions options_;

  mutable std::mutex mutex_;
  mutable std::unique_ptr<net::Transport> transport_;
  mutable bool handshaken_ = false;
  mutable HelloResponse hello_;
  uint64_t ping_token_ = 0;
  /// Lazily minted trace id labeling every RPC span from this client.
  mutable uint64_t trace_id_ = 0;
  // Minimum-RTT clock-offset estimate from Pong timestamps.
  mutable bool has_offset_ = false;
  mutable double clock_offset_us_ = 0.0;
  mutable double best_rtt_us_ = 0.0;
};

}  // namespace drlstream::ctrl

#endif  // DRLSTREAM_CTRL_MASTER_CLIENT_H_
