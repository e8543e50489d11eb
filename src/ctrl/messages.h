#ifndef DRLSTREAM_CTRL_MESSAGES_H_
#define DRLSTREAM_CTRL_MESSAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "rl/replay_buffer.h"
#include "rl/state.h"
#include "sched/schedule.h"

namespace drlstream::ctrl {

/// Typed messages of the master <-> agent control plane (the paper's
/// Section 3.1 boundary: the DRL agent runs outside the DSDPS and the
/// custom scheduler in the master exchanges state/schedule messages with
/// it). Each struct has an Encode function producing a frame payload and a
/// Decode function that validates defensively: any length, range or
/// trailing-bytes violation is a Status error, never a crash (see
/// tests/net_test.cc).
///
/// Responses embed a Status first: a decoded response either carries the
/// remote call's result or reproduces its error exactly, so the master's
/// degradation path sees the same Status codes it would see in-process.

/// ---- Handshake ----------------------------------------------------------

struct HelloRequest {
  std::string client_name;
  /// Registry key of the policy this session wants served (multi-session
  /// servers resolve it through the PolicyRegistry per session). Empty =
  /// the server's default; ignored by servers in shared-policy mode, which
  /// bind every session to the one shared policy.
  std::string policy_key;
};

struct HelloResponse {
  std::string policy_name;    // rl::Policy::name() of the served policy
  std::string registry_key;   // rl::Policy::registry_key()
  std::string description;    // rl::Policy::Describe()
  bool trainable = false;
  /// Accept-order session id (1-based) assigned by the server: the
  /// deterministic ordering key for cross-session request batching, and a
  /// stable identity for logs/tests (fd numbers are reused, ids are not).
  uint64_t session_id = 0;
};

/// ---- GetSchedule --------------------------------------------------------

/// Which Policy entry point the master is invoking.
enum class ScheduleMode : uint8_t {
  kExplore = 0,  // SelectAction(state, epsilon, rng)
  kGreedy = 1,   // GreedyAction(state)
  kFinal = 2,    // FinalSchedule(state)
};

struct GetScheduleRequest {
  ScheduleMode mode = ScheduleMode::kGreedy;
  int32_t num_machines = 0;  // M; the state alone only determines N
  rl::State state;
  double epsilon = 0.0;      // kExplore only
  /// Serialized exploration RNG (Rng::SerializeState, kExplore only). The
  /// agent draws from it and returns the advanced state, so the master's
  /// RNG stream stays bit-identical to an in-process run.
  std::string rng_state;
};

/// One re-assigned executor. Schedules cross the wire as incremental
/// diffs against the deterministic base both sides derive from the request
/// state — only executors whose placement changed travel, matching the
/// paper's incremental deployment.
struct ScheduleDiffEntry {
  int32_t executor = 0;
  int32_t machine = 0;
  int32_t process = 0;
};

struct ScheduleDiff {
  int32_t num_executors = 0;
  int32_t num_machines = 0;
  std::vector<ScheduleDiffEntry> entries;
};

struct GetScheduleResponse {
  ScheduleDiff diff;
  int32_t move_index = -1;  // rl::PolicyAction::move_index
  std::string rng_state;    // advanced RNG (kExplore only)
};

/// The canonical diff base for a request state: every executor on
/// state.assignments[i], process 0. Both ends derive it independently.
sched::Schedule DiffBaseFromState(const rl::State& state, int num_machines);

/// Executors whose (machine, process) differs between base and target.
/// Base and target must agree on dimensions.
ScheduleDiff MakeScheduleDiff(const sched::Schedule& base,
                              const sched::Schedule& target);

/// MakeScheduleDiff against the implicit DiffBaseFromState(state, ...)
/// base, without materializing it — the server's per-reply path diffs
/// every schedule against the request state, and the base Schedule exists
/// only to be compared against.
ScheduleDiff MakeScheduleDiffFromState(const rl::State& state,
                                       const sched::Schedule& target);

/// Reconstructs the full schedule; validates dimensions and entry ranges.
StatusOr<sched::Schedule> ApplyScheduleDiff(const sched::Schedule& base,
                                            const ScheduleDiff& diff);

/// ---- Observe / TrainStep / SaveArtifact / heartbeat ---------------------

struct ObserveRequest {
  rl::Transition transition;
};

struct TrainStepRequest {
  int32_t steps = 1;
};

struct TrainStepResponse {
  double loss = 0.0;  // loss of the last performed step
};

struct SaveArtifactRequest {
  std::string prefix;  // path prefix on the *agent's* filesystem
};

struct PingMessage {
  uint64_t token = 0;  // echoed back in the Pong
  /// Server receive / transmit stamps in the *server's* tracer-epoch
  /// microseconds (obs::Tracer::NowUs). Zero in requests; the server fills
  /// them before echoing, which lets the client form an NTP-style
  /// clock-offset estimate: with the client's send/recv stamps t0/t3 and
  /// these as t1/t2, offset = ((t1 - t0) + (t2 - t3)) / 2 estimates
  /// server_clock - client_clock (see scripts/merge_traces.py).
  double server_recv_us = 0.0;
  double server_send_us = 0.0;
};

/// ---- Codecs -------------------------------------------------------------
///
/// Request/notification payloads. Decoders require full consumption.

std::string EncodeHelloRequest(const HelloRequest& msg);
StatusOr<HelloRequest> DecodeHelloRequest(std::string_view payload);

std::string EncodeGetScheduleRequest(const GetScheduleRequest& msg);
StatusOr<GetScheduleRequest> DecodeGetScheduleRequest(
    std::string_view payload);

std::string EncodeObserveRequest(const ObserveRequest& msg);
StatusOr<ObserveRequest> DecodeObserveRequest(std::string_view payload);

std::string EncodeTrainStepRequest(const TrainStepRequest& msg);
StatusOr<TrainStepRequest> DecodeTrainStepRequest(std::string_view payload);

std::string EncodeSaveArtifactRequest(const SaveArtifactRequest& msg);
StatusOr<SaveArtifactRequest> DecodeSaveArtifactRequest(
    std::string_view payload);

std::string EncodePingMessage(const PingMessage& msg);
StatusOr<PingMessage> DecodePingMessage(std::string_view payload);

/// Response payloads: a Status envelope, then the body when OK. The
/// decoders return the embedded error as their own error, verbatim, so the
/// caller cannot tell a remote failure from a local one (by design).
std::string EncodeHelloResponse(const Status& status,
                                const HelloResponse& body);
StatusOr<HelloResponse> DecodeHelloResponse(std::string_view payload);

std::string EncodeGetScheduleResponse(const Status& status,
                                      const GetScheduleResponse& body);
StatusOr<GetScheduleResponse> DecodeGetScheduleResponse(
    std::string_view payload);

std::string EncodeObserveResponse(const Status& status);
Status DecodeObserveResponse(std::string_view payload);

std::string EncodeTrainStepResponse(const Status& status,
                                    const TrainStepResponse& body);
StatusOr<TrainStepResponse> DecodeTrainStepResponse(std::string_view payload);

std::string EncodeSaveArtifactResponse(const Status& status);
Status DecodeSaveArtifactResponse(std::string_view payload);

/// Generic error reply (kErrorResponse): just a non-OK Status.
std::string EncodeErrorResponse(const Status& status);
/// Always returns a non-OK status (InvalidArgument if the payload is
/// malformed or claims OK).
Status DecodeErrorResponse(std::string_view payload);

/// Shared sub-codecs (exposed for the round-trip benchmark/tests).
void EncodeState(const rl::State& state, net::WireWriter* writer);
Status DecodeState(net::WireReader* reader, rl::State* out);
void EncodeTransition(const rl::Transition& transition,
                      net::WireWriter* writer);
Status DecodeTransition(net::WireReader* reader, rl::Transition* out);
void EncodeScheduleDiff(const ScheduleDiff& diff, net::WireWriter* writer);
Status DecodeScheduleDiff(net::WireReader* reader, ScheduleDiff* out);

}  // namespace drlstream::ctrl

#endif  // DRLSTREAM_CTRL_MESSAGES_H_
