#include "ctrl/messages.h"

namespace drlstream::ctrl {
namespace {

using net::WireReader;
using net::WireWriter;

constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(
    StatusCode::kUnavailable);
constexpr uint8_t kMaxScheduleMode =
    static_cast<uint8_t>(ScheduleMode::kFinal);

void PutStatus(const Status& status, WireWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(status.code()));
  writer->PutString(status.message());
}

Status ReadStatus(WireReader* reader, Status* out) {
  uint8_t code = 0;
  std::string message;
  DRLSTREAM_RETURN_NOT_OK(reader->ReadU8(&code));
  DRLSTREAM_RETURN_NOT_OK(reader->ReadString(&message));
  if (code > kMaxStatusCode) {
    return Status::InvalidArgument("ctrl: unknown status code " +
                                   std::to_string(code));
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

/// Finishes a decode: the payload must be fully consumed.
template <typename T>
StatusOr<T> Finish(const WireReader& reader, T value) {
  DRLSTREAM_RETURN_NOT_OK(reader.ExpectFullyConsumed());
  return value;
}

}  // namespace

/// ---- Shared sub-codecs --------------------------------------------------

void EncodeState(const rl::State& state, WireWriter* writer) {
  writer->PutIntVector(state.assignments);
  writer->PutDoubleVector(state.spout_rates);
  writer->PutByteVector(state.machine_up);
}

Status DecodeState(WireReader* reader, rl::State* out) {
  rl::State state;
  DRLSTREAM_RETURN_NOT_OK(reader->ReadIntVector(&state.assignments));
  DRLSTREAM_RETURN_NOT_OK(reader->ReadDoubleVector(&state.spout_rates));
  DRLSTREAM_RETURN_NOT_OK(reader->ReadByteVector(&state.machine_up));
  for (uint8_t up : state.machine_up) {
    if (up > 1) {
      return Status::InvalidArgument("ctrl: machine_up flag not 0/1");
    }
  }
  *out = std::move(state);
  return Status::OK();
}

void EncodeTransition(const rl::Transition& transition, WireWriter* writer) {
  EncodeState(transition.state, writer);
  writer->PutIntVector(transition.action_assignments);
  writer->PutI32(transition.move_index);
  writer->PutDouble(transition.reward);
  EncodeState(transition.next_state, writer);
}

Status DecodeTransition(WireReader* reader, rl::Transition* out) {
  rl::Transition transition;
  DRLSTREAM_RETURN_NOT_OK(DecodeState(reader, &transition.state));
  DRLSTREAM_RETURN_NOT_OK(
      reader->ReadIntVector(&transition.action_assignments));
  DRLSTREAM_RETURN_NOT_OK(reader->ReadI32(&transition.move_index));
  DRLSTREAM_RETURN_NOT_OK(reader->ReadDouble(&transition.reward));
  DRLSTREAM_RETURN_NOT_OK(DecodeState(reader, &transition.next_state));
  *out = std::move(transition);
  return Status::OK();
}

void EncodeScheduleDiff(const ScheduleDiff& diff, WireWriter* writer) {
  writer->PutI32(diff.num_executors);
  writer->PutI32(diff.num_machines);
  writer->PutU32(static_cast<uint32_t>(diff.entries.size()));
  // One 12-byte append per entry, not three 4-byte ones: a full-topology
  // diff carries dozens of entries and each Put re-checks capacity.
  for (const ScheduleDiffEntry& entry : diff.entries) {
    char buf[12];
    const uint32_t fields[3] = {static_cast<uint32_t>(entry.executor),
                                static_cast<uint32_t>(entry.machine),
                                static_cast<uint32_t>(entry.process)};
    for (int f = 0; f < 3; ++f) {
      for (int i = 0; i < 4; ++i) {
        buf[4 * f + i] = static_cast<char>((fields[f] >> (8 * i)) & 0xFF);
      }
    }
    writer->PutBytes(buf, sizeof(buf));
  }
}

Status DecodeScheduleDiff(WireReader* reader, ScheduleDiff* out) {
  ScheduleDiff diff;
  DRLSTREAM_RETURN_NOT_OK(reader->ReadI32(&diff.num_executors));
  DRLSTREAM_RETURN_NOT_OK(reader->ReadI32(&diff.num_machines));
  uint32_t count = 0;
  DRLSTREAM_RETURN_NOT_OK(reader->ReadU32(&count));
  if (count > net::kMaxVectorElements ||
      static_cast<size_t>(count) * 12 > reader->remaining()) {
    return Status::OutOfRange("ctrl: schedule diff entry count " +
                              std::to_string(count) +
                              " does not fit the payload");
  }
  diff.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ScheduleDiffEntry entry;
    DRLSTREAM_RETURN_NOT_OK(reader->ReadI32(&entry.executor));
    DRLSTREAM_RETURN_NOT_OK(reader->ReadI32(&entry.machine));
    DRLSTREAM_RETURN_NOT_OK(reader->ReadI32(&entry.process));
    diff.entries.push_back(entry);
  }
  *out = std::move(diff);
  return Status::OK();
}

/// ---- Diff helpers -------------------------------------------------------

sched::Schedule DiffBaseFromState(const rl::State& state, int num_machines) {
  sched::Schedule base(static_cast<int>(state.assignments.size()),
                       num_machines);
  for (size_t i = 0; i < state.assignments.size(); ++i) {
    base.Assign(static_cast<int>(i), state.assignments[i]);
  }
  return base;
}

ScheduleDiff MakeScheduleDiff(const sched::Schedule& base,
                              const sched::Schedule& target) {
  ScheduleDiff diff;
  diff.num_executors = target.num_executors();
  diff.num_machines = target.num_machines();
  for (int i = 0; i < target.num_executors(); ++i) {
    if (i >= base.num_executors() ||
        base.MachineOf(i) != target.MachineOf(i) ||
        base.ProcessOf(i) != target.ProcessOf(i)) {
      diff.entries.push_back(
          ScheduleDiffEntry{i, target.MachineOf(i), target.ProcessOf(i)});
    }
  }
  return diff;
}

ScheduleDiff MakeScheduleDiffFromState(const rl::State& state,
                                       const sched::Schedule& target) {
  ScheduleDiff diff;
  diff.num_executors = target.num_executors();
  diff.num_machines = target.num_machines();
  const std::vector<int>& base = state.assignments;
  for (int i = 0; i < target.num_executors(); ++i) {
    // The implicit base has executor i on base[i], process 0.
    if (i >= static_cast<int>(base.size()) ||
        base[i] != target.MachineOf(i) || target.ProcessOf(i) != 0) {
      diff.entries.push_back(
          ScheduleDiffEntry{i, target.MachineOf(i), target.ProcessOf(i)});
    }
  }
  return diff;
}

StatusOr<sched::Schedule> ApplyScheduleDiff(const sched::Schedule& base,
                                            const ScheduleDiff& diff) {
  if (diff.num_executors != base.num_executors() ||
      diff.num_machines != base.num_machines()) {
    return Status::InvalidArgument(
        "ctrl: schedule diff dimensions " +
        std::to_string(diff.num_executors) + "x" +
        std::to_string(diff.num_machines) + " do not match the base " +
        std::to_string(base.num_executors()) + "x" +
        std::to_string(base.num_machines()));
  }
  sched::Schedule schedule = base;
  for (const ScheduleDiffEntry& entry : diff.entries) {
    if (entry.executor < 0 || entry.executor >= base.num_executors()) {
      return Status::OutOfRange("ctrl: diff executor " +
                                std::to_string(entry.executor) +
                                " out of range");
    }
    if (entry.machine < 0 || entry.machine >= base.num_machines()) {
      return Status::OutOfRange("ctrl: diff machine " +
                                std::to_string(entry.machine) +
                                " out of range");
    }
    if (entry.process < 0) {
      return Status::OutOfRange("ctrl: negative diff process");
    }
    schedule.Assign(entry.executor, entry.machine);
    schedule.AssignProcess(entry.executor, entry.process);
  }
  return schedule;
}

/// ---- Requests -----------------------------------------------------------

std::string EncodeHelloRequest(const HelloRequest& msg) {
  WireWriter writer;
  writer.PutString(msg.client_name);
  writer.PutString(msg.policy_key);
  return writer.Release();
}

StatusOr<HelloRequest> DecodeHelloRequest(std::string_view payload) {
  WireReader reader(payload);
  HelloRequest msg;
  DRLSTREAM_RETURN_NOT_OK(reader.ReadString(&msg.client_name));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadString(&msg.policy_key));
  return Finish(reader, std::move(msg));
}

std::string EncodeGetScheduleRequest(const GetScheduleRequest& msg) {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(msg.mode));
  writer.PutI32(msg.num_machines);
  EncodeState(msg.state, &writer);
  writer.PutDouble(msg.epsilon);
  writer.PutString(msg.rng_state);
  return writer.Release();
}

StatusOr<GetScheduleRequest> DecodeGetScheduleRequest(
    std::string_view payload) {
  WireReader reader(payload);
  GetScheduleRequest msg;
  uint8_t mode = 0;
  DRLSTREAM_RETURN_NOT_OK(reader.ReadU8(&mode));
  if (mode > kMaxScheduleMode) {
    return Status::InvalidArgument("ctrl: unknown schedule mode " +
                                   std::to_string(mode));
  }
  msg.mode = static_cast<ScheduleMode>(mode);
  DRLSTREAM_RETURN_NOT_OK(reader.ReadI32(&msg.num_machines));
  if (msg.num_machines <= 0) {
    return Status::InvalidArgument("ctrl: machine count " +
                                   std::to_string(msg.num_machines));
  }
  DRLSTREAM_RETURN_NOT_OK(DecodeState(&reader, &msg.state));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadDouble(&msg.epsilon));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadString(&msg.rng_state));
  for (int assignment : msg.state.assignments) {
    if (assignment < 0 || assignment >= msg.num_machines) {
      return Status::OutOfRange("ctrl: state assignment " +
                                std::to_string(assignment) +
                                " outside " +
                                std::to_string(msg.num_machines) +
                                " machines");
    }
  }
  return Finish(reader, std::move(msg));
}

std::string EncodeObserveRequest(const ObserveRequest& msg) {
  WireWriter writer;
  EncodeTransition(msg.transition, &writer);
  return writer.Release();
}

StatusOr<ObserveRequest> DecodeObserveRequest(std::string_view payload) {
  WireReader reader(payload);
  ObserveRequest msg;
  DRLSTREAM_RETURN_NOT_OK(DecodeTransition(&reader, &msg.transition));
  return Finish(reader, std::move(msg));
}

std::string EncodeTrainStepRequest(const TrainStepRequest& msg) {
  WireWriter writer;
  writer.PutI32(msg.steps);
  return writer.Release();
}

StatusOr<TrainStepRequest> DecodeTrainStepRequest(std::string_view payload) {
  WireReader reader(payload);
  TrainStepRequest msg;
  DRLSTREAM_RETURN_NOT_OK(reader.ReadI32(&msg.steps));
  if (msg.steps <= 0 || msg.steps > 1 << 20) {
    return Status::InvalidArgument("ctrl: train step count " +
                                   std::to_string(msg.steps));
  }
  return Finish(reader, std::move(msg));
}

std::string EncodeSaveArtifactRequest(const SaveArtifactRequest& msg) {
  WireWriter writer;
  writer.PutString(msg.prefix);
  return writer.Release();
}

StatusOr<SaveArtifactRequest> DecodeSaveArtifactRequest(
    std::string_view payload) {
  WireReader reader(payload);
  SaveArtifactRequest msg;
  DRLSTREAM_RETURN_NOT_OK(reader.ReadString(&msg.prefix));
  if (msg.prefix.empty()) {
    return Status::InvalidArgument("ctrl: empty artifact prefix");
  }
  return Finish(reader, std::move(msg));
}

std::string EncodePingMessage(const PingMessage& msg) {
  WireWriter writer;
  writer.PutU64(msg.token);
  writer.PutDouble(msg.server_recv_us);
  writer.PutDouble(msg.server_send_us);
  return writer.Release();
}

StatusOr<PingMessage> DecodePingMessage(std::string_view payload) {
  WireReader reader(payload);
  PingMessage msg;
  DRLSTREAM_RETURN_NOT_OK(reader.ReadU64(&msg.token));
  // All fields are mandatory (every strict prefix must fail, like the rest
  // of the protocol).
  DRLSTREAM_RETURN_NOT_OK(reader.ReadDouble(&msg.server_recv_us));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadDouble(&msg.server_send_us));
  return Finish(reader, std::move(msg));
}

/// ---- Responses ----------------------------------------------------------

std::string EncodeHelloResponse(const Status& status,
                                const HelloResponse& body) {
  WireWriter writer;
  PutStatus(status, &writer);
  if (status.ok()) {
    writer.PutString(body.policy_name);
    writer.PutString(body.registry_key);
    writer.PutString(body.description);
    writer.PutBool(body.trainable);
    writer.PutU64(body.session_id);
  }
  return writer.Release();
}

StatusOr<HelloResponse> DecodeHelloResponse(std::string_view payload) {
  WireReader reader(payload);
  Status remote;
  DRLSTREAM_RETURN_NOT_OK(ReadStatus(&reader, &remote));
  if (!remote.ok()) return remote;
  HelloResponse body;
  DRLSTREAM_RETURN_NOT_OK(reader.ReadString(&body.policy_name));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadString(&body.registry_key));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadString(&body.description));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadBool(&body.trainable));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadU64(&body.session_id));
  return Finish(reader, std::move(body));
}

void EncodeGetScheduleResponseTo(const Status& status,
                                 const GetScheduleResponse& body,
                                 WireWriter* writer) {
  // Hot path (one per GetSchedule): size the buffer up front rather than
  // grow it through the ~100 small Puts below.
  writer->Reserve(64 + 12 * body.diff.entries.size() +
                  body.rng_state.size());
  PutStatus(status, writer);
  if (status.ok()) {
    EncodeScheduleDiff(body.diff, writer);
    writer->PutI32(body.move_index);
    writer->PutString(body.rng_state);
  }
}

std::string EncodeGetScheduleResponse(const Status& status,
                                      const GetScheduleResponse& body) {
  WireWriter writer;
  EncodeGetScheduleResponseTo(status, body, &writer);
  return writer.Release();
}

StatusOr<GetScheduleResponse> DecodeGetScheduleResponse(
    std::string_view payload) {
  WireReader reader(payload);
  Status remote;
  DRLSTREAM_RETURN_NOT_OK(ReadStatus(&reader, &remote));
  if (!remote.ok()) return remote;
  GetScheduleResponse body;
  DRLSTREAM_RETURN_NOT_OK(DecodeScheduleDiff(&reader, &body.diff));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadI32(&body.move_index));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadString(&body.rng_state));
  return Finish(reader, std::move(body));
}

std::string EncodeObserveResponse(const Status& status) {
  WireWriter writer;
  PutStatus(status, &writer);
  return writer.Release();
}

Status DecodeObserveResponse(std::string_view payload) {
  WireReader reader(payload);
  Status remote;
  DRLSTREAM_RETURN_NOT_OK(ReadStatus(&reader, &remote));
  DRLSTREAM_RETURN_NOT_OK(reader.ExpectFullyConsumed());
  return remote;
}

std::string EncodeTrainStepResponse(const Status& status,
                                    const TrainStepResponse& body) {
  WireWriter writer;
  PutStatus(status, &writer);
  if (status.ok()) writer.PutDouble(body.loss);
  return writer.Release();
}

StatusOr<TrainStepResponse> DecodeTrainStepResponse(
    std::string_view payload) {
  WireReader reader(payload);
  Status remote;
  DRLSTREAM_RETURN_NOT_OK(ReadStatus(&reader, &remote));
  if (!remote.ok()) return remote;
  TrainStepResponse body;
  DRLSTREAM_RETURN_NOT_OK(reader.ReadDouble(&body.loss));
  return Finish(reader, std::move(body));
}

std::string EncodeSaveArtifactResponse(const Status& status) {
  WireWriter writer;
  PutStatus(status, &writer);
  return writer.Release();
}

Status DecodeSaveArtifactResponse(std::string_view payload) {
  WireReader reader(payload);
  Status remote;
  DRLSTREAM_RETURN_NOT_OK(ReadStatus(&reader, &remote));
  DRLSTREAM_RETURN_NOT_OK(reader.ExpectFullyConsumed());
  return remote;
}

std::string EncodeErrorResponse(const Status& status) {
  WireWriter writer;
  PutStatus(status.ok() ? Status::Internal("unspecified remote error")
                        : status,
            &writer);
  return writer.Release();
}

Status DecodeErrorResponse(std::string_view payload) {
  WireReader reader(payload);
  Status remote;
  DRLSTREAM_RETURN_NOT_OK(ReadStatus(&reader, &remote));
  DRLSTREAM_RETURN_NOT_OK(reader.ExpectFullyConsumed());
  if (remote.ok()) {
    return Status::InvalidArgument("ctrl: error response claims OK");
  }
  return remote;
}

}  // namespace drlstream::ctrl
