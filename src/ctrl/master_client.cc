#include "ctrl/master_client.h"

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "net/tcp.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace drlstream::ctrl {
namespace {

struct ClientMetrics {
  obs::Counter* rpcs;
  obs::Counter* retries;
  obs::Counter* timeouts;
  obs::Counter* failures;
  obs::Counter* reconnects;
  obs::Counter* heartbeats;
  obs::Histogram* rpc_us;
  obs::Gauge* clock_offset_us;
  obs::Histogram* ping_rtt_us;

  static const ClientMetrics& Get() {
    static const ClientMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Get();
      return ClientMetrics{registry.counter("ctrl.client.rpcs"),
                           registry.counter("ctrl.client.retries"),
                           registry.counter("ctrl.client.timeouts"),
                           registry.counter("ctrl.client.failures"),
                           registry.counter("ctrl.client.reconnects"),
                           registry.counter("ctrl.client.heartbeats"),
                           registry.histogram("ctrl.client.rpc_us"),
                           registry.gauge("ctrl.client.clock_offset_us"),
                           registry.histogram("ctrl.client.ping_rtt_us")};
    }();
    return metrics;
  }
};

/// Args object for a client-side RPC span. The server span carries the same
/// trace_id and names this span's span_id as parent_span — that pair is the
/// join key scripts/merge_traces.py nests on.
std::string ClientSpanArgs(net::TraceContext trace, uint64_t session_id) {
  return "{\"trace_id\": " + std::to_string(trace.trace_id) +
         ", \"span_id\": " + std::to_string(trace.span_id) +
         ", \"session\": " + std::to_string(session_id) + "}";
}

}  // namespace

MasterClient::MasterClient(std::unique_ptr<net::Transport> transport,
                           MasterClientOptions options)
    : owns_endpoint_(false),
      options_(options),
      transport_(std::move(transport)) {}

MasterClient::MasterClient(std::string host, int port,
                           MasterClientOptions options)
    : host_(std::move(host)),
      port_(port),
      owns_endpoint_(true),
      options_(options) {}

MasterClient::~MasterClient() { Shutdown(); }

void MasterClient::Shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  DropConnectionLocked();
}

void MasterClient::DropConnectionLocked() const {
  if (transport_) {
    transport_->Close();
    transport_.reset();
  }
  handshaken_ = false;
}

net::TraceContext MasterClient::NewSpanLocked() const {
  if (trace_id_ == 0) trace_id_ = obs::NewSpanId();
  return net::TraceContext{trace_id_, obs::NewSpanId()};
}

Status MasterClient::EnsureConnectedLocked() const {
  if (!transport_) {
    if (!owns_endpoint_) {
      return Status::Unavailable(
          "ctrl: agent connection closed (transport-wrapping client cannot "
          "reconnect)");
    }
    DRLSTREAM_ASSIGN_OR_RETURN(
        transport_, net::TcpConnect(host_, port_, options_.connect_timeout_ms));
    ClientMetrics::Get().reconnects->Add();
  }
  if (handshaken_) return Status::OK();
  HelloRequest request;
  request.client_name = options_.client_name;
  request.policy_key = options_.policy_key;
  return CallOnceLocked(net::MsgType::kHelloRequest,
                        EncodeHelloRequest(request),
                        net::MsgType::kHelloResponse)
      .status();
}

StatusOr<std::string> MasterClient::CallOnceLocked(
    net::MsgType request_type, const std::string& payload,
    net::MsgType response_type) const {
  const bool hello = request_type == net::MsgType::kHelloRequest;
  const bool tracing = obs::TraceEnabled();
  const net::TraceContext trace =
      tracing ? NewSpanLocked() : net::TraceContext{};
  const double start_us = tracing ? obs::Tracer::Get().NowUs() : 0.0;
  DRLSTREAM_RETURN_NOT_OK(
      transport_->Send(net::EncodeFrame(request_type, payload, trace)));
  DRLSTREAM_ASSIGN_OR_RETURN(std::string raw,
                             transport_->Recv(options_.rpc_deadline_ms));
  DRLSTREAM_ASSIGN_OR_RETURN(net::Frame frame,
                             net::DecodeFrame(std::move(raw)));
  Status status = Status::OK();
  if (frame.type == net::MsgType::kErrorResponse) {
    // The server could not make sense of the request. Coherent framing, so
    // the connection survives; the error itself is not retryable.
    status = DecodeErrorResponse(frame.payload);
  } else if (frame.type != response_type) {
    status = Status::Internal(std::string("ctrl: expected ") +
                              net::MsgTypeName(response_type) + ", got " +
                              net::MsgTypeName(frame.type));
  } else if (hello) {
    // The handshake binds the session before the span is recorded, so the
    // span names the session it opened.
    StatusOr<HelloResponse> body = DecodeHelloResponse(frame.payload);
    status = body.status();
    if (body.ok()) {
      hello_ = std::move(*body);
      handshaken_ = true;
    }
  }
  if (tracing) {
    obs::Tracer::Get().AddWallSpan(
        hello ? std::string("rpc.Hello")
              : std::string("rpc.") + net::MsgTypeName(request_type),
        start_us, obs::Tracer::Get().NowUs(),
        ClientSpanArgs(trace, hello_.session_id));
  }
  if (!status.ok()) return status;
  return std::move(frame.payload);
}

StatusOr<std::string> MasterClient::Call(net::MsgType request_type,
                                         const std::string& payload,
                                         net::MsgType response_type) const {
  const ClientMetrics& metrics = ClientMetrics::Get();
  std::lock_guard<std::mutex> lock(mutex_);
  metrics.rpcs->Add();
  Status last = Status::Unavailable("ctrl: rpc never attempted");
  const int attempts =
      options_.max_rpc_attempts > 0 ? options_.max_rpc_attempts : 1;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      metrics.retries->Add();
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.retry_backoff_ms * attempt));
    }
    Status connected = EnsureConnectedLocked();
    if (!connected.ok()) {
      last = connected;
      DropConnectionLocked();
      if (!owns_endpoint_) break;  // nothing to re-dial
      continue;
    }
    const double start_us =
        obs::MetricsEnabled() ? obs::Tracer::Get().NowUs() : 0.0;
    StatusOr<std::string> result =
        CallOnceLocked(request_type, payload, response_type);
    if (result.ok()) {
      if (start_us > 0.0) {
        metrics.rpc_us->Record(obs::Tracer::Get().NowUs() - start_us);
      }
      return result;
    }
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      metrics.timeouts->Add();
    }
    // Any failure here means the request/response stream can no longer be
    // trusted (timeout replies may arrive late, framing may be skewed):
    // drop the connection before the next attempt.
    last = result.status();
    DropConnectionLocked();
    if (!owns_endpoint_) break;
  }
  metrics.failures->Add();
  return last;
}

HelloResponse MasterClient::remote_info() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hello_;
}

Status MasterClient::Connect() {
  std::lock_guard<std::mutex> lock(mutex_);
  Status connected = EnsureConnectedLocked();
  if (!connected.ok()) DropConnectionLocked();
  return connected;
}

Status MasterClient::Ping() {
  const ClientMetrics& metrics = ClientMetrics::Get();
  std::lock_guard<std::mutex> lock(mutex_);
  Status connected = EnsureConnectedLocked();
  if (!connected.ok()) {
    DropConnectionLocked();
    return connected;
  }
  PingMessage ping;
  ping.token = ++ping_token_;
  const double t0 = obs::Tracer::Get().NowUs();
  StatusOr<std::string> pong = CallOnceLocked(
      net::MsgType::kPing, EncodePingMessage(ping), net::MsgType::kPong);
  const double t3 = obs::Tracer::Get().NowUs();
  if (!pong.ok()) {
    DropConnectionLocked();
    return pong.status();
  }
  StatusOr<PingMessage> echoed = DecodePingMessage(*pong);
  if (!echoed.ok()) return echoed.status();
  if (echoed->token != ping.token) {
    DropConnectionLocked();
    return Status::Internal("ctrl: pong token mismatch");
  }
  if (echoed->server_recv_us > 0.0 && echoed->server_send_us > 0.0) {
    // NTP's two-sample estimate: offset = ((t1-t0) + (t2-t3)) / 2, where
    // t1/t2 are the server's receive/transmit stamps. Keep the estimate
    // from the fastest round trip seen — symmetric delay is least wrong
    // there — so one slow Ping cannot wreck a good alignment.
    const double t1 = echoed->server_recv_us;
    const double t2 = echoed->server_send_us;
    const double rtt_us = (t3 - t0) - (t2 - t1);
    const double offset_us = ((t1 - t0) + (t2 - t3)) / 2.0;
    if (!has_offset_ || rtt_us < best_rtt_us_) {
      has_offset_ = true;
      best_rtt_us_ = rtt_us;
      clock_offset_us_ = offset_us;
      metrics.clock_offset_us->Set(offset_us);
      if (obs::TraceEnabled()) {
        obs::Tracer::Get().AddWallInstant(
            "clock_offset", t3,
            "{\"offset_us\": " + std::to_string(offset_us) +
                ", \"rtt_us\": " + std::to_string(rtt_us) + "}");
      }
    }
    metrics.ping_rtt_us->Record(rtt_us);
  }
  metrics.heartbeats->Add();
  return Status::OK();
}

StatusOr<double> MasterClient::EstimatedClockOffsetUs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!has_offset_) {
    return Status::FailedPrecondition(
        "ctrl: no clock-offset estimate yet (Ping a server that stamps "
        "Pongs first)");
  }
  return clock_offset_us_;
}

uint16_t MasterClient::wire_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return handshaken_ ? net::kWireVersion : 0;
}

/// ---- rl::Policy ---------------------------------------------------------

std::string MasterClient::name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return handshaken_ ? hello_.policy_name : "remote-agent";
}

std::string MasterClient::Describe() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string where =
      owns_endpoint_ ? host_ + ":" + std::to_string(port_) : "transport";
  if (!handshaken_) return "remote agent at " + where;
  return "remote agent at " + where + " serving " + hello_.description;
}

bool MasterClient::trainable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!handshaken_ && !EnsureConnectedLocked().ok()) {
    DropConnectionLocked();
    return false;
  }
  return hello_.trainable;
}

int MasterClient::NumMachinesFor(const rl::State& state) const {
  if (options_.num_machines > 0) return options_.num_machines;
  return static_cast<int>(state.machine_up.size());
}

StatusOr<rl::PolicyAction> MasterClient::GetSchedule(ScheduleMode mode,
                                                     const rl::State& state,
                                                     double epsilon,
                                                     Rng* rng) const {
  GetScheduleRequest request;
  request.mode = mode;
  request.num_machines = NumMachinesFor(state);
  if (request.num_machines <= 0) {
    return Status::FailedPrecondition(
        "ctrl: machine count unknown; set MasterClientOptions.num_machines");
  }
  request.state = state;
  request.epsilon = epsilon;
  if (rng != nullptr) request.rng_state = rng->SerializeState();
  DRLSTREAM_ASSIGN_OR_RETURN(
      std::string payload,
      Call(net::MsgType::kGetScheduleRequest,
           EncodeGetScheduleRequest(request),
           net::MsgType::kGetScheduleResponse));
  DRLSTREAM_ASSIGN_OR_RETURN(GetScheduleResponse response,
                             DecodeGetScheduleResponse(payload));
  // Adopt the agent's advanced RNG so the master's exploration stream stays
  // bit-identical to an in-process run.
  if (rng != nullptr) {
    DRLSTREAM_RETURN_NOT_OK(rng->DeserializeState(response.rng_state));
  }
  DRLSTREAM_ASSIGN_OR_RETURN(
      sched::Schedule schedule,
      ApplyScheduleDiff(DiffBaseFromState(state, request.num_machines),
                        response.diff));
  return rl::PolicyAction(std::move(schedule), response.move_index);
}

StatusOr<rl::PolicyAction> MasterClient::SelectAction(const rl::State& state,
                                                      double epsilon,
                                                      Rng* rng) const {
  return GetSchedule(ScheduleMode::kExplore, state, epsilon, rng);
}

StatusOr<sched::Schedule> MasterClient::GreedyAction(
    const rl::State& state) const {
  DRLSTREAM_ASSIGN_OR_RETURN(
      rl::PolicyAction action,
      GetSchedule(ScheduleMode::kGreedy, state, 0.0, nullptr));
  return std::move(action.schedule);
}

StatusOr<sched::Schedule> MasterClient::FinalSchedule(
    const rl::State& state) const {
  DRLSTREAM_ASSIGN_OR_RETURN(
      rl::PolicyAction action,
      GetSchedule(ScheduleMode::kFinal, state, 0.0, nullptr));
  return std::move(action.schedule);
}

void MasterClient::Observe(rl::Transition transition) {
  ObserveRequest request;
  request.transition = std::move(transition);
  StatusOr<std::string> payload =
      Call(net::MsgType::kObserveRequest, EncodeObserveRequest(request),
           net::MsgType::kObserveResponse);
  Status status =
      payload.ok() ? DecodeObserveResponse(*payload) : payload.status();
  if (!status.ok()) {
    // Observe is fire-and-forget in the Policy contract; a lost sample only
    // thins the replay buffer. Failures are already counted.
    std::fprintf(stderr, "[ctrl] Observe dropped: %s\n",
                 status.ToString().c_str());
  }
}

double MasterClient::TrainStep() {
  TrainStepRequest request;
  StatusOr<std::string> payload =
      Call(net::MsgType::kTrainStepRequest, EncodeTrainStepRequest(request),
           net::MsgType::kTrainStepResponse);
  if (!payload.ok()) return 0.0;
  StatusOr<TrainStepResponse> response = DecodeTrainStepResponse(*payload);
  return response.ok() ? response->loss : 0.0;
}

Status MasterClient::Save(const std::string& prefix) const {
  SaveArtifactRequest request;
  request.prefix = prefix;
  DRLSTREAM_ASSIGN_OR_RETURN(
      std::string payload,
      Call(net::MsgType::kSaveArtifactRequest,
           EncodeSaveArtifactRequest(request),
           net::MsgType::kSaveArtifactResponse));
  return DecodeSaveArtifactResponse(payload);
}

}  // namespace drlstream::ctrl
