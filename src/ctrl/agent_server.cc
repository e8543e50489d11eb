#include "ctrl/agent_server.h"

#include <poll.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "ctrl/messages.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace drlstream::ctrl {
namespace {

/// Registry handles of the server's metrics. The ctrl.server.session.*
/// ones sum over sessions; /statusz serves the per-session split.
struct ServerMetrics {
  obs::Counter* requests;
  obs::Counter* errors;
  obs::Counter* connections;
  obs::Histogram* request_us;
  obs::Gauge* sessions;
  obs::Histogram* batch_size;
  obs::Histogram* queue_depth;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* opened;
  obs::Counter* closed;
  obs::Counter* peer_gone;
  obs::Counter* rx_poisoned;
  obs::Counter* killed;
  obs::Counter* slow_rpcs;
  obs::Histogram* queue_wait_us;
  obs::Histogram* batch_width;
  obs::Histogram* outbox_depth;

  static const ServerMetrics& Get() {
    static const ServerMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Get();
      return ServerMetrics{
          registry.counter("ctrl.server.requests"),
          registry.counter("ctrl.server.errors"),
          registry.counter("ctrl.server.connections"),
          registry.histogram("ctrl.server.request_us"),
          registry.gauge("ctrl.server.sessions"),
          registry.histogram("ctrl.server.batch_size"),
          registry.histogram("ctrl.server.queue_depth"),
          registry.counter("ctrl.server.session.bytes_in"),
          registry.counter("ctrl.server.session.bytes_out"),
          registry.counter("ctrl.server.session.opened"),
          registry.counter("ctrl.server.session.closed"),
          registry.counter("ctrl.server.session.peer_gone"),
          registry.counter("ctrl.server.session.rx_poisoned"),
          registry.counter("ctrl.server.session.killed"),
          registry.counter("ctrl.server.slow_rpcs"),
          registry.histogram("ctrl.server.session.queue_wait_us"),
          registry.histogram("ctrl.server.session.batch_width"),
          registry.histogram("ctrl.server.session.outbox_depth")};
    }();
    return metrics;
  }
};

/// Renders the args object for a server-side request span. trace/span ids
/// print as decimal (Python's json parses them back exactly; they exceed
/// double precision but the merge script works on the parsed ints).
std::string SpanArgs(net::TraceContext trace, uint64_t session_id,
                     int batch_width, double queue_wait_us) {
  std::string args = "{\"trace_id\": " + std::to_string(trace.trace_id) +
                     ", \"parent_span\": " + std::to_string(trace.span_id) +
                     ", \"session\": " + std::to_string(session_id) +
                     ", \"batch\": " + std::to_string(batch_width);
  if (queue_wait_us >= 0.0) {
    args += ", \"queue_wait_us\": " +
            std::to_string(static_cast<int64_t>(queue_wait_us));
  }
  return args + "}";
}

/// The server span of a request: agent.Hello, agent.GetSchedule, and
/// agent.<wire type name> for the rest.
std::string SpanName(net::MsgType type) {
  switch (type) {
    case net::MsgType::kHelloRequest:
      return "agent.Hello";
    case net::MsgType::kGetScheduleRequest:
      return "agent.GetSchedule";
    default:
      return std::string("agent.") + net::MsgTypeName(type);
  }
}

/// The frame type of the reply to a `request` frame. Each request type's
/// response follows it in net::MsgType. A failed request's payload is its
/// status envelope, which every response starts with; a Pong has none, so
/// a failed Ping gets kErrorResponse, as does a frame that is no request.
net::MsgType ReplyType(net::MsgType request, bool ok) {
  switch (request) {
    case net::MsgType::kHelloRequest:
    case net::MsgType::kGetScheduleRequest:
    case net::MsgType::kObserveRequest:
    case net::MsgType::kTrainStepRequest:
    case net::MsgType::kSaveArtifactRequest:
      return static_cast<net::MsgType>(static_cast<uint16_t>(request) + 1);
    case net::MsgType::kPing:
      return ok ? net::MsgType::kPong : net::MsgType::kErrorResponse;
    default:
      return net::MsgType::kErrorResponse;
  }
}

/// Whether a message type counts against AgentServerOptions::max_requests
/// (the policy-touching RPCs; handshake and heartbeat are free).
bool IsPolicyRpc(net::MsgType type) {
  switch (type) {
    case net::MsgType::kGetScheduleRequest:
    case net::MsgType::kObserveRequest:
    case net::MsgType::kTrainStepRequest:
    case net::MsgType::kSaveArtifactRequest:
      return true;
    default:
      return false;
  }
}

Status PolicyBound(const rl::Policy* policy) {
  if (policy != nullptr) return Status::OK();
  return Status::FailedPrecondition(
      "agent: no policy bound to this session; send Hello with a valid "
      "policy key first");
}

}  // namespace

/// A GetSchedule request parked until the batch flush. Keeping every
/// GetSchedule (explore, greedy, final, even ones that already failed) in
/// the batch, instead of flushing on the non-batchable modes, preserves
/// per-session reply order for free: replies are emitted in batch order,
/// and batch order is arrival order. Only kExplore items actually share a
/// GEMM; greedy/final are const policy calls, so computing them at flush
/// time is order-indifferent.
struct AgentServer::GetItem {
  const WorkItem* item = nullptr;
  GetScheduleRequest req;
  Rng rng{0};               // restored exploration stream (kExplore)
  rl::PolicyAction action;  // batched SelectAction result (kExplore)
  /// A failure before the policy (undecodable body, no policy bound,
  /// corrupt RNG state), then the batched SelectAction's slot status.
  Status status;
  int batch_width = 1;  // fused GEMM width this item was served in

  /// Decodes the request and readies it for the policy.
  Status Prepare(const rl::Policy* policy) {
    DRLSTREAM_ASSIGN_OR_RETURN(req,
                               DecodeGetScheduleRequest(item->frame.payload));
    DRLSTREAM_RETURN_NOT_OK(PolicyBound(policy));
    if (req.mode != ScheduleMode::kExplore) return Status::OK();
    return rng.DeserializeState(req.rng_state);
  }

  bool Batched() const {
    return status.ok() && req.mode == ScheduleMode::kExplore;
  }

  /// The reply payload once the batch has run. Greedy/final are computed
  /// here: const policy calls, so after the explore GEMM is as good as
  /// before it.
  StatusOr<std::string> Reply() {
    DRLSTREAM_RETURN_NOT_OK(status);
    const rl::Policy* policy = item->session->policy;
    GetScheduleResponse body;
    StatusOr<sched::Schedule> schedule = Status::Internal("unset");
    switch (req.mode) {
      case ScheduleMode::kExplore:
        schedule = std::move(action.schedule);
        body.move_index = action.move_index;
        body.rng_state = rng.SerializeState();
        break;
      case ScheduleMode::kGreedy:
        schedule = policy->GreedyAction(req.state);
        break;
      case ScheduleMode::kFinal:
        schedule = policy->FinalSchedule(req.state);
        break;
    }
    DRLSTREAM_RETURN_NOT_OK(schedule.status());
    if (schedule->num_executors() !=
            static_cast<int>(req.state.assignments.size()) ||
        schedule->num_machines() != req.num_machines) {
      return Status::Internal(
          "agent: policy schedule dimensions do not match the request state");
    }
    body.diff = MakeScheduleDiffFromState(req.state, *schedule);
    return EncodeGetScheduleResponse(Status::OK(), body);
  }
};

AgentServer::AgentServer(rl::Policy* policy, AgentServerOptions options)
    : shared_policy_(policy),
      pool_(std::make_unique<ExperiencePool>(policy)),
      options_(options) {}

AgentServer::AgentServer(const rl::PolicyContext* context,
                         std::string default_key, AgentServerOptions options)
    : context_(context),
      default_key_(std::move(default_key)),
      options_(options) {}

AgentServer::~AgentServer() { Stop(); }

void AgentServer::Stop() {
  stop_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mutex_);
  if (wakeup_) wakeup_->Wake();
}

void AgentServer::RequestStop() {
  stop_.store(true, std::memory_order_release);
  // WakeupPipe::Wake is an atomic exchange plus at most one write(2), both
  // async-signal-safe; the raw mirror avoids mutex_ (which the loop thread
  // may hold when the signal lands).
  net::WakeupPipe* wakeup = wakeup_raw_.load(std::memory_order_acquire);
  if (wakeup != nullptr) wakeup->Wake();
}

Status AgentServer::EnsureWakeup() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!wakeup_) {
    DRLSTREAM_ASSIGN_OR_RETURN(wakeup_, net::WakeupPipe::Create());
    wakeup_raw_.store(wakeup_.get(), std::memory_order_release);
  }
  return Status::OK();
}

StatusOr<uint64_t> AgentServer::AddSession(
    std::unique_ptr<net::Transport> transport) {
  if (transport == nullptr) {
    return Status::InvalidArgument("agent: AddSession with null transport");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t id = ++next_session_id_;
  pending_sessions_.emplace_back(id, std::move(transport));
  if (wakeup_) wakeup_->Wake();
  return id;
}

bool AgentServer::Timed() const {
  return obs::MetricsEnabled() || obs::TraceEnabled() ||
         options_.slow_rpc_ms > 0.0 || http_ != nullptr;
}

void AgentServer::Admit(std::unique_ptr<net::Transport> transport,
                        uint64_t id) {
  const ServerMetrics& metrics = ServerMetrics::Get();
  if (static_cast<int>(sessions_.size()) >= options_.max_sessions) {
    (void)transport->Send(net::EncodeFrame(
        net::MsgType::kErrorResponse,
        EncodeErrorResponse(
            Status::Unavailable("agent: session limit reached"))));
    transport->Close();
    return;
  }
  Session& session = sessions_[id];
  session.id = id;
  session.transport = std::move(transport);
  session.policy = shared_policy_;  // nullptr in registry mode until Hello
  if (Timed()) session.stats.created_us = obs::Tracer::Get().NowUs();
  ++sessions_opened_;
  metrics.connections->Add();
  metrics.sessions->Set(static_cast<double>(sessions_.size()));
  metrics.opened->Add();
}

void AgentServer::AdoptPendingSessionsLocked() {
  std::deque<std::pair<uint64_t, std::unique_ptr<net::Transport>>> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.swap(pending_sessions_);
  }
  for (auto& [id, transport] : pending) Admit(std::move(transport), id);
}

bool AgentServer::SessionDead(const Session& session) const {
  if (session.peer_gone) return true;
  return (session.killed || session.draining) && session.outbox.empty();
}

void AgentServer::ReapDeadSessions() {
  const ServerMetrics& metrics = ServerMetrics::Get();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (SessionDead(it->second)) {
      const Session& session = it->second;
      metrics.closed->Add();
      if (session.peer_gone) metrics.peer_gone->Add();
      if (session.rx_poisoned) metrics.rx_poisoned->Add();
      if (session.killed) metrics.killed->Add();
      it->second.transport->Close();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  metrics.sessions->Set(static_cast<double>(sessions_.size()));
}

void AgentServer::PumpSession(Session* session, std::vector<WorkItem>* work) {
  if (session->rx_poisoned || session->draining || session->killed ||
      session->peer_gone) {
    session->rx_pending = false;
    return;
  }
  const ServerMetrics& metrics = ServerMetrics::Get();
  const bool timed = Timed();
  int pumped = 0;
  while (pumped < kMaxFramesPerSessionPerIteration) {
    StatusOr<std::string> raw = session->transport->TryRecv();
    if (!raw.ok()) {
      const StatusCode code = raw.status().code();
      if (code == StatusCode::kDeadlineExceeded) break;  // nothing buffered
      if (code == StatusCode::kUnavailable) {
        // Peer hung up; frames already pumped still get processed.
        session->peer_gone = true;
        break;
      }
      // Framing violation: the stream offset can't be trusted any more.
      // The error reply slots in *after* this session's valid frames.
      session->rx_poisoned = true;
      work->push_back(WorkItem{session, net::Frame{}, raw.status()});
      break;
    }
    session->stats.bytes_in += static_cast<int64_t>(raw->size());
    metrics.bytes_in->Add(static_cast<int64_t>(raw->size()));
    StatusOr<net::Frame> frame = net::DecodeFrame(std::move(*raw));
    if (!frame.ok()) {
      session->rx_poisoned = true;
      work->push_back(WorkItem{session, net::Frame{}, frame.status()});
      break;
    }
    WorkItem item{session, std::move(*frame), Status::OK()};
    if (timed) {
      item.recv_us = obs::Tracer::Get().NowUs();
      session->stats.last_activity_us = item.recv_us;
    }
    work->push_back(std::move(item));
    ++pumped;
  }
  // Fairness cap hit: frames may remain in the transport's buffer, not the
  // kernel's, so poll alone would not re-schedule this session.
  session->rx_pending = pumped >= kMaxFramesPerSessionPerIteration;
  if (pumped > 0) metrics.queue_depth->Record(static_cast<double>(pumped));
}

void AgentServer::ProcessWork(std::vector<WorkItem>* work) {
  const ServerMetrics& metrics = ServerMetrics::Get();
  const bool timed = Timed();
  std::vector<GetItem> batch;
  for (const WorkItem& item : *work) {
    Session* session = item.session;
    // After a kill or a framing violation the session takes no further
    // service this iteration.
    if (session->killed || session->draining) continue;
    metrics.requests->Add();
    if (!item.rx_error.ok()) {
      FlushGetBatch(&batch);  // keep outbox append order
      metrics.errors->Add();
      // No decoded frame: the error goes out untimed, with a zero envelope.
      Reply(item, item.rx_error, 0.0, 1);
      session->draining = true;
      continue;
    }
    const net::MsgType type = item.frame.type;
    SessionStats& stats = session->stats;
    ++stats.requests;
    if (type == net::MsgType::kGetScheduleRequest) ++stats.get_schedules;
    if (type == net::MsgType::kObserveRequest) ++stats.observes;
    if (type == net::MsgType::kTrainStepRequest) ++stats.train_steps;
    if (IsPolicyRpc(type) && options_.max_requests > 0 &&
        ++session->policy_requests > options_.max_requests) {
      // max_requests exhausted: simulate the agent dying mid-run. No reply
      // to this request; already-admitted batch items and the outbox still
      // flush, then the connection closes — exactly the replies the
      // sequential server would have delivered.
      session->killed = true;
      continue;
    }
    if (type == net::MsgType::kGetScheduleRequest) {
      GetItem get;
      get.item = &item;
      get.status = get.Prepare(session->policy);
      batch.push_back(std::move(get));
      continue;
    }
    // Mutating (or at least non-batchable) request: flush the pending
    // GEMM first so processing order matches sequential serving.
    FlushGetBatch(&batch);
    const double start_us = timed ? obs::Tracer::Get().NowUs() : 0.0;
    Reply(item, Serve(item), start_us, 1);
  }
  FlushGetBatch(&batch);
}

void AgentServer::FlushGetBatch(std::vector<GetItem>* batch) {
  if (batch->empty()) return;
  const ServerMetrics& metrics = ServerMetrics::Get();
  const double start_us = Timed() ? obs::Tracer::Get().NowUs() : 0.0;

  // Fuse the kExplore slots, grouped by policy instance in first-appearance
  // order. Per-session policies make these groups of one; the shared-policy
  // server turns the whole run into a single ForwardBatch GEMM.
  std::vector<rl::Policy*> policies;
  for (const GetItem& get : *batch) {
    rl::Policy* policy = get.item->session->policy;
    if (get.Batched() &&
        std::find(policies.begin(), policies.end(), policy) == policies.end()) {
      policies.push_back(policy);
    }
  }
  std::vector<GetItem*> group;
  std::vector<rl::DecisionRequest> slots;
  for (rl::Policy* policy : policies) {
    group.clear();
    slots.clear();
    for (GetItem& get : *batch) {
      if (!get.Batched() || get.item->session->policy != policy) continue;
      group.push_back(&get);
      rl::DecisionRequest slot;
      slot.state = &get.req.state;
      slot.epsilon = get.req.epsilon;
      slot.rng = &get.rng;
      slot.out = &get.action;
      slots.push_back(slot);
    }
    policy->SelectActionBatch(slots.data(), static_cast<int>(slots.size()));
    const int width = static_cast<int>(slots.size());
    metrics.batch_size->Record(width);
    metrics.batch_width->Record(width);
    for (size_t i = 0; i < group.size(); ++i) {
      group[i]->status = slots[i].status;
      group[i]->batch_width = width;
      SessionStats& stats = group[i]->item->session->stats;
      if (width > 1) ++stats.batched_requests;
      stats.max_batch_width = std::max<int64_t>(stats.max_batch_width, width);
    }
  }

  // Replies leave in arrival order, which keeps per-session order intact.
  for (GetItem& get : *batch) {
    Reply(*get.item, get.Reply(), start_us, get.batch_width);
  }
  batch->clear();
}

StatusOr<std::string> AgentServer::Serve(const WorkItem& item) {
  Session* session = item.session;
  const net::Frame& frame = item.frame;
  switch (frame.type) {
    case net::MsgType::kHelloRequest:
      return Hello(session, frame.payload);
    case net::MsgType::kPing: {
      // The Pong echoes the token back, stamped with the server's receive
      // and transmit times (tracer-epoch us) so the client can estimate
      // the clock offset. The stamps are the reply, so they are read
      // whether or not anything observes the server.
      DRLSTREAM_ASSIGN_OR_RETURN(PingMessage ping,
                                 DecodePingMessage(frame.payload));
      ping.server_recv_us =
          item.recv_us > 0.0 ? item.recv_us : obs::Tracer::Get().NowUs();
      ping.server_send_us = obs::Tracer::Get().NowUs();
      return EncodePingMessage(ping);
    }
    case net::MsgType::kObserveRequest: {
      DRLSTREAM_RETURN_NOT_OK(PolicyBound(session->policy));
      DRLSTREAM_ASSIGN_OR_RETURN(ObserveRequest request,
                                 DecodeObserveRequest(frame.payload));
      if (pool_ != nullptr) {
        pool_->Observe(session->id, std::move(request.transition));
      } else {
        session->policy->Observe(std::move(request.transition));
      }
      return EncodeObserveResponse(Status::OK());
    }
    case net::MsgType::kTrainStepRequest: {
      DRLSTREAM_RETURN_NOT_OK(PolicyBound(session->policy));
      DRLSTREAM_ASSIGN_OR_RETURN(TrainStepRequest request,
                                 DecodeTrainStepRequest(frame.payload));
      TrainStepResponse body;
      for (int i = 0; i < request.steps; ++i) {
        body.loss =
            pool_ != nullptr ? pool_->TrainStep() : session->policy->TrainStep();
      }
      return EncodeTrainStepResponse(Status::OK(), body);
    }
    case net::MsgType::kSaveArtifactRequest: {
      DRLSTREAM_RETURN_NOT_OK(PolicyBound(session->policy));
      DRLSTREAM_ASSIGN_OR_RETURN(SaveArtifactRequest request,
                                 DecodeSaveArtifactRequest(frame.payload));
      DRLSTREAM_RETURN_NOT_OK(session->policy->Save(request.prefix));
      return EncodeSaveArtifactResponse(Status::OK());
    }
    default:
      // A response type (or Pong) arriving as a request: protocol misuse.
      return Status::InvalidArgument(
          std::string("agent: unexpected request type ") +
          net::MsgTypeName(frame.type));
  }
}

StatusOr<std::string> AgentServer::Hello(Session* session,
                                         std::string_view payload) {
  DRLSTREAM_ASSIGN_OR_RETURN(HelloRequest request,
                             DecodeHelloRequest(payload));
  session->stats.client_name = request.client_name;
  if (session->policy == nullptr) {
    // Registry mode, first Hello: bind this session's own policy instance.
    const std::string& key =
        request.policy_key.empty() ? default_key_ : request.policy_key;
    DRLSTREAM_ASSIGN_OR_RETURN(
        session->owned_policy,
        rl::PolicyRegistry::Get().Create(key, *context_));
    session->policy = session->owned_policy.get();
  }
  session->stats.policy_key = session->policy->registry_key();
  // A repeated Hello re-describes the bound policy; it never rebinds (the
  // session would lose its learned weights mid-run).
  HelloResponse body;
  body.policy_name = session->policy->name();
  body.registry_key = session->policy->registry_key();
  body.description = session->policy->Describe();
  body.trainable = session->policy->trainable();
  body.session_id = session->id;
  return EncodeHelloResponse(Status::OK(), body);
}

void AgentServer::Reply(const WorkItem& item, StatusOr<std::string> reply,
                        double start_us, int batch_width) {
  Session* session = item.session;
  const net::MsgType type = item.frame.type;
  const ServerMetrics& metrics = ServerMetrics::Get();
  const net::MsgType reply_type = ReplyType(type, reply.ok());
  const std::string payload =
      reply.ok() ? std::move(*reply) : EncodeErrorResponse(reply.status());
  std::string frame =
      net::EncodeFrame(reply_type, payload, item.frame.trace);
  session->stats.bytes_out += static_cast<int64_t>(frame.size());
  metrics.bytes_out->Add(static_cast<int64_t>(frame.size()));
  session->outbox.push_back(std::move(frame));
  if (start_us <= 0.0) return;  // untimed

  const double end_us = obs::Tracer::Get().NowUs();
  metrics.request_us->Record(end_us - start_us);
  // A GetSchedule waits in its batch until the flush starts serving it.
  const double queue_wait_us =
      type == net::MsgType::kGetScheduleRequest && item.recv_us > 0.0
          ? start_us - item.recv_us
          : -1.0;
  if (queue_wait_us >= 0.0) metrics.queue_wait_us->Record(queue_wait_us);
  if (obs::TraceEnabled()) {
    obs::Tracer::Get().AddWallSpan(
        SpanName(type), item.recv_us > 0.0 ? item.recv_us : start_us, end_us,
        SpanArgs(item.frame.trace, session->id, batch_width, queue_wait_us));
  }
  if (options_.slow_rpc_ms <= 0.0 || item.recv_us <= 0.0) return;
  const double took_ms = (end_us - item.recv_us) / 1000.0;
  if (took_ms <= options_.slow_rpc_ms) return;
  metrics.slow_rpcs->Add();
  DRLSTREAM_LOG(kWarning) << "agent: slow rpc " << net::MsgTypeName(type)
                          << " session=" << session->id
                          << " trace_id=" << item.frame.trace.trace_id
                          << " took " << took_ms << " ms (threshold "
                          << options_.slow_rpc_ms << " ms)";
}

void AgentServer::FlushOutbox(Session* session) {
  if (!session->outbox.empty()) {
    ServerMetrics::Get().outbox_depth->Record(
        static_cast<double>(session->outbox.size()));
  }
  // The socket may accept part of a frame; outbox_off tracks the flushed
  // prefix of the front frame until POLLOUT re-arms us.
  while (!session->outbox.empty()) {
    const std::string& frame = session->outbox.front();
    StatusOr<size_t> sent =
        session->transport->TrySend(frame, session->outbox_off);
    if (!sent.ok()) {
      session->peer_gone = true;
      break;
    }
    if (*sent == 0) break;  // would block; POLLOUT re-arms the flush
    session->outbox_off += *sent;
    if (session->outbox_off >= frame.size()) {
      session->outbox.pop_front();
      session->outbox_off = 0;
    }
  }
}

std::string AgentServer::StatuszJson() const {
  std::ostringstream out;
  out << "{\"uptime_us\": "
      << static_cast<int64_t>(obs::Tracer::Get().NowUs())
      << ", \"mode\": \""
      << (shared_policy_ != nullptr ? "shared" : "registry")
      << "\", \"sessions_active\": " << sessions_.size()
      << ", \"sessions_total\": " << sessions_opened_
      << ", \"sessions\": [";
  bool first = true;
  for (const auto& [id, session] : sessions_) {
    if (!first) out << ", ";
    first = false;
    const SessionStats& stats = session.stats;
    const char* state = "active";
    if (session.peer_gone) state = "peer_gone";
    else if (session.rx_poisoned) state = "rx_poisoned";
    else if (session.killed) state = "killed";
    else if (session.draining) state = "draining";
    out << "{\"id\": " << id << ", \"client\": \""
        << obs::JsonEscape(stats.client_name) << "\", \"policy_key\": \""
        << obs::JsonEscape(stats.policy_key) << "\", \"state\": \"" << state
        << "\", \"requests\": " << stats.requests
        << ", \"get_schedules\": " << stats.get_schedules
        << ", \"observes\": " << stats.observes
        << ", \"train_steps\": " << stats.train_steps
        << ", \"bytes_in\": " << stats.bytes_in
        << ", \"bytes_out\": " << stats.bytes_out
        << ", \"outbox_frames\": " << session.outbox.size()
        << ", \"batched_requests\": " << stats.batched_requests
        << ", \"max_batch_width\": " << stats.max_batch_width
        << ", \"created_us\": " << static_cast<int64_t>(stats.created_us)
        << ", \"last_activity_us\": "
        << static_cast<int64_t>(stats.last_activity_us) << "}";
  }
  out << "]}";
  return out.str();
}

StatusOr<int> AgentServer::BindHttp() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) {
      return Status::FailedPrecondition(
          "agent: BindHttp must run before the event loop starts");
    }
  }
  if (http_ != nullptr) {
    return Status::FailedPrecondition("agent: HTTP endpoint already bound");
  }
  if (options_.http_port < 0) {
    return Status::InvalidArgument(
        "agent: BindHttp with http_port < 0 (endpoint disabled)");
  }
  DRLSTREAM_ASSIGN_OR_RETURN(
      http_, HttpIntrospect::Bind(options_.http_host, options_.http_port));
  return http_->port();
}

Status AgentServer::ServeTcp(net::TcpListener* listener) {
  return RunLoop(listener);
}

Status AgentServer::Run() { return RunLoop(nullptr); }

Status AgentServer::RunLoop(net::TcpListener* listener) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) {
      return Status::FailedPrecondition(
          "agent: server event loop already running");
    }
    running_ = true;
  }
  DRLSTREAM_RETURN_NOT_OK(EnsureWakeup());
  if (http_ == nullptr && options_.http_port >= 0) {
    DRLSTREAM_ASSIGN_OR_RETURN(
        http_, HttpIntrospect::Bind(options_.http_host, options_.http_port));
  }
  // The introspection handler runs on this thread (between poll()s), so it
  // reads sessions_ and the metrics registry without locks.
  const HttpIntrospect::Handler http_handler =
      [this](const std::string& path) -> HttpResponse {
    if (path == "/metrics") {
      return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                          obs::ToPrometheusText(
                              obs::MetricsRegistry::Get().Snapshot())};
    }
    if (path == "/statusz") {
      return HttpResponse{200, "application/json", StatuszJson()};
    }
    if (path == "/") {
      return HttpResponse{200, "text/plain; charset=utf-8",
                          "drlstream agent server\n/metrics  Prometheus "
                          "exposition\n/statusz  JSON session table\n"};
    }
    return HttpResponse{404, "text/plain; charset=utf-8", "not found\n"};
  };

  // Everything below runs on this (the loop) thread; cleanup closes all
  // sessions so peers see kUnavailable even mid-RPC.
  struct LoopCleanup {
    AgentServer* server;
    ~LoopCleanup() {
      for (auto& [id, session] : server->sessions_) {
        session.transport->Close();
      }
      server->sessions_.clear();
      ServerMetrics::Get().sessions->Set(0.0);
      std::lock_guard<std::mutex> lock(server->mutex_);
      server->running_ = false;
    }
  } cleanup{this};

  bool listener_alive = listener != nullptr;
  std::vector<struct pollfd> pfds;
  std::vector<Session*> polled;  // pfds index -> session (or nullptr)
  std::vector<WorkItem> work;

  while (!stop_.load(std::memory_order_acquire)) {
    AdoptPendingSessionsLocked();

    // Exit check: ServeTcp ends when the listener is closed and drained.
    if (listener != nullptr && !listener_alive && sessions_.empty()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_sessions_.empty()) break;
    }

    // Build the poll set: wake pipe, listener, then sessions.
    pfds.clear();
    polled.clear();
    pfds.push_back({wakeup_->fd(), POLLIN, 0});
    polled.push_back(nullptr);
    if (listener_alive) {
      pfds.push_back({listener->readiness_fd(), POLLIN, 0});
      polled.push_back(nullptr);
    }
    int timeout_ms = options_.poll_timeout_ms;
    for (auto& [id, session] : sessions_) {
      session.revents = 0;
      if (session.rx_pending) timeout_ms = 0;
      short events = 0;
      if (!session.rx_poisoned && !session.draining && !session.killed &&
          !session.peer_gone) {
        events |= POLLIN;
      }
      if (!session.outbox.empty()) events |= POLLOUT;
      if (events != 0) {
        pfds.push_back({session.transport->readiness_fd(), events, 0});
        polled.push_back(&session);
      }
    }
    const size_t http_first = pfds.size();
    const size_t http_count = http_ != nullptr ? http_->AppendPollFds(&pfds) : 0;
    polled.resize(polled.size() + http_count, nullptr);
    const int ready =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      return Status::IoError("agent: poll failed");
    }
    if (ready > 0) {
      for (size_t i = 0; i < pfds.size(); ++i) {
        if (polled[i] != nullptr) polled[i]->revents = pfds[i].revents;
      }
      if (http_count > 0) {
        http_->OnPollResults(pfds.data() + http_first, http_count,
                             http_handler);
      }
    }
    wakeup_->Drain();

    // Accept everything that is ready; ids are assigned in accept order.
    if (listener_alive) {
      while (true) {
        StatusOr<std::unique_ptr<net::Transport>> conn = listener->Accept();
        if (!conn.ok()) {
          const StatusCode code = conn.status().code();
          if (code == StatusCode::kDeadlineExceeded) break;
          if (code == StatusCode::kUnavailable) {
            listener_alive = false;  // closed: serve out existing sessions
            break;
          }
          return conn.status();
        }
        uint64_t id = 0;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          id = ++next_session_id_;
        }
        Admit(std::move(*conn), id);
      }
    }

    // Pump sessions with traffic, in canonical (session id) order —
    // iterating the id-ordered map keeps the ordering rule deterministic
    // no matter which subset is ready. Poll-flagged sessions and the
    // fairness-cap carry-over only: idle sessions cost no TryRecv probe.
    work.clear();
    for (auto& [id, session] : sessions_) {
      if (session.rx_pending ||
          (session.revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        PumpSession(&session, &work);
      }
    }

    ProcessWork(&work);

    for (auto& [id, session] : sessions_) {
      FlushOutbox(&session);
    }
    ReapDeadSessions();
  }
  return Status::OK();
}

}  // namespace drlstream::ctrl
