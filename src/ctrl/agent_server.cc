#include "ctrl/agent_server.h"

#include <poll.h>

#include <chrono>
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

struct ServerMetrics {
  obs::Counter* requests;
  obs::Counter* errors;
  obs::Counter* connections;
  obs::Histogram* request_us;
  obs::Gauge* sessions;
  obs::Histogram* batch_size;
  obs::Histogram* queue_depth;

  static const ServerMetrics& Get() {
    static const ServerMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Get();
      return ServerMetrics{registry.counter("ctrl.server.requests"),
                           registry.counter("ctrl.server.errors"),
                           registry.counter("ctrl.server.connections"),
                           registry.histogram("ctrl.server.request_us"),
                           registry.gauge("ctrl.server.sessions"),
                           registry.histogram("ctrl.server.batch_size"),
                           registry.histogram("ctrl.server.queue_depth")};
    }();
    return metrics;
  }
};

/// Per-session aggregates (summed over sessions; the per-session split
/// lives in SessionStats and is served by /statusz).
struct SessionAggMetrics {
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

  static const SessionAggMetrics& Get() {
    static const SessionAggMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Get();
      return SessionAggMetrics{
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

Status NoPolicyBound() {
  return Status::FailedPrecondition(
      "agent: no policy bound to this session; send Hello with a valid "
      "policy key first");
}

int64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// A GetSchedule request parked until the batch flush. Keeping every
/// GetSchedule (explore, greedy, final, even ones that already failed to
/// decode) in the batch — instead of flushing on the non-batchable modes —
/// preserves per-session reply order for free: replies are emitted in batch
/// order, and batch order is arrival order. Only kExplore items actually
/// share a GEMM; greedy/final are const policy calls, so computing them at
/// flush time is order-indifferent.
struct AgentServer::GetItem {
  Session* session = nullptr;
  GetScheduleRequest req;
  Rng rng{0};               // restored exploration stream (kExplore)
  rl::PolicyAction action;  // batched SelectAction result (kExplore)
  Status action_status;     // per-slot status from SelectActionBatch
  std::string reply;        // fully framed response, when `ready`
  bool ready = false;       // reply decided without consulting the policy
  net::TraceContext trace;  // request envelope, echoed on the reply
  double recv_us = 0.0;     // receive stamp (0 when obs was off)
  int batch_width = 1;      // fused GEMM width this item was served in
};

namespace {

/// Encodes a GetScheduleResponse directly as a wire frame (header +
/// payload in one buffer): this is the reply the server emits once per
/// schedule, so it skips the payload-into-frame copy EncodeFrame makes.
std::string FrameGetScheduleReply(const Status& status,
                                  const GetScheduleResponse& body,
                                  net::TraceContext trace) {
  net::WireWriter writer;
  const size_t frame_start =
      net::BeginFrame(net::MsgType::kGetScheduleResponse, trace, &writer);
  EncodeGetScheduleResponseTo(status, body, &writer);
  net::EndFrame(frame_start, &writer);
  return writer.Release();
}

}  // namespace

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

uint64_t AgentServer::InstallSession(std::unique_ptr<net::Transport> transport,
                                     uint64_t id) {
  Session session;
  session.id = id;
  session.transport = std::move(transport);
  session.policy = shared_policy_;  // nullptr in registry mode until Hello
  Session& installed = sessions_[id];
  installed = std::move(session);
  ++sessions_opened_;
  if (obs::MetricsEnabled() || obs::TraceEnabled() || http_ != nullptr) {
    installed.stats.created_us = obs::Tracer::Get().NowUs();
  }
  const ServerMetrics& metrics = ServerMetrics::Get();
  metrics.connections->Add();
  metrics.sessions->Set(static_cast<double>(sessions_.size()));
  SessionAggMetrics::Get().opened->Add();
  return id;
}

void AgentServer::AdoptPendingSessionsLocked() {
  std::deque<std::pair<uint64_t, std::unique_ptr<net::Transport>>> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.swap(pending_sessions_);
  }
  for (auto& [id, transport] : pending) {
    if (static_cast<int>(sessions_.size()) >= options_.max_sessions) {
      (void)transport->Send(net::EncodeFrame(
          net::MsgType::kErrorResponse,
          EncodeErrorResponse(
              Status::Unavailable("agent: session limit reached"))));
      transport->Close();
      continue;
    }
    InstallSession(std::move(transport), id);
  }
}

bool AgentServer::SessionDead(const Session& session) const {
  if (session.peer_gone) return true;
  return (session.killed || session.draining) && session.outbox.empty();
}

void AgentServer::ReapDeadSessions() {
  const SessionAggMetrics& agg = SessionAggMetrics::Get();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (SessionDead(it->second)) {
      const Session& session = it->second;
      agg.closed->Add();
      if (session.peer_gone) agg.peer_gone->Add();
      if (session.rx_poisoned) agg.rx_poisoned->Add();
      if (session.killed) agg.killed->Add();
      it->second.transport->Close();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  ServerMetrics::Get().sessions->Set(static_cast<double>(sessions_.size()));
}

void AgentServer::PumpSession(Session* session, std::vector<WorkItem>* work) {
  if (session->rx_poisoned || session->draining || session->killed ||
      session->peer_gone) {
    session->rx_pending = false;
    return;
  }
  // One clock read per received frame, but only when something consumes
  // it (tracing, metrics, slow-rpc logging, or the live status page);
  // otherwise receiving stays free of clock syscalls.
  const bool stamp = obs::MetricsEnabled() || obs::TraceEnabled() ||
                     options_.slow_rpc_ms > 0.0 || http_ != nullptr;
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
      work->push_back(WorkItem{session, net::Frame{}, true, raw.status()});
      break;
    }
    session->stats.bytes_in += static_cast<int64_t>(raw->size());
    SessionAggMetrics::Get().bytes_in->Add(
        static_cast<int64_t>(raw->size()));
    StatusOr<net::Frame> frame = net::DecodeFrame(std::move(*raw));
    if (!frame.ok()) {
      session->rx_poisoned = true;
      work->push_back(WorkItem{session, net::Frame{}, true, frame.status()});
      break;
    }
    WorkItem item{session, std::move(*frame), false, Status::OK()};
    if (stamp) {
      item.recv_us = obs::Tracer::Get().NowUs();
      session->stats.last_activity_us = item.recv_us;
    }
    work->push_back(std::move(item));
    ++pumped;
  }
  // Fairness cap hit: frames may remain in the transport's buffer, not the
  // kernel's, so poll alone would not re-schedule this session.
  session->rx_pending = pumped >= kMaxFramesPerSessionPerIteration;
  if (pumped > 0) {
    ServerMetrics::Get().queue_depth->Record(static_cast<double>(pumped));
  }
}

void AgentServer::FlushGetBatch(std::vector<GetItem>* batch) {
  if (batch->empty()) return;
  const ServerMetrics& metrics = ServerMetrics::Get();
  const SessionAggMetrics& agg = SessionAggMetrics::Get();
  const auto start = std::chrono::steady_clock::now();
  const bool tracing = obs::TraceEnabled();
  const bool timing = tracing || options_.slow_rpc_ms > 0.0;
  const double flush_start_us = timing ? obs::Tracer::Get().NowUs() : 0.0;

  // Fuse the kExplore slots, grouped by policy instance in first-appearance
  // order. Per-session policies make these groups of one; the shared-policy
  // server turns the whole run into a single ForwardBatch GEMM.
  std::vector<rl::Policy*> policies;
  for (const GetItem& item : *batch) {
    if (item.ready || item.req.mode != ScheduleMode::kExplore) continue;
    bool seen = false;
    for (rl::Policy* policy : policies) seen |= (policy == item.session->policy);
    if (!seen) policies.push_back(item.session->policy);
  }
  std::vector<GetItem*> group;
  std::vector<rl::DecisionRequest> slots;
  for (rl::Policy* policy : policies) {
    group.clear();
    slots.clear();
    for (GetItem& item : *batch) {
      if (item.ready || item.req.mode != ScheduleMode::kExplore) continue;
      if (item.session->policy != policy) continue;
      group.push_back(&item);
      rl::DecisionRequest slot;
      slot.state = &item.req.state;
      slot.epsilon = item.req.epsilon;
      slot.rng = &item.rng;
      slot.out = &item.action;
      slots.push_back(slot);
    }
    policy->SelectActionBatch(slots.data(), static_cast<int>(slots.size()));
    metrics.batch_size->Record(static_cast<double>(slots.size()));
    agg.batch_width->Record(static_cast<double>(slots.size()));
    const int width = static_cast<int>(slots.size());
    for (size_t i = 0; i < group.size(); ++i) {
      group[i]->action_status = slots[i].status;
      group[i]->batch_width = width;
      SessionStats& stats = group[i]->session->stats;
      if (width > 1) ++stats.batched_requests;
      if (width > stats.max_batch_width) stats.max_batch_width = width;
    }
  }

  // Emit replies in arrival order (this is what keeps per-session reply
  // order intact). Greedy/final are const policy calls: computing them
  // here, after the explore GEMM, cannot change any result.
  for (GetItem& item : *batch) {
    if (!item.ready) {
      const int base_executors =
          static_cast<int>(item.req.state.assignments.size());
      const bool explore = item.req.mode == ScheduleMode::kExplore;
      StatusOr<sched::Schedule> schedule = Status::Internal("unset");
      switch (item.req.mode) {
        case ScheduleMode::kExplore:
          if (item.action_status.ok()) {
            schedule = std::move(item.action.schedule);
          } else {
            schedule = item.action_status;
          }
          break;
        case ScheduleMode::kGreedy:
          schedule = item.session->policy->GreedyAction(item.req.state);
          break;
        case ScheduleMode::kFinal:
          schedule = item.session->policy->FinalSchedule(item.req.state);
          break;
      }
      if (!schedule.ok()) {
        item.reply = FrameGetScheduleReply(schedule.status(), {}, item.trace);
      } else if (schedule->num_executors() != base_executors ||
                 schedule->num_machines() != item.req.num_machines) {
        item.reply = FrameGetScheduleReply(
            Status::Internal("agent: policy schedule dimensions do not "
                             "match the request state"),
            {}, item.trace);
      } else {
        GetScheduleResponse body;
        body.diff = MakeScheduleDiffFromState(item.req.state, *schedule);
        if (explore) {
          body.move_index = item.action.move_index;
          body.rng_state = item.rng.SerializeState();
        }
        item.reply = FrameGetScheduleReply(Status::OK(), body, item.trace);
      }
    }
    item.session->stats.bytes_out += static_cast<int64_t>(item.reply.size());
    agg.bytes_out->Add(static_cast<int64_t>(item.reply.size()));
    if (timing) {
      const double end_us = obs::Tracer::Get().NowUs();
      const double queue_wait_us =
          item.recv_us > 0.0 ? flush_start_us - item.recv_us : -1.0;
      if (queue_wait_us >= 0.0) agg.queue_wait_us->Record(queue_wait_us);
      if (tracing) {
        const double start_us =
            item.recv_us > 0.0 ? item.recv_us : flush_start_us;
        obs::Tracer::Get().AddWallSpan(
            "agent.GetSchedule", start_us, end_us,
            SpanArgs(item.trace, item.session->id, item.batch_width,
                     queue_wait_us));
      }
      MaybeLogSlowRpc(*item.session, net::MsgType::kGetScheduleRequest,
                      item.trace, item.recv_us, end_us);
    }
    // `reply` is already a complete frame (FrameGetScheduleReply); hand it
    // to the outbox as-is.
    item.session->outbox.push_back(std::move(item.reply));
  }
  const int64_t per_item_us =
      ElapsedUs(start) / static_cast<int64_t>(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    metrics.request_us->Record(static_cast<double>(per_item_us));
  }
  batch->clear();
}

void AgentServer::HandleHello(Session* session, const net::Frame& frame) {
  StatusOr<HelloRequest> request = DecodeHelloRequest(frame.payload);
  if (!request.ok()) {
    AppendReply(session, net::MsgType::kHelloResponse,
                EncodeHelloResponse(request.status(), {}), frame.trace);
    return;
  }
  session->stats.client_name = request->client_name;
  if (session->policy == nullptr) {
    // Registry mode, first Hello: bind this session's own policy instance.
    const std::string& key =
        request->policy_key.empty() ? default_key_ : request->policy_key;
    StatusOr<std::unique_ptr<rl::Policy>> created =
        rl::PolicyRegistry::Get().Create(key, *context_);
    if (!created.ok()) {
      AppendReply(session, net::MsgType::kHelloResponse,
                  EncodeHelloResponse(created.status(), {}), frame.trace);
      return;
    }
    session->owned_policy = std::move(*created);
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
  AppendReply(session, net::MsgType::kHelloResponse,
              EncodeHelloResponse(Status::OK(), body), frame.trace);
}

void AgentServer::HandleSingle(Session* session, const net::Frame& frame,
                               double recv_us) {
  const ServerMetrics& metrics = ServerMetrics::Get();
  const auto start = std::chrono::steady_clock::now();
  const bool tracing = obs::TraceEnabled();
  const bool timing = tracing || options_.slow_rpc_ms > 0.0;
  net::MsgType reply_type = net::MsgType::kErrorResponse;
  std::string reply;
  switch (frame.type) {
    case net::MsgType::kHelloRequest:
      HandleHello(session, frame);
      metrics.request_us->Record(static_cast<double>(ElapsedUs(start)));
      if (timing) {
        const double end_us = obs::Tracer::Get().NowUs();
        if (tracing && recv_us > 0.0) {
          obs::Tracer::Get().AddWallSpan(
              "agent.Hello", recv_us, end_us,
              SpanArgs(frame.trace, session->id, 1, -1.0));
        }
        MaybeLogSlowRpc(*session, frame.type, frame.trace, recv_us, end_us);
      }
      return;
    case net::MsgType::kPing: {
      // The Pong echoes the token back, stamped with the server's receive
      // and transmit times (tracer-epoch us) so the client can estimate
      // the clock offset. A Pong has no status field, so an undecodable
      // Ping gets the generic error reply.
      StatusOr<PingMessage> ping = DecodePingMessage(frame.payload);
      if (!ping.ok()) {
        reply_type = net::MsgType::kErrorResponse;
        reply = EncodeErrorResponse(ping.status());
        break;
      }
      reply_type = net::MsgType::kPong;
      ping->server_recv_us =
          recv_us > 0.0 ? recv_us : obs::Tracer::Get().NowUs();
      ping->server_send_us = obs::Tracer::Get().NowUs();
      reply = EncodePingMessage(*ping);
      break;
    }
    case net::MsgType::kObserveRequest: {
      reply_type = net::MsgType::kObserveResponse;
      if (session->policy == nullptr) {
        reply = EncodeObserveResponse(NoPolicyBound());
        break;
      }
      StatusOr<ObserveRequest> request = DecodeObserveRequest(frame.payload);
      if (!request.ok()) {
        reply = EncodeObserveResponse(request.status());
        break;
      }
      if (pool_ != nullptr) {
        pool_->Observe(session->id, std::move(request->transition));
      } else {
        session->policy->Observe(std::move(request->transition));
      }
      reply = EncodeObserveResponse(Status::OK());
      break;
    }
    case net::MsgType::kTrainStepRequest: {
      reply_type = net::MsgType::kTrainStepResponse;
      if (session->policy == nullptr) {
        reply = EncodeTrainStepResponse(NoPolicyBound(), {});
        break;
      }
      StatusOr<TrainStepRequest> request =
          DecodeTrainStepRequest(frame.payload);
      if (!request.ok()) {
        reply = EncodeTrainStepResponse(request.status(), {});
        break;
      }
      TrainStepResponse body;
      for (int i = 0; i < request->steps; ++i) {
        body.loss =
            pool_ != nullptr ? pool_->TrainStep() : session->policy->TrainStep();
      }
      reply = EncodeTrainStepResponse(Status::OK(), body);
      break;
    }
    case net::MsgType::kSaveArtifactRequest: {
      reply_type = net::MsgType::kSaveArtifactResponse;
      if (session->policy == nullptr) {
        reply = EncodeSaveArtifactResponse(NoPolicyBound());
        break;
      }
      StatusOr<SaveArtifactRequest> request =
          DecodeSaveArtifactRequest(frame.payload);
      if (!request.ok()) {
        reply = EncodeSaveArtifactResponse(request.status());
        break;
      }
      reply = EncodeSaveArtifactResponse(session->policy->Save(request->prefix));
      break;
    }
    default:
      // A response type (or Pong) arriving as a request: protocol misuse.
      reply_type = net::MsgType::kErrorResponse;
      reply = EncodeErrorResponse(Status::InvalidArgument(
          std::string("agent: unexpected request type ") +
          net::MsgTypeName(frame.type)));
      break;
  }
  AppendReply(session, reply_type, reply, frame.trace);
  metrics.request_us->Record(static_cast<double>(ElapsedUs(start)));
  if (timing) {
    const double end_us = obs::Tracer::Get().NowUs();
    if (tracing && recv_us > 0.0) {
      obs::Tracer::Get().AddWallSpan(
          std::string("agent.") + net::MsgTypeName(frame.type), recv_us,
          end_us, SpanArgs(frame.trace, session->id, 1, -1.0));
    }
    MaybeLogSlowRpc(*session, frame.type, frame.trace, recv_us, end_us);
  }
}

void AgentServer::ProcessWork(std::vector<WorkItem>* work) {
  const ServerMetrics& metrics = ServerMetrics::Get();
  std::vector<GetItem> batch;
  for (WorkItem& item : *work) {
    Session* session = item.session;
    // After a kill or a framing violation the session takes no further
    // service this iteration.
    if (session->killed || session->draining) continue;
    metrics.requests->Add();
    if (item.is_rx_error) {
      FlushGetBatch(&batch);  // keep outbox append order
      metrics.errors->Add();
      // No decoded frame to echo an envelope from: reply with zeros.
      AppendReply(session, net::MsgType::kErrorResponse,
                  EncodeErrorResponse(item.rx_error), net::TraceContext{});
      session->draining = true;
      continue;
    }
    const net::Frame& frame = item.frame;
    ++session->stats.requests;
    switch (frame.type) {
      case net::MsgType::kGetScheduleRequest:
        ++session->stats.get_schedules;
        break;
      case net::MsgType::kObserveRequest:
        ++session->stats.observes;
        break;
      case net::MsgType::kTrainStepRequest:
        ++session->stats.train_steps;
        break;
      default:
        break;
    }
    if (IsPolicyRpc(frame.type) && options_.max_requests > 0) {
      if (++session->policy_requests > options_.max_requests) {
        // max_requests exhausted: simulate the agent dying mid-run. No
        // reply to this request; already-admitted batch items and the
        // outbox still flush, then the connection closes — exactly the
        // replies the sequential server would have delivered.
        session->killed = true;
        continue;
      }
    }
    if (frame.type == net::MsgType::kGetScheduleRequest) {
      GetItem get;
      get.session = session;
      get.trace = frame.trace;
      get.recv_us = item.recv_us;
      StatusOr<GetScheduleRequest> request =
          DecodeGetScheduleRequest(frame.payload);
      if (!request.ok()) {
        get.ready = true;
        get.reply = FrameGetScheduleReply(request.status(), {}, get.trace);
      } else {
        get.req = std::move(*request);
        if (session->policy == nullptr) {
          get.ready = true;
          get.reply = FrameGetScheduleReply(NoPolicyBound(), {}, get.trace);
        } else if (get.req.mode == ScheduleMode::kExplore) {
          Status restored = get.rng.DeserializeState(get.req.rng_state);
          if (!restored.ok()) {
            get.ready = true;
            get.reply = FrameGetScheduleReply(restored, {}, get.trace);
          }
        }
      }
      batch.push_back(std::move(get));
      continue;
    }
    // Mutating (or at least non-batchable) request: flush the pending
    // GEMM first so processing order matches sequential serving.
    FlushGetBatch(&batch);
    HandleSingle(session, frame, item.recv_us);
  }
  FlushGetBatch(&batch);
}

void AgentServer::AppendReply(Session* session, net::MsgType type,
                              std::string_view payload,
                              net::TraceContext trace) {
  std::string reply = net::EncodeFrame(type, payload, trace);
  session->stats.bytes_out += static_cast<int64_t>(reply.size());
  SessionAggMetrics::Get().bytes_out->Add(static_cast<int64_t>(reply.size()));
  session->outbox.push_back(std::move(reply));
}

void AgentServer::FlushOutbox(Session* session) {
  if (!session->outbox.empty() && obs::MetricsEnabled()) {
    SessionAggMetrics::Get().outbox_depth->Record(
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

void AgentServer::MaybeLogSlowRpc(const Session& session, net::MsgType type,
                                  net::TraceContext trace, double recv_us,
                                  double end_us) {
  if (options_.slow_rpc_ms <= 0.0 || recv_us <= 0.0) return;
  const double took_ms = (end_us - recv_us) / 1000.0;
  if (took_ms <= options_.slow_rpc_ms) return;
  SessionAggMetrics::Get().slow_rpcs->Add();
  DRLSTREAM_LOG(kWarning) << "agent: slow rpc " << net::MsgTypeName(type)
                          << " session=" << session.id
                          << " trace_id=" << trace.trace_id << " took "
                          << took_ms << " ms (threshold "
                          << options_.slow_rpc_ms << " ms)";
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
        if (static_cast<int>(sessions_.size()) >= options_.max_sessions) {
          (void)(*conn)->Send(net::EncodeFrame(
              net::MsgType::kErrorResponse,
              EncodeErrorResponse(
                  Status::Unavailable("agent: session limit reached"))));
          (*conn)->Close();
          continue;
        }
        InstallSession(std::move(*conn), id);
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
