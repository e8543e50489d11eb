#ifndef DRLSTREAM_CTRL_AGENT_SERVER_H_
#define DRLSTREAM_CTRL_AGENT_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ctrl/http_introspect.h"
#include "ctrl/shared_replay.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "net/wakeup.h"
#include "net/wire.h"
#include "rl/policy.h"
#include "rl/policy_registry.h"

namespace drlstream::ctrl {

struct AgentServerOptions {
  /// Poll timeout of the event loop; shorter means faster reaction to
  /// Stop(), at the price of more wakeups.
  int poll_timeout_ms = 200;
  /// When > 0, the server closes a session *without replying* after this
  /// many policy RPCs (GetSchedule/Observe/TrainStep/SaveArtifact) on that
  /// session — the deterministic "agent dies mid-run" hook the degradation
  /// tests and the kill-the-agent experiment recipe use. 0 disables.
  /// Counted per session, matching the old one-connection-at-a-time server.
  int max_requests = 0;
  /// Hard cap on concurrent sessions; connections beyond it are refused
  /// with a kErrorResponse and closed.
  int max_sessions = 1024;
  /// Slow-request logging: a handled request whose server-side latency
  /// (receive -> reply encoded, queue wait included) exceeds this many
  /// milliseconds is logged at warning level with its trace id, and counts
  /// in ctrl.server.slow_rpcs. 0 disables (and keeps the per-frame clock
  /// read off the disabled path).
  double slow_rpc_ms = 0.0;
  /// Live introspection endpoint (GET /metrics, GET /statusz) multiplexed
  /// into the event loop's poll(). -1 disables; 0 binds an ephemeral port
  /// (call BindHttp before starting the loop to learn which).
  int http_port = -1;
  std::string http_host = "127.0.0.1";
};

/// Serves rl::Policy instances over Transports: the DRL agent side of the
/// paper's Section 3.1 split, where the agent runs outside the DSDPS and
/// each master's custom scheduler talks to it over the control plane.
///
/// One poll()-based event loop serves N concurrent sessions. Each session
/// is a framed connection with its own read/write buffering and its own
/// policy binding:
///
///  - Shared-policy mode (`AgentServer(policy, options)`): every session is
///    served by the one policy, and Observe/TrainStep flow through a
///    cross-session ExperiencePool — the paper's transition sample database
///    pooled across masters.
///  - Registry mode (`AgentServer(context, default_key, options)`): each
///    session gets its own policy instance, created through the
///    PolicyRegistry from the key in its Hello (empty key = default_key).
///    Sessions are fully independent; serving N masters is bit-identical
///    to serving each alone.
///
/// Determinism contract: requests are processed in a canonical total order
/// — ascending session id (accept order, not fd order), arrival order
/// within a session — and only maximal runs of consecutive GetSchedule
/// requests are fused into batched inference. Mutating requests (Observe,
/// TrainStep, SaveArtifact, Hello) flush the pending batch first, so the
/// responses are bit-identical to serving the same arrival order
/// sequentially.
class AgentServer {
 public:
  /// Shared-policy server: all sessions feed `policy` and its experience
  /// pool. `policy` must outlive the server. This is the drop-in
  /// equivalent of the old single-connection server.
  AgentServer(rl::Policy* policy, AgentServerOptions options);

  /// Registry-mode server: each session resolves its own policy through
  /// PolicyRegistry::Create against `*context` (which must outlive the
  /// server). Sessions must Hello before policy RPCs.
  AgentServer(const rl::PolicyContext* context, std::string default_key,
              AgentServerOptions options);

  ~AgentServer();

  /// Accept loop: serves all connections concurrently until Stop() or a
  /// hard listener error. The common agent-process main loop. A request
  /// that fails to decode gets a kErrorResponse reply and ends its
  /// connection — a peer speaking garbage cannot be trusted with framing.
  Status ServeTcp(net::TcpListener* listener);

  /// Runs the event loop with no listener: sessions arrive only through
  /// AddSession (e.g. MakeLoopbackPair ends). Returns after Stop().
  Status Run();

  /// Hands a connected transport to the server (thread-safe; wakes the
  /// loop). Returns the accept-order session id the server will use.
  /// The session starts being served once a loop (ServeTcp/Run) is
  /// running.
  StatusOr<uint64_t> AddSession(std::unique_ptr<net::Transport> transport);

  /// Makes the event loop return promptly, closing all sessions (peers see
  /// kUnavailable, even mid-RPC). Safe from any thread.
  void Stop();

  /// Async-signal-safe Stop(): flags the loop and pokes the wake pipe
  /// without taking locks (an atomic store + at most one pipe write). Safe
  /// from a SIGINT/SIGTERM handler once a serving call has started — the
  /// agent_server example installs exactly that so a traced server flushes
  /// its at-exit observability snapshots on Ctrl-C instead of dying with
  /// an unwritten trace buffer.
  void RequestStop();

  /// Binds the HTTP introspection listener eagerly and returns the bound
  /// port (options.http_port may be 0 for ephemeral). Call at most once,
  /// before the event loop starts; when never called, the loop binds from
  /// options_.http_port itself (if >= 0).
  StatusOr<int> BindHttp();

  /// The shared policy (nullptr in registry mode).
  rl::Policy* policy() const { return shared_policy_; }
  /// The cross-session pool (nullptr in registry mode).
  const ExperiencePool* experience_pool() const { return pool_.get(); }

 private:
  /// Per-session telemetry, updated only on the loop thread and rendered
  /// by /statusz. Plain integers (no atomics): always maintained, because
  /// the status page must work even when --metrics is off.
  struct SessionStats {
    std::string client_name;  // from the Hello
    std::string policy_key;   // resolved registry key (or shared policy's)
    int64_t requests = 0;     // every decoded frame
    int64_t get_schedules = 0;
    int64_t observes = 0;
    int64_t train_steps = 0;
    int64_t bytes_in = 0;   // framed bytes received
    int64_t bytes_out = 0;  // framed bytes enqueued for this session
    int64_t batched_requests = 0;  // GetSchedules served in a fused batch >1
    int64_t max_batch_width = 0;
    double created_us = 0.0;        // tracer-epoch; 0 when untimed
    double last_activity_us = 0.0;  // last received frame (tracer-epoch)
  };

  struct Session {
    uint64_t id = 0;
    std::unique_ptr<net::Transport> transport;
    rl::Policy* policy = nullptr;            // shared, or owned_policy.get()
    std::unique_ptr<rl::Policy> owned_policy;  // registry mode, post-Hello
    SessionStats stats;
    std::deque<std::string> outbox;  // encoded reply frames awaiting flush
    size_t outbox_off = 0;  // flushed prefix of outbox.front()
    short revents = 0;      // last poll() result
    // The fairness cap left complete frames in the transport's reassembly
    // buffer, where poll() cannot see them: pump again next iteration.
    bool rx_pending = false;
    int policy_requests = 0;                 // max_requests accounting
    bool draining = false;  // error reply queued; close once outbox empty
    bool rx_poisoned = false;  // framing violation: stop reading
    bool killed = false;       // max_requests tripped: close, no reply
    bool peer_gone = false;    // transport reported kUnavailable
  };

  /// One received frame (or terminal receive error) in the canonical
  /// processing order of an iteration.
  struct WorkItem {
    Session* session = nullptr;
    net::Frame frame;
    /// A framing violation: `frame` is empty and the reply is this error.
    Status rx_error;
    /// Tracer-epoch receive stamp; 0 when nothing reads it (see Timed).
    double recv_us = 0.0;
  };

  /// A GetSchedule awaiting the batched flush (keeps per-session reply
  /// order while letting consecutive requests share one GEMM).
  struct GetItem;

  /// Frames drained per session per loop iteration before yielding to the
  /// other sessions (fairness bound; leftovers set rx_pending).
  static constexpr int kMaxFramesPerSessionPerIteration = 64;

  Status RunLoop(net::TcpListener* listener);
  Status EnsureWakeup();
  /// The one enable predicate for request timing: whether metrics,
  /// tracing, the slow-RPC log or the HTTP endpoint will read a request's
  /// clock stamps. When false, serving a request reads no clock.
  bool Timed() const;
  /// Installs a session from AddSession or a TCP accept, or, at
  /// max_sessions, refuses it with a kErrorResponse and closes it.
  void Admit(std::unique_ptr<net::Transport> transport, uint64_t id);
  void AdoptPendingSessionsLocked();
  void PumpSession(Session* session, std::vector<WorkItem>* work);
  void ProcessWork(std::vector<WorkItem>* work);
  void FlushGetBatch(std::vector<GetItem>* batch);
  /// The reply payload to a non-GetSchedule request, or the error whose
  /// status envelope answers it.
  StatusOr<std::string> Serve(const WorkItem& item);
  StatusOr<std::string> Hello(Session* session, std::string_view payload);
  /// The one way out for a reply: frames it with the request's envelope
  /// (an error as its status envelope), counts its bytes and queues it;
  /// when `start_us` > 0, the time service began, it also records
  /// request_us, a GetSchedule's queue wait, the agent.<Type> span and the
  /// slow-RPC check.
  void Reply(const WorkItem& item, StatusOr<std::string> reply,
             double start_us, int batch_width);
  void FlushOutbox(Session* session);
  void ReapDeadSessions();
  bool SessionDead(const Session& session) const;
  /// The /statusz document: a JSON session table built on the loop thread.
  std::string StatuszJson() const;

  rl::Policy* shared_policy_ = nullptr;           // shared mode
  const rl::PolicyContext* context_ = nullptr;    // registry mode
  std::string default_key_;                       // registry mode
  std::unique_ptr<ExperiencePool> pool_;          // shared mode
  AgentServerOptions options_;
  std::atomic<bool> stop_{false};

  // Event-loop state; touched only by the loop thread while running.
  std::map<uint64_t, Session> sessions_;  // keyed by id => canonical order
  std::unique_ptr<HttpIntrospect> http_;  // bound pre-loop; serviced by loop
  uint64_t sessions_opened_ = 0;          // lifetime total, for /statusz

  // Cross-thread handoff (AddSession / Stop vs the loop thread).
  std::mutex mutex_;
  std::unique_ptr<net::WakeupPipe> wakeup_;              // guarded by mutex_
  // Lock-free mirror of wakeup_.get() for RequestStop(); set once by
  // EnsureWakeup before the loop runs and never reassigned after.
  std::atomic<net::WakeupPipe*> wakeup_raw_{nullptr};
  uint64_t next_session_id_ = 0;                         // guarded by mutex_
  std::deque<std::pair<uint64_t, std::unique_ptr<net::Transport>>>
      pending_sessions_;                                 // guarded by mutex_
  bool running_ = false;                                 // guarded by mutex_
};

}  // namespace drlstream::ctrl

#endif  // DRLSTREAM_CTRL_AGENT_SERVER_H_
