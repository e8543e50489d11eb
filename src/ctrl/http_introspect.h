#ifndef DRLSTREAM_CTRL_HTTP_INTROSPECT_H_
#define DRLSTREAM_CTRL_HTTP_INTROSPECT_H_

#include <poll.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/tcp.h"

namespace drlstream::ctrl {

/// What a handler returns for one GET.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// A deliberately minimal HTTP/1.0 responder for live introspection
/// (GET /metrics, GET /statusz), designed to be multiplexed into an
/// existing poll() event loop rather than to own a thread:
///
///   - AppendPollFds() contributes the listener + connection pollfds to
///     the loop's poll set (returns how many were added);
///   - OnPollResults() services exactly those entries: accepts, reads
///     request bytes, invokes the handler once a request line is complete,
///     and flushes the response.
///
/// Every socket call is non-blocking; a connection is served one request
/// and closed (Connection: close), which sidesteps keep-alive bookkeeping
/// entirely.
/// Requests are capped at kMaxRequestBytes; non-GET methods get 405,
/// oversized or malformed requests 400. All parsing and handler execution
/// happen on the caller's (event-loop) thread, so handlers may read
/// loop-owned state without locks.
class HttpIntrospect {
 public:
  using Handler = std::function<HttpResponse(const std::string& path)>;

  static constexpr size_t kMaxRequestBytes = 8192;
  static constexpr int kMaxConnections = 32;

  /// Binds and listens on host:port through net::TcpListener (port 0 =
  /// ephemeral; see port()).
  static StatusOr<std::unique_ptr<HttpIntrospect>> Bind(
      const std::string& host, int port);

  ~HttpIntrospect();
  HttpIntrospect(const HttpIntrospect&) = delete;
  HttpIntrospect& operator=(const HttpIntrospect&) = delete;

  /// The bound TCP port.
  int port() const { return listener_->port(); }

  /// Appends the listener and every open connection to `pfds`; returns the
  /// number of entries added. Call once per loop iteration, immediately
  /// before poll().
  size_t AppendPollFds(std::vector<struct pollfd>* pfds);

  /// Services the `count` pollfd entries previously appended at `pfds`
  /// (the same iteration's results): accepts new connections, pumps
  /// request bytes, runs `handler` for completed requests, flushes and
  /// closes finished connections.
  void OnPollResults(const struct pollfd* pfds, size_t count,
                     const Handler& handler);

 private:
  struct Conn {
    int fd = -1;
    std::string in;        // request bytes until the blank line
    std::string out;       // rendered response awaiting flush
    size_t out_off = 0;
    bool responding = false;  // request parsed; draining `out`
  };

  explicit HttpIntrospect(std::unique_ptr<net::TcpListener> listener)
      : listener_(std::move(listener)) {}
  void ServiceConn(Conn* conn, const Handler& handler);
  void AcceptReady(const Handler& handler);

  std::unique_ptr<net::TcpListener> listener_;
  std::vector<Conn> conns_;
};

}  // namespace drlstream::ctrl

#endif  // DRLSTREAM_CTRL_HTTP_INTROSPECT_H_
