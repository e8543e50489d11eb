#ifndef DRLSTREAM_NET_TCP_H_
#define DRLSTREAM_NET_TCP_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/transport.h"

namespace drlstream::net {

/// Connects to `host`:`port` and returns a frame-oriented transport over
/// the socket (TCP_NODELAY set; SIGPIPE suppressed per send). `host` is a
/// numeric IPv4 address or "localhost"; the control plane deliberately
/// avoids a resolver dependency — masters and agents address each other by
/// IP, like Storm's nimbus/supervisor config.
StatusOr<std::unique_ptr<Transport>> TcpConnect(const std::string& host,
                                                int port,
                                                int timeout_ms);

/// A listening socket accepting control-plane connections.
class TcpListener {
 public:
  /// Binds and listens on `host`:`port` (port 0 picks an ephemeral port,
  /// readable from port() — how the tests avoid fixed-port collisions).
  static StatusOr<std::unique_ptr<TcpListener>> Bind(const std::string& host,
                                                     int port);

  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  int port() const { return port_; }

  /// Accepts one pending connection without blocking: kDeadlineExceeded
  /// when none is pending, kUnavailable once Close() has been called.
  StatusOr<std::unique_ptr<Transport>> Accept();

  /// Accept() for a plain byte-stream protocol (the HTTP endpoint): the
  /// connected socket itself, which the caller closes. `peer`, when set,
  /// receives the remote "address:port".
  StatusOr<int> AcceptSocket(std::string* peer = nullptr);

  /// poll()-able descriptor: POLLIN means Accept() will likely succeed.
  int readiness_fd() const { return fd_; }

  /// Stops accepting; later Accept calls return kUnavailable. Idempotent.
  void Close();

 private:
  TcpListener(int fd, int port) : fd_(fd), port_(port) {}

  int fd_;
  int port_;
  std::atomic<bool> closed_{false};
};

}  // namespace drlstream::net

#endif  // DRLSTREAM_NET_TCP_H_
