#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace drlstream::net {
namespace {

Status ErrnoStatus(const std::string& what, int err) {
  return Status::IoError("tcp: " + what + ": " + std::strerror(err));
}

StatusOr<sockaddr_in> ResolveIpv4(const std::string& host, int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("tcp: port out of range: " +
                                   std::to_string(port));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        "tcp: '" + host + "' is not a numeric IPv4 address or 'localhost'");
  }
  return addr;
}

/// Wraps a connected TCP socket. Replies are small and latency-bound, so
/// Nagle's algorithm is turned off (TCP only: a unix socket refuses the
/// option with EOPNOTSUPP).
std::unique_ptr<Transport> MakeTcpTransport(int fd, std::string peer) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<Transport>(fd, std::move(peer));
}

}  // namespace

StatusOr<std::unique_ptr<Transport>> TcpConnect(const std::string& host,
                                                int port, int timeout_ms) {
  DRLSTREAM_ASSIGN_OR_RETURN(const sockaddr_in addr,
                             ResolveIpv4(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);

  // Non-blocking connect so the timeout is enforceable.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    if (err == ECONNREFUSED) {
      return Status::Unavailable("tcp: connection refused by " + host + ":" +
                                 std::to_string(port));
    }
    return ErrnoStatus("connect to " + host + ":" + std::to_string(port),
                       err);
  }
  if (rc < 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms < 0 ? -1 : timeout_ms);
    if (ready <= 0) {
      ::close(fd);
      return Status::DeadlineExceeded("tcp: connect to " + host + ":" +
                                      std::to_string(port) + " timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      if (err == ECONNREFUSED) {
        return Status::Unavailable("tcp: connection refused by " + host +
                                   ":" + std::to_string(port));
      }
      return ErrnoStatus("connect to " + host + ":" + std::to_string(port),
                         err);
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return MakeTcpTransport(fd, host + ":" + std::to_string(port));
}

StatusOr<std::unique_ptr<TcpListener>> TcpListener::Bind(
    const std::string& host, int port) {
  DRLSTREAM_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveIpv4(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus(
        "bind " + host + ":" + std::to_string(port), err);
  }
  if (::listen(fd, 8) < 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("listen", err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("getsockname", err);
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(bound.sin_port)));
}

TcpListener::~TcpListener() {
  Close();
  ::close(fd_);
}

StatusOr<std::unique_ptr<Transport>> TcpListener::Accept() {
  while (true) {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("tcp: listener closed");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 0);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll on listener", errno);
    }
    if (ready == 0) {
      return Status::DeadlineExceeded("tcp: no pending connection");
    }
    if ((pfd.revents & (POLLNVAL | POLLERR | POLLHUP)) != 0) {
      return Status::Unavailable("tcp: listener closed");
    }
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int conn =
        ::accept(fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("tcp: no pending connection");
      }
      if (errno == EBADF || errno == EINVAL) {
        return Status::Unavailable("tcp: listener closed");
      }
      return ErrnoStatus("accept", errno);
    }
    char buf[INET_ADDRSTRLEN] = {0};
    inet_ntop(AF_INET, &peer.sin_addr, buf, sizeof(buf));
    return MakeTcpTransport(
        conn, std::string(buf) + ":" + std::to_string(ntohs(peer.sin_port)));
  }
}

void TcpListener::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // The fd itself is closed in the destructor so a racing Accept never
  // polls a reused descriptor.
  ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace drlstream::net
