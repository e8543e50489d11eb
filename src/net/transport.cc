#include "net/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/wire.h"
#include "obs/metrics.h"

namespace drlstream::net {
namespace {

/// Registry handles for transport-level accounting: one bytes-in/out pair
/// for the control plane, whichever socket carries it.
struct NetMetrics {
  obs::Counter* frames_sent;
  obs::Counter* frames_recv;
  obs::Counter* bytes_sent;
  obs::Counter* bytes_recv;
};

const NetMetrics& Metrics() {
  static const NetMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
    return NetMetrics{
        reg.counter("net.frames_sent"),
        reg.counter("net.frames_recv"),
        reg.counter("net.bytes_sent"),
        reg.counter("net.bytes_recv"),
    };
  }();
  return metrics;
}

/// Cap on one blocking poll, so Close() from another thread is observed
/// promptly even by a Recv with an unbounded deadline.
constexpr int kPollSliceMs = 100;

Status ErrnoStatus(const std::string& what, int err) {
  return Status::IoError("net: " + what + ": " + std::strerror(err));
}

/// Milliseconds left until `deadline`; >= 0. A negative `timeout_ms`
/// (block forever) is represented by an unset deadline.
class Deadline {
 public:
  explicit Deadline(int timeout_ms) : unbounded_(timeout_ms < 0) {
    if (!unbounded_) {
      at_ = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(timeout_ms);
    }
  }
  int remaining_ms() const {
    if (unbounded_) return kPollSliceMs;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          at_ - std::chrono::steady_clock::now())
                          .count();
    return left > 0 ? static_cast<int>(left) : 0;
  }
  bool expired() const {
    return !unbounded_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool unbounded_;
  std::chrono::steady_clock::time_point at_;
};

}  // namespace

Transport::~Transport() {
  Close();
  // The fd stays open (only shut down) until destruction, so a thread
  // concurrently blocked in poll/recv can never observe a reused fd.
  ::close(fd_);
}

Status Transport::Send(std::string_view frame) {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("net: transport closed");
  }
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("net: peer closed (" + peer_ + ")");
      }
      return ErrnoStatus("send to " + peer_, errno);
    }
    sent += static_cast<size_t>(n);
  }
  Metrics().frames_sent->Add(1);
  Metrics().bytes_sent->Add(static_cast<int64_t>(frame.size()));
  return Status::OK();
}

StatusOr<size_t> Transport::TrySend(std::string_view frame, size_t offset) {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("net: transport closed");
  }
  const std::string_view bytes = frame.substr(offset);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("net: peer closed (" + peer_ + ")");
      }
      return ErrnoStatus("send to " + peer_, errno);
    }
    sent += static_cast<size_t>(n);
  }
  if (sent > 0) Metrics().bytes_sent->Add(static_cast<int64_t>(sent));
  if (sent > 0 && sent == bytes.size()) Metrics().frames_sent->Add(1);
  return sent;
}

StatusOr<std::string> Transport::Recv(int timeout_ms) {
  Deadline deadline(timeout_ms);
  while (true) {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("net: transport closed");
    }
    StatusOr<std::string> frame = TakeBufferedFrame();
    if (frame.ok() || frame.status().code() != StatusCode::kDeadlineExceeded) {
      return frame;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int slice = std::min(deadline.remaining_ms(), kPollSliceMs);
    const int ready = ::poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll on " + peer_, errno);
    }
    if (ready > 0) {
      Status filled = FillFromSocket();
      if (!filled.ok()) return DrainOrError(filled);
      continue;  // peel a frame before re-checking the deadline
    }
    if (deadline.expired()) {
      return Status::DeadlineExceeded("net: recv timed out (" + peer_ + ")");
    }
  }
}

StatusOr<std::string> Transport::TryRecv() {
  while (true) {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("net: transport closed");
    }
    StatusOr<std::string> frame = TakeBufferedFrame();
    if (frame.ok() || frame.status().code() != StatusCode::kDeadlineExceeded) {
      return frame;
    }
    bool got_bytes = false;
    Status filled = FillFromSocket(&got_bytes);
    if (!filled.ok()) return DrainOrError(filled);
    if (!got_bytes) {
      return Status::DeadlineExceeded("net: no frame buffered (" + peer_ +
                                      ")");
    }
  }
}

void Transport::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  ::shutdown(fd_, SHUT_RDWR);  // wakes a blocked peer and our own recv
}

StatusOr<std::string> Transport::TakeBufferedFrame() {
  if (rx_buf_.size() < kFrameHeaderBytes) {
    return Status::DeadlineExceeded("net: incomplete frame");
  }
  DRLSTREAM_ASSIGN_OR_RETURN(
      const FrameHeader header,
      ParseFrameHeader(std::string_view(rx_buf_).substr(0, kFrameHeaderBytes)));
  const size_t total = kFrameHeaderBytes + header.payload_size;
  if (rx_buf_.size() < total) {
    return Status::DeadlineExceeded("net: incomplete frame");
  }
  std::string frame = rx_buf_.substr(0, total);
  rx_buf_.erase(0, total);
  Metrics().frames_recv->Add(1);
  Metrics().bytes_recv->Add(static_cast<int64_t>(frame.size()));
  return frame;
}

Status Transport::FillFromSocket(bool* got_bytes) {
  if (got_bytes != nullptr) *got_bytes = false;
  char chunk[16384];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      rx_buf_.append(chunk, static_cast<size_t>(n));
      if (got_bytes != nullptr) *got_bytes = true;
      return Status::OK();
    }
    if (n == 0) {
      return Status::Unavailable("net: peer closed (" + peer_ + ")");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    if (errno == ECONNRESET) {
      return Status::Unavailable("net: peer reset (" + peer_ + ")");
    }
    return ErrnoStatus("recv from " + peer_, errno);
  }
}

StatusOr<std::string> Transport::DrainOrError(const Status& error) {
  StatusOr<std::string> frame = TakeBufferedFrame();
  if (frame.ok() || frame.status().code() != StatusCode::kDeadlineExceeded) {
    return frame;
  }
  return error;
}

StatusOr<std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>>
MakeLoopbackPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return ErrnoStatus("socketpair", errno);
  }
  return std::make_pair(std::make_unique<Transport>(fds[0], "loopback"),
                        std::make_unique<Transport>(fds[1], "loopback"));
}

}  // namespace drlstream::net
