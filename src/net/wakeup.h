#ifndef DRLSTREAM_NET_WAKEUP_H_
#define DRLSTREAM_NET_WAKEUP_H_

#include <atomic>
#include <memory>

#include "common/status.h"

namespace drlstream::net {

/// The classic self-pipe: its read end is poll()-able, so an event loop can
/// sleep in one poll() covering its sockets *and* wake requests from other
/// threads (Stop(), session hand-offs). Wake() writes one byte (coalescing:
/// a full pipe is already a pending wake); Drain() empties the pipe after
/// poll returns. Both ends are non-blocking, so Wake never stalls the
/// waking thread.
class WakeupPipe {
 public:
  static StatusOr<std::unique_ptr<WakeupPipe>> Create();
  ~WakeupPipe();
  WakeupPipe(const WakeupPipe&) = delete;
  WakeupPipe& operator=(const WakeupPipe&) = delete;

  /// Thread-safe, non-blocking and async-signal-safe; one wake covers all
  /// events since the last Drain(). Coalesced: once armed, further Wake()
  /// calls skip the write syscall until the loop drains.
  void Wake();

  /// Empties the pipe and re-arms Wake(); call once per loop iteration
  /// after poll(). A Wake() racing with Drain() is never lost: either its
  /// byte survives the drain (next poll returns at once) or its event was
  /// published before this drain and the current iteration observes it.
  void Drain();

  /// Read end; POLLIN means at least one Wake() happened since Drain().
  int fd() const { return fds_[0]; }

 private:
  WakeupPipe(int read_fd, int write_fd) : fds_{read_fd, write_fd} {}

  int fds_[2];
  std::atomic<bool> armed_{false};
};

}  // namespace drlstream::net

#endif  // DRLSTREAM_NET_WAKEUP_H_
