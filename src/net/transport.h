#ifndef DRLSTREAM_NET_TRANSPORT_H_
#define DRLSTREAM_NET_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace drlstream::net {

/// A bidirectional, frame-oriented, point-to-point channel between the
/// master and the agent process over one connected stream socket: TCP
/// across processes (net/tcp.h), or a socketpair(2) inside one
/// (MakeLoopbackPair). Callers exchange *complete encoded frames* (wire.h
/// header + payload); the receiver reassembles them from the byte stream,
/// so in-process tests run the same byte path as a networked run.
///
/// Error vocabulary (what callers branch on):
///   kDeadlineExceeded - Recv timed out; the connection is still usable.
///   kUnavailable      - the peer or this end is gone (closed / reset);
///                       the transport is dead and should be discarded.
///   anything else     - a protocol-level defect (e.g. garbage where a
///                       frame header should be); the transport is dead.
///
/// Thread safety: one concurrent sender plus one concurrent receiver are
/// supported; Close may race with both (it is how a blocked peer gets
/// woken). Multiple concurrent senders must serialize externally (the
/// MasterClient holds its own RPC mutex).
class Transport {
 public:
  /// Takes ownership of `fd`, a connected stream socket; `peer` labels it
  /// in error messages.
  Transport(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Sends one complete encoded frame, blocking while the peer's receive
  /// buffer is full.
  Status Send(std::string_view frame);

  /// Receives one complete frame (header + payload bytes). `timeout_ms`
  /// < 0 blocks indefinitely; 0 polls.
  StatusOr<std::string> Recv(int timeout_ms);

  /// Non-blocking receive for event loops: a complete frame when one is
  /// available *now*, kDeadlineExceeded when none is buffered (connection
  /// still healthy), kUnavailable when the peer is gone and everything
  /// already received has been drained. Never sleeps. Recv and TryRecv
  /// share one reassembly buffer, so they may be interleaved freely.
  StatusOr<std::string> TryRecv();

  /// Non-blocking send of raw stream bytes for event loops: returns how
  /// many of `bytes` were accepted (possibly 0 when the peer's window is
  /// full); the caller keeps the remainder and retries when writable.
  /// Splitting a frame across TrySend calls is fine — the receiver
  /// reassembles frames from the stream.
  StatusOr<size_t> TrySend(std::string_view bytes);

  /// The socket, for poll(): POLLIN means the kernel holds bytes (or the
  /// end of the stream) for TryRecv. Frames already read into the
  /// reassembly buffer do not show up here.
  int readiness_fd() const { return fd_; }

  /// Closes both directions; subsequent Send/Recv (here and, eventually,
  /// at the peer) return kUnavailable. Idempotent.
  void Close();

 private:
  /// Peels one complete frame off rx_buf_. kDeadlineExceeded is the "not
  /// enough bytes yet" sentinel; a malformed header is returned as its own
  /// error (framing is poisoned, the caller discards the transport).
  StatusOr<std::string> TakeBufferedFrame();
  /// One non-blocking read into rx_buf_. OK with *got_bytes=false means
  /// the socket simply had nothing (EAGAIN).
  Status FillFromSocket(bool* got_bytes = nullptr);
  /// After the socket fails: frames already buffered still complete
  /// (drain-before-fail), then the failure surfaces.
  StatusOr<std::string> DrainOrError(const Status& error);

  int fd_;
  std::string peer_;
  std::string rx_buf_;  // receiver-thread-only stream reassembly buffer
  std::atomic<bool> closed_{false};
};

/// Creates a connected pair of in-process transports over socketpair(2):
/// frames sent on one end are received, in order and byte-for-byte, on the
/// other, through the same stream code as TCP. Fails (e.g. EMFILE) with a
/// Status instead of crashing. A Send blocks once the peer's socket buffer
/// is full, so a thread must not write more than that to an end nobody is
/// reading.
StatusOr<std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>>
MakeLoopbackPair();

}  // namespace drlstream::net

#endif  // DRLSTREAM_NET_TRANSPORT_H_
