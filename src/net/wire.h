#ifndef DRLSTREAM_NET_WIRE_H_
#define DRLSTREAM_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace drlstream::net {

/// ---- Wire protocol constants -------------------------------------------
///
/// Every message on the control plane is one length-prefixed frame:
///
///   offset  size  field
///   0       4     magic "DRLS" (bytes 0x44 0x52 0x4C 0x53)
///   4       2     protocol version, little-endian (kWireVersion)
///   6       2     message type, little-endian (MsgType)
///   8       4     payload length, little-endian (<= kMaxPayloadBytes)
///   12      16    trace envelope: trace id, span id (little-endian u64s)
///   28      n-16  message body
///
/// The payload length counts the envelope, so it is at least 16. All
/// multi-byte integers are explicit little-endian; doubles travel as
/// their IEEE-754 bit pattern in a little-endian u64, so values round-trip
/// bit-exactly (the loopback end-to-end test relies on this). Decoding is
/// defensive end to end: truncated, oversized, or garbage input produces a
/// Status error, never a crash or an over-read (tests/net_test.cc abuses
/// every message type this way).

/// "DRLS" when the u32 is written little-endian.
inline constexpr uint32_t kWireMagic = 0x534C5244u;
/// The one protocol version. Both peers ship from this repository, so
/// there is nothing to negotiate: a header carrying any other version is
/// rejected before the payload is read. The envelope is zeros unless the
/// sender is tracing. Servers echo a request's envelope verbatim on the
/// reply, which keeps reply bytes a pure function of request bytes (the
/// batching parity tests rely on it).
inline constexpr uint16_t kWireVersion = 3;
/// Alias of kWireVersion that perfbench/serve_ddpg.cc still reads.
inline constexpr uint16_t kWireVersionV3 = kWireVersion;
inline constexpr size_t kFrameHeaderBytes = 12;
/// Size of the trace envelope at the start of every payload.
inline constexpr size_t kTraceEnvelopeBytes = 16;
/// Hard cap on a frame payload: a header claiming more is rejected before
/// any allocation. Generously above the largest real message (a Transition
/// at paper scale is a few KiB).
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;
/// Cap on decoded vector lengths, so a garbage count prefix cannot force a
/// huge allocation even inside an otherwise valid frame.
inline constexpr uint32_t kMaxVectorElements = 1u << 20;

/// Control-plane message types. Requests are odd-numbered concepts with
/// their response right after them; kErrorResponse is the generic reply to
/// a request the server could not decode (carries only a Status).
enum class MsgType : uint16_t {
  kHelloRequest = 1,
  kHelloResponse = 2,
  kPing = 3,
  kPong = 4,
  kGetScheduleRequest = 5,
  kGetScheduleResponse = 6,
  kObserveRequest = 7,
  kObserveResponse = 8,
  kTrainStepRequest = 9,
  kTrainStepResponse = 10,
  kSaveArtifactRequest = 11,
  kSaveArtifactResponse = 12,
  kErrorResponse = 13,
};

bool IsKnownMsgType(uint16_t raw);
const char* MsgTypeName(MsgType type);

/// ---- Primitive serialization -------------------------------------------

/// Appends explicitly little-endian primitives to a growing byte buffer.
class WireWriter {
 public:
  /// Pre-sizes the buffer for `n` more bytes; encoders that know their
  /// output size (framing, fixed-layout bodies) skip the growth reallocs.
  void Reserve(size_t n) { buffer_.reserve(buffer_.size() + n); }

  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  /// IEEE-754 bit pattern as a little-endian u64 (bit-exact round-trip,
  /// NaN payloads and signed zeros included).
  void PutDouble(double v);
  /// u32 length + raw bytes.
  void PutString(std::string_view v);
  void PutBytes(const void* data, size_t size);
  /// u32 count + per-element encoding.
  void PutIntVector(const std::vector<int>& v);
  void PutDoubleVector(const std::vector<double>& v);
  void PutByteVector(const std::vector<uint8_t>& v);

  /// Overwrites 4 already-written bytes at `pos` (little-endian). Exists
  /// for length fields emitted before their content (see EndFrame).
  void PatchU32(size_t pos, uint32_t v);

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Bounds-checked reader over an immutable byte buffer. Every Read returns
/// a Status; a failed read leaves the output untouched. Decoders finish
/// with ExpectFullyConsumed() so trailing garbage is an error too.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  Status ReadU8(uint8_t* out);
  Status ReadBool(bool* out);
  Status ReadU16(uint16_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadDouble(double* out);
  Status ReadString(std::string* out);
  Status ReadIntVector(std::vector<int>* out);
  Status ReadDoubleVector(std::vector<double>* out);
  Status ReadByteVector(std::vector<uint8_t>* out);

  size_t remaining() const { return bytes_.size() - pos_; }
  /// Error unless every byte has been consumed (detects truncated writes
  /// spliced with unrelated trailing data, and over-long frames).
  Status ExpectFullyConsumed() const;

 private:
  Status Need(size_t n) const;
  /// Validates a vector length prefix against the element cap and the
  /// bytes actually remaining (count * min_element_bytes must fit).
  Status ReadCount(size_t min_element_bytes, uint32_t* out);

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// ---- Framing -----------------------------------------------------------

struct FrameHeader {
  MsgType type = MsgType::kErrorResponse;
  /// Envelope + body bytes.
  uint32_t payload_size = 0;
};

/// The trace envelope: which distributed trace a request belongs to and
/// which client-side span is its parent. {0, 0} means "no trace" (tracing
/// disabled at the sender).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

struct Frame {
  MsgType type = MsgType::kErrorResponse;
  TraceContext trace;
  /// Message body with the envelope already stripped.
  std::string payload;
};

/// One complete frame: header + trace envelope + payload.
std::string EncodeFrame(MsgType type, std::string_view payload,
                        const TraceContext& trace = {});

/// In-place framing for hot-path encoders: BeginFrame emits the header
/// (with a zero payload length) and the trace envelope into `writer`, the
/// caller appends the body through the same writer, and EndFrame patches
/// the real length in. Equivalent to EncodeFrame(type, body, trace) minus
/// the body copy. BeginFrame returns the frame's start offset; pass it to
/// EndFrame.
size_t BeginFrame(MsgType type, const TraceContext& trace,
                  WireWriter* writer);
void EndFrame(size_t frame_start, WireWriter* writer);

/// Parses and validates the 12-byte header (magic, version, known type,
/// payload length between the envelope size and the cap). `bytes` may be
/// longer than the header.
StatusOr<FrameHeader> ParseFrameHeader(std::string_view bytes);

/// Decodes a buffer that must hold exactly one frame (header validation
/// plus an exact length match — both truncated and over-long buffers are
/// errors). The payload reuses the buffer: one memmove, no allocation.
StatusOr<Frame> DecodeFrame(std::string bytes);

}  // namespace drlstream::net

#endif  // DRLSTREAM_NET_WIRE_H_
