#include "net/wire.h"

#include <cstring>

namespace drlstream::net {

namespace {

std::string Offset(size_t pos) {
  return " at offset " + std::to_string(pos);
}

// Unaligned little-endian loads (bounds already checked by the caller).
uint32_t LoadU32Le(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

uint64_t LoadU64Le(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

}  // namespace

bool IsKnownMsgType(uint16_t raw) {
  return raw >= static_cast<uint16_t>(MsgType::kHelloRequest) &&
         raw <= static_cast<uint16_t>(MsgType::kErrorResponse);
}

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHelloRequest: return "HelloRequest";
    case MsgType::kHelloResponse: return "HelloResponse";
    case MsgType::kPing: return "Ping";
    case MsgType::kPong: return "Pong";
    case MsgType::kGetScheduleRequest: return "GetScheduleRequest";
    case MsgType::kGetScheduleResponse: return "GetScheduleResponse";
    case MsgType::kObserveRequest: return "ObserveRequest";
    case MsgType::kObserveResponse: return "ObserveResponse";
    case MsgType::kTrainStepRequest: return "TrainStepRequest";
    case MsgType::kTrainStepResponse: return "TrainStepResponse";
    case MsgType::kSaveArtifactRequest: return "SaveArtifactRequest";
    case MsgType::kSaveArtifactResponse: return "SaveArtifactResponse";
    case MsgType::kErrorResponse: return "ErrorResponse";
  }
  return "Unknown";
}

/// ---- WireWriter --------------------------------------------------------

// One append per primitive (not one push_back per byte): encoders on the
// control-plane hot path emit ~100 primitives per schedule response, and
// each push_back re-checks capacity.
void WireWriter::PutU16(uint16_t v) {
  const char buf[2] = {static_cast<char>(v & 0xFF),
                       static_cast<char>(v >> 8)};
  buffer_.append(buf, 2);
}

void WireWriter::PutU32(uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  buffer_.append(buf, 4);
}

void WireWriter::PutU64(uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  buffer_.append(buf, 8);
}

void WireWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PatchU32(size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void WireWriter::PutString(std::string_view v) {
  PutU32(static_cast<uint32_t>(v.size()));
  buffer_.append(v.data(), v.size());
}

void WireWriter::PutBytes(const void* data, size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

void WireWriter::PutIntVector(const std::vector<int>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (int x : v) PutI32(x);
}

void WireWriter::PutDoubleVector(const std::vector<double>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (double x : v) PutDouble(x);
}

void WireWriter::PutByteVector(const std::vector<uint8_t>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (uint8_t x : v) PutU8(x);
}

/// ---- WireReader --------------------------------------------------------

Status WireReader::Need(size_t n) const {
  if (bytes_.size() - pos_ < n) {
    return Status::OutOfRange("wire: truncated input (need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(bytes_.size() - pos_) + ")" +
                              Offset(pos_));
  }
  return Status::OK();
}

Status WireReader::ReadU8(uint8_t* out) {
  DRLSTREAM_RETURN_NOT_OK(Need(1));
  *out = static_cast<uint8_t>(bytes_[pos_++]);
  return Status::OK();
}

Status WireReader::ReadBool(bool* out) {
  uint8_t v = 0;
  DRLSTREAM_RETURN_NOT_OK(ReadU8(&v));
  if (v > 1) {
    return Status::InvalidArgument("wire: bool byte not 0/1" +
                                   Offset(pos_ - 1));
  }
  *out = v != 0;
  return Status::OK();
}

Status WireReader::ReadU16(uint16_t* out) {
  DRLSTREAM_RETURN_NOT_OK(Need(2));
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<uint16_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 2;
  *out = v;
  return Status::OK();
}

Status WireReader::ReadU32(uint32_t* out) {
  DRLSTREAM_RETURN_NOT_OK(Need(4));
  *out = LoadU32Le(bytes_.data() + pos_);
  pos_ += 4;
  return Status::OK();
}

Status WireReader::ReadU64(uint64_t* out) {
  DRLSTREAM_RETURN_NOT_OK(Need(8));
  *out = LoadU64Le(bytes_.data() + pos_);
  pos_ += 8;
  return Status::OK();
}

Status WireReader::ReadI32(int32_t* out) {
  uint32_t v = 0;
  DRLSTREAM_RETURN_NOT_OK(ReadU32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status WireReader::ReadDouble(double* out) {
  uint64_t bits = 0;
  DRLSTREAM_RETURN_NOT_OK(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status WireReader::ReadCount(size_t min_element_bytes, uint32_t* out) {
  uint32_t count = 0;
  DRLSTREAM_RETURN_NOT_OK(ReadU32(&count));
  if (count > kMaxVectorElements) {
    return Status::OutOfRange("wire: element count " + std::to_string(count) +
                              " exceeds cap " +
                              std::to_string(kMaxVectorElements) +
                              Offset(pos_ - 4));
  }
  if (static_cast<size_t>(count) * min_element_bytes > remaining()) {
    return Status::OutOfRange(
        "wire: element count " + std::to_string(count) +
        " does not fit the remaining " + std::to_string(remaining()) +
        " bytes" + Offset(pos_ - 4));
  }
  *out = count;
  return Status::OK();
}

Status WireReader::ReadString(std::string* out) {
  uint32_t size = 0;
  DRLSTREAM_RETURN_NOT_OK(ReadCount(1, &size));
  out->assign(bytes_.data() + pos_, size);
  pos_ += size;
  return Status::OK();
}

// The vector readers skip the per-element bounds check: ReadCount already
// proved count * element_size bytes remain.
Status WireReader::ReadIntVector(std::vector<int>* out) {
  uint32_t count = 0;
  DRLSTREAM_RETURN_NOT_OK(ReadCount(4, &count));
  std::vector<int> result(count);
  const char* p = bytes_.data() + pos_;
  for (uint32_t i = 0; i < count; ++i, p += 4) {
    result[i] = static_cast<int32_t>(LoadU32Le(p));
  }
  pos_ += static_cast<size_t>(count) * 4;
  *out = std::move(result);
  return Status::OK();
}

Status WireReader::ReadDoubleVector(std::vector<double>* out) {
  uint32_t count = 0;
  DRLSTREAM_RETURN_NOT_OK(ReadCount(8, &count));
  std::vector<double> result(count);
  const char* p = bytes_.data() + pos_;
  for (uint32_t i = 0; i < count; ++i, p += 8) {
    const uint64_t bits = LoadU64Le(p);
    std::memcpy(&result[i], &bits, sizeof(double));
  }
  pos_ += static_cast<size_t>(count) * 8;
  *out = std::move(result);
  return Status::OK();
}

Status WireReader::ReadByteVector(std::vector<uint8_t>* out) {
  uint32_t count = 0;
  DRLSTREAM_RETURN_NOT_OK(ReadCount(1, &count));
  out->assign(bytes_.begin() + pos_, bytes_.begin() + pos_ + count);
  pos_ += count;
  return Status::OK();
}

Status WireReader::ExpectFullyConsumed() const {
  if (pos_ != bytes_.size()) {
    return Status::InvalidArgument(
        "wire: " + std::to_string(bytes_.size() - pos_) +
        " trailing bytes after message" + Offset(pos_));
  }
  return Status::OK();
}

/// ---- Framing -----------------------------------------------------------

std::string EncodeFrame(MsgType type, std::string_view payload,
                        const TraceContext& trace) {
  WireWriter writer;
  writer.Reserve(kFrameHeaderBytes + kTraceEnvelopeBytes + payload.size());
  const size_t frame_start = BeginFrame(type, trace, &writer);
  writer.PutBytes(payload.data(), payload.size());
  EndFrame(frame_start, &writer);
  return writer.Release();
}

StatusOr<FrameHeader> ParseFrameHeader(std::string_view bytes) {
  WireReader reader(bytes.substr(0, kFrameHeaderBytes));
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t raw_type = 0;
  uint32_t payload_size = 0;
  DRLSTREAM_RETURN_NOT_OK(reader.ReadU32(&magic));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadU16(&version));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadU16(&raw_type));
  DRLSTREAM_RETURN_NOT_OK(reader.ReadU32(&payload_size));
  if (magic != kWireMagic) {
    return Status::InvalidArgument("wire: bad frame magic");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        "wire: unsupported protocol version " + std::to_string(version) +
        " (speaking " + std::to_string(kWireVersion) + ")");
  }
  if (!IsKnownMsgType(raw_type)) {
    return Status::InvalidArgument("wire: unknown message type " +
                                   std::to_string(raw_type));
  }
  if (payload_size > kMaxPayloadBytes) {
    return Status::OutOfRange("wire: payload of " +
                              std::to_string(payload_size) +
                              " bytes exceeds the frame cap");
  }
  if (payload_size < kTraceEnvelopeBytes) {
    return Status::InvalidArgument(
        "wire: payload of " + std::to_string(payload_size) +
        " bytes is smaller than the trace envelope");
  }
  FrameHeader header;
  header.type = static_cast<MsgType>(raw_type);
  header.payload_size = payload_size;
  return header;
}

StatusOr<Frame> DecodeFrame(std::string bytes) {
  DRLSTREAM_ASSIGN_OR_RETURN(const FrameHeader header,
                             ParseFrameHeader(bytes));
  if (bytes.size() != kFrameHeaderBytes + header.payload_size) {
    return Status::InvalidArgument(
        "wire: frame length mismatch (header says " +
        std::to_string(header.payload_size) + " payload bytes, buffer has " +
        std::to_string(bytes.size() - kFrameHeaderBytes) + ")");
  }
  Frame frame;
  frame.type = header.type;
  frame.trace.trace_id = LoadU64Le(bytes.data() + kFrameHeaderBytes);
  frame.trace.span_id = LoadU64Le(bytes.data() + kFrameHeaderBytes + 8);
  bytes.erase(0, kFrameHeaderBytes + kTraceEnvelopeBytes);  // memmove only
  frame.payload = std::move(bytes);
  return frame;
}

size_t BeginFrame(MsgType type, const TraceContext& trace,
                  WireWriter* writer) {
  const size_t frame_start = writer->size();
  writer->PutU32(kWireMagic);
  writer->PutU16(kWireVersion);
  writer->PutU16(static_cast<uint16_t>(type));
  writer->PutU32(0);  // payload length (envelope included); see EndFrame
  writer->PutU64(trace.trace_id);
  writer->PutU64(trace.span_id);
  return frame_start;
}

void EndFrame(size_t frame_start, WireWriter* writer) {
  const size_t payload_size =
      writer->size() - frame_start - kFrameHeaderBytes;
  writer->PatchU32(frame_start + 8, static_cast<uint32_t>(payload_size));
}

}  // namespace drlstream::net
