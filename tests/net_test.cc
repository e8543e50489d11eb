// The wire format and transports must be abuse-proof: truncated, oversized
// and garbage input — at the primitive, frame and message level, for every
// message type — produces a Status error, never a crash or an over-read
// (run under ASan/UBSan/TSan in CI). Doubles must round-trip bit-exactly;
// the transport must behave like its documented contract over both of its
// sockets, the in-process socketpair and TCP.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ctrl/agent_server.h"
#include "ctrl/messages.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "net/wire.h"
#include "rl/policy.h"
#include "sched/schedule.h"

namespace drlstream::net {
namespace {

TEST(WirePrimitiveTest, RoundTripsEveryPrimitive) {
  WireWriter writer;
  writer.PutU8(0xAB);
  writer.PutBool(true);
  writer.PutU16(0xBEEF);
  writer.PutU32(0xDEADBEEFu);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutI32(-123456);
  writer.PutDouble(3.141592653589793);
  writer.PutString("hello \0 wire");  // truncated at the NUL by the literal
  writer.PutString(std::string("with\0nul", 8));
  writer.PutIntVector({-1, 0, 7});
  writer.PutDoubleVector({0.5, -0.25});
  writer.PutByteVector({0, 1, 255});

  WireReader reader(writer.buffer());
  uint8_t u8;
  bool b;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  double d;
  std::string s1, s2;
  std::vector<int> iv;
  std::vector<double> dv;
  std::vector<uint8_t> bv;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadBool(&b).ok());
  ASSERT_TRUE(reader.ReadU16(&u16).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadI32(&i32).ok());
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  ASSERT_TRUE(reader.ReadString(&s1).ok());
  ASSERT_TRUE(reader.ReadString(&s2).ok());
  ASSERT_TRUE(reader.ReadIntVector(&iv).ok());
  ASSERT_TRUE(reader.ReadDoubleVector(&dv).ok());
  ASSERT_TRUE(reader.ReadByteVector(&bv).ok());
  EXPECT_TRUE(reader.ExpectFullyConsumed().ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_TRUE(b);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -123456);
  EXPECT_EQ(d, 3.141592653589793);
  EXPECT_EQ(s1, "hello ");
  EXPECT_EQ(s2, std::string("with\0nul", 8));
  EXPECT_EQ(iv, (std::vector<int>{-1, 0, 7}));
  EXPECT_EQ(dv, (std::vector<double>{0.5, -0.25}));
  EXPECT_EQ(bv, (std::vector<uint8_t>{0, 1, 255}));
}

TEST(WirePrimitiveTest, DoublesRoundTripBitExactly) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             -1000.0,
                             -869.86133634634155};
  for (double want : specials) {
    WireWriter writer;
    writer.PutDouble(want);
    WireReader reader(writer.buffer());
    double got = 0.0;
    ASSERT_TRUE(reader.ReadDouble(&got).ok());
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &want, sizeof(want_bits));
    std::memcpy(&got_bits, &got, sizeof(got_bits));
    EXPECT_EQ(got_bits, want_bits);
  }
}

TEST(WirePrimitiveTest, TruncatedReadsFailWithoutTouchingOutput) {
  WireReader reader("ab");  // 2 bytes: too short for anything 4+ wide
  uint32_t u32 = 42;
  EXPECT_FALSE(reader.ReadU32(&u32).ok());
  EXPECT_EQ(u32, 42u);
  double d = 1.5;
  EXPECT_FALSE(reader.ReadDouble(&d).ok());
  EXPECT_EQ(d, 1.5);
  std::string s = "keep";
  EXPECT_FALSE(reader.ReadString(&s).ok());
  EXPECT_EQ(s, "keep");
}

TEST(WirePrimitiveTest, HugeVectorCountIsRejectedBeforeAllocation) {
  // A count prefix of 0xFFFFFFFF with no bytes behind it must fail on the
  // count validation, not attempt a 4G-element allocation.
  WireWriter writer;
  writer.PutU32(0xFFFFFFFFu);
  WireReader reader(writer.buffer());
  std::vector<double> dv;
  EXPECT_FALSE(reader.ReadDoubleVector(&dv).ok());
  EXPECT_TRUE(dv.empty());

  WireWriter capped;
  capped.PutU32(kMaxVectorElements + 1);
  WireReader capped_reader(capped.buffer());
  std::vector<uint8_t> bv;
  EXPECT_FALSE(capped_reader.ReadByteVector(&bv).ok());
}

TEST(WirePrimitiveTest, TrailingBytesAreAnError) {
  WireWriter writer;
  writer.PutU8(1);
  writer.PutU8(2);
  WireReader reader(writer.buffer());
  uint8_t v;
  ASSERT_TRUE(reader.ReadU8(&v).ok());
  EXPECT_FALSE(reader.ExpectFullyConsumed().ok());
}

/// ---- Frames --------------------------------------------------------------

TEST(FrameTest, RoundTrips) {
  const std::string frame = EncodeFrame(MsgType::kPing, "payload!");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + kTraceEnvelopeBytes + 8);
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kPing);
  EXPECT_EQ(decoded->payload, "payload!");
  // No trace given: the envelope is present and all zeros.
  EXPECT_EQ(decoded->trace.trace_id, 0u);
  EXPECT_EQ(decoded->trace.span_id, 0u);
}

TEST(FrameTest, RejectsBadMagicVersionTypeAndLength) {
  const std::string good = EncodeFrame(MsgType::kPing, "x");

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeFrame(bad_magic).ok());

  std::string above = good;
  above[4] = static_cast<char>(kWireVersion + 1);
  EXPECT_FALSE(DecodeFrame(above).ok());

  std::string below = good;
  below[4] = static_cast<char>(kWireVersion - 1);
  EXPECT_FALSE(DecodeFrame(below).ok());

  std::string bad_type = good;
  bad_type[6] = static_cast<char>(0xEE);
  bad_type[7] = static_cast<char>(0xEE);
  EXPECT_FALSE(DecodeFrame(bad_type).ok());

  std::string bad_length = good;
  bad_length[8] = static_cast<char>(18);  // claims 18 payload bytes, has 17
  EXPECT_FALSE(DecodeFrame(bad_length).ok());

  // Oversized claim: rejected by the header check before any allocation.
  std::string oversized = good;
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&oversized[8], &huge, sizeof(huge));
  EXPECT_FALSE(ParseFrameHeader(oversized).ok());

  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(DecodeFrame(good.substr(0, len)).ok())
        << "prefix of length " << len << " decoded";
  }
}

TEST(FrameTest, MoveDecodeMatchesCopyDecode) {
  const std::string frame = EncodeFrame(MsgType::kObserveRequest, "abc123");
  auto by_copy = DecodeFrame(frame);
  std::string owned = frame;
  auto by_move = DecodeFrame(std::move(owned));
  ASSERT_TRUE(by_copy.ok());
  ASSERT_TRUE(by_move.ok());
  EXPECT_EQ(by_move->type, by_copy->type);
  EXPECT_EQ(by_move->payload, by_copy->payload);

  std::string truncated = frame.substr(0, frame.size() - 1);
  EXPECT_FALSE(DecodeFrame(std::move(truncated)).ok());
}

TEST(FrameTest, InPlaceFramingMatchesEncodeFrame) {
  const std::string payload("in-place \x01\x00\xFF payload", 20);
  const TraceContext trace{42, 7};
  WireWriter writer;
  writer.PutU8(0x7F);  // pre-existing writer content must be preserved
  const size_t frame_start =
      BeginFrame(MsgType::kTrainStepRequest, trace, &writer);
  writer.PutBytes(payload.data(), payload.size());
  EndFrame(frame_start, &writer);
  EXPECT_EQ(writer.buffer()[0], 0x7F);
  EXPECT_EQ(writer.buffer().substr(1),
            EncodeFrame(MsgType::kTrainStepRequest, payload, trace));
}

/// ---- Trace-context envelope ----------------------------------------------

TEST(FrameV3Test, RoundTripsTraceContextAndStripsEnvelope) {
  const TraceContext trace{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  const std::string frame = EncodeFrame(MsgType::kPing, "payload!", trace);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + kTraceEnvelopeBytes + 8);

  auto by_copy = DecodeFrame(frame);
  ASSERT_TRUE(by_copy.ok());
  EXPECT_EQ(by_copy->trace.trace_id, trace.trace_id);
  EXPECT_EQ(by_copy->trace.span_id, trace.span_id);
  EXPECT_EQ(by_copy->payload, "payload!");

  std::string owned = frame;
  auto by_move = DecodeFrame(std::move(owned));
  ASSERT_TRUE(by_move.ok());
  EXPECT_EQ(by_move->trace.trace_id, trace.trace_id);
  EXPECT_EQ(by_move->trace.span_id, trace.span_id);
  EXPECT_EQ(by_move->payload, "payload!");
}

TEST(FrameV3Test, BytesMatchTheRecordedVersion3Golden) {
  // Recorded from the version-3 encoder of the two-layout protocol (v2 had
  // no envelope). Frames must stay byte-identical to it: header, both ids
  // little-endian, then the body.
  const std::string frame =
      EncodeFrame(MsgType::kPing, "payload!",
                  TraceContext{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull});
  static constexpr char kGoldenHex[] =
      "44524C53" "0300" "0300" "18000000"    // magic, version, type, length
      "EFCDAB8967452301" "1032547698BADCFE"  // trace id, span id
      "7061796C6F616421";                    // "payload!"
  std::string hex;
  for (unsigned char c : frame) {
    static constexpr char kDigits[] = "0123456789ABCDEF";
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xF];
  }
  EXPECT_EQ(hex, kGoldenHex);
}

TEST(FrameV3Test, OtherVersionsAreRejectedByName) {
  // Version 2 (and, for the same reason, a future 4) is refused at the
  // header, before the payload is read, with the version in the message.
  for (uint16_t version : {uint16_t{2}, uint16_t{4}}) {
    std::string frame = EncodeFrame(MsgType::kHelloRequest, "body");
    frame[4] = static_cast<char>(version);
    auto header = ParseFrameHeader(frame);
    ASSERT_FALSE(header.ok()) << "version " << version;
    EXPECT_NE(header.status().message().find(
                  "unsupported protocol version " + std::to_string(version)),
              std::string::npos)
        << header.status().ToString();
    EXPECT_FALSE(DecodeFrame(frame).ok()) << "version " << version;
  }
  // A genuine v2 frame (no envelope) fails the same way.
  WireWriter v2;
  v2.PutU32(kWireMagic);
  v2.PutU16(2);
  v2.PutU16(static_cast<uint16_t>(MsgType::kPing));
  v2.PutU32(1);
  v2.PutU8(0);
  EXPECT_FALSE(DecodeFrame(v2.Release()).ok());
}

TEST(FrameV3Test, EnvelopeShorterThanDeclaredIsRejected) {
  // A header whose payload_size cannot even hold the 16-byte envelope must
  // be rejected at the header check (no over-read into the ids).
  std::string frame = EncodeFrame(MsgType::kPing, "", TraceContext{1, 2});
  const uint32_t claimed = kTraceEnvelopeBytes - 8;
  std::memcpy(&frame[8], &claimed, sizeof(claimed));
  frame.resize(kFrameHeaderBytes + claimed);
  EXPECT_FALSE(ParseFrameHeader(frame).ok());
  EXPECT_FALSE(DecodeFrame(frame).ok());
}

TEST(FrameV3Test, EveryStrictPrefixFails) {
  const std::string frame =
      EncodeFrame(MsgType::kPing, "xy", TraceContext{11, 22});
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(DecodeFrame(frame.substr(0, len)).ok())
        << "prefix of length " << len << " decoded";
  }
}

/// ---- Every message type vs truncation and garbage ------------------------

rl::State SampleState() {
  rl::State state;
  state.assignments = {0, 1, 2, 1};
  state.spout_rates = {100.0, 250.5};
  state.machine_up = {1, 1, 0};
  return state;
}

/// Valid payloads for every message type, paired with their decoder. The
/// decode result is irrelevant here — what matters is that malformed input
/// never crashes and never decodes a strict prefix as complete.
struct MessageCase {
  const char* name;
  MsgType type;  // the frame type this payload travels under
  std::string payload;
  std::function<bool(std::string_view)> decode;  // true = decoded OK
};

std::vector<MessageCase> AllMessageCases() {
  using namespace drlstream::ctrl;
  std::vector<MessageCase> cases;
  HelloRequest hello;
  hello.client_name = "abuse-suite";
  cases.push_back({"HelloRequest", MsgType::kHelloRequest,
                   EncodeHelloRequest(hello),
                   [](std::string_view p) { return DecodeHelloRequest(p).ok(); }});
  HelloResponse hello_resp;
  hello_resp.policy_name = "p";
  hello_resp.registry_key = "k";
  hello_resp.description = "d";
  hello_resp.trainable = true;
  cases.push_back({"HelloResponse", MsgType::kHelloResponse,
                   EncodeHelloResponse(Status::OK(), hello_resp),
                   [](std::string_view p) { return DecodeHelloResponse(p).ok(); }});
  GetScheduleRequest get;
  get.mode = ScheduleMode::kExplore;
  get.num_machines = 3;
  get.state = SampleState();
  get.epsilon = 0.25;
  get.rng_state = Rng(7).SerializeState();
  cases.push_back({"GetScheduleRequest", MsgType::kGetScheduleRequest,
                   EncodeGetScheduleRequest(get),
                   [](std::string_view p) {
                     return DecodeGetScheduleRequest(p).ok();
                   }});
  GetScheduleResponse get_resp;
  get_resp.diff.num_executors = 4;
  get_resp.diff.num_machines = 3;
  get_resp.diff.entries = {{1, 2, 0}, {3, 0, 0}};
  get_resp.move_index = 5;
  get_resp.rng_state = Rng(8).SerializeState();
  cases.push_back({"GetScheduleResponse", MsgType::kGetScheduleResponse,
                   EncodeGetScheduleResponse(Status::OK(), get_resp),
                   [](std::string_view p) {
                     return DecodeGetScheduleResponse(p).ok();
                   }});
  ObserveRequest observe;
  observe.transition.state = SampleState();
  observe.transition.action_assignments = {1, 1, 0, 2};
  observe.transition.move_index = 3;
  observe.transition.reward = -42.5;
  observe.transition.next_state = SampleState();
  cases.push_back({"ObserveRequest", MsgType::kObserveRequest,
                   EncodeObserveRequest(observe),
                   [](std::string_view p) {
                     return DecodeObserveRequest(p).ok();
                   }});
  cases.push_back({"ObserveResponse", MsgType::kObserveResponse,
                   EncodeObserveResponse(Status::OK()),
                   [](std::string_view p) {
                     return DecodeObserveResponse(p).ok();
                   }});
  TrainStepRequest train;
  train.steps = 4;
  cases.push_back({"TrainStepRequest", MsgType::kTrainStepRequest,
                   EncodeTrainStepRequest(train),
                   [](std::string_view p) {
                     return DecodeTrainStepRequest(p).ok();
                   }});
  TrainStepResponse train_resp;
  train_resp.loss = 0.125;
  cases.push_back({"TrainStepResponse", MsgType::kTrainStepResponse,
                   EncodeTrainStepResponse(Status::OK(), train_resp),
                   [](std::string_view p) {
                     return DecodeTrainStepResponse(p).ok();
                   }});
  SaveArtifactRequest save;
  save.prefix = "/tmp/agent";
  cases.push_back({"SaveArtifactRequest", MsgType::kSaveArtifactRequest,
                   EncodeSaveArtifactRequest(save),
                   [](std::string_view p) {
                     return DecodeSaveArtifactRequest(p).ok();
                   }});
  cases.push_back({"SaveArtifactResponse", MsgType::kSaveArtifactResponse,
                   EncodeSaveArtifactResponse(Status::OK()),
                   [](std::string_view p) {
                     return DecodeSaveArtifactResponse(p).ok();
                   }});
  PingMessage ping;
  ping.token = 99;
  cases.push_back({"Ping", MsgType::kPing, EncodePingMessage(ping),
                   [](std::string_view p) { return DecodePingMessage(p).ok(); }});
  cases.push_back({"ErrorResponse", MsgType::kErrorResponse,
                   EncodeErrorResponse(Status::Internal("boom")),
                   [](std::string_view p) {
                     // DecodeErrorResponse returns the carried error when
                     // the payload itself is well-formed; "decoded OK" here
                     // means it reproduced that exact error.
                     Status s = DecodeErrorResponse(p);
                     return s.code() == StatusCode::kInternal &&
                            s.message() == "boom";
                   }});
  return cases;
}

TEST(MessageRobustnessTest, ValidPayloadsDecode) {
  for (const MessageCase& c : AllMessageCases()) {
    EXPECT_TRUE(c.decode(c.payload)) << c.name;
  }
}

TEST(MessageRobustnessTest, EveryStrictPrefixFails) {
  for (const MessageCase& c : AllMessageCases()) {
    for (size_t len = 0; len < c.payload.size(); ++len) {
      EXPECT_FALSE(c.decode(std::string_view(c.payload).substr(0, len)))
          << c.name << " decoded a prefix of length " << len;
    }
  }
}

TEST(MessageRobustnessTest, TrailingGarbageFails) {
  for (const MessageCase& c : AllMessageCases()) {
    EXPECT_FALSE(c.decode(c.payload + '\x00')) << c.name;
    EXPECT_FALSE(c.decode(c.payload + "garbage")) << c.name;
  }
}

TEST(MessageRobustnessTest, RandomGarbageNeverCrashes) {
  Rng rng(12345);
  for (const MessageCase& c : AllMessageCases()) {
    for (int round = 0; round < 200; ++round) {
      const size_t size = rng.UniformInt(0, 64);
      std::string garbage(size, '\0');
      for (char& byte : garbage) {
        byte = static_cast<char>(rng.UniformInt(0, 255));
      }
      (void)c.decode(garbage);  // must not crash / over-read / over-allocate

      // Bit-flipped real payloads probe deeper decoder states.
      std::string mutated = c.payload;
      if (!mutated.empty()) {
        mutated[rng.UniformInt(0, static_cast<int>(mutated.size()) - 1)] ^=
            static_cast<char>(1 << rng.UniformInt(0, 7));
        (void)c.decode(mutated);
      }
    }
  }
}

/// ---- Transport over both of its sockets ---------------------------------
///
/// Every check runs on an in-process socketpair (MakeLoopbackPair) and on a
/// connected 127.0.0.1 TCP pair: one stream code, two kinds of socket. The
/// payloads are real frames, since a stream only knows frame boundaries
/// from the headers.

using TransportPair =
    std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>;

TransportPair TcpPair() {
  auto listener = TcpListener::Bind("127.0.0.1", 0);
  auto client = TcpConnect("127.0.0.1", listener.value()->port(), 2000);
  // The handshake is done once connect returns; wait for the listener to
  // report it anyway rather than assume the kernel's timing.
  pollfd pfd{listener.value()->readiness_fd(), POLLIN, 0};
  ::poll(&pfd, 1, 2000);
  auto server = listener.value()->Accept();
  return {std::move(client).value(), std::move(server).value()};
}

void ForEachPair(const std::function<void(TransportPair)>& check) {
  {
    SCOPED_TRACE("socketpair");
    check(MakeLoopbackPair().value());
  }
  {
    SCOPED_TRACE("tcp");
    check(TcpPair());
  }
}

TEST(LoopbackTest, DeliversFramesInOrderBothWays) {
  const std::string one = EncodeFrame(MsgType::kPing, "one");
  const std::string two = EncodeFrame(MsgType::kPing, "two");
  const std::string reply = EncodeFrame(MsgType::kPong, "reply");
  ForEachPair([&](TransportPair pair) {
    auto& [a, b] = pair;
    ASSERT_TRUE(a->Send(one).ok());
    // A frame split across two writes still arrives whole.
    ASSERT_TRUE(a->Send(std::string_view(two).substr(0, 5)).ok());
    ASSERT_TRUE(a->Send(std::string_view(two).substr(5)).ok());
    ASSERT_TRUE(b->Send(reply).ok());
    auto r1 = b->Recv(1000);
    auto r2 = b->Recv(1000);
    auto r3 = a->Recv(1000);
    ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
    EXPECT_EQ(*r1, one);
    EXPECT_EQ(*r2, two);
    EXPECT_EQ(*r3, reply);
  });
}

TEST(LoopbackTest, RecvTimesOutWithDeadlineExceeded) {
  ForEachPair([](TransportPair pair) {
    auto result = pair.first->Recv(10);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  });
}

TEST(LoopbackTest, CloseDrainsThenReportsUnavailable) {
  const std::string last = EncodeFrame(MsgType::kPing, "last words");
  ForEachPair([&](TransportPair pair) {
    auto& [a, b] = pair;
    ASSERT_TRUE(a->Send(last).ok());
    a->Close();
    EXPECT_FALSE(a->Send(last).ok());
    // The sent frame is still deliverable; after that, kUnavailable.
    auto drained = b->Recv(1000);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    EXPECT_EQ(*drained, last);
    auto dead = b->Recv(1000);
    ASSERT_FALSE(dead.ok());
    EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
  });
}

TEST(LoopbackTest, CloseWakesABlockedReceiver) {
  ForEachPair([](TransportPair pair) {
    auto& [a, b] = pair;
    // Handshake instead of a fixed sleep: the closer fires only once this
    // thread is at the door of Recv, so the test neither waits a canned
    // 20ms nor races ahead on a loaded machine. (Close landing just before
    // Recv is also correct — Recv returns kUnavailable immediately — so
    // the remaining window cannot make the test flaky, only less
    // interesting.)
    std::atomic<bool> entering_recv{false};
    Transport* closing = b.get();
    std::thread closer([&entering_recv, closing] {
      while (!entering_recv.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      closing->Close();
    });
    entering_recv.store(true, std::memory_order_release);
    auto result = a->Recv(-1);  // would block forever without the wake
    closer.join();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  });
}

/// ---- Server-level structured fuzzing -------------------------------------
///
/// The codec-level abuse above proves decoders never crash; these tests
/// prove the *server* holds the same line. Seeded structured mutations of
/// every message type — truncations, length-field lies, type lies, bit
/// flips — hit a live multi-session AgentServer, which must answer a Status
/// error or drop the session, never crash or stall. Liveness is re-proven
/// with a valid Ping between batches of abuse.

/// Deterministic policy for the fuzz server: rotates every executor one
/// machine to the right (of 3) and draws once from the exploration stream,
/// so unmutated kExplore requests exercise the full reply path.
class RotatePolicy : public rl::Policy {
 public:
  std::string name() const override { return "rotate"; }

  StatusOr<rl::PolicyAction> SelectAction(const rl::State& state, double,
                                          Rng* rng) const override {
    const int offset = 1 + rng->UniformInt(0, 0);
    sched::Schedule schedule(static_cast<int>(state.assignments.size()), 3);
    for (size_t i = 0; i < state.assignments.size(); ++i) {
      schedule.Assign(static_cast<int>(i),
                      (state.assignments[i] + offset) % 3);
    }
    return rl::PolicyAction(std::move(schedule), 0);
  }

  StatusOr<sched::Schedule> GreedyAction(const rl::State& state) const override {
    sched::Schedule schedule(static_cast<int>(state.assignments.size()), 3);
    for (size_t i = 0; i < state.assignments.size(); ++i) {
      schedule.Assign(static_cast<int>(i), (state.assignments[i] + 1) % 3);
    }
    return schedule;
  }
};

class ServerFuzzTest : public ::testing::Test {
 protected:
  static drlstream::ctrl::AgentServerOptions FastOptions() {
    drlstream::ctrl::AgentServerOptions options;
    options.poll_timeout_ms = 50;
    return options;
  }

  void SetUp() override {
    thread_ = std::thread([this] { run_status_ = server_.Run(); });
  }

  void TearDown() override {
    server_.Stop();
    thread_.join();
    EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
  }

  std::unique_ptr<Transport> Connect() {
    auto [client_end, server_end] = MakeLoopbackPair().value();
    EXPECT_TRUE(server_.AddSession(std::move(server_end)).ok());
    return std::move(client_end);
  }

  /// Sends one (possibly mutated) message on a fresh session, then ends
  /// the stream: an incomplete frame rightly waits for more bytes, and
  /// the half-close tells the server none are coming. The protocol
  /// answers every message — with a typed reply, an error frame, or a
  /// session drop — so a deadline-exceeded Recv means the server stalled,
  /// which is the failure this harness exists to catch.
  void ExpectAnswerOrDrop(const std::string& bytes) {
    auto client = Connect();
    ASSERT_TRUE(client->Send(bytes).ok());
    ASSERT_EQ(::shutdown(client->readiness_fd(), SHUT_WR), 0);
    StatusOr<std::string> reply = client->Recv(10000);
    if (reply.ok()) {
      // Replies are well-formed frames even when the input was not.
      EXPECT_TRUE(DecodeFrame(*reply).ok());
    } else {
      EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
    }
    client->Close();
  }

  /// The canary: a valid Ping on a fresh session must still round-trip.
  void ExpectAlive() {
    auto client = Connect();
    drlstream::ctrl::PingMessage ping;
    ping.token = 4242;
    ASSERT_TRUE(
        client->Send(EncodeFrame(MsgType::kPing,
                                 drlstream::ctrl::EncodePingMessage(ping)))
            .ok());
    StatusOr<std::string> reply = client->Recv(10000);
    ASSERT_TRUE(reply.ok()) << "server stopped answering valid requests";
    auto frame = DecodeFrame(std::move(*reply));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, MsgType::kPong);
    auto pong = drlstream::ctrl::DecodePingMessage(frame->payload);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->token, 4242u);
    client->Close();
  }

  RotatePolicy policy_;
  drlstream::ctrl::AgentServer server_{&policy_, FastOptions()};
  std::thread thread_;
  Status run_status_;
};

TEST_F(ServerFuzzTest, StructuredMutationsNeverCrashOrStallTheServer) {
  Rng rng(20250807);
  int abused = 0;
  for (const MessageCase& c : AllMessageCases()) {
    const std::string frame = EncodeFrame(c.type, c.payload);
    std::vector<std::string> mutations;

    // Truncations: every header and envelope field boundary plus seeded
    // payload cuts.
    for (size_t cut : {size_t{0}, size_t{1}, size_t{4}, size_t{6}, size_t{8},
                       size_t{11}, kFrameHeaderBytes, kFrameHeaderBytes + 8,
                       kFrameHeaderBytes + kTraceEnvelopeBytes}) {
      if (cut < frame.size()) mutations.push_back(frame.substr(0, cut));
    }
    for (int i = 0; i < 3; ++i) {
      const size_t cut = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(frame.size()) - 1));
      mutations.push_back(frame.substr(0, cut));
    }

    // Length-field lies: the u32 at offset 8 misstates the payload size
    // (envelope included) — one high, one low, zero, and beyond the cap.
    const uint32_t actual =
        static_cast<uint32_t>(frame.size() - kFrameHeaderBytes);
    for (uint32_t lie :
         {actual + 1, actual - 1, uint32_t{0}, kMaxPayloadBytes + 1}) {
      std::string lied = frame;
      std::memcpy(&lied[8], &lie, sizeof(lie));
      mutations.push_back(std::move(lied));
    }

    // Type lies: unknown values and a valid-but-mismatched type.
    for (uint16_t type_lie : {uint16_t{0}, uint16_t{0xEEEE},
                              static_cast<uint16_t>(MsgType::kPong)}) {
      std::string lied = frame;
      std::memcpy(&lied[6], &type_lie, sizeof(type_lie));
      mutations.push_back(std::move(lied));
    }

    // Seeded bit flips anywhere in the frame (header and payload).
    for (int i = 0; i < 8; ++i) {
      std::string flipped = frame;
      flipped[rng.UniformInt(0, static_cast<int>(frame.size()) - 1)] ^=
          static_cast<char>(1 << rng.UniformInt(0, 7));
      mutations.push_back(std::move(flipped));
    }

    for (const std::string& bytes : mutations) {
      SCOPED_TRACE(c.name);
      ExpectAnswerOrDrop(bytes);
      if (++abused % 10 == 0) ExpectAlive();
    }
  }
  ExpectAlive();
}

TEST_F(ServerFuzzTest, UndecodablePingGetsAnErrorReplyAndSessionLives) {
  // A token-only Ping payload fails the strict decode. A Pong has no
  // status field, so the server answers with the generic error reply, and
  // the same session goes on to answer a valid Ping.
  auto client = Connect();
  WireWriter token_only;
  token_only.PutU64(7);
  ASSERT_TRUE(
      client->Send(EncodeFrame(MsgType::kPing, token_only.buffer())).ok());
  StatusOr<std::string> reply = client->Recv(10000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto error = DecodeFrame(std::move(*reply));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, MsgType::kErrorResponse);
  EXPECT_FALSE(drlstream::ctrl::DecodeErrorResponse(error->payload).ok());

  drlstream::ctrl::PingMessage ping;
  ping.token = 8;
  ASSERT_TRUE(client
                  ->Send(EncodeFrame(MsgType::kPing,
                                     drlstream::ctrl::EncodePingMessage(ping)))
                  .ok());
  reply = client->Recv(10000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto pong = DecodeFrame(std::move(*reply));
  ASSERT_TRUE(pong.ok());
  ASSERT_EQ(pong->type, MsgType::kPong);
  auto decoded = drlstream::ctrl::DecodePingMessage(pong->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->token, 8u);
  client->Close();
}

/// Interleaved partial frames across two TCP sessions: each session's byte
/// stream reassembles independently no matter how the peers' writes
/// interleave in time, and a framing violation poisons only its own
/// session.
TEST(ServerTcpFuzzTest, InterleavedPartialFramesReassemblePerSession) {
  auto listener_or = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener_or.ok()) << listener_or.status().ToString();
  TcpListener* listener = listener_or->get();
  RotatePolicy policy;
  drlstream::ctrl::AgentServer server(&policy, {});
  std::thread server_thread([&] {
    Status served = server.ServeTcp(listener);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  auto a_or = TcpConnect("127.0.0.1", listener->port(), 2000);
  auto b_or = TcpConnect("127.0.0.1", listener->port(), 2000);
  ASSERT_TRUE(a_or.ok()) << a_or.status().ToString();
  ASSERT_TRUE(b_or.ok()) << b_or.status().ToString();
  std::unique_ptr<Transport> a = std::move(*a_or);
  std::unique_ptr<Transport> b = std::move(*b_or);

  drlstream::ctrl::PingMessage ping;
  ping.token = 0xAAAA;
  const std::string frame_a =
      EncodeFrame(MsgType::kPing, drlstream::ctrl::EncodePingMessage(ping));
  ping.token = 0xBBBB;
  const std::string frame_b =
      EncodeFrame(MsgType::kPing, drlstream::ctrl::EncodePingMessage(ping));

  auto check_pong = [](Transport* t, uint64_t want) {
    auto reply = t->Recv(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto frame = DecodeFrame(std::move(*reply));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, MsgType::kPong);
    auto pong = drlstream::ctrl::DecodePingMessage(frame->payload);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->token, want);
  };

  // Dribble both frames 3 bytes at a time, alternating sessions. (TCP
  // Send is a raw byte-stream write, so chunked sends land as chunked
  // reads; the server's per-session buffers must reassemble both.)
  size_t off_a = 0;
  size_t off_b = 0;
  while (off_a < frame_a.size() || off_b < frame_b.size()) {
    if (off_a < frame_a.size()) {
      const size_t n = std::min<size_t>(3, frame_a.size() - off_a);
      ASSERT_TRUE(a->Send(std::string_view(frame_a).substr(off_a, n)).ok());
      off_a += n;
    }
    if (off_b < frame_b.size()) {
      const size_t n = std::min<size_t>(3, frame_b.size() - off_b);
      ASSERT_TRUE(b->Send(std::string_view(frame_b).substr(off_b, n)).ok());
      off_b += n;
    }
  }
  check_pong(a.get(), 0xAAAA);
  check_pong(b.get(), 0xBBBB);

  // A header lying beyond the payload cap poisons only its own session:
  // A gets an error frame (or an immediate close), B keeps working.
  std::string liar = frame_a;
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&liar[8], &huge, sizeof(huge));
  ASSERT_TRUE(a->Send(liar).ok());
  auto poisoned = a->Recv(10000);
  if (poisoned.ok()) {
    auto frame = DecodeFrame(std::move(*poisoned));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, MsgType::kErrorResponse);
  }
  ASSERT_TRUE(b->Send(frame_b).ok());
  check_pong(b.get(), 0xBBBB);

  a->Close();
  b->Close();
  server.Stop();
  listener->Close();
  server_thread.join();
}

}  // namespace
}  // namespace drlstream::net
