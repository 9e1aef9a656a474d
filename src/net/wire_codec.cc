#include "net/wire_codec.h"

#include <bit>
#include <cstring>

namespace oij {

namespace {

// Little-endian scalar encoding, written byte-by-byte so the wire format
// is identical on any host.
void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

uint32_t GetU32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint16_t GetU16(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(static_cast<uint16_t>(u[0]) |
                               (static_cast<uint16_t>(u[1]) << 8));
}

uint64_t GetU64(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(u[i]) << (8 * i);
  return v;
}

int64_t GetI64(const char* p) { return static_cast<int64_t>(GetU64(p)); }
double GetF64(const char* p) { return std::bit_cast<double>(GetU64(p)); }

// Payload sizes (excluding the type byte) of the fixed-size frames.
constexpr size_t kTupleBytes = 1 + 8 + 8 + 8;
constexpr size_t kWatermarkBytes = 8;
constexpr size_t kResultBytes = 24 + 8 + 8 + 16 + 4;
constexpr size_t kHelloBytes = 4 + 2 + 2 + 8;
constexpr size_t kWatermarkAckBytes = 8 + 8;
// kAddQuery payload past the id: pre, fol, lateness (i64 each) plus the
// agg/emit/late-policy bytes.
constexpr size_t kQuerySpecBytes = 8 + 8 + 8 + 3;
constexpr size_t kMaxQueryIdBytes = 64;

void PutTuple(std::string* out, const Tuple& t) {
  PutI64(out, t.ts);
  PutU64(out, t.key);
  PutF64(out, t.payload);
}

Tuple GetTuple(const char* p) {
  Tuple t;
  t.ts = GetI64(p);
  t.key = GetU64(p + 8);
  t.payload = GetF64(p + 16);
  return t;
}

void BeginFrame(std::string* out, FrameType type, size_t payload_bytes) {
  PutU32(out, static_cast<uint32_t>(1 + payload_bytes));
  out->push_back(static_cast<char>(type));
}

}  // namespace

void AppendTupleFrame(std::string* out, const StreamEvent& event) {
  BeginFrame(out, FrameType::kTuple, kTupleBytes);
  out->push_back(static_cast<char>(event.stream));
  PutTuple(out, event.tuple);
}

void AppendWatermarkFrame(std::string* out, Timestamp watermark) {
  BeginFrame(out, FrameType::kWatermark, kWatermarkBytes);
  PutI64(out, watermark);
}

void AppendControlFrame(std::string* out, FrameType type) {
  BeginFrame(out, type, 0);
}

void AppendResultFrame(std::string* out, const JoinResult& result) {
  BeginFrame(out, FrameType::kResult, kResultBytes);
  PutTuple(out, result.base);
  PutF64(out, result.aggregate);
  PutU64(out, result.match_count);
  PutI64(out, result.arrival_us);
  PutI64(out, result.emit_us);
  PutU32(out, result.query);
}

void AppendTextFrame(std::string* out, FrameType type, std::string_view text) {
  BeginFrame(out, type, text.size());
  out->append(text);
}

void AppendHelloFrame(std::string* out, const HelloInfo& hello) {
  BeginFrame(out, FrameType::kHello, kHelloBytes);
  PutU32(out, hello.magic);
  PutU16(out, hello.version);
  PutU16(out, hello.flags);
  PutI64(out, hello.recovered_watermark);
}

void AppendWatermarkAckFrame(std::string* out, Timestamp watermark,
                             uint64_t tuples_ingested) {
  BeginFrame(out, FrameType::kWatermarkAck, kWatermarkAckBytes);
  PutI64(out, watermark);
  PutU64(out, tuples_ingested);
}

void AppendAddQueryFrame(std::string* out, std::string_view id,
                         const QuerySpec& spec) {
  BeginFrame(out, FrameType::kAddQuery, 2 + id.size() + kQuerySpecBytes);
  PutU16(out, static_cast<uint16_t>(id.size()));
  out->append(id);
  PutI64(out, spec.window.pre);
  PutI64(out, spec.window.fol);
  PutI64(out, spec.lateness_us);
  out->push_back(static_cast<char>(spec.agg));
  out->push_back(static_cast<char>(spec.emit_mode));
  out->push_back(static_cast<char>(spec.late_policy));
}

void AppendRemoveQueryFrame(std::string* out, std::string_view id) {
  BeginFrame(out, FrameType::kRemoveQuery, 2 + id.size());
  PutU16(out, static_cast<uint16_t>(id.size()));
  out->append(id);
}

void WireDecoder::Feed(const char* data, size_t n) {
  // Compact lazily so long sessions do not grow the buffer unboundedly.
  if (pos_ > 0 && (pos_ >= 64 * 1024 || pos_ == buf_.size())) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

WireDecoder::Result WireDecoder::Fail(std::string message) {
  error_ = Status::ParseError(std::move(message));
  return Result::kCorrupt;
}

WireDecoder::Result WireDecoder::Next(WireFrame* out) {
  if (!error_.ok()) return Result::kCorrupt;
  if (buffered() < kFrameHeaderBytes) return Result::kNeedMore;

  const char* head = buf_.data() + pos_;
  const uint32_t length = GetU32(head);
  if (length == 0) return Fail("zero-length frame");
  if (length > 1 + kMaxFramePayload) {
    return Fail("frame length " + std::to_string(length) +
                " exceeds the " + std::to_string(kMaxFramePayload) +
                "-byte payload bound");
  }
  if (buffered() < kFrameHeaderBytes + length) return Result::kNeedMore;

  const char* body = head + kFrameHeaderBytes;
  const uint8_t type_byte = static_cast<uint8_t>(body[0]);
  const char* payload = body + 1;
  const size_t payload_bytes = length - 1;

  auto expect = [&](size_t want, const char* name) {
    if (payload_bytes == want) return true;
    Fail(std::string(name) + " frame has " + std::to_string(payload_bytes) +
         " payload bytes, expected " + std::to_string(want));
    return false;
  };

  switch (static_cast<FrameType>(type_byte)) {
    case FrameType::kTuple: {
      if (!expect(kTupleBytes, "tuple")) return Result::kCorrupt;
      const uint8_t stream = static_cast<uint8_t>(payload[0]);
      if (stream > 1) return Fail("tuple frame has bad stream id");
      out->type = FrameType::kTuple;
      out->event.stream = static_cast<StreamId>(stream);
      out->event.tuple = GetTuple(payload + 1);
      break;
    }
    case FrameType::kWatermark:
      if (!expect(kWatermarkBytes, "watermark")) return Result::kCorrupt;
      out->type = FrameType::kWatermark;
      out->watermark = GetI64(payload);
      break;
    case FrameType::kFinish:
    case FrameType::kSubscribe:
      if (!expect(0, "control")) return Result::kCorrupt;
      out->type = static_cast<FrameType>(type_byte);
      break;
    case FrameType::kResult: {
      if (!expect(kResultBytes, "result")) return Result::kCorrupt;
      out->type = FrameType::kResult;
      JoinResult& r = out->result;
      r.base = GetTuple(payload);
      r.aggregate = GetF64(payload + 24);
      r.match_count = GetU64(payload + 32);
      r.arrival_us = GetI64(payload + 40);
      r.emit_us = GetI64(payload + 48);
      r.query = GetU32(payload + 56);
      break;
    }
    case FrameType::kAddQuery:
    case FrameType::kRemoveQuery: {
      const bool is_add = type_byte == static_cast<uint8_t>(
                                           FrameType::kAddQuery);
      const size_t fixed = is_add ? kQuerySpecBytes : 0;
      if (payload_bytes < 2 + fixed) {
        return Fail("catalog frame too short");
      }
      const size_t id_len = GetU16(payload);
      if (id_len == 0 || id_len > kMaxQueryIdBytes ||
          payload_bytes != 2 + id_len + fixed) {
        return Fail("catalog frame has bad query-id length");
      }
      out->type = static_cast<FrameType>(type_byte);
      out->query_id.assign(payload + 2, id_len);
      if (is_add) {
        const char* p = payload + 2 + id_len;
        QuerySpec& q = out->query_spec;
        q.window.pre = GetI64(p);
        q.window.fol = GetI64(p + 8);
        q.lateness_us = GetI64(p + 16);
        const uint8_t agg = static_cast<uint8_t>(p[24]);
        const uint8_t emit = static_cast<uint8_t>(p[25]);
        const uint8_t late = static_cast<uint8_t>(p[26]);
        if (agg > static_cast<uint8_t>(AggKind::kMax) ||
            emit > static_cast<uint8_t>(EmitMode::kWatermark) ||
            late > static_cast<uint8_t>(LatePolicy::kSideChannel)) {
          return Fail("add-query frame has bad enum value");
        }
        q.agg = static_cast<AggKind>(agg);
        q.emit_mode = static_cast<EmitMode>(emit);
        q.late_policy = static_cast<LatePolicy>(late);
      }
      break;
    }
    case FrameType::kSummary:
    case FrameType::kError:
      out->type = static_cast<FrameType>(type_byte);
      out->text.assign(payload, payload_bytes);
      break;
    case FrameType::kHello:
      // Size is syntax; magic/version are *negotiation* and stay with
      // the caller, which answers a mismatch with a clean kError frame.
      if (!expect(kHelloBytes, "hello")) return Result::kCorrupt;
      out->type = FrameType::kHello;
      out->hello.magic = GetU32(payload);
      out->hello.version = GetU16(payload + 4);
      out->hello.flags = GetU16(payload + 6);
      out->hello.recovered_watermark = GetI64(payload + 8);
      break;
    case FrameType::kWatermarkAck:
      if (!expect(kWatermarkAckBytes, "watermark-ack")) {
        return Result::kCorrupt;
      }
      out->type = FrameType::kWatermarkAck;
      out->watermark = GetI64(payload);
      out->ack_tuples = GetU64(payload + 8);
      break;
    default:
      return Fail("unknown frame type " + std::to_string(type_byte));
  }

  pos_ += kFrameHeaderBytes + length;
  return Result::kFrame;
}

}  // namespace oij
