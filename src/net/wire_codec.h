#ifndef OIJ_NET_WIRE_CODEC_H_
#define OIJ_NET_WIRE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "core/query_spec.h"
#include "stream/generator.h"

namespace oij {

/// Length-prefixed binary wire protocol for the serving layer.
///
/// Every frame is `[u32 length (LE)] [u8 type] [payload]`, where `length`
/// counts the type byte plus the payload. Integers are little-endian;
/// doubles travel as their IEEE-754 bit pattern. Fixed-size frames are
/// rejected unless their length matches exactly, so a corrupted stream
/// fails loudly instead of desynchronizing.
///
/// Client -> server: kHello / kTuple / kWatermark / kSubscribe / kFinish.
/// Server -> client: kHello / kResult / kSummary / kError / kWatermarkAck.
enum class FrameType : uint8_t {
  kTuple = 1,      ///< stream(u8) ts(i64) key(u64) payload(f64)
  kWatermark = 2,  ///< watermark(i64)
  kFinish = 3,     ///< end of stream: drain, finalize, reply kSummary
  kSubscribe = 4,  ///< stream every join result back on this connection
  kResult = 5,     ///< JoinResult (base tuple, aggregate, stamps, query)
  kSummary = 6,    ///< UTF-8 run summary (kFinish acknowledgement)
  kError = 7,      ///< UTF-8 error message; the server closes afterwards
  /// Versioned handshake: magic(u32) version(u16) flags(u16)
  /// recovered_watermark(i64). Optional, but when a client sends one it
  /// must be the first frame; the server answers with its own kHello (or
  /// a clean kError on a version/magic mismatch — the decoder is never
  /// poisoned by a well-formed hello from the wrong era).
  kHello = 8,
  /// Server -> client durability acknowledgement for one kWatermark:
  /// watermark(i64) tuples_ingested(u64). Sent only to peers whose hello
  /// requested acks; under --fsync per_batch it is emitted after the WAL
  /// sync that precedes the watermark broadcast, so an acked watermark
  /// means every earlier tuple on this connection is durable.
  kWatermarkAck = 9,
  /// Catalog change: register a standing query. Payload:
  /// id_len(u16) id(bytes) pre(i64) fol(i64) lateness(i64) agg(u8)
  /// emit(u8) late_policy(u8). The router broadcasts these to every
  /// backend so the whole cluster serves the same catalog; a backend
  /// treats a duplicate add with an identical spec as idempotent.
  kAddQuery = 10,
  /// Catalog change: deactivate the standing query `id_len(u16) id`.
  kRemoveQuery = 11,
};

/// Upper bound on `length`; anything larger is a protocol violation.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;

/// Bytes of the length prefix.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Handshake constants. The magic pins the protocol family ("OIJ1");
/// the version is bumped whenever a frame's layout or semantics change
/// incompatibly. Peers reject a mismatched hello with a kError frame and
/// close — never by poisoning the decoder, since a well-formed hello
/// from a newer/older peer is valid *syntax*, just an unacceptable
/// *negotiation*.
inline constexpr uint32_t kWireMagic = 0x314A494Fu;  // "OIJ1" little-endian
/// v2: kResult frames carry the query ordinal, and the
/// kAddQuery/kRemoveQuery catalog frames exist.
/// v3: kResult drops the feature-set sum/min/max.
inline constexpr uint16_t kWireVersion = 3;

/// Hello flag bits (u16).
/// Client -> server: request kWatermarkAck frames for every kWatermark.
inline constexpr uint16_t kHelloWantAcks = 1u << 0;
/// Server -> client: this backend runs --fsync per_batch with
/// watermark-cut recovery, so acked state survives kill -9 exactly and
/// a router may replay the un-acked suffix without creating duplicates.
inline constexpr uint16_t kHelloDurableExact = 1u << 1;

/// Decoded kHello payload.
struct HelloInfo {
  uint32_t magic = kWireMagic;
  uint16_t version = kWireVersion;
  uint16_t flags = 0;
  /// Server -> client: watermark its recovered state is complete
  /// through (kMinTimestamp when fresh). Clients send kMinTimestamp.
  Timestamp recovered_watermark = kMinTimestamp;

  bool Compatible() const {
    return magic == kWireMagic && version == kWireVersion;
  }
};

/// One decoded frame. Only the fields of the decoded `type` are
/// meaningful.
struct WireFrame {
  FrameType type = FrameType::kFinish;
  StreamEvent event;                 // kTuple
  Timestamp watermark = 0;           // kWatermark / kWatermarkAck
  uint64_t ack_tuples = 0;           // kWatermarkAck
  HelloInfo hello;                   // kHello
  JoinResult result;                 // kResult
  std::string text;                  // kSummary / kError
  std::string query_id;              // kAddQuery / kRemoveQuery
  QuerySpec query_spec;              // kAddQuery
};

/// Frame encoders append to `out` so a caller can batch many frames into
/// one write buffer.
void AppendTupleFrame(std::string* out, const StreamEvent& event);
void AppendWatermarkFrame(std::string* out, Timestamp watermark);
void AppendControlFrame(std::string* out, FrameType type);  // finish/subscribe
void AppendResultFrame(std::string* out, const JoinResult& result);
void AppendTextFrame(std::string* out, FrameType type, std::string_view text);
void AppendHelloFrame(std::string* out, const HelloInfo& hello);
void AppendWatermarkAckFrame(std::string* out, Timestamp watermark,
                             uint64_t tuples_ingested);
void AppendAddQueryFrame(std::string* out, std::string_view id,
                         const QuerySpec& spec);
void AppendRemoveQueryFrame(std::string* out, std::string_view id);

/// Incremental frame decoder over an arbitrary byte-chunked stream.
///
/// Feed() raw bytes in any split; Next() yields complete frames until it
/// returns kNeedMore. The first malformed frame (oversized, undersized,
/// unknown type, or a length/type size mismatch) poisons the decoder:
/// every later Next() returns kCorrupt and error() explains why — the
/// owner is expected to drop the connection.
class WireDecoder {
 public:
  enum class Result : uint8_t { kFrame, kNeedMore, kCorrupt };

  void Feed(const char* data, size_t n);
  void Feed(std::string_view data) { Feed(data.data(), data.size()); }

  Result Next(WireFrame* out);

  const Status& error() const { return error_; }

  /// Undecoded bytes currently buffered.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  Result Fail(std::string message);

  std::string buf_;
  size_t pos_ = 0;
  Status error_;
};

}  // namespace oij

#endif  // OIJ_NET_WIRE_CODEC_H_
