#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "net/wire_codec.h"

namespace oij {
namespace {

StreamEvent MakeEvent(StreamId stream, Timestamp ts, Key key,
                      double payload) {
  StreamEvent ev;
  ev.stream = stream;
  ev.tuple.ts = ts;
  ev.tuple.key = key;
  ev.tuple.payload = payload;
  return ev;
}

JoinResult MakeResult() {
  JoinResult r;
  r.base.ts = 123'456;
  r.base.key = 0xdeadbeefcafe;
  r.base.payload = -3.25;
  r.aggregate = 42.5;
  r.match_count = 7;
  r.arrival_us = 1'000'001;
  r.emit_us = 1'000'777;
  r.query = 3;
  return r;
}

/// Decodes exactly one frame and expects the buffer to then be empty.
WireFrame DecodeOne(const std::string& bytes) {
  WireDecoder decoder;
  decoder.Feed(bytes);
  WireFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kFrame);
  WireFrame spare;
  EXPECT_EQ(decoder.Next(&spare), WireDecoder::Result::kNeedMore);
  return frame;
}

// ------------------------------------------------------------ round trips

TEST(WireCodec, TupleRoundTrip) {
  const StreamEvent ev =
      MakeEvent(StreamId::kProbe, -17, 0xffffffffffffffffULL, 2.5e-308);
  std::string bytes;
  AppendTupleFrame(&bytes, ev);
  const WireFrame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, FrameType::kTuple);
  EXPECT_EQ(frame.event.stream, StreamId::kProbe);
  EXPECT_EQ(frame.event.tuple.ts, -17);
  EXPECT_EQ(frame.event.tuple.key, 0xffffffffffffffffULL);
  EXPECT_EQ(frame.event.tuple.payload, 2.5e-308);
}

TEST(WireCodec, WatermarkRoundTrip) {
  std::string bytes;
  AppendWatermarkFrame(&bytes, -123'456'789);
  const WireFrame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, FrameType::kWatermark);
  EXPECT_EQ(frame.watermark, -123'456'789);
}

TEST(WireCodec, ControlRoundTrip) {
  for (const FrameType type : {FrameType::kFinish, FrameType::kSubscribe}) {
    std::string bytes;
    AppendControlFrame(&bytes, type);
    EXPECT_EQ(DecodeOne(bytes).type, type);
  }
}

TEST(WireCodec, ResultRoundTrip) {
  const JoinResult want = MakeResult();
  std::string bytes;
  AppendResultFrame(&bytes, want);
  // Length prefix + type byte + base tuple (24) + aggregate (8) +
  // match_count (8) + arrival/emit stamps (16) + query ordinal (4): the
  // v2 payload of 84 B less the 24 B of feature-set sum/min/max.
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + 1 + (84u - 24u));
  const WireFrame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kResult);
  const JoinResult& got = frame.result;
  EXPECT_EQ(got.base.ts, want.base.ts);
  EXPECT_EQ(got.base.key, want.base.key);
  EXPECT_EQ(got.base.payload, want.base.payload);
  EXPECT_EQ(got.aggregate, want.aggregate);
  EXPECT_EQ(got.match_count, want.match_count);
  EXPECT_EQ(got.arrival_us, want.arrival_us);
  EXPECT_EQ(got.emit_us, want.emit_us);
  EXPECT_EQ(got.query, want.query);
}

TEST(WireCodec, ResultNaNAggregateSurvives) {
  // An empty window's avg/min/max is NaN (SQL NULL stand-in).
  JoinResult r = MakeResult();
  r.aggregate = std::nan("");
  r.match_count = 0;
  std::string bytes;
  AppendResultFrame(&bytes, r);
  const WireFrame frame = DecodeOne(bytes);
  EXPECT_TRUE(std::isnan(frame.result.aggregate));
  EXPECT_EQ(frame.result.match_count, 0u);
}

TEST(WireCodec, TextRoundTrip) {
  std::string bytes;
  AppendTextFrame(&bytes, FrameType::kSummary, "hello\nworld");
  WireFrame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, FrameType::kSummary);
  EXPECT_EQ(frame.text, "hello\nworld");

  bytes.clear();
  AppendTextFrame(&bytes, FrameType::kError, "");
  frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.text, "");
}

TEST(WireCodec, TruncatedFrameIsNeedMoreNotCorrupt) {
  std::string bytes;
  AppendTupleFrame(&bytes, MakeEvent(StreamId::kBase, 1, 2, 3.0));
  WireDecoder decoder;
  WireFrame frame;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(bytes.data() + i, 1);
    EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kNeedMore)
        << "after byte " << i;
  }
  decoder.Feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kFrame);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(WireCodec, OversizedLengthIsCorrupt) {
  std::string bytes;
  const uint32_t length = 1 + kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  WireDecoder decoder;
  decoder.Feed(bytes);
  WireFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kCorrupt);
  EXPECT_FALSE(decoder.error().ok());
}

TEST(WireCodec, ZeroLengthIsCorrupt) {
  WireDecoder decoder;
  decoder.Feed(std::string(4, '\0'));
  WireFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kCorrupt);
}

TEST(WireCodec, UnknownTypeIsCorrupt) {
  std::string bytes;
  bytes.push_back(1);  // length = 1 (just the type byte)
  bytes.append(3, '\0');
  bytes.push_back(static_cast<char>(0x7f));
  WireDecoder decoder;
  decoder.Feed(bytes);
  WireFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kCorrupt);
}

TEST(WireCodec, FixedSizeMismatchIsCorrupt) {
  // A tuple frame one byte short of its mandated payload size.
  std::string bytes;
  AppendTupleFrame(&bytes, MakeEvent(StreamId::kBase, 1, 2, 3.0));
  std::string truncated = bytes;
  truncated[0] = static_cast<char>(truncated[0] - 1);  // shrink length
  truncated.pop_back();
  WireDecoder decoder;
  decoder.Feed(truncated);
  WireFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kCorrupt);

  // Control frames must have an empty payload.
  std::string control;
  control.push_back(2);
  control.append(3, '\0');
  control.push_back(static_cast<char>(FrameType::kFinish));
  control.push_back('x');
  WireDecoder decoder2;
  decoder2.Feed(control);
  EXPECT_EQ(decoder2.Next(&frame), WireDecoder::Result::kCorrupt);
}

TEST(WireCodec, BadStreamIdIsCorrupt) {
  std::string bytes;
  AppendTupleFrame(&bytes, MakeEvent(StreamId::kBase, 1, 2, 3.0));
  bytes[kFrameHeaderBytes + 1] = 2;  // stream id must be 0 or 1
  WireDecoder decoder;
  decoder.Feed(bytes);
  WireFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kCorrupt);
}

TEST(WireCodec, CorruptionPoisonsTheDecoder) {
  std::string bytes;
  bytes.push_back(1);
  bytes.append(3, '\0');
  bytes.push_back(static_cast<char>(0x7f));  // unknown type
  AppendWatermarkFrame(&bytes, 5);           // a valid frame behind it
  WireDecoder decoder;
  decoder.Feed(bytes);
  WireFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kCorrupt);
  // The valid frame behind the poison is never surfaced.
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kCorrupt);
  decoder.Feed(bytes);
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kCorrupt);
}

TEST(WireCodec, GarbageStreamIsCorrupt) {
  std::mt19937_64 rng(7);
  std::string garbage;
  for (int i = 0; i < 4096; ++i) {
    garbage.push_back(static_cast<char>(rng() & 0xff));
  }
  // Force a huge little-endian length so the very first header fails.
  garbage[3] = static_cast<char>(0xff);
  WireDecoder decoder;
  decoder.Feed(garbage);
  WireFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireDecoder::Result::kCorrupt);
}

// --------------------------------------------------------- split-fuzz test

/// The decoder must be byte-split agnostic: any chunking of the same byte
/// stream yields the same frame sequence. This is the property the
/// server relies on when TCP hands it arbitrary segment boundaries.
TEST(WireCodec, RandomSplitFuzz) {
  std::mt19937_64 rng(1234);
  std::string stream;
  std::vector<FrameType> want_types;
  std::vector<StreamEvent> want_events;
  std::vector<Timestamp> want_watermarks;
  std::vector<std::string> want_texts;

  for (int i = 0; i < 2000; ++i) {
    switch (rng() % 5) {
      case 0:
      case 1: {
        const StreamEvent ev = MakeEvent(
            (rng() & 1) != 0 ? StreamId::kProbe : StreamId::kBase,
            static_cast<Timestamp>(rng() % 1'000'000),
            static_cast<Key>(rng() % 512),
            static_cast<double>(rng() % 1000) / 8.0);
        AppendTupleFrame(&stream, ev);
        want_types.push_back(FrameType::kTuple);
        want_events.push_back(ev);
        break;
      }
      case 2: {
        const Timestamp wm = static_cast<Timestamp>(rng() % 1'000'000);
        AppendWatermarkFrame(&stream, wm);
        want_types.push_back(FrameType::kWatermark);
        want_watermarks.push_back(wm);
        break;
      }
      case 3: {
        AppendControlFrame(&stream, FrameType::kSubscribe);
        want_types.push_back(FrameType::kSubscribe);
        break;
      }
      default: {
        const std::string text(rng() % 64, 'x');
        AppendTextFrame(&stream, FrameType::kSummary, text);
        want_types.push_back(FrameType::kSummary);
        want_texts.push_back(text);
        break;
      }
    }
  }

  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 split_rng(seed);
    WireDecoder decoder;
    WireFrame frame;
    size_t fed = 0, type_i = 0, ev_i = 0, wm_i = 0, text_i = 0;
    while (fed < stream.size() || type_i < want_types.size()) {
      if (fed < stream.size()) {
        const size_t n =
            std::min<size_t>(1 + split_rng() % 96, stream.size() - fed);
        decoder.Feed(stream.data() + fed, n);
        fed += n;
      }
      while (decoder.Next(&frame) == WireDecoder::Result::kFrame) {
        ASSERT_LT(type_i, want_types.size());
        ASSERT_EQ(frame.type, want_types[type_i++]);
        switch (frame.type) {
          case FrameType::kTuple:
            ASSERT_EQ(frame.event.stream, want_events[ev_i].stream);
            ASSERT_EQ(frame.event.tuple.ts, want_events[ev_i].tuple.ts);
            ASSERT_EQ(frame.event.tuple.key, want_events[ev_i].tuple.key);
            ASSERT_EQ(frame.event.tuple.payload,
                      want_events[ev_i].tuple.payload);
            ++ev_i;
            break;
          case FrameType::kWatermark:
            ASSERT_EQ(frame.watermark, want_watermarks[wm_i++]);
            break;
          case FrameType::kSummary:
            ASSERT_EQ(frame.text, want_texts[text_i++]);
            break;
          default:
            break;
        }
      }
      ASSERT_TRUE(decoder.error().ok());
    }
    EXPECT_EQ(type_i, want_types.size()) << "split seed " << seed;
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

}  // namespace
}  // namespace oij
