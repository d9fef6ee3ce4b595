// Wire protocol: frame round-trips for every message type, decode
// statuses for hostile/corrupt bytes, and the hello handshake's
// version/endianness rejection — all without a socket.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "ms/spectrum.hpp"
#include "net/protocol.hpp"
#include "util/crc32.hpp"
#include "util/endian.hpp"

namespace spechd::net {
namespace {

ms::spectrum sample_spectrum() {
  ms::spectrum s;
  s.title = "scan=42 peptide=LVEYK";
  s.scan = 42;
  s.precursor_mz = 523.77;
  s.precursor_charge = 2;
  s.retention_time = 1234.5;
  s.label = 7;
  s.peaks = {{101.07, 1000.0f}, {202.12, 250.5f}, {303.19, 80.25f}};
  return s;
}

/// Decodes exactly one frame from `bytes`, asserting success.
frame_view decode_one(const std::string& bytes) {
  frame_view frame;
  const auto status =
      decode_frame(bytes.data(), bytes.size(), k_default_max_frame_bytes, frame);
  EXPECT_EQ(status, decode_status::ok);
  EXPECT_EQ(frame.frame_bytes, bytes.size());
  return frame;
}

/// Builds a raw frame with an arbitrary (possibly bogus) payload — for
/// crafting hostile bytes the encoders refuse to produce.
std::string raw_frame(const std::string& payload) {
  std::string out;
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out += payload;
  return out;
}

// --- round trips -------------------------------------------------------------

TEST(NetProtocol, HelloRoundTripsAndValidates) {
  std::string bytes;
  encode_hello_request(bytes, 9);
  const auto frame = decode_one(bytes);
  EXPECT_EQ(frame.type, msg_type::hello);
  EXPECT_EQ(frame.request_id, 9u);
  EXPECT_EQ(parse_hello_request(frame), hello_status::ok);
}

TEST(NetProtocol, PingPongAndDrainRoundTrip) {
  for (const auto type : {msg_type::ping, msg_type::pong, msg_type::drain,
                          msg_type::drain_ok, msg_type::hello_ok,
                          msg_type::stats}) {
    std::string bytes;
    switch (type) {
      case msg_type::ping: encode_ping(bytes, 1); break;
      case msg_type::pong: encode_pong(bytes, 2); break;
      case msg_type::drain: encode_drain_request(bytes, 3); break;
      case msg_type::drain_ok: encode_drain_response(bytes, 4); break;
      case msg_type::hello_ok: encode_hello_response(bytes, 5); break;
      default: encode_stats_request(bytes, 6); break;
    }
    const auto frame = decode_one(bytes);
    EXPECT_EQ(frame.type, type);
  }
}

TEST(NetProtocol, IngestBatchRoundTripsBitIdentically) {
  std::vector<ms::spectrum> batch = {sample_spectrum(), sample_spectrum()};
  batch[1].title = "second";
  batch[1].peaks.clear();

  std::string bytes;
  encode_ingest_request(bytes, 77, batch);
  const auto frame = decode_one(bytes);
  EXPECT_EQ(frame.type, msg_type::ingest);
  EXPECT_EQ(frame.request_id, 77u);

  std::vector<ms::spectrum> decoded;
  ASSERT_TRUE(parse_ingest_request(frame, decoded));
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded[i].title, batch[i].title);
    EXPECT_EQ(decoded[i].scan, batch[i].scan);
    EXPECT_EQ(decoded[i].precursor_mz, batch[i].precursor_mz);
    EXPECT_EQ(decoded[i].precursor_charge, batch[i].precursor_charge);
    EXPECT_EQ(decoded[i].retention_time, batch[i].retention_time);
    EXPECT_EQ(decoded[i].label, batch[i].label);
    ASSERT_EQ(decoded[i].peaks.size(), batch[i].peaks.size());
    for (std::size_t p = 0; p < batch[i].peaks.size(); ++p) {
      EXPECT_EQ(decoded[i].peaks[p].mz, batch[i].peaks[p].mz);
      EXPECT_EQ(decoded[i].peaks[p].intensity, batch[i].peaks[p].intensity);
    }
  }

  std::string response;
  encode_ingest_response(response, 77, batch.size());
  std::uint64_t accepted = 0;
  ASSERT_TRUE(parse_ingest_response(decode_one(response), accepted));
  EXPECT_EQ(accepted, batch.size());
}

TEST(NetProtocol, QueryRoundTripsFieldExactly) {
  const auto spectrum = sample_spectrum();
  std::string bytes;
  encode_query_request(bytes, 5, spectrum);
  ms::spectrum decoded;
  ASSERT_TRUE(parse_query_request(decode_one(bytes), decoded));
  EXPECT_EQ(decoded.title, spectrum.title);
  EXPECT_EQ(decoded.peaks.size(), spectrum.peaks.size());

  serve::query_result result;
  result.encodable = true;
  result.matched = true;
  result.bucket_key = -1048;
  result.shard = 3;
  result.local_label = 12;
  result.distance = 0.125;
  result.nearest_member = 0.0625;
  result.cluster_size = 9;
  result.view_epoch = 31;
  std::string response;
  encode_query_response(response, 5, result);
  serve::query_result round;
  ASSERT_TRUE(parse_query_response(decode_one(response), round));
  EXPECT_EQ(round.encodable, result.encodable);
  EXPECT_EQ(round.matched, result.matched);
  EXPECT_EQ(round.bucket_key, result.bucket_key);
  EXPECT_EQ(round.shard, result.shard);
  EXPECT_EQ(round.local_label, result.local_label);
  EXPECT_EQ(round.distance, result.distance);
  EXPECT_EQ(round.nearest_member, result.nearest_member);
  EXPECT_EQ(round.cluster_size, result.cluster_size);
  EXPECT_EQ(round.view_epoch, result.view_epoch);
}

TEST(NetProtocol, StatsRoundTrip) {
  wire_stats stats;
  stats.ingested = 1;
  stats.dropped = 2;
  stats.batches = 3;
  stats.record_count = 4;
  stats.cluster_count = 5;
  stats.queue_depth = 6;
  stats.degraded_shards = 7;
  stats.failed_shards = 8;
  stats.requests = 9;
  stats.shed = 10;
  std::string bytes;
  encode_stats_response(bytes, 1, stats);
  wire_stats round;
  ASSERT_TRUE(parse_stats_response(decode_one(bytes), round));
  EXPECT_EQ(round.ingested, 1u);
  EXPECT_EQ(round.dropped, 2u);
  EXPECT_EQ(round.batches, 3u);
  EXPECT_EQ(round.record_count, 4u);
  EXPECT_EQ(round.cluster_count, 5u);
  EXPECT_EQ(round.queue_depth, 6u);
  EXPECT_EQ(round.degraded_shards, 7u);
  EXPECT_EQ(round.failed_shards, 8u);
  EXPECT_EQ(round.requests, 9u);
  EXPECT_EQ(round.shed, 10u);
}

TEST(NetProtocol, ErrorResponseCarriesCodeAndMessage) {
  std::string bytes;
  encode_error_response(bytes, 13, error_code::shed_load, "queues full; retry");
  const auto frame = decode_one(bytes);
  EXPECT_EQ(frame.type, msg_type::error);
  error_code code{};
  std::string message;
  ASSERT_TRUE(parse_error_response(frame, code, message));
  EXPECT_EQ(code, error_code::shed_load);
  EXPECT_EQ(message, "queues full; retry");
}

// --- hostile / corrupt bytes -------------------------------------------------

TEST(NetProtocol, PartialFramesNeedMore) {
  std::string bytes;
  encode_ping(bytes, 1);
  // Every strict prefix of a valid frame is need_more, never an error.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    frame_view frame;
    EXPECT_EQ(decode_frame(bytes.data(), cut, k_default_max_frame_bytes, frame),
              decode_status::need_more)
        << "prefix length " << cut;
  }
}

TEST(NetProtocol, OversizedDeclaredLengthRejectedBeforeBuffering) {
  // Once the 8-byte header is in, the declared length alone must trigger
  // too_large: a hostile client must not be able to park the server in
  // need_more waiting for 1 GiB that never comes.
  std::string bytes;
  const std::uint32_t huge = 1u << 30;
  bytes.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  bytes.append("\0\0\0\0", 4);  // crc field; irrelevant, length is checked first
  frame_view frame;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size(), k_default_max_frame_bytes, frame),
            decode_status::too_large);
}

TEST(NetProtocol, CorruptPayloadFailsCrc) {
  std::string bytes;
  encode_ping(bytes, 1);
  bytes[bytes.size() - 1] ^= 0x01;  // flip one payload bit
  frame_view frame;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size(), k_default_max_frame_bytes, frame),
            decode_status::bad_crc);
}

TEST(NetProtocol, PayloadTooSmallForHeadIsMalformed) {
  const auto bytes = raw_frame("abc");  // 3 bytes < type + request_id
  frame_view frame;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size(), k_default_max_frame_bytes, frame),
            decode_status::malformed);
}

TEST(NetProtocol, MalformedBodiesRejectedNotCrashed) {
  // A CRC-valid frame whose body is garbage must fail the body parser.
  std::string payload;
  payload.push_back(static_cast<char>(msg_type::ingest));
  const std::uint64_t id = 1;
  payload.append(reinterpret_cast<const char*>(&id), sizeof(id));
  payload += "garbage that is not a batch";
  const auto bytes = raw_frame(payload);
  const auto frame = decode_one(bytes);
  std::vector<ms::spectrum> batch;
  EXPECT_FALSE(parse_ingest_request(frame, batch));

  serve::query_result result;
  EXPECT_FALSE(parse_query_response(frame, result));
  wire_stats stats;
  EXPECT_FALSE(parse_stats_response(frame, stats));
}

TEST(NetProtocol, IngestDeclaringHugeCountRejected) {
  // count says 2^32 spectra but no bytes follow — the parser must reject
  // on bounds, not resize a vector to the declared count.
  std::string payload;
  payload.push_back(static_cast<char>(msg_type::ingest));
  const std::uint64_t id = 1;
  payload.append(reinterpret_cast<const char*>(&id), sizeof(id));
  const std::uint64_t count = 1ull << 32;
  payload.append(reinterpret_cast<const char*>(&count), sizeof(count));
  const auto bytes = raw_frame(payload);  // frame_view points into these bytes
  const auto frame = decode_one(bytes);
  std::vector<ms::spectrum> batch;
  EXPECT_FALSE(parse_ingest_request(frame, batch));
}

/// A CRC-valid frame of `type` whose body is `head` followed by `zeros`
/// zero bytes.
std::string zero_padded_frame(msg_type type, const std::string& head, std::size_t zeros) {
  std::string payload;
  payload.push_back(static_cast<char>(type));
  const std::uint64_t id = 1;
  payload.append(reinterpret_cast<const char*>(&id), sizeof(id));
  payload += head;
  payload.append(zeros, '\0');
  return raw_frame(payload);
}

template <typename T>
std::string le_bytes(T v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

TEST(NetProtocol, IngestCountIsBoundedByTheSmallestSpectrum) {
  // An empty spectrum takes 40 wire bytes. A count that only fits at one
  // byte per spectrum must be refused before the batch is allocated.
  {
    const auto bytes =
        zero_padded_frame(msg_type::ingest, le_bytes<std::uint64_t>(4096), 4096);
    std::vector<ms::spectrum> batch;
    EXPECT_FALSE(parse_ingest_request(decode_one(bytes), batch));
    EXPECT_TRUE(batch.empty());
  }
  {
    const auto bytes =
        zero_padded_frame(msg_type::ingest, le_bytes<std::uint64_t>(102), 4080);
    std::vector<ms::spectrum> batch;
    ASSERT_TRUE(parse_ingest_request(decode_one(bytes), batch));
    ASSERT_EQ(batch.size(), 102U);
    for (const auto& s : batch) {
      EXPECT_TRUE(s.title.empty());
      EXPECT_TRUE(s.peaks.empty());
    }
  }
}

TEST(NetProtocol, SearchHitCountIsBoundedByTheSmallestHit) {
  // Head: encodable u8, buckets_probed u64, candidates u64, hit_count u32;
  // a hit with an empty name takes 40 wire bytes.
  const auto head = [](std::uint32_t hits) {
    return le_bytes<std::uint8_t>(1) + le_bytes<std::uint64_t>(2) +
           le_bytes<std::uint64_t>(3) + le_bytes(hits);
  };
  {
    const auto bytes = zero_padded_frame(msg_type::query_topk_ok, head(4096), 4096);
    serve::search_result result;
    EXPECT_FALSE(parse_search_response(decode_one(bytes), result));
    EXPECT_TRUE(result.hits.empty());
  }
  {
    const auto bytes = zero_padded_frame(msg_type::query_topk_ok, head(102), 4080);
    serve::search_result result;
    ASSERT_TRUE(parse_search_response(decode_one(bytes), result));
    EXPECT_EQ(result.hits.size(), 102U);
    EXPECT_EQ(result.candidates, 3U);
  }
}

// --- hello handshake ----------------------------------------------------------

/// Hello body layout: magic[4] + version u32 + endian marker u32.
std::string hello_payload(std::uint32_t version, std::uint32_t marker) {
  std::string payload;
  payload.push_back(static_cast<char>(msg_type::hello));
  const std::uint64_t id = 1;
  payload.append(reinterpret_cast<const char*>(&id), sizeof(id));
  payload.append(k_hello_magic, sizeof(k_hello_magic));
  payload.append(reinterpret_cast<const char*>(&version), sizeof(version));
  payload.append(reinterpret_cast<const char*>(&marker), sizeof(marker));
  return payload;
}

TEST(NetProtocol, HelloRejectsForeignEndianMarker) {
  // A big-endian peer writes the marker natively; we read it byte-reversed.
  const auto bytes =
      raw_frame(hello_payload(k_protocol_version, util::byteswap32(k_endian_marker)));
  EXPECT_EQ(parse_hello_request(decode_one(bytes)), hello_status::foreign_endian);
}

TEST(NetProtocol, HelloRejectsUnknownVersion) {
  const auto bytes = raw_frame(hello_payload(k_protocol_version + 1, k_endian_marker));
  EXPECT_EQ(parse_hello_request(decode_one(bytes)), hello_status::bad_version);
}

TEST(NetProtocol, HelloRejectsBadMagicAndShortBody) {
  auto payload = hello_payload(k_protocol_version, k_endian_marker);
  payload[9] = 'X';  // corrupt first magic byte (after type + request_id)
  EXPECT_EQ(parse_hello_request(decode_one(raw_frame(payload))),
            hello_status::bad_magic);

  auto short_payload = hello_payload(k_protocol_version, k_endian_marker);
  short_payload.resize(short_payload.size() - 2);
  EXPECT_EQ(parse_hello_request(decode_one(raw_frame(short_payload))),
            hello_status::malformed);
}

// --- golden bytes -------------------------------------------------------------

/// One encoded frame plus the parser for its body (empty for bodies that
/// are empty or that no peer parses).
struct encoded_frame {
  const char* name;
  std::string bytes;
  std::function<bool(const frame_view&)> parse;
};

/// Every message kind from fixed inputs, plus the empty-batch and
/// bucketless-histogram edge cases.
std::vector<encoded_frame> golden_inputs() {
  std::vector<encoded_frame> frames;
  const auto add = [&](const char* name, auto encode,
                       std::function<bool(const frame_view&)> parse = {}) {
    std::string bytes;
    encode(bytes);
    frames.push_back({name, std::move(bytes), std::move(parse)});
  };

  add("hello", [](std::string& o) { encode_hello_request(o, 1); },
      [](const frame_view& f) { return parse_hello_request(f) == hello_status::ok; });
  add("hello_ok", [](std::string& o) { encode_hello_response(o, 2); });
  add("ping", [](std::string& o) { encode_ping(o, 3); });
  add("pong", [](std::string& o) { encode_pong(o, 4); });

  std::vector<ms::spectrum> batch = {sample_spectrum(), sample_spectrum()};
  batch[1].title.clear();
  batch[1].peaks.clear();
  batch[1].precursor_charge = -3;
  const auto parse_batch = [](const frame_view& f) {
    std::vector<ms::spectrum> decoded;
    return parse_ingest_request(f, decoded);
  };
  add("ingest", [&](std::string& o) { encode_ingest_request(o, 5, batch); }, parse_batch);
  add("ingest_empty", [](std::string& o) { encode_ingest_request(o, 6, {}); },
      parse_batch);
  add("ingest_ok", [](std::string& o) { encode_ingest_response(o, 7, 123456789); },
      [](const frame_view& f) {
        std::uint64_t accepted = 0;
        return parse_ingest_response(f, accepted);
      });

  const auto parse_spectrum = [](const frame_view& f) {
    ms::spectrum s;
    return parse_query_request(f, s);
  };
  add("query", [](std::string& o) { encode_query_request(o, 8, sample_spectrum()); },
      parse_spectrum);
  serve::query_result result;
  result.encodable = true;
  result.matched = true;
  result.bucket_key = -1048;
  result.shard = 3;
  result.local_label = 12;
  result.distance = 0.125;
  result.nearest_member = 0.0625;
  result.cluster_size = 9;
  result.view_epoch = 31;
  add("query_ok", [&](std::string& o) { encode_query_response(o, 9, result); },
      [](const frame_view& f) {
        serve::query_result r;
        return parse_query_response(f, r);
      });

  add("query_topk",
      [](std::string& o) { encode_search_request(o, 10, sample_spectrum(), 5, 150.25); },
      [](const frame_view& f) {
        ms::spectrum s;
        std::uint32_t top_k = 0;
        double tolerance = 0.0;
        return parse_search_request(f, s, top_k, tolerance);
      });
  serve::search_result search;
  search.buckets_probed = 4;
  search.candidates = 311;
  search.hits = {{17, 204, 0.19921875, -1048, 523.77, 2, "LVEYK/2"},
                 {3, 260, 0.25390625, 9001, 611.5, 3, ""}};
  add("query_topk_ok", [&](std::string& o) { encode_search_response(o, 11, search); },
      [](const frame_view& f) {
        serve::search_result r;
        return parse_search_response(f, r);
      });

  add("get_metrics", [](std::string& o) { encode_metrics_request(o, 12); });
  wire_metrics metrics;
  metrics.snapshot.counters = {{"spechd_a_total", 42}, {"spechd_b_total", 0}};
  metrics.snapshot.gauges = {{"spechd_depth", -7}};
  metrics.snapshot.histograms = {
      {"spechd_latency_ns", "ns", 3, 1234567, {{0, 0, 1}, {4096, 4351, 2}}}};
  metrics.slow = {{"ingest", 99, 50'000'000,
                   {{obs::stage::net_parse, 1000}, {obs::stage::enqueue, 49'000'000}}},
                  {"query", 100, 12'000'000, {}}};
  const auto parse_metrics = [](const frame_view& f) {
    wire_metrics m;
    return parse_metrics_response(f, m);
  };
  add("metrics_ok", [&](std::string& o) { encode_metrics_response(o, 13, metrics); },
      parse_metrics);
  wire_metrics bucketless;
  bucketless.snapshot.histograms = {{"spechd_empty_ns", "ns", 0, 0, {}}};
  add("metrics_ok_bucketless",
      [&](std::string& o) { encode_metrics_response(o, 14, bucketless); }, parse_metrics);

  add("get_debug_dump", [](std::string& o) { encode_debug_dump_request(o, 15); });
  wire_debug_dump dump;
  dump.total_events_recorded = 4097;
  obs::flight_event event;
  event.seq = 4096;
  event.steady_ns = 111;
  event.wall_ns = 222;
  event.request_id = 333;
  event.arg0 = 444;
  event.arg1 = 555;
  event.thread_id = 666;
  event.kind = 3;
  dump.events = {event, event};
  dump.events[1].seq = 4097;
  dump.events[1].kind = obs::k_event_kind_max;
  dump.shards = {{0, 0, 2, 76, 1, 0}, {1, 1, 2, 23554, 9, 3}};
  dump.stalled = {"shard-1/writer", ""};
  add("debug_dump_ok", [&](std::string& o) { encode_debug_dump_response(o, 16, dump); },
      [](const frame_view& f) {
        wire_debug_dump d;
        return parse_debug_dump_response(f, d);
      });

  add("stats", [](std::string& o) { encode_stats_request(o, 17); });
  const wire_stats stats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  add("stats_ok", [&](std::string& o) { encode_stats_response(o, 18, stats); },
      [](const frame_view& f) {
        wire_stats s;
        return parse_stats_response(f, s);
      });
  add("drain", [](std::string& o) { encode_drain_request(o, 19); });
  add("drain_ok", [](std::string& o) { encode_drain_response(o, 20); });
  add("error",
      [](std::string& o) {
        encode_error_response(o, 21, error_code::malformed, "ingest body did not parse");
      },
      [](const frame_view& f) {
        error_code code{};
        std::string message;
        return parse_error_response(f, code, message);
      });
  return frames;
}

/// Frame length and CRC-32 over the whole frame (header included), taken
/// from the hand-written codec this layout was first shipped with.
struct golden_digest {
  const char* name;
  std::size_t bytes;
  std::uint32_t crc;
};

constexpr golden_digest k_golden_frames[] = {
    {"hello", 29, 0x9ad45a25u},
    {"hello_ok", 21, 0x88202b1eu},
    {"ping", 17, 0xfa33e604u},
    {"pong", 17, 0x8d38d800u},
    {"ingest", 162, 0x81ff28ffu},
    {"ingest_empty", 25, 0x348fab10u},
    {"ingest_ok", 25, 0xe130c202u},
    {"query", 114, 0x3727d31bu},
    {"query_ok", 71, 0x3d86f72fu},
    {"query_topk", 126, 0xc129be7eu},
    {"query_topk_ok", 125, 0x73f680fcu},
    {"get_metrics", 17, 0x6d3b1e98u},
    {"metrics_ok", 281, 0xee011f38u},
    {"metrics_ok_bucketless", 78, 0x570fd82eu},
    {"get_debug_dump", 17, 0x98f9eb1bu},
    {"debug_dump_ok", 245, 0xf91d36afu},
    {"stats", 17, 0x6a35904au},
    {"stats_ok", 97, 0xf0c631f4u},
    {"drain", 17, 0xcc2107cfu},
    {"drain_ok", 17, 0xbb2a39cbu},
    {"error", 48, 0xf3fa21d5u},
};

TEST(NetProtocol, EveryFrameMatchesGoldenBytes) {
  // Round trips cannot catch a layout change made on both sides at once;
  // these digests pin the bytes themselves. Every proper prefix of a
  // parsed body must also be rejected.
  const auto frames = golden_inputs();
  ASSERT_EQ(frames.size(), std::size(k_golden_frames));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto& f = frames[i];
    SCOPED_TRACE(f.name);
    EXPECT_STREQ(f.name, k_golden_frames[i].name);
    const auto crc = crc32(f.bytes.data(), f.bytes.size());
    EXPECT_EQ(f.bytes.size(), k_golden_frames[i].bytes);
    EXPECT_EQ(crc, k_golden_frames[i].crc);
    const auto frame = decode_one(f.bytes);
    if (!f.parse) {
      EXPECT_TRUE(frame.body_bytes == 0 || frame.type == msg_type::hello_ok);
      continue;
    }
    EXPECT_TRUE(f.parse(frame));
    for (std::size_t len = 0; len < frame.body_bytes; ++len) {
      frame_view prefix = frame;
      prefix.body_bytes = len;
      EXPECT_FALSE(f.parse(prefix)) << "prefix " << len;
    }
  }
}

TEST(NetProtocol, DecodeConsumesFramesInSequence) {
  std::string bytes;
  encode_ping(bytes, 1);
  encode_ping(bytes, 2);
  frame_view first;
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), k_default_max_frame_bytes, first),
            decode_status::ok);
  EXPECT_EQ(first.request_id, 1u);
  frame_view second;
  ASSERT_EQ(decode_frame(bytes.data() + first.frame_bytes,
                         bytes.size() - first.frame_bytes, k_default_max_frame_bytes,
                         second),
            decode_status::ok);
  EXPECT_EQ(second.request_id, 2u);
}

}  // namespace
}  // namespace spechd::net
