// Wire protocol: frame round-trips for every message type, decode
// statuses for hostile/corrupt bytes, and the hello handshake's
// version/endianness rejection — all without a socket.
#include <gtest/gtest.h>

#include <cstring>
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
