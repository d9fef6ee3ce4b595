#include "net/protocol.hpp"

#include <cstring>

#include "ms/spectrum_wire.hpp"
#include "util/crc32.hpp"
#include "util/endian.hpp"

// Body layouts: one field list per body type, run by the codec's sizer,
// writer and reader (ms/spectrum_wire.hpp).
namespace spechd::ms {

template <>
struct wire<serve::query_result> {
  template <typename V, typename R>
  static bool fields(V& v, R& r) {
    return v(as<std::uint8_t>(r.encodable), as<std::uint8_t>(r.matched), r.bucket_key,
             as<std::uint64_t>(r.shard), r.local_label, r.distance, r.nearest_member,
             as<std::uint64_t>(r.cluster_size), r.view_epoch);
  }
};

template <>
struct wire<serve::search_hit> {
  template <typename V, typename R>
  static bool fields(V& v, R& h) {
    return v(h.id, h.hamming, h.distance, h.bucket_key, h.precursor_mz,
             h.precursor_charge, h.name);
  }
};

template <>
struct wire<serve::search_result> {
  template <typename V, typename R>
  static bool fields(V& v, R& r) {
    return v(as<std::uint8_t>(r.encodable), r.buckets_probed, r.candidates,
             counted<std::uint32_t>(r.hits));
  }
};

template <>
struct wire<obs::counter_sample> {
  template <typename V, typename R>
  static bool fields(V& v, R& c) {
    return v(c.name, c.value);
  }
};

template <>
struct wire<obs::gauge_sample> {
  template <typename V, typename R>
  static bool fields(V& v, R& g) {
    return v(g.name, g.value);
  }
};

template <>
struct wire<obs::hist_bucket_sample> {
  template <typename V, typename R>
  static bool fields(V& v, R& b) {
    return v(b.lo, b.hi, b.count);
  }
};

template <>
struct wire<obs::histogram_sample> {
  template <typename V, typename R>
  static bool fields(V& v, R& h) {
    return v(h.name, h.unit, h.count, h.sum, counted<std::uint32_t>(h.buckets));
  }
};

template <>
struct wire<obs::stage_sample> {
  template <typename V, typename R>
  static bool fields(V& v, R& s) {
    return v(as<std::uint8_t>(s.st), s.ns) &&
           v.valid(static_cast<std::uint8_t>(s.st) <= obs::k_stage_max);
  }
};

template <>
struct wire<obs::slow_request> {
  template <typename V, typename R>
  static bool fields(V& v, R& s) {
    return v(s.kind, s.seq, s.total_ns, counted<std::uint32_t>(s.stages));
  }
};

template <>
struct wire<net::wire_metrics> {
  template <typename V, typename R>
  static bool fields(V& v, R& m) {
    return v(counted<std::uint32_t>(m.snapshot.counters),
             counted<std::uint32_t>(m.snapshot.gauges),
             counted<std::uint32_t>(m.snapshot.histograms),
             counted<std::uint32_t>(m.slow));
  }
};

/// Every flight_event field except the struct's padding.
template <>
struct wire<obs::flight_event> {
  template <typename V, typename R>
  static bool fields(V& v, R& e) {
    return v(e.seq, e.steady_ns, e.wall_ns, e.request_id, e.arg0, e.arg1, e.thread_id,
             e.kind) &&
           v.valid(e.kind != 0 && e.kind <= obs::k_event_kind_max);
  }
};

template <>
struct wire<net::wire_shard_status> {
  template <typename V, typename R>
  static bool fields(V& v, R& s) {
    return v(s.shard, s.health, s.generation, s.journal_bytes, s.journal_records,
             s.queue_depth);
  }
};

template <>
struct wire<net::wire_debug_dump> {
  template <typename V, typename R>
  static bool fields(V& v, R& d) {
    return v(d.total_events_recorded, counted<std::uint32_t>(d.events),
             counted<std::uint32_t>(d.shards), counted<std::uint32_t>(d.stalled));
  }
};

template <>
struct wire<net::wire_stats> {
  template <typename V, typename R>
  static bool fields(V& v, R& s) {
    return v(s.ingested, s.dropped, s.batches, s.record_count, s.cluster_count,
             s.queue_depth, s.degraded_shards, s.failed_shards, s.requests, s.shed);
  }
};

}  // namespace spechd::ms

namespace spechd::net {

namespace {

/// Frame header: u32 payload_bytes + u32 crc (the journal record idiom).
constexpr std::size_t k_frame_bytes = 2 * sizeof(std::uint32_t);
/// Every payload starts with type u8 + request_id u64.
constexpr std::size_t k_payload_head = sizeof(std::uint8_t) + sizeof(std::uint64_t);

/// Appends one frame: the type/request_id head, then the `body` fields.
template <typename... Body>
void encode(std::string& out, msg_type type, std::uint64_t request_id,
            const Body&... body) {
  ms::append_crc_frame(out, [&](auto& v) {
    return v(ms::as<std::uint8_t>(type), request_id, body...);
  });
}

/// Reads the `body` fields from a frame; false unless they parse and
/// cover the body exactly.
template <typename... Body>
bool parse(const frame_view& frame, Body&&... body) {
  ms::wire_reader in{{frame.body, frame.body_bytes}};
  return in(body...) && in.done();
}

}  // namespace

bool known_msg_type(std::uint8_t type) noexcept {
  switch (static_cast<msg_type>(type)) {
    case msg_type::hello:
    case msg_type::ping:
    case msg_type::ingest:
    case msg_type::query:
    case msg_type::stats:
    case msg_type::drain:
    case msg_type::query_topk:
    case msg_type::get_metrics:
    case msg_type::get_debug_dump:
    case msg_type::hello_ok:
    case msg_type::pong:
    case msg_type::ingest_ok:
    case msg_type::query_ok:
    case msg_type::stats_ok:
    case msg_type::drain_ok:
    case msg_type::error:
    case msg_type::query_topk_ok:
    case msg_type::metrics_ok:
    case msg_type::debug_dump_ok:
      return true;
  }
  return false;
}

const char* msg_type_name(msg_type type) noexcept {
  switch (type) {
    case msg_type::hello: return "hello";
    case msg_type::ping: return "ping";
    case msg_type::ingest: return "ingest";
    case msg_type::query: return "query";
    case msg_type::stats: return "stats";
    case msg_type::drain: return "drain";
    case msg_type::query_topk: return "query_topk";
    case msg_type::get_metrics: return "get_metrics";
    case msg_type::get_debug_dump: return "get_debug_dump";
    case msg_type::hello_ok: return "hello_ok";
    case msg_type::pong: return "pong";
    case msg_type::ingest_ok: return "ingest_ok";
    case msg_type::query_ok: return "query_ok";
    case msg_type::stats_ok: return "stats_ok";
    case msg_type::drain_ok: return "drain_ok";
    case msg_type::error: return "error";
    case msg_type::query_topk_ok: return "query_topk_ok";
    case msg_type::metrics_ok: return "metrics_ok";
    case msg_type::debug_dump_ok: return "debug_dump_ok";
  }
  return "unknown";
}

const char* error_code_name(error_code code) noexcept {
  switch (code) {
    case error_code::shed_load: return "shed_load";
    case error_code::malformed: return "malformed";
    case error_code::bad_crc: return "bad_crc";
    case error_code::too_large: return "too_large";
    case error_code::bad_version: return "bad_version";
    case error_code::foreign_endian: return "foreign_endian";
    case error_code::bad_handshake: return "bad_handshake";
    case error_code::rejected: return "rejected";
    case error_code::server_error: return "server_error";
  }
  return "unknown";
}

decode_status decode_frame(const char* data, std::size_t size,
                           std::size_t max_frame_bytes, frame_view& out) {
  if (size < k_frame_bytes) return decode_status::need_more;
  std::uint32_t payload_bytes = 0;
  std::uint32_t stored_crc = 0;
  std::memcpy(&payload_bytes, data, sizeof(payload_bytes));
  std::memcpy(&stored_crc, data + sizeof(payload_bytes), sizeof(stored_crc));
  // Order matters: the length field is validated *before* waiting for
  // `payload_bytes` of input — a hostile length must neither allocate nor
  // stall the connection in need_more forever.
  if (payload_bytes > max_frame_bytes) return decode_status::too_large;
  if (payload_bytes < k_payload_head) return decode_status::malformed;
  if (size - k_frame_bytes < payload_bytes) return decode_status::need_more;
  const char* payload = data + k_frame_bytes;
  if (crc32(payload, payload_bytes) != stored_crc) return decode_status::bad_crc;
  std::uint8_t type = 0;
  std::memcpy(&type, payload, sizeof(type));
  std::memcpy(&out.request_id, payload + sizeof(type), sizeof(out.request_id));
  out.type = static_cast<msg_type>(type);
  out.body = payload + k_payload_head;
  out.body_bytes = payload_bytes - k_payload_head;
  out.frame_bytes = k_frame_bytes + payload_bytes;
  return decode_status::ok;
}

// --- hello -------------------------------------------------------------------

void encode_hello_request(std::string& out, std::uint64_t request_id) {
  encode(out, msg_type::hello, request_id, k_hello_magic, k_protocol_version,
         k_endian_marker);
}

void encode_hello_response(std::string& out, std::uint64_t request_id) {
  encode(out, msg_type::hello_ok, request_id, k_protocol_version);
}

hello_status parse_hello_request(const frame_view& frame) {
  char magic[4] = {};
  std::uint32_t version = 0;
  std::uint32_t marker = 0;
  if (!parse(frame, magic, version, marker)) return hello_status::malformed;
  if (std::memcmp(magic, k_hello_magic, 4) != 0) return hello_status::bad_magic;
  // The marker is written in the peer's native order; byte-reversed means
  // a big-endian peer — every numeric field it sends would be garbage, so
  // refuse loudly at the handshake instead of with CRC noise later.
  if (marker == util::byteswap32(k_endian_marker)) return hello_status::foreign_endian;
  if (marker != k_endian_marker) return hello_status::malformed;
  if (version != k_protocol_version) return hello_status::bad_version;
  return hello_status::ok;
}

// --- empty bodies ------------------------------------------------------------

void encode_ping(std::string& out, std::uint64_t request_id) {
  encode(out, msg_type::ping, request_id);
}

void encode_pong(std::string& out, std::uint64_t request_id) {
  encode(out, msg_type::pong, request_id);
}

void encode_drain_request(std::string& out, std::uint64_t request_id) {
  encode(out, msg_type::drain, request_id);
}

void encode_drain_response(std::string& out, std::uint64_t request_id) {
  encode(out, msg_type::drain_ok, request_id);
}

void encode_metrics_request(std::string& out, std::uint64_t request_id) {
  encode(out, msg_type::get_metrics, request_id);
}

void encode_debug_dump_request(std::string& out, std::uint64_t request_id) {
  encode(out, msg_type::get_debug_dump, request_id);
}

void encode_stats_request(std::string& out, std::uint64_t request_id) {
  encode(out, msg_type::stats, request_id);
}

// --- ingest ------------------------------------------------------------------

void encode_ingest_request(std::string& out, std::uint64_t request_id,
                           const std::vector<ms::spectrum>& batch) {
  encode(out, msg_type::ingest, request_id, ms::counted<std::uint64_t>(batch));
}

bool parse_ingest_request(const frame_view& frame, std::vector<ms::spectrum>& batch) {
  return parse(frame, ms::counted<std::uint64_t>(batch));
}

void encode_ingest_response(std::string& out, std::uint64_t request_id,
                            std::uint64_t accepted) {
  encode(out, msg_type::ingest_ok, request_id, accepted);
}

bool parse_ingest_response(const frame_view& frame, std::uint64_t& accepted) {
  return parse(frame, accepted);
}

// --- query -------------------------------------------------------------------

void encode_query_request(std::string& out, std::uint64_t request_id,
                          const ms::spectrum& spectrum) {
  encode(out, msg_type::query, request_id, spectrum);
}

bool parse_query_request(const frame_view& frame, ms::spectrum& spectrum) {
  return parse(frame, spectrum);
}

void encode_query_response(std::string& out, std::uint64_t request_id,
                           const serve::query_result& result) {
  encode(out, msg_type::query_ok, request_id, result);
}

bool parse_query_response(const frame_view& frame, serve::query_result& result) {
  return parse(frame, result);
}

// --- search (query_topk) -----------------------------------------------------

void encode_search_request(std::string& out, std::uint64_t request_id,
                           const ms::spectrum& spectrum, std::uint32_t top_k,
                           double tolerance_da) {
  encode(out, msg_type::query_topk, request_id, top_k, tolerance_da, spectrum);
}

bool parse_search_request(const frame_view& frame, ms::spectrum& spectrum,
                          std::uint32_t& top_k, double& tolerance_da) {
  return parse(frame, top_k, tolerance_da, spectrum);
}

void encode_search_response(std::string& out, std::uint64_t request_id,
                            const serve::search_result& result) {
  encode(out, msg_type::query_topk_ok, request_id, result);
}

bool parse_search_response(const frame_view& frame, serve::search_result& result) {
  return parse(frame, result);
}

// --- telemetry ---------------------------------------------------------------

void encode_metrics_response(std::string& out, std::uint64_t request_id,
                             const wire_metrics& metrics) {
  encode(out, msg_type::metrics_ok, request_id, metrics);
}

bool parse_metrics_response(const frame_view& frame, wire_metrics& metrics) {
  return parse(frame, metrics);
}

void encode_debug_dump_response(std::string& out, std::uint64_t request_id,
                                const wire_debug_dump& dump) {
  encode(out, msg_type::debug_dump_ok, request_id, dump);
}

bool parse_debug_dump_response(const frame_view& frame, wire_debug_dump& dump) {
  return parse(frame, dump);
}

void encode_stats_response(std::string& out, std::uint64_t request_id,
                           const wire_stats& stats) {
  encode(out, msg_type::stats_ok, request_id, stats);
}

bool parse_stats_response(const frame_view& frame, wire_stats& stats) {
  return parse(frame, stats);
}

// --- error -------------------------------------------------------------------

void encode_error_response(std::string& out, std::uint64_t request_id,
                           error_code code, const std::string& message) {
  encode(out, msg_type::error, request_id, ms::as<std::uint16_t>(code), message);
}

bool parse_error_response(const frame_view& frame, error_code& code,
                          std::string& message) {
  return parse(frame, ms::as<std::uint16_t>(code), message);
}

}  // namespace spechd::net
