// SpecHD wire protocol: length-prefixed, CRC-32-framed binary messages
// over a byte stream — the network face of the serving tier.
//
// Frames reuse the `.sphjrnl` record idiom so torn/corrupt detection is
// the same everywhere bytes cross a trust boundary:
//
//   u32 payload_bytes, u32 CRC-32(payload)
//   payload: type u8, request_id u64, body
//
// All integers and floats are little-endian (util/endian.hpp pins the
// build to that). The first frame on a connection must be a `hello`
// request carrying the protocol magic, version, and a native-order endian
// marker — a big-endian client's marker reads back byte-reversed, and the
// server rejects it with a typed `foreign_endian` error instead of a
// baffling CRC failure on the first real payload.
//
// Requests and responses are matched by `request_id` (client-chosen,
// echoed verbatim), so a client may pipeline requests; the server
// processes each connection's frames in arrival order and responds in
// that order.
//
// Each body layout is one field list, run by the codec in
// ms/spectrum_wire.hpp: the same list sizes, writes and reads the body, so
// an encoder and its parser cannot disagree. Spectra cross the wire in
// exactly the journal's spectrum layout — the basis of the golden
// guarantee that networked ingest is bit-identical to in-process ingest.
// Body parsers never trust a count: every counted list is capped at
// (bytes left) ÷ (its element's minimum wire size) before anything is
// allocated, so a lying count costs no more memory than the frame itself.
//
// Every refusal is a typed `error` response (code + human-readable
// message): admission control sheds with `shed_load`, a read-only shard
// rejects with `rejected`, malformed bytes get `malformed`/`too_large`/
// `bad_crc` followed by connection close.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ms/spectrum.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/search.hpp"
#include "serve/shard.hpp"

namespace spechd::net {

inline constexpr std::uint32_t k_protocol_version = 1;
/// Written as a native u32 in the hello body; reads back byte-reversed
/// when the peer's byte order differs.
inline constexpr std::uint32_t k_endian_marker = 0x01020304;
/// Hello magic ("SPNW": SPechd NetWork).
inline constexpr char k_hello_magic[4] = {'S', 'P', 'N', 'W'};
/// Default cap on one frame's payload — one ingest batch; far beyond any
/// real batch, and small enough that a corrupt/hostile length field never
/// drives a huge allocation before the CRC could catch it.
inline constexpr std::size_t k_default_max_frame_bytes = 32U << 20;

enum class msg_type : std::uint8_t {
  // requests
  hello = 1,
  ping = 2,
  ingest = 3,
  query = 4,
  stats = 5,
  drain = 6,
  query_topk = 7,      ///< OMS search: spectrum + top_k + tolerance
  get_metrics = 8,     ///< full telemetry snapshot (src/obs registry + slow ring)
  get_debug_dump = 9,  ///< flight-recorder tail + shard status + watchdog stalls
  // responses
  hello_ok = 64,
  pong = 65,
  ingest_ok = 66,
  query_ok = 67,
  stats_ok = 68,
  drain_ok = 69,
  error = 70,
  query_topk_ok = 71,
  metrics_ok = 72,
  debug_dump_ok = 73,
};

bool known_msg_type(std::uint8_t type) noexcept;
const char* msg_type_name(msg_type type) noexcept;

/// Typed refusal codes carried by `error` responses.
enum class error_code : std::uint16_t {
  shed_load = 1,       ///< admission control: queues past the shed threshold
  malformed = 2,       ///< frame/body did not parse (connection closes)
  bad_crc = 3,         ///< frame CRC mismatch (connection closes)
  too_large = 4,       ///< declared frame length above the cap (closes)
  bad_version = 5,     ///< hello carried an unsupported protocol version
  foreign_endian = 6,  ///< hello endian marker was byte-reversed
  bad_handshake = 7,   ///< first frame was not a hello
  rejected = 8,        ///< service refused (degraded/failed/shutdown shard)
  server_error = 9,    ///< unexpected server-side exception
};

const char* error_code_name(error_code code) noexcept;

/// Aggregate counters a `stats` request returns (service + server tier).
struct wire_stats {
  std::uint64_t ingested = 0;
  std::uint64_t dropped = 0;
  std::uint64_t batches = 0;
  std::uint64_t record_count = 0;
  std::uint64_t cluster_count = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t degraded_shards = 0;
  std::uint64_t failed_shards = 0;
  std::uint64_t requests = 0;  ///< frames the server processed
  std::uint64_t shed = 0;      ///< ingests refused by admission control
};

/// What a `get_metrics` request returns: the whole registry plus the
/// slow-request ring (obs/metrics.hpp, obs/trace.hpp).
struct wire_metrics {
  obs::metrics_snapshot snapshot;
  std::vector<obs::slow_request> slow;
  friend bool operator==(const wire_metrics&, const wire_metrics&) = default;
};

/// One shard's live status row in a debug dump (obs/flight.hpp's
/// shard-status table, mirrored by shard::update_status on every state
/// change).
struct wire_shard_status {
  std::uint32_t shard = 0;
  std::uint32_t health = 0;  ///< serve::shard_health numeric value
  std::uint64_t generation = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t queue_depth = 0;
  friend bool operator==(const wire_shard_status&, const wire_shard_status&) = default;
};

/// What a `get_debug_dump` request returns: the flight recorder's current
/// event tail (seq-ordered), lifetime recorded-event count (so the caller
/// can see how much the rings have dropped), the per-shard status table,
/// and the names of any components the watchdog currently flags as
/// stalled. This is the live-process twin of a `.sphcrash` dump — same
/// data, fetched over the wire instead of out of a crash file.
struct wire_debug_dump {
  std::uint64_t total_events_recorded = 0;
  std::vector<obs::flight_event> events;
  std::vector<wire_shard_status> shards;
  std::vector<std::string> stalled;
  friend bool operator==(const wire_debug_dump&, const wire_debug_dump&) = default;
};

// --- frame decode ------------------------------------------------------------

enum class decode_status {
  need_more,  ///< buffer ends mid-frame; read more bytes
  ok,         ///< one complete, CRC-verified frame parsed
  bad_crc,    ///< frame CRC mismatch
  too_large,  ///< declared payload exceeds the cap
  malformed,  ///< payload too small to hold type + request_id
};

/// Zero-copy view of one decoded frame; `body` points into the caller's
/// buffer and is valid only until that buffer changes.
struct frame_view {
  msg_type type{};
  std::uint64_t request_id = 0;
  const char* body = nullptr;
  std::size_t body_bytes = 0;
  std::size_t frame_bytes = 0;  ///< total bytes to consume from the buffer
};

/// Attempts to decode one frame from the front of `data`. On `ok` the
/// caller consumes `out.frame_bytes` and may try again; on `need_more` it
/// reads more input; anything else is a protocol violation (respond with
/// the matching typed error, then close).
decode_status decode_frame(const char* data, std::size_t size,
                           std::size_t max_frame_bytes, frame_view& out);

// --- encoders (append one complete frame to `out`) ---------------------------

void encode_hello_request(std::string& out, std::uint64_t request_id);
void encode_hello_response(std::string& out, std::uint64_t request_id);
void encode_ping(std::string& out, std::uint64_t request_id);
void encode_pong(std::string& out, std::uint64_t request_id);
void encode_ingest_request(std::string& out, std::uint64_t request_id,
                           const std::vector<ms::spectrum>& batch);
void encode_ingest_response(std::string& out, std::uint64_t request_id,
                            std::uint64_t accepted);
void encode_query_request(std::string& out, std::uint64_t request_id,
                          const ms::spectrum& spectrum);
void encode_query_response(std::string& out, std::uint64_t request_id,
                           const serve::query_result& result);
/// OMS search (`query --topk` over the wire): the spectrum crosses in the
/// journal's wire layout — exactly like ingest/query — plus the top-k and
/// modification-mass tolerance; the response carries every search_hit
/// field, so a networked search is field-for-field comparable to an
/// in-process clustering_service::search (the golden tests pin equality).
void encode_search_request(std::string& out, std::uint64_t request_id,
                           const ms::spectrum& spectrum, std::uint32_t top_k,
                           double tolerance_da);
void encode_search_response(std::string& out, std::uint64_t request_id,
                            const serve::search_result& result);
/// Telemetry scrape (`client --metrics` over the wire): the full metrics
/// registry snapshot — counters, gauges, histograms with their non-empty
/// buckets — plus the slow-request ring dump. Building the snapshot never
/// blocks recording threads (relaxed-sum of per-thread shards), so a
/// scrape is safe against a server under full ingest load.
void encode_metrics_request(std::string& out, std::uint64_t request_id);
void encode_metrics_response(std::string& out, std::uint64_t request_id,
                             const wire_metrics& metrics);
/// Debug dump (`client --debug-dump` over the wire): flight-recorder
/// events, per-shard status, watchdog stalls. Snapshotting the rings
/// never blocks recording threads; torn slots are dropped, not sent.
void encode_debug_dump_request(std::string& out, std::uint64_t request_id);
void encode_debug_dump_response(std::string& out, std::uint64_t request_id,
                                const wire_debug_dump& dump);
void encode_stats_request(std::string& out, std::uint64_t request_id);
void encode_stats_response(std::string& out, std::uint64_t request_id,
                           const wire_stats& stats);
void encode_drain_request(std::string& out, std::uint64_t request_id);
void encode_drain_response(std::string& out, std::uint64_t request_id);
void encode_error_response(std::string& out, std::uint64_t request_id,
                           error_code code, const std::string& message);

// --- body parsers (false = malformed body) -----------------------------------

enum class hello_status { ok, bad_magic, bad_version, foreign_endian, malformed };
hello_status parse_hello_request(const frame_view& frame);

bool parse_ingest_request(const frame_view& frame, std::vector<ms::spectrum>& batch);
bool parse_ingest_response(const frame_view& frame, std::uint64_t& accepted);
bool parse_query_request(const frame_view& frame, ms::spectrum& spectrum);
bool parse_query_response(const frame_view& frame, serve::query_result& result);
bool parse_search_request(const frame_view& frame, ms::spectrum& spectrum,
                          std::uint32_t& top_k, double& tolerance_da);
bool parse_search_response(const frame_view& frame, serve::search_result& result);
bool parse_metrics_response(const frame_view& frame, wire_metrics& metrics);
bool parse_debug_dump_response(const frame_view& frame, wire_debug_dump& dump);
bool parse_stats_response(const frame_view& frame, wire_stats& stats);
bool parse_error_response(const frame_view& frame, error_code& code,
                          std::string& message);

}  // namespace spechd::net
