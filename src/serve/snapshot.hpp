// Versioned binary snapshot of a sharded clustering service (.sphsnap).
//
// A service restart must resume into *exactly* the state it left — same
// records, same per-bucket assignments — so resumed ingestion is
// bit-identical to a run that never stopped (tests/serve/test_snapshot.cpp
// pins this). The file is one frame of the field-list codec
// (ms/spectrum_wire.hpp), which states every layout below once for its
// writer and its reader:
//
//   magic   "SPSN"                      4 B
//   version u32                        (currently 1)
//   payload_bytes u64
//   payload:
//     identity block — the knobs that must match for resume to be exact:
//       dim u32 (a multiple of 64 up to hdc::k_max_dim), encoder seed
//       u64, distance threshold f64, bucket resolution f64, fallback
//       charge i32, assign mode u32, shard count u32, pipeline digest
//       u32 (CRC-32 over *every* remaining encode/assign-relevant
//       pipeline knob — filter, top-k selector, normalisation,
//       quantisation, linkage, fixed-point — so a restore into a
//       differently-preprocessing service is rejected even though those
//       knobs aren't stored field by field)
//     per shard: hv_store (the .sphv layout, hdc/hv_store.hpp)
//                + bucket table { count u64, then per bucket: key i64,
//                  n u64, members u32[n], labels i32[n], next_local i32,
//                  dirty u8 }
//   crc u32    CRC-32 of the payload — verified before *any* payload
//              field is trusted, so torn writes and bit rot surface as
//              parse_error, never as silently-wrong cluster state.
//
// The reader bounds every count by the bytes left before it allocates,
// and refuses a shard whose buckets do not partition its records (every
// member index in range, each record in exactly one bucket) before any
// restore path follows an index.
//
// write_snapshot_file replaces its file by rename (util::replace_file), so
// a failed write keeps the previous snapshot.
//
// The shard count is stored for information, not as a constraint: buckets
// are self-contained, so a snapshot taken with N shards restores onto M
// shards by re-routing whole buckets (clustering_service::restore_file).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "ms/spectrum_wire.hpp"

namespace spechd::serve {

/// The identity block: everything that must agree between the snapshotting
/// and the restoring service for resumed ingestion to be exact.
struct snapshot_identity {
  std::uint32_t dim = 0;
  std::uint64_t encoder_seed = 0;
  double distance_threshold = 0.0;
  double bucket_resolution = 0.0;
  std::int32_t fallback_charge = 0;
  std::uint32_t assign_mode = 0;   ///< core::assign_mode as integer
  std::uint32_t shard_count = 0;   ///< shards at snapshot time (informational)
  /// pipeline_digest() of the writing service — covers the pipeline knobs
  /// not stored above (preprocessing, linkage, fixed point), all of which
  /// change what future ingests encode/assign.
  std::uint32_t config_digest = 0;

  friend bool operator==(const snapshot_identity&, const snapshot_identity&) = default;
};

/// CRC-32 over every pipeline knob that affects encoding or assignment
/// beyond the fields snapshot_identity stores explicitly: filter, peak
/// selector (top-k/window), normalisation, quantisation window/bins,
/// linkage, and the fixed-point switch. Two configs with equal digests
/// (and equal explicit identity fields) resume each other's snapshots
/// exactly.
std::uint32_t pipeline_digest(const core::spechd_config& config);

/// A parsed snapshot: identity + one clusterer state per stored shard.
struct snapshot_data {
  snapshot_identity identity;
  std::vector<core::clusterer_state> shards;
};

/// Writes `shards` (one state per shard, index order) with `identity`,
/// replacing `path` by rename (util::replace_file; `sync` false skips its
/// fsyncs), so a failed write keeps the previous file. Throws
/// spechd::io_error on write failure.
void write_snapshot_file(const std::string& path, const snapshot_identity& identity,
                         const std::vector<core::clusterer_state>& shards,
                         bool sync = true);

/// Parses and CRC-verifies a snapshot. Throws spechd::parse_error on bad
/// magic/version/CRC/truncation, a count the bytes cannot hold, or a shard
/// whose buckets do not partition its records; spechd::io_error on
/// unreadable files.
snapshot_data read_snapshot_file(const std::string& path);

/// The identity block of a fully verified snapshot — lets a caller (e.g.
/// `spechd serve --restore`) configure itself from a snapshot before
/// constructing the service.
snapshot_identity read_snapshot_identity_file(const std::string& path);

/// Canonical byte serialisation of cluster state, merged across shards and
/// keyed by bucket: per bucket (ascending key) the member records in
/// arrival order (hypervector words + precursor + charge + label, plus the
/// scan counter when `include_scan`) and their cluster labels. Two
/// services hold identical cluster state iff their canonical bytes are
/// equal — regardless of how buckets are spread over shards. Set
/// `include_scan` false when comparing across *different* shard counts
/// (scan counters are shard-local arrival indices). Throws spechd::error
/// if one bucket key appears in two shards (a routing violation).
std::string canonical_state(const std::vector<core::clusterer_state>& shards,
                            bool include_scan = true);

}  // namespace spechd::serve

/// The identity block; the journal's file header and the .sphlib embed
/// it too, so a `.sphjrnl` or a library is validated against the service
/// that would use it. The reader refuses a dimension outside
/// hdc::dim_in_range before a service or encoder is sized by it.
template <>
struct spechd::ms::wire<spechd::serve::snapshot_identity> {
  template <typename V, typename R>
  static bool fields(V& v, R& id) {
    constexpr auto last_mode =
        static_cast<std::uint32_t>(core::assign_mode::bundle_representative);
    return v(id.dim) &&
           v.valid(hdc::dim_in_range(id.dim),
                   [&] {
                     return "dimension " + std::to_string(id.dim) +
                            " is not a positive multiple of 64 up to " +
                            std::to_string(hdc::k_max_dim);
                   }) &&
           v(id.encoder_seed, id.distance_threshold, id.bucket_resolution,
             id.fallback_charge, id.assign_mode) &&
           v.valid(id.assign_mode <= last_mode,
                   [&] { return "unknown assign_mode " + std::to_string(id.assign_mode); }) &&
           v(id.shard_count, id.config_digest);
  }
};
