#include "serve/snapshot.hpp"

#include <map>

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"

/// One bucket of a shard's bucket table.
template <>
struct spechd::ms::wire<spechd::core::bucket_snapshot> {
  template <typename V, typename R>
  static bool fields(V& v, R& b) {
    auto n = static_cast<std::uint64_t>(b.members.size());
    return v(b.key, n, given(n, b.members), given(n, b.local_labels), b.next_local,
             as<std::uint8_t>(b.dirty));
  }
};

/// One shard: its hv_store, then its bucket table.
template <>
struct spechd::ms::wire<spechd::core::clusterer_state> {
  template <typename V, typename R>
  static bool fields(V& v, R& state) {
    return v(state.store, counted<std::uint64_t>(state.buckets));
  }
};

namespace spechd::serve {

namespace {

constexpr ms::file_format k_format{
    {'S', 'P', 'S', 'N'}, 1, "snapshot", ".sphsnap", /*short_length=*/false, 1ULL << 40};

/// The payload: the identity block, then identity.shard_count shards.
template <typename V, typename I, typename S>
bool snapshot_fields(V& v, I& identity, S& shards) {
  return v(identity, ms::given(identity.shard_count, shards));
}

}  // namespace

std::uint32_t pipeline_digest(const core::spechd_config& config) {
  // Every encode/assign-relevant knob in one buffer, CRC'd. Append-only:
  // new knobs go at the end so an old digest can never accidentally equal
  // a new one for differing configs.
  const auto& pp = config.preprocess;
  const std::string bytes = ms::encode_fields([&](auto& v) {
    return v(pp.filter.precursor_tolerance_da, pp.filter.min_intensity_fraction,
             pp.filter.mz_min, pp.filter.mz_max, ms::as<std::uint64_t>(pp.filter.min_peaks),
             ms::as<std::uint64_t>(pp.top_k), ms::as<std::uint32_t>(pp.peak_selector),
             pp.window.window_da, ms::as<std::uint64_t>(pp.window.peaks_per_window),
             ms::as<std::uint32_t>(pp.normalize.scaling),
             ms::as<std::uint8_t>(pp.normalize.unit_norm), pp.quantize.mz_min,
             pp.quantize.mz_max, pp.quantize.mz_bins,
             ms::as<std::uint32_t>(pp.quantize.intensity_levels),
             ms::as<std::uint32_t>(config.link), ms::as<std::uint8_t>(config.use_fixed_point));
  });
  return crc32(bytes.data(), bytes.size());
}

void write_snapshot_file(const std::string& path, const snapshot_identity& identity,
                         const std::vector<core::clusterer_state>& shards, bool sync) {
  SPECHD_EXPECTS(identity.shard_count == shards.size());
  static util::failpoint fp_open("snapshot.open");
  static util::failpoint fp_write("snapshot.write");
  static util::failpoint fp_fsync("snapshot.fsync");
  static util::failpoint fp_rename("snapshot.rename");
  std::string bytes;
  ms::append_file_frame(bytes, k_format,
                        [&](auto& v) { return snapshot_fields(v, identity, shards); });
  util::replace_file(path, bytes, {fp_open, fp_write, fp_fsync, fp_rename}, sync);
}

snapshot_data read_snapshot_file(const std::string& path) {
  const auto bytes = util::read_file(path);
  if (!bytes) throw io_error("cannot open snapshot file: " + path);
  snapshot_data data;
  ms::read_framed_file(*bytes, k_format, path, [&](auto& v) {
    return snapshot_fields(v, data.identity, data.shards);
  });
  // Both restore paths follow member indices (the re-partition path
  // before import_state could validate them), so check them here.
  for (std::size_t s = 0; s < data.shards.size(); ++s) {
    if (const auto why = core::partition_error(data.shards[s]); !why.empty()) {
      throw parse_error(path, 0, "snapshot shard " + std::to_string(s) + " " + why);
    }
  }
  return data;
}

snapshot_identity read_snapshot_identity_file(const std::string& path) {
  return read_snapshot_file(path).identity;
}

std::string canonical_state(const std::vector<core::clusterer_state>& shards,
                            bool include_scan) {
  struct owned_bucket {
    const core::clusterer_state* state;
    const core::bucket_snapshot* bucket;
  };
  std::map<std::int64_t, owned_bucket> buckets;  // ascending key
  std::uint64_t total_records = 0;
  for (const auto& state : shards) {
    total_records += state.store.size();
    for (const auto& bucket : state.buckets) {
      if (!buckets.try_emplace(bucket.key, owned_bucket{&state, &bucket}).second) {
        throw spechd::error("bucket " + std::to_string(bucket.key) +
                            " appears in more than one shard");
      }
    }
  }
  return ms::encode_fields([&](auto& v) {
    auto bucket_count = static_cast<std::uint64_t>(buckets.size());
    v(total_records, bucket_count);
    for (const auto& [key, owned] : buckets) {
      const auto& bucket = *owned.bucket;
      auto members = static_cast<std::uint64_t>(bucket.members.size());
      v(key, members);
      for (std::size_t i = 0; i < bucket.members.size(); ++i) {
        const auto& r = owned.state->store.at(bucket.members[i]);
        v(ms::words(r.hv.words().data(), r.hv.word_count()), r.precursor_mz,
          r.precursor_charge, r.label);
        if (include_scan) v(r.scan);
        v(bucket.local_labels[i]);
      }
      v(bucket.next_local);
    }
    return true;
  });
}

}  // namespace spechd::serve
