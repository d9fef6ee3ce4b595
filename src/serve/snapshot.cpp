#include "serve/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/crc32.hpp"
#include "util/endian.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"

namespace spechd::serve {

namespace {

constexpr char k_magic[4] = {'S', 'P', 'S', 'N'};
constexpr std::uint32_t k_version = 1;
/// Sanity bound on payload_bytes so a corrupted length field cannot drive
/// a multi-terabyte allocation before the CRC check would catch it.
constexpr std::uint64_t k_max_payload = 1ULL << 40;

template <typename T>
void put(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& in, const std::string& source) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw parse_error(source, 0, "truncated snapshot");
  return v;
}

}  // namespace

void write_snapshot_identity(std::ostream& out, const snapshot_identity& id) {
  put(out, id.dim);
  put(out, id.encoder_seed);
  put(out, id.distance_threshold);
  put(out, id.bucket_resolution);
  put(out, id.fallback_charge);
  put(out, id.assign_mode);
  put(out, id.shard_count);
  put(out, id.config_digest);
}

snapshot_identity read_snapshot_identity(std::istream& in, const std::string& source) {
  snapshot_identity id;
  id.dim = get<std::uint32_t>(in, source);
  id.encoder_seed = get<std::uint64_t>(in, source);
  id.distance_threshold = get<double>(in, source);
  id.bucket_resolution = get<double>(in, source);
  id.fallback_charge = get<std::int32_t>(in, source);
  id.assign_mode = get<std::uint32_t>(in, source);
  if (id.assign_mode > static_cast<std::uint32_t>(core::assign_mode::bundle_representative)) {
    throw parse_error(source, 0, "unknown assign_mode " + std::to_string(id.assign_mode));
  }
  id.shard_count = get<std::uint32_t>(in, source);
  id.config_digest = get<std::uint32_t>(in, source);
  return id;
}

namespace {

void write_shard_state(std::ostream& out, const core::clusterer_state& state) {
  state.store.save(out);
  put(out, static_cast<std::uint64_t>(state.buckets.size()));
  for (const auto& bucket : state.buckets) {
    put(out, bucket.key);
    put(out, static_cast<std::uint64_t>(bucket.members.size()));
    out.write(reinterpret_cast<const char*>(bucket.members.data()),
              static_cast<std::streamsize>(bucket.members.size() * sizeof(std::uint32_t)));
    out.write(reinterpret_cast<const char*>(bucket.local_labels.data()),
              static_cast<std::streamsize>(bucket.local_labels.size() *
                                           sizeof(std::int32_t)));
    put(out, bucket.next_local);
    put(out, static_cast<std::uint8_t>(bucket.dirty ? 1 : 0));
  }
}

core::clusterer_state read_shard_state(std::istream& in, const std::string& source) {
  core::clusterer_state state;
  state.store = hdc::hv_store::load(in, source);
  const auto bucket_count = get<std::uint64_t>(in, source);
  state.buckets.reserve(bucket_count);
  for (std::uint64_t b = 0; b < bucket_count; ++b) {
    core::bucket_snapshot bucket;
    bucket.key = get<std::int64_t>(in, source);
    const auto n = get<std::uint64_t>(in, source);
    if (n > state.store.size()) {
      throw parse_error(source, 0, "snapshot bucket larger than its store");
    }
    bucket.members.resize(n);
    in.read(reinterpret_cast<char*>(bucket.members.data()),
            static_cast<std::streamsize>(n * sizeof(std::uint32_t)));
    bucket.local_labels.resize(n);
    in.read(reinterpret_cast<char*>(bucket.local_labels.data()),
            static_cast<std::streamsize>(n * sizeof(std::int32_t)));
    if (!in) throw parse_error(source, 0, "truncated snapshot bucket table");
    bucket.next_local = get<std::int32_t>(in, source);
    bucket.dirty = get<std::uint8_t>(in, source) != 0;
    state.buckets.push_back(std::move(bucket));
  }
  return state;
}

/// Reads the framed + CRC-verified .sphsnap payload; the caller parses it.
std::string read_verified_payload(std::istream& in, const std::string& source) {
  return read_framed_payload(in, k_magic, k_version, "a .sphsnap snapshot", source);
}

}  // namespace

void write_framed_payload(std::ostream& out, const char magic[4], std::uint32_t version,
                          const std::string& payload) {
  out.write(magic, 4);
  put(out, version);
  put(out, static_cast<std::uint64_t>(payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  put(out, crc32(payload.data(), payload.size()));
  if (!out) throw io_error("snapshot write failure");
}

std::string read_framed_payload(std::istream& in, const char magic[4],
                                std::uint32_t version, const std::string& format_name,
                                const std::string& source) {
  char file_magic[4] = {};
  in.read(file_magic, 4);
  if (!in || std::memcmp(file_magic, magic, 4) != 0) {
    throw parse_error(source, 0, "not " + format_name + " (bad magic)");
  }
  const auto file_version = get<std::uint32_t>(in, source);
  if (file_version != version) {
    // A byte-reversed version is a snapshot copied from a big-endian host:
    // diagnose that directly rather than as a bogus huge version number.
    if (file_version == util::byteswap32(version)) {
      throw parse_error(source, 0,
                        "snapshot was written by a big-endian host; spechd on-disk "
                        "formats are little-endian and cannot be read here");
    }
    throw parse_error(source, 0,
                      "unsupported snapshot version " + std::to_string(file_version));
  }
  const auto payload_bytes = get<std::uint64_t>(in, source);
  if (payload_bytes > k_max_payload) {
    throw parse_error(source, 0, "implausible snapshot payload size");
  }
  std::string payload(payload_bytes, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload_bytes));
  if (!in) throw parse_error(source, 0, "truncated snapshot payload");
  const auto stored_crc = get<std::uint32_t>(in, source);
  const auto actual_crc = crc32(payload.data(), payload.size());
  if (stored_crc != actual_crc) {
    throw parse_error(source, 0, "snapshot CRC mismatch (corrupted file)");
  }
  // One frame per file: bytes after the CRC mean the file was corrupted or
  // concatenated — refuse rather than silently ignore them.
  if (in.peek() != std::char_traits<char>::eof()) {
    throw parse_error(source, 0, "trailing bytes after the snapshot frame");
  }
  return payload;
}

std::uint32_t pipeline_digest(const core::spechd_config& config) {
  // Serialise every encode/assign-relevant knob into one buffer and CRC
  // it. Append-only: new knobs go at the end so an old digest can never
  // accidentally equal a new one for differing configs.
  std::ostringstream blob(std::ios::binary);
  const auto& pp = config.preprocess;
  put(blob, pp.filter.precursor_tolerance_da);
  put(blob, pp.filter.min_intensity_fraction);
  put(blob, pp.filter.mz_min);
  put(blob, pp.filter.mz_max);
  put(blob, static_cast<std::uint64_t>(pp.filter.min_peaks));
  put(blob, static_cast<std::uint64_t>(pp.top_k));
  put(blob, static_cast<std::uint32_t>(pp.peak_selector));
  put(blob, pp.window.window_da);
  put(blob, static_cast<std::uint64_t>(pp.window.peaks_per_window));
  put(blob, static_cast<std::uint32_t>(pp.normalize.scaling));
  put(blob, static_cast<std::uint8_t>(pp.normalize.unit_norm ? 1 : 0));
  put(blob, pp.quantize.mz_min);
  put(blob, pp.quantize.mz_max);
  put(blob, pp.quantize.mz_bins);
  put(blob, static_cast<std::uint32_t>(pp.quantize.intensity_levels));
  put(blob, static_cast<std::uint32_t>(config.link));
  put(blob, static_cast<std::uint8_t>(config.use_fixed_point ? 1 : 0));
  const std::string bytes = blob.str();
  return crc32(bytes.data(), bytes.size());
}

void write_snapshot(std::ostream& out, const snapshot_identity& identity,
                    const std::vector<core::clusterer_state>& shards) {
  SPECHD_EXPECTS(identity.shard_count == shards.size());
  std::ostringstream payload_stream(std::ios::binary);
  write_snapshot_identity(payload_stream, identity);
  for (const auto& state : shards) write_shard_state(payload_stream, state);
  write_framed_payload(out, k_magic, k_version, payload_stream.str());
}

void write_snapshot_file(const std::string& path, const snapshot_identity& identity,
                         const std::vector<core::clusterer_state>& shards) {
  // Serialise fully in memory, then push through the checked-I/O layer so
  // ENOSPC/EIO surface as typed io_failure (with failpoint coverage for
  // the compaction tmp+rename+fsync sequence) instead of a silently-bad
  // ofstream.
  static util::failpoint fp_open("snapshot.open");
  static util::failpoint fp_write("snapshot.write");
  std::ostringstream out(std::ios::binary);
  write_snapshot(out, identity, shards);
  const std::string bytes = out.str();
  const int fd = util::open_fd(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644,
                               fp_open);
  try {
    util::write_all(fd, bytes.data(), bytes.size(), path, fp_write);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

snapshot_data read_snapshot(std::istream& in, const std::string& source_name) {
  const std::string payload = read_verified_payload(in, source_name);
  std::istringstream body(payload, std::ios::binary);
  snapshot_data data;
  data.identity = read_snapshot_identity(body, source_name);
  data.shards.reserve(data.identity.shard_count);
  for (std::uint32_t s = 0; s < data.identity.shard_count; ++s) {
    data.shards.push_back(read_shard_state(body, source_name));
  }
  // The CRC already vouched for integrity; trailing garbage would mean the
  // writer and reader disagree about the format — refuse it.
  if (body.peek() != std::char_traits<char>::eof()) {
    throw parse_error(source_name, 0, "snapshot payload has trailing bytes");
  }
  return data;
}

snapshot_data read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw io_error("cannot open snapshot file: " + path);
  return read_snapshot(in, path);
}

snapshot_identity read_snapshot_identity_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw io_error("cannot open snapshot file: " + path);
  const std::string payload = read_verified_payload(in, path);
  std::istringstream body(payload, std::ios::binary);
  return read_snapshot_identity(body, path);
}

std::string canonical_state(const std::vector<core::clusterer_state>& shards,
                            bool include_scan) {
  // key -> (owning shard, serialised canonical bucket bytes).
  std::map<std::int64_t, std::string> buckets;
  std::uint64_t total_records = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto& state = shards[s];
    total_records += state.store.size();
    for (const auto& bucket : state.buckets) {
      std::ostringstream blob(std::ios::binary);
      put(blob, bucket.key);
      put(blob, static_cast<std::uint64_t>(bucket.members.size()));
      for (std::size_t i = 0; i < bucket.members.size(); ++i) {
        const auto& r = state.store.at(bucket.members[i]);
        const auto words = r.hv.words();
        blob.write(reinterpret_cast<const char*>(words.data()),
                   static_cast<std::streamsize>(words.size() * sizeof(std::uint64_t)));
        put(blob, r.precursor_mz);
        put(blob, r.precursor_charge);
        put(blob, r.label);
        if (include_scan) put(blob, r.scan);
        put(blob, bucket.local_labels[i]);
      }
      put(blob, bucket.next_local);
      auto [it, inserted] = buckets.try_emplace(bucket.key, blob.str());
      if (!inserted) {
        throw spechd::error("bucket " + std::to_string(bucket.key) +
                            " appears in more than one shard");
      }
    }
  }
  std::ostringstream out(std::ios::binary);
  put(out, total_records);
  put(out, static_cast<std::uint64_t>(buckets.size()));
  for (const auto& [key, blob] : buckets) out << blob;
  return out.str();
}

}  // namespace spechd::serve
