// Snapshot/restore: resuming from a mid-stream snapshot must be
// bit-identical to a run that never stopped — across shard counts — and
// every corruption mode must be rejected before any state is trusted.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "ms/synthetic.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"

namespace spechd::serve {
namespace {

std::vector<ms::spectrum> sample_stream() {
  ms::synthetic_config config;
  config.peptide_count = 32;
  config.spectra_per_peptide_mean = 4.0;
  config.noise_peaks_per_spectrum = 20.0;
  config.seed = 77;
  return ms::generate_dataset(config).spectra;
}

core::spechd_config small_config() {
  core::spechd_config config;
  config.encoder.dim = 1024;
  config.threads = 1;
  return config;
}

serve_config make_serve_config(std::size_t shards, std::size_t threads = 1) {
  serve_config sc;
  sc.pipeline = small_config();
  sc.pipeline.threads = threads;
  sc.shards = shards;
  sc.queue_capacity = 4;
  return sc;
}

/// Temp file that cleans up after itself.
struct temp_path {
  std::string path;
  explicit temp_path(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("spechd_test_" + name + "_" + std::to_string(::getpid()))).string()) {}
  ~temp_path() { std::remove(path.c_str()); }
};

void ingest_in_batches(clustering_service& service, const std::vector<ms::spectrum>& stream,
                       std::size_t begin, std::size_t end, std::size_t batch = 17) {
  for (std::size_t i = begin; i < end; i += batch) {
    const auto stop = std::min(i + batch, end);
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(i),
                    stream.begin() + static_cast<std::ptrdiff_t>(stop)});
  }
}

TEST(Snapshot, RestoreResumesBitIdentical) {
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;

  // Covers worker-thread counts {1, 4} inside the shard clusterers as well
  // as shard counts {1, 4}: parallelism must never change the state.
  for (const std::size_t threads : {1UL, 4UL}) {
    for (const std::size_t shards : {1UL, 4UL}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " + std::to_string(threads) +
                   " threads");
      // Uninterrupted run.
      clustering_service uninterrupted(make_serve_config(shards, threads));
      ingest_in_batches(uninterrupted, stream, 0, stream.size());
      const auto golden = canonical_state(uninterrupted.export_states());

      // Snapshot mid-stream, restore into a fresh service, resume.
      temp_path snap("resume_" + std::to_string(shards) + "_" + std::to_string(threads));
      {
        clustering_service first_half(make_serve_config(shards, threads));
        ingest_in_batches(first_half, stream, 0, split);
        first_half.snapshot_file(snap.path);
      }
      clustering_service resumed(make_serve_config(shards, threads));
      resumed.restore_file(snap.path);
      ingest_in_batches(resumed, stream, split, stream.size());

      EXPECT_EQ(canonical_state(resumed.export_states()), golden);
    }
  }
}

TEST(Snapshot, RestoreAcrossShardCounts) {
  // A snapshot taken with 4 shards restores onto 2 (and vice versa):
  // buckets are re-routed whole, so cluster state is unchanged. Scan
  // counters are shard-local, so compare without them.
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;

  clustering_service uninterrupted(make_serve_config(2));
  ingest_in_batches(uninterrupted, stream, 0, stream.size());
  const auto golden = canonical_state(uninterrupted.export_states(), /*include_scan=*/false);

  temp_path snap("reshard");
  {
    clustering_service four(make_serve_config(4));
    ingest_in_batches(four, stream, 0, split);
    four.snapshot_file(snap.path);
  }
  clustering_service two(make_serve_config(2));
  two.restore_file(snap.path);
  ingest_in_batches(two, stream, split, stream.size());

  EXPECT_EQ(canonical_state(two.export_states(), /*include_scan=*/false), golden);
}

TEST(Snapshot, RoundTripPreservesEverything) {
  const auto stream = sample_stream();
  clustering_service service(make_serve_config(3));
  service.ingest(stream);
  const auto before = service.export_states();

  temp_path snap("roundtrip");
  service.snapshot_file(snap.path);
  const auto data = read_snapshot_file(snap.path);
  EXPECT_EQ(data.identity, service.identity());
  ASSERT_EQ(data.shards.size(), 3U);
  EXPECT_EQ(canonical_state(data.shards), canonical_state(before));

  // Scan counters, labels, and metadata survive byte-for-byte.
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(data.shards[s].store.size(), before[s].store.size());
    for (std::size_t i = 0; i < before[s].store.size(); ++i) {
      EXPECT_EQ(data.shards[s].store.at(i).hv, before[s].store.at(i).hv);
      EXPECT_EQ(data.shards[s].store.at(i).scan, before[s].store.at(i).scan);
      EXPECT_EQ(data.shards[s].store.at(i).label, before[s].store.at(i).label);
    }
  }
}

TEST(Snapshot, IdentityPeekMatches) {
  clustering_service service(make_serve_config(2));
  service.ingest(sample_stream());
  temp_path snap("peek");
  service.snapshot_file(snap.path);
  EXPECT_EQ(read_snapshot_identity_file(snap.path), service.identity());
}

TEST(Snapshot, CorruptionIsRejected) {
  clustering_service service(make_serve_config(2));
  service.ingest(sample_stream());
  temp_path snap("corrupt");
  service.snapshot_file(snap.path);

  std::ifstream in(snap.path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string original = buffer.str();
  ASSERT_GT(original.size(), 64U);

  const auto expect_rejected = [&](std::string bytes, const char* what) {
    std::ofstream out(snap.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    clustering_service victim(make_serve_config(2));
    EXPECT_THROW(victim.restore_file(snap.path), parse_error) << what;
  };

  // Bad magic.
  {
    std::string bytes = original;
    bytes[0] = 'X';
    expect_rejected(bytes, "magic");
  }
  // Unsupported version.
  {
    std::string bytes = original;
    bytes[4] = 99;
    expect_rejected(bytes, "version");
  }
  // A flipped payload byte must fail the CRC.
  {
    std::string bytes = original;
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    expect_rejected(bytes, "payload bit flip");
  }
  // Truncation (mid-payload and mid-CRC).
  expect_rejected(original.substr(0, original.size() / 2), "truncated payload");
  expect_rejected(original.substr(0, original.size() - 2), "truncated crc");
  // An assign_mode outside the enum behind a recomputed CRC: the identity
  // parser (shared by .sphsnap, journal headers and .sphlib) must refuse
  // it rather than hand it to a config. It sits 32 bytes into the payload,
  // after dim, seed, threshold, bucket resolution and fallback charge.
  {
    constexpr std::size_t header = 16;  // magic, version, payload length
    std::string bytes = original;
    const std::uint32_t mode = 7;
    std::memcpy(bytes.data() + header + 32, &mode, sizeof mode);
    const std::uint32_t crc = crc32(bytes.data() + header, bytes.size() - header - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof crc);
    std::ofstream out(snap.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    EXPECT_THROW(read_snapshot_identity_file(snap.path), parse_error);
  }

  // Config mismatch: a service with a different threshold must refuse.
  {
    std::ofstream out(snap.path, std::ios::binary | std::ios::trunc);
    out.write(original.data(), static_cast<std::streamsize>(original.size()));
    out.close();
    auto different = make_serve_config(2);
    different.pipeline.distance_threshold = 0.2;
    clustering_service victim(different);
    EXPECT_THROW(victim.restore_file(snap.path), parse_error);
  }
  // Preprocessing knobs aren't stored field by field but are covered by
  // the identity's pipeline digest: a service that would *encode* future
  // spectra differently (here: different quantisation bins) must refuse
  // even though dim/seed/threshold/bucketing all match.
  {
    auto different = make_serve_config(2);
    different.pipeline.preprocess.quantize.mz_bins = 17000;
    clustering_service victim(different);
    EXPECT_THROW(victim.restore_file(snap.path), parse_error);
  }
  {
    auto different = make_serve_config(2);
    different.pipeline.preprocess.top_k = 30;
    clustering_service victim(different);
    EXPECT_THROW(victim.restore_file(snap.path), parse_error);
  }
}

TEST(Snapshot, BundleModeRoundTripsAndResumes) {
  // bundle_representative state (per-cluster majority counters) is
  // rebuilt from the records on import; resume must still be exact.
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;
  auto sc = make_serve_config(2);
  sc.mode = core::assign_mode::bundle_representative;

  clustering_service uninterrupted(sc);
  ingest_in_batches(uninterrupted, stream, 0, stream.size());
  const auto golden = canonical_state(uninterrupted.export_states());

  temp_path snap("bundle");
  {
    clustering_service first_half(sc);
    ingest_in_batches(first_half, stream, 0, split);
    first_half.snapshot_file(snap.path);
  }
  clustering_service resumed(sc);
  resumed.restore_file(snap.path);
  ingest_in_batches(resumed, stream, split, stream.size());
  EXPECT_EQ(canonical_state(resumed.export_states()), golden);

  // A complete-linkage service must refuse a bundle-mode snapshot.
  clustering_service wrong_mode(make_serve_config(2));
  EXPECT_THROW(wrong_mode.restore_file(snap.path), parse_error);
}

TEST(Snapshot, BundleModeRestoresLabelGaps) {
  // import_state accepts labels that skip a value below next_local. In
  // bundle mode such a label has no representative: the restore must
  // still publish every bucket, queries must answer what a push would,
  // and resumed ingest must equal the same state resumed without the
  // snapshot round trip.
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;
  auto sc = make_serve_config(1);
  sc.mode = core::assign_mode::bundle_representative;
  const std::vector<ms::spectrum> rest(stream.begin() + static_cast<std::ptrdiff_t>(split),
                                       stream.end());

  temp_path snap("bundle_gap");
  core::clusterer_state gapped;
  std::set<std::int64_t> gapped_keys;
  {
    clustering_service source(sc);
    ingest_in_batches(source, stream, 0, split);
    auto states = source.export_states();
    ASSERT_EQ(states.size(), 1U);
    gapped = std::move(states[0]);
    // Move label 0 to next_local wherever the bound next_local <= members
    // leaves room: label 0 is then a gap below next_local.
    for (auto& bucket : gapped.buckets) {
      if (static_cast<std::size_t>(bucket.next_local) >= bucket.members.size()) continue;
      for (auto& label : bucket.local_labels) label = label == 0 ? bucket.next_local : label;
      ++bucket.next_local;
      gapped_keys.insert(bucket.key);
    }
    ASSERT_FALSE(gapped_keys.empty());
    write_snapshot_file(snap.path, source.identity(), {gapped});
  }

  clustering_service restored(sc);
  restored.restore_file(snap.path);
  std::size_t joined_gapped = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto r = restored.query(stream[i]);
    if (!r.encodable) continue;
    core::incremental_clusterer probe(sc.pipeline, sc.mode);
    probe.import_state(gapped);
    const auto report = probe.push(stream[i]);
    ASSERT_EQ(report.added, 1U) << "spectrum " << i;
    EXPECT_EQ(report.joined_existing == 1, r.matched) << "spectrum " << i;
    if (!r.matched) continue;
    EXPECT_EQ(probe.rows(r.bucket_key).labels.back(), r.local_label) << "spectrum " << i;
    joined_gapped += gapped_keys.count(r.bucket_key);
  }
  EXPECT_GT(joined_gapped, 0U);

  ingest_in_batches(restored, stream, split, stream.size());
  core::incremental_clusterer reference(sc.pipeline, sc.mode);
  reference.import_state(gapped);
  reference.add_spectra(rest);
  EXPECT_EQ(canonical_state(restored.export_states()),
            canonical_state({reference.export_state()}));
}

TEST(Snapshot, ImportStateValidatesPartition) {
  // import_state is the last line of defence under restore: a state whose
  // buckets don't partition the records, or whose next_local leaves
  // [0, members], must be rejected, leaving the instance untouched.
  const auto config = small_config();
  core::incremental_clusterer clusterer(config);
  clusterer.add_spectra(sample_stream());
  auto state = clusterer.export_state();
  ASSERT_FALSE(state.buckets.empty());

  core::incremental_clusterer held(config);
  held.import_state(state);
  const auto held_bytes = canonical_state({held.export_state()});
  const auto expect_rejected = [&](core::clusterer_state broken, const char* what) {
    EXPECT_THROW(held.import_state(std::move(broken)), spechd::error) << what;
    EXPECT_EQ(canonical_state({held.export_state()}), held_bytes) << what;
  };
  {
    auto broken = state;
    broken.buckets[0].local_labels[0] = broken.buckets[0].next_local;
    expect_rejected(std::move(broken), "label out of range");
  }
  {
    auto broken = state;
    broken.buckets[0].members.pop_back();
    broken.buckets[0].local_labels.pop_back();
    expect_rejected(std::move(broken), "orphaned record");
  }
  {
    auto broken = state;
    broken.buckets[0].key += 1;
    expect_rejected(std::move(broken), "key no longer matches the records");
  }
  {
    // No label to check it against: only the bound catches it.
    auto broken = state;
    core::bucket_snapshot empty;
    empty.key = broken.buckets.back().key + 1;
    empty.next_local = -3;
    broken.buckets.push_back(empty);
    expect_rejected(std::move(broken), "negative next_local on an empty bucket");
  }
  auto oversized = state;
  oversized.buckets[0].next_local = 50'000'000;  // every label stays below it
  expect_rejected(oversized, "next_local above the member count");

  // restore_file reaches the same check through a CRC-valid snapshot.
  {
    clustering_service victim(make_serve_config(1));
    temp_path snap("next_local");
    write_snapshot_file(snap.path, victim.identity(), {oversized});
    EXPECT_THROW(victim.restore_file(snap.path), spechd::error);
  }

  // And the intact state imports and keeps behaving identically.
  core::incremental_clusterer fresh(config);
  fresh.import_state(std::move(state));
  EXPECT_EQ(fresh.size(), clusterer.size());
  EXPECT_EQ(fresh.cluster_count(), clusterer.cluster_count());
  const auto more = sample_stream();
  core::update_report a = fresh.push(more.front());
  core::update_report b = clusterer.push(more.front());
  EXPECT_EQ(a.joined_existing, b.joined_existing);
  EXPECT_EQ(a.new_clusters, b.new_clusters);
}

TEST(Snapshot, RestoreReplacesExistingStateAndViews) {
  // Restoring onto a service that already holds *different* data must
  // fully replace it — including the published query views (no stale
  // buckets answering queries for spectra the restored state never saw).
  ms::synthetic_config other;
  other.peptide_count = 8;
  other.spectra_per_peptide_mean = 3.0;
  other.seed = 999;  // different library than sample_stream()
  const auto other_stream = ms::generate_dataset(other).spectra;
  const auto stream = sample_stream();

  temp_path snap("replace");
  {
    clustering_service source(make_serve_config(2));
    ingest_in_batches(source, stream, 0, stream.size());
    source.snapshot_file(snap.path);
  }

  clustering_service victim(make_serve_config(2));
  victim.ingest(other_stream);
  victim.drain();
  const auto before = victim.stats().record_count;
  ASSERT_GT(before, 0U);

  victim.restore_file(snap.path);

  // State equals the snapshot, not the union.
  clustering_service reference(make_serve_config(2));
  ingest_in_batches(reference, stream, 0, stream.size());
  EXPECT_EQ(canonical_state(victim.export_states()),
            canonical_state(reference.export_states()));

  // Published views reflect only restored buckets: every bucket key the
  // old data occupied but the snapshot does not must now miss.
  std::map<std::int64_t, bool> restored_keys;
  for (const auto& state : reference.export_states()) {
    for (const auto& bucket : state.buckets) restored_keys[bucket.key] = true;
  }
  serve_config sc = make_serve_config(2);
  shard_router router(sc.pipeline.preprocess.bucketing, 2);
  std::size_t stale_checked = 0;
  for (const auto& s : other_stream) {
    const auto key = router.bucket_key(s);
    if (restored_keys.count(key)) continue;  // bucket legitimately exists
    const auto r = victim.query(s);
    if (!r.encodable) continue;
    EXPECT_FALSE(r.matched) << "stale bucket " << key << " still answers";
    EXPECT_EQ(r.nearest_member, 1.0) << "stale bucket " << key << " still has members";
    ++stale_checked;
  }
  EXPECT_GT(stale_checked, 0U);
}

TEST(Snapshot, EmptyServiceRoundTrips) {
  clustering_service service(make_serve_config(2));
  temp_path snap("empty");
  service.snapshot_file(snap.path);
  clustering_service restored(make_serve_config(2));
  restored.restore_file(snap.path);
  EXPECT_EQ(restored.stats().record_count, 0U);
}

TEST(Snapshot, EmptyServiceRestoresAcrossShardCountsAndStaysUsable) {
  // Zero buckets exercises the re-routing restore path with nothing to
  // route; the restored service must then ingest exactly like a fresh one.
  const auto stream = sample_stream();
  temp_path snap("empty_reshard");
  {
    clustering_service empty(make_serve_config(4));
    empty.snapshot_file(snap.path);
  }
  clustering_service restored(make_serve_config(2));
  restored.restore_file(snap.path);
  EXPECT_EQ(restored.stats().record_count, 0U);
  ingest_in_batches(restored, stream, 0, stream.size());

  clustering_service fresh(make_serve_config(2));
  ingest_in_batches(fresh, stream, 0, stream.size());
  EXPECT_EQ(canonical_state(restored.export_states()),
            canonical_state(fresh.export_states()));
}

TEST(Snapshot, RestoreOntoMoreShardsThanBuckets) {
  // A narrow dataset (one peptide class) occupies only a handful of
  // precursor buckets; restoring onto far more shards than buckets must
  // leave some shards empty yet reproduce the exact per-bucket state and
  // resume bit-identically to an uninterrupted wide service.
  ms::synthetic_config narrow;
  narrow.peptide_count = 1;
  narrow.spectra_per_peptide_mean = 24.0;
  narrow.noise_peaks_per_spectrum = 20.0;
  narrow.seed = 5;
  const auto stream = ms::generate_dataset(narrow).spectra;
  const std::size_t split = stream.size() / 2;

  temp_path snap("fewbuckets");
  std::size_t buckets = 0;
  {
    clustering_service source(make_serve_config(2));
    ingest_in_batches(source, stream, 0, split);
    source.snapshot_file(snap.path);
    for (const auto& state : source.export_states()) buckets += state.buckets.size();
    ASSERT_GT(buckets, 0U);
  }
  const std::size_t wide = buckets + 4;  // strictly more shards than buckets

  clustering_service uninterrupted(make_serve_config(wide));
  ingest_in_batches(uninterrupted, stream, 0, stream.size());
  const auto golden =
      canonical_state(uninterrupted.export_states(), /*include_scan=*/false);

  clustering_service restored(make_serve_config(wide));
  restored.restore_file(snap.path);
  std::size_t empty_shards = 0;
  for (const auto& shard_stat : restored.stats().shards) {
    empty_shards += shard_stat.record_count == 0 ? 1 : 0;
  }
  EXPECT_GT(empty_shards, 0U) << "expected some of the " << wide
                              << " shards to hold none of the " << buckets << " buckets";
  ingest_in_batches(restored, stream, split, stream.size());
  EXPECT_EQ(canonical_state(restored.export_states(), /*include_scan=*/false), golden);
}

/// A snapshot file's bytes with the field at `offset` replaced by `value`
/// and the closing payload CRC recomputed, so only the field checks can
/// refuse it.
template <typename T>
std::string with_field(std::string bytes, std::size_t offset, T value) {
  constexpr std::size_t head = 16;  // magic, version, payload length
  std::memcpy(bytes.data() + offset, &value, sizeof value);
  const std::uint32_t crc = crc32(bytes.data() + head, bytes.size() - head - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof crc);
  return bytes;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Snapshot, LyingCountsAreRefusedBeforeAllocating) {
  // A CRC-valid snapshot whose store or bucket count reads 2^40 must be
  // refused as malformed, not allocated for.
  clustering_service service(make_serve_config(2));
  service.ingest(sample_stream());
  temp_path snap("lying_counts");
  service.snapshot_file(snap.path);
  const std::string original = read_bytes(snap.path);
  const auto states = service.export_states();

  // Shard 0's hv_store follows the 16-byte frame head and the 44-byte
  // identity block; its record count sits 12 bytes in, and the shard's
  // bucket count follows the store.
  constexpr std::size_t store_at = 16 + 44;
  const std::size_t counts[] = {store_at + 12, store_at + states[0].store.file_bytes()};
  for (const auto offset : counts) {
    SCOPED_TRACE(offset);
    write_bytes(snap.path, with_field(original, offset, std::uint64_t{1} << 40));
    EXPECT_THROW(read_snapshot_file(snap.path), parse_error);
    clustering_service victim(make_serve_config(2));
    EXPECT_THROW(victim.restore_file(snap.path), parse_error);
  }
}

TEST(Snapshot, IdentityDimensionOutsideTheBoundIsRefused) {
  // An empty snapshot has no vectors to bound its dimension by, and a
  // service sized by it builds an item memory of that width. The identity
  // block refuses a dimension that is 0, not a multiple of 64, or above
  // k_max_dim, and the service restoring it stays as it was.
  temp_path empty("empty_identity");
  clustering_service(make_serve_config(1)).snapshot_file(empty.path);
  const std::string original = read_bytes(empty.path);
  ASSERT_EQ(original.size(), 100U);
  clustering_service victim(make_serve_config(2));
  victim.ingest(sample_stream());
  const auto before = canonical_state(victim.export_states());
  temp_path snap("identity_dim");
  for (const std::uint32_t dim : {1U << 20, 0U, 100U}) {
    SCOPED_TRACE(dim);
    write_bytes(snap.path, with_field(original, 16, dim));  // the identity's first field
    EXPECT_THROW(read_snapshot_identity_file(snap.path), parse_error);
    EXPECT_THROW(victim.restore_file(snap.path), parse_error);
    EXPECT_EQ(canonical_state(victim.export_states()), before);
  }
}

TEST(Snapshot, FailedWriteKeepsThePreviousFile) {
  // A snapshot replaces its file by rename. A failure at any step before
  // the rename leaves the previous snapshot byte-identical and
  // restorable, and no temporary file behind; the directory sync runs
  // after the rename, so a failure there leaves the new snapshot, whole.
  struct failpoint_guard {
    ~failpoint_guard() { util::registry().reset(); }
  } guard;
  const auto stream = sample_stream();
  clustering_service service(make_serve_config(2));
  ingest_in_batches(service, stream, 0, stream.size() / 2);
  temp_path snap("replace");
  service.snapshot_file(snap.path);
  const std::string previous = read_bytes(snap.path);
  const auto previous_state = canonical_state(service.export_states());
  ingest_in_batches(service, stream, stream.size() / 2, stream.size());
  const auto next_state = canonical_state(service.export_states());
  for (const std::string site : {"snapshot.open", "snapshot.write", "snapshot.fsync",
                                 "snapshot.rename", "dir.fsync"}) {
    SCOPED_TRACE(site);
    util::registry().reset();
    util::registry().arm_from_spec(site + "=error:ENOSPC");
    EXPECT_THROW(service.snapshot_file(snap.path), util::io_failure);
    util::registry().reset();
    EXPECT_FALSE(std::filesystem::exists(snap.path + ".tmp"));
    const bool renamed = site == "dir.fsync";
    if (!renamed) {
      EXPECT_EQ(read_bytes(snap.path), previous);
    }
    clustering_service restored(make_serve_config(2));
    restored.restore_file(snap.path);
    EXPECT_EQ(canonical_state(restored.export_states()),
              renamed ? next_state : previous_state);
  }
}

TEST(Snapshot, RestoreOntoOtherShardCountChecksThePartition) {
  // The re-partition path copies records by member index. A stored state
  // whose members do not partition its records must be refused before
  // any index is followed, leaving the service as it was.
  clustering_service source(make_serve_config(1));
  source.ingest(sample_stream());
  const auto state = source.export_states().front();
  auto multi = std::find_if(state.buckets.begin(), state.buckets.end(),
                            [](const core::bucket_snapshot& b) { return b.members.size() > 1; });
  ASSERT_NE(multi, state.buckets.end());
  const auto bucket = static_cast<std::size_t>(multi - state.buckets.begin());

  auto out_of_range = state;
  out_of_range.buckets[bucket].members[0] = 9999;
  auto duplicated = state;  // one record twice, another in no bucket
  duplicated.buckets[bucket].members[1] = duplicated.buckets[bucket].members[0];

  ms::synthetic_config other;
  other.peptide_count = 6;
  other.seed = 91;
  clustering_service victim(make_serve_config(3));
  victim.ingest(ms::generate_dataset(other).spectra);
  const auto before = canonical_state(victim.export_states());
  for (const auto& [broken, what] : {std::pair{out_of_range, "index out of range"},
                                     std::pair{duplicated, "duplicate index"}}) {
    SCOPED_TRACE(what);
    temp_path snap("partition");
    write_snapshot_file(snap.path, source.identity(), {broken});
    EXPECT_THROW(victim.restore_file(snap.path), parse_error);
    EXPECT_EQ(canonical_state(victim.export_states()), before);
  }
}

}  // namespace
}  // namespace spechd::serve
