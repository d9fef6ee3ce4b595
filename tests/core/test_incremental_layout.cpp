// Layout tests for incremental_clusterer: each bucket keeps its members'
// hypervectors as one row-major packed block in member order. After every
// way of building or changing state, every bucket_rows row must be the HV
// the exported store holds for that member, every bundle-mode
// representative row the majority of its cluster's members, and
// to_store() must rebuild exactly what sequential ingestion stores.
#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "hdc/bundle.hpp"
#include "hdc/encoder.hpp"
#include "ms/synthetic.hpp"
#include "preprocess/pipeline.hpp"

namespace spechd::core {
namespace {

ms::labelled_dataset make_dataset(std::uint64_t seed) {
  ms::synthetic_config c;
  c.peptide_count = 25;
  c.spectra_per_peptide_mean = 6.0;
  c.seed = seed;
  return ms::generate_dataset(c);
}

spechd_config config(std::size_t threads = 1) {
  spechd_config c;
  c.distance_threshold = 0.42;
  c.threads = threads;
  return c;
}

/// What sequential ingestion of `spectra` stores: every spectrum that
/// survives preprocessing, encoded on its own, scan = ingestion index.
hdc::hv_store reference_store(const std::vector<ms::spectrum>& spectra,
                              const spechd_config& c) {
  const auto batch = preprocess::run_preprocessing(spectra, c.preprocess);
  const hdc::id_level_encoder encoder(c.encoder, c.preprocess.quantize.mz_bins,
                                      c.preprocess.quantize.intensity_levels);
  hdc::hv_store store(c.encoder.dim, c.encoder.seed);
  for (const auto& q : batch.spectra) {
    store.append({encoder.encode(q), q.precursor_mz, q.precursor_charge,
                  static_cast<std::uint32_t>(store.size()), q.label});
  }
  return store;
}

void expect_same_store(const hdc::hv_store& actual, const hdc::hv_store& expected,
                       const std::string& what) {
  ASSERT_EQ(actual.dim(), expected.dim()) << what;
  ASSERT_EQ(actual.encoder_seed(), expected.encoder_seed()) << what;
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const auto& a = actual.at(i);
    const auto& e = expected.at(i);
    EXPECT_EQ(a.hv, e.hv) << what << " record " << i;
    EXPECT_EQ(a.precursor_mz, e.precursor_mz) << what << " record " << i;
    EXPECT_EQ(a.precursor_charge, e.precursor_charge) << what << " record " << i;
    EXPECT_EQ(a.scan, e.scan) << what << " record " << i;
    EXPECT_EQ(a.label, e.label) << what << " record " << i;
  }
}

/// Every bucket's rows are its members' HVs from the exported store, in
/// member order, and the buckets hold every record once. In bundle mode
/// the representatives are one per label that members carry, ascending,
/// each the majority of that cluster's members bundled in member order;
/// in complete-linkage mode there are none.
void expect_rows_follow_members(const incremental_clusterer& c, assign_mode mode,
                                const std::string& what) {
  const auto state = c.export_state();
  const std::size_t words = state.store.dim() / 64;
  std::size_t members = 0;
  c.for_each_bucket([&](const incremental_clusterer::bucket_ref& bucket) {
    const bucket_rows& rows = bucket.rows;
    ASSERT_EQ(rows.packed.size(), bucket.members.size() * words)
        << what << " bucket " << bucket.key;
    ASSERT_EQ(rows.labels.size(), bucket.members.size()) << what << " bucket " << bucket.key;
    std::map<std::int32_t, std::vector<hdc::hypervector>> clusters;
    for (std::size_t i = 0; i < bucket.members.size(); ++i) {
      const auto& hv = state.store.at(bucket.members[i]).hv;
      EXPECT_TRUE(std::equal(hv.words().begin(), hv.words().end(),
                             rows.packed.begin() + static_cast<std::ptrdiff_t>(i * words)))
          << what << " bucket " << bucket.key << " member " << i;
      clusters[rows.labels[i]].push_back(hv);
    }
    members += bucket.members.size();

    if (mode == assign_mode::complete_linkage) clusters.clear();  // expect no representatives
    ASSERT_EQ(rows.rep_labels.size(), clusters.size()) << what << " bucket " << bucket.key;
    ASSERT_EQ(rows.rep_packed.size(), clusters.size() * words)
        << what << " bucket " << bucket.key;
    std::size_t r = 0;
    for (const auto& [label, hvs] : clusters) {
      EXPECT_EQ(rows.rep_labels[r], label) << what << " bucket " << bucket.key;
      const auto majority = hdc::bundle_majority(hvs);
      EXPECT_TRUE(std::equal(majority.words().begin(), majority.words().end(),
                             rows.rep_packed.begin() + static_cast<std::ptrdiff_t>(r * words)))
          << what << " bucket " << bucket.key << " label " << label;
      ++r;
    }
  });
  EXPECT_EQ(members, c.size()) << what;
}

TEST(IncrementalLayout, AddSpectra) {
  const auto data = make_dataset(61);
  const auto reference = reference_store(data.spectra, config());
  for (const auto mode : {assign_mode::complete_linkage, assign_mode::bundle_representative}) {
    const std::string what = mode == assign_mode::complete_linkage ? "complete" : "bundle";
    incremental_clusterer inc(config(), mode);
    inc.add_spectra(data.spectra);
    expect_rows_follow_members(inc, mode, what);
    expect_same_store(inc.to_store(), reference, what);
  }
}

TEST(IncrementalLayout, PushBatchAtOneAndFourThreads) {
  const auto data = make_dataset(62);
  const std::size_t half = data.spectra.size() / 2;
  const std::vector<ms::spectrum> first(data.spectra.begin(), data.spectra.begin() + half);
  const std::vector<ms::spectrum> second(data.spectra.begin() + half, data.spectra.end());
  auto all = first;
  all.insert(all.end(), second.begin(), second.end());
  const auto reference = reference_store(all, config());
  for (const std::size_t threads : {1UL, 4UL}) {
    const std::string what = "threads=" + std::to_string(threads);
    incremental_clusterer inc(config(threads));
    inc.push_batch(first);
    inc.push_batch(second);  // appends to buckets the first batch opened
    expect_rows_follow_members(inc, assign_mode::complete_linkage, what);
    expect_same_store(inc.to_store(), reference, what);
  }
}

TEST(IncrementalLayout, Bootstrap) {
  const auto data = make_dataset(63);
  const auto reference = reference_store(data.spectra, config());
  incremental_clusterer inc(config(4));
  inc.bootstrap(reference);
  expect_rows_follow_members(inc, assign_mode::complete_linkage, "bootstrap");
  expect_same_store(inc.to_store(), reference, "bootstrap");
}

TEST(IncrementalLayout, ImportOfPermutedMembers) {
  const auto data = make_dataset(64);
  const auto reference = reference_store(data.spectra, config());
  for (const auto mode : {assign_mode::complete_linkage, assign_mode::bundle_representative}) {
    const std::string what = mode == assign_mode::complete_linkage ? "complete" : "bundle";
    incremental_clusterer source(config(), mode);
    source.add_spectra(data.spectra);
    // Reverse every bucket's member order (labels move with their
    // members): rows must follow the snapshot's member order, which is no
    // longer store order.
    auto state = source.export_state();
    std::size_t permuted = 0;
    for (auto& bucket : state.buckets) {
      std::reverse(bucket.members.begin(), bucket.members.end());
      std::reverse(bucket.local_labels.begin(), bucket.local_labels.end());
      permuted += bucket.members.size() > 1 ? 1 : 0;
    }
    ASSERT_GT(permuted, 0U) << what;

    incremental_clusterer inc(config(), mode);
    inc.import_state(state);
    expect_rows_follow_members(inc, mode, what);
    expect_same_store(inc.to_store(), reference, what);
    std::size_t b = 0;
    inc.for_each_bucket([&](const incremental_clusterer::bucket_ref& bucket) {
      ASSERT_LT(b, state.buckets.size()) << what;
      EXPECT_EQ(bucket.members, state.buckets[b].members) << what << " bucket " << bucket.key;
      EXPECT_EQ(bucket.rows.labels, state.buckets[b].local_labels) << what;
      ++b;
    });
  }
}

TEST(IncrementalLayout, RebuildDirtyBuckets) {
  const auto data = make_dataset(65);
  const std::size_t half = data.spectra.size() / 2;
  const std::vector<ms::spectrum> first(data.spectra.begin(), data.spectra.begin() + half);
  const std::vector<ms::spectrum> second(data.spectra.begin() + half, data.spectra.end());
  auto all = first;
  all.insert(all.end(), second.begin(), second.end());
  for (const auto mode : {assign_mode::complete_linkage, assign_mode::bundle_representative}) {
    const std::string what = mode == assign_mode::complete_linkage ? "complete" : "bundle";
    incremental_clusterer inc(config(4), mode);
    inc.push_batch(first);
    inc.rebuild_dirty_buckets();
    inc.push_batch(second);
    expect_rows_follow_members(inc, mode, what + " before rebuild");
    inc.rebuild_dirty_buckets();
    EXPECT_EQ(inc.dirty_bucket_count(), 0U) << what;
    expect_rows_follow_members(inc, mode, what);
    expect_same_store(inc.to_store(), reference_store(all, config()), what);
  }
}

}  // namespace
}  // namespace spechd::core
