#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "metrics/quality.hpp"
#include "ms/synthetic.hpp"

namespace spechd::core {
namespace {

ms::labelled_dataset make_dataset(std::uint64_t seed) {
  ms::synthetic_config c;
  c.peptide_count = 25;
  c.spectra_per_peptide_mean = 6.0;
  c.seed = seed;
  return ms::generate_dataset(c);
}

spechd_config config() {
  spechd_config c;
  c.distance_threshold = 0.42;
  return c;
}

TEST(Incremental, SingleBatchMatchesBatchPipelineQuality) {
  const auto data = make_dataset(5);
  std::vector<std::int32_t> truth;
  for (const auto& s : data.spectra) truth.push_back(s.label);

  incremental_clusterer inc(config());
  inc.add_spectra(data.spectra);
  inc.rebuild_dirty_buckets();

  // Labels returned in ingestion == input order for a single batch of
  // fully-surviving spectra; quality must match the batch pipeline's
  // (identical algorithm after rebuild).
  const auto clustering = inc.clustering();
  ASSERT_EQ(clustering.labels.size(), data.spectra.size());
  const auto q = metrics::evaluate_clustering(truth, clustering);
  EXPECT_GT(q.clustered_ratio, 0.5);
  EXPECT_LT(q.incorrect_ratio, 0.05);
}

TEST(Incremental, AddReportsCounts) {
  const auto data = make_dataset(6);
  incremental_clusterer inc(config());
  const auto report = inc.add_spectra(data.spectra);
  EXPECT_EQ(report.added, inc.size());
  EXPECT_EQ(report.joined_existing + report.new_clusters, report.added);
  EXPECT_FALSE(report.buckets_touched.empty());
}

std::map<std::int64_t, std::size_t> bucket_sizes(const incremental_clusterer& c) {
  std::map<std::int64_t, std::size_t> sizes;
  c.for_each_bucket([&](const incremental_clusterer::bucket_ref& bucket) {
    sizes[bucket.key] = bucket.members.size();
  });
  return sizes;
}

TEST(Incremental, BucketsTouchedCountsOnlyThisUpdate) {
  // Sorted by precursor m/z, the two halves land in (almost) disjoint
  // buckets. No rebuild runs in between, so the first half's buckets are
  // still dirty when the second report is taken.
  auto spectra = make_dataset(14).spectra;
  std::sort(spectra.begin(), spectra.end(), [](const ms::spectrum& a, const ms::spectrum& b) {
    return a.precursor_mz < b.precursor_mz;
  });
  const std::size_t half = spectra.size() / 2;
  const std::vector<ms::spectrum> first(spectra.begin(), spectra.begin() + half);
  const std::vector<ms::spectrum> second(spectra.begin() + half, spectra.end());
  for (const bool batched : {false, true}) {
    incremental_clusterer inc(config());
    const auto update = [&](const std::vector<ms::spectrum>& batch) {
      return batched ? inc.push_batch(batch) : inc.add_spectra(batch);
    };
    update(first);
    const auto before = bucket_sizes(inc);
    const auto report = update(second);
    std::vector<std::int64_t> grew;  // ascending, like the report
    for (const auto& [key, size] : bucket_sizes(inc)) {
      const auto it = before.find(key);
      if (it == before.end() || it->second != size) grew.push_back(key);
    }
    ASSERT_FALSE(grew.empty()) << (batched ? "push_batch" : "add_spectra");
    EXPECT_LT(grew.size(), inc.dirty_bucket_count()) << (batched ? "push_batch" : "add_spectra");
    EXPECT_EQ(report.buckets_touched, grew) << (batched ? "push_batch" : "add_spectra");
  }
}

TEST(Incremental, SecondBatchJoinsExistingClusters) {
  const auto data = make_dataset(7);
  // Split into two halves of the same peptides.
  std::vector<ms::spectrum> first(data.spectra.begin(),
                                  data.spectra.begin() + data.spectra.size() / 2);
  std::vector<ms::spectrum> second(data.spectra.begin() + data.spectra.size() / 2,
                                   data.spectra.end());

  incremental_clusterer inc(config());
  inc.add_spectra(first);
  inc.rebuild_dirty_buckets();
  const auto before = inc.cluster_count();
  const auto report = inc.add_spectra(second);
  // Replicates of already-seen peptides must mostly join, not fork.
  EXPECT_GT(report.joined_existing, report.new_clusters);
  EXPECT_LT(inc.cluster_count(), before + second.size());
}

TEST(Incremental, RebuildRestoresBatchEquivalence) {
  const auto data = make_dataset(8);
  std::vector<ms::spectrum> first(data.spectra.begin(),
                                  data.spectra.begin() + data.spectra.size() / 2);
  std::vector<ms::spectrum> second(data.spectra.begin() + data.spectra.size() / 2,
                                   data.spectra.end());

  incremental_clusterer incremental(config());
  incremental.add_spectra(first);
  incremental.add_spectra(second);
  incremental.rebuild_dirty_buckets();

  incremental_clusterer oneshot(config());
  std::vector<ms::spectrum> all = first;
  all.insert(all.end(), second.begin(), second.end());
  oneshot.add_spectra(all);
  oneshot.rebuild_dirty_buckets();

  EXPECT_EQ(incremental.cluster_count(), oneshot.cluster_count());
}

TEST(Incremental, StoreRoundTripViaBootstrap) {
  const auto data = make_dataset(9);
  incremental_clusterer inc(config());
  inc.add_spectra(data.spectra);
  inc.rebuild_dirty_buckets();
  const auto clusters_before = inc.cluster_count();

  const auto store = inc.to_store();
  EXPECT_EQ(store.size(), inc.size());

  incremental_clusterer restored(config());
  restored.bootstrap(store);
  EXPECT_EQ(restored.size(), inc.size());
  EXPECT_EQ(restored.cluster_count(), clusters_before);
}

TEST(Incremental, BootstrapRejectsDimensionMismatch) {
  hdc::hv_store store(4096, 1);  // pipeline default is 2048
  incremental_clusterer inc(config());
  EXPECT_THROW(inc.bootstrap(store), logic_error);
}

TEST(Incremental, EmptyBatchIsNoop) {
  incremental_clusterer inc(config());
  const auto report = inc.add_spectra({});
  EXPECT_EQ(report.added, 0U);
  EXPECT_EQ(inc.size(), 0U);
  EXPECT_EQ(inc.cluster_count(), 0U);
}


TEST(IncrementalBundleMode, ClustersWithComparableQuality) {
  const auto data = make_dataset(12);
  std::vector<std::int32_t> truth;
  for (const auto& s : data.spectra) truth.push_back(s.label);

  incremental_clusterer exact(config(), assign_mode::complete_linkage);
  incremental_clusterer fast(config(), assign_mode::bundle_representative);
  exact.add_spectra(data.spectra);
  fast.add_spectra(data.spectra);

  const auto q_exact = metrics::evaluate_clustering(truth, exact.clustering());
  const auto q_fast = metrics::evaluate_clustering(truth, fast.clustering());
  // The bundled representative is a faster, slightly more permissive
  // criterion; quality must stay in the same regime.
  EXPECT_GT(q_fast.clustered_ratio, q_exact.clustered_ratio * 0.8);
  EXPECT_LT(q_fast.incorrect_ratio, 0.10);
}

TEST(IncrementalBundleMode, RebuildRefreshesRepresentatives) {
  const auto data = make_dataset(13);
  incremental_clusterer fast(config(), assign_mode::bundle_representative);
  fast.add_spectra(data.spectra);
  fast.rebuild_dirty_buckets();
  // After a rebuild, adding replicates of existing peptides must still
  // mostly join (representatives were rebuilt, not dropped).
  const auto report = fast.add_spectra(data.spectra);
  EXPECT_GT(report.joined_existing, report.new_clusters);
}

}  // namespace
}  // namespace spechd::core
