// Determinism/property tests for the batched streaming path: push_batch()
// must produce exactly the clusters sequential push()/add_spectra() would —
// same labels, same counts — for any batch order and any thread count.
#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ms/synthetic.hpp"
#include "util/rng.hpp"

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

void expect_same_clustering(const incremental_clusterer& a,
                            const incremental_clusterer& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.cluster_count(), b.cluster_count()) << what;
  const auto ca = a.clustering();
  const auto cb = b.clustering();
  ASSERT_EQ(ca.labels.size(), cb.labels.size()) << what;
  for (std::size_t i = 0; i < ca.labels.size(); ++i) {
    EXPECT_EQ(ca.labels[i], cb.labels[i]) << what << " record " << i;
  }
}

TEST(IncrementalBatch, PushBatchMatchesSequential) {
  const auto data = make_dataset(41);
  incremental_clusterer sequential(config());
  incremental_clusterer batched(config());
  const auto r_seq = sequential.add_spectra(data.spectra);
  const auto r_batch = batched.push_batch(data.spectra);
  EXPECT_EQ(r_seq.added, r_batch.added);
  EXPECT_EQ(r_seq.joined_existing, r_batch.joined_existing);
  EXPECT_EQ(r_seq.new_clusters, r_batch.new_clusters);
  EXPECT_EQ(r_seq.buckets_touched, r_batch.buckets_touched);
  expect_same_clustering(sequential, batched, "one batch");
}

TEST(IncrementalBatch, PushBatchMatchesSequentialAcrossThreadCounts) {
  const auto data = make_dataset(42);
  incremental_clusterer sequential(config());
  sequential.add_spectra(data.spectra);
  for (const std::size_t threads : {1UL, 4UL}) {
    incremental_clusterer batched(config(threads));
    batched.push_batch(data.spectra);
    expect_same_clustering(sequential, batched,
                           "threads=" + std::to_string(threads));
  }
}

TEST(IncrementalBatch, ShuffledBatchMatchesSequentialOnSameOrder) {
  // In-bucket assignment is order-dependent by design (streaming
  // semantics); the property is that for *any* arrival order, batch and
  // sequential ingestion of that same order agree exactly.
  const auto data = make_dataset(43);
  xoshiro256ss rng(7);
  auto shuffled = data.spectra;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      std::swap(shuffled[i], shuffled[rng.bounded(i + 1)]);
    }
    incremental_clusterer sequential(config());
    incremental_clusterer batched(config(4));
    sequential.add_spectra(shuffled);
    batched.push_batch(shuffled);
    expect_same_clustering(sequential, batched, "round " + std::to_string(round));
  }
}

TEST(IncrementalBatch, PushMatchesSingletonBatch) {
  const auto data = make_dataset(44);
  incremental_clusterer one_by_one(config());
  incremental_clusterer batched(config());
  std::size_t added = 0;
  for (const auto& s : data.spectra) {
    added += one_by_one.push(s).added;
  }
  const auto report = batched.push_batch(data.spectra);
  EXPECT_EQ(added, report.added);
  expect_same_clustering(one_by_one, batched, "push vs push_batch");
}

TEST(IncrementalBatch, MultipleBatchesAndRebuild) {
  const auto data = make_dataset(46);
  const std::size_t half = data.spectra.size() / 2;
  std::vector<ms::spectrum> first(data.spectra.begin(), data.spectra.begin() + half);
  std::vector<ms::spectrum> second(data.spectra.begin() + half, data.spectra.end());

  incremental_clusterer sequential(config());
  incremental_clusterer batched(config(4));
  sequential.add_spectra(first);
  sequential.add_spectra(second);
  batched.push_batch(first);
  batched.push_batch(second);
  expect_same_clustering(sequential, batched, "two batches");

  // After rebuild both must land on the batch-pipeline-equivalent result.
  sequential.rebuild_dirty_buckets();
  batched.rebuild_dirty_buckets();
  expect_same_clustering(sequential, batched, "after rebuild");
}

TEST(IncrementalBatch, EmptyBatchIsNoop) {
  incremental_clusterer inc(config(4));
  const auto report = inc.push_batch({});
  EXPECT_EQ(report.added, 0U);
  EXPECT_EQ(inc.size(), 0U);
  EXPECT_EQ(inc.cluster_count(), 0U);
}

}  // namespace
}  // namespace spechd::core
