// complete_linkage_select against the per-member std::map reduction it
// replaced, kept here only as the oracle: seeded random rows, the tie,
// threshold and gap edges, and an import_state -> push round trip.
#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "hdc/hypervector.hpp"
#include "ms/synthetic.hpp"

namespace spechd::core {
namespace {

/// The std::map reduction assign() and shard::query() used to run: a
/// per-member normalised distance, max per label, then an ascending label
/// scan where `<=` lets the later label win a tie.
linkage_pick map_oracle(const std::vector<std::uint32_t>& counts,
                        const std::vector<std::int32_t>& labels, std::size_t dim,
                        double threshold) {
  std::map<std::int32_t, double> worst;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double d = static_cast<double>(counts[i]) / static_cast<double>(dim);
    auto [it, inserted] = worst.try_emplace(labels[i], d);
    if (!inserted) it->second = std::max(it->second, d);
  }
  linkage_pick pick;
  double best = threshold;
  for (const auto& [label, w] : worst) {
    if (w <= best) {
      best = w;
      pick.label = label;
    }
  }
  if (pick.label >= 0) pick.distance = best;
  return pick;
}

/// Runs the routine with scratch of exactly `clusters` entries, pre-filled
/// with garbage so a read-before-write would show.
linkage_pick dense(const std::vector<std::uint32_t>& counts,
                   const std::vector<std::int32_t>& labels, std::int32_t clusters,
                   std::size_t dim, double threshold) {
  std::vector<std::uint32_t> worst(static_cast<std::size_t>(clusters), 0xdeadbeefU);
  return complete_linkage_select(counts, labels, clusters, dim, threshold, worst);
}

void expect_same(const linkage_pick& got, const linkage_pick& want) {
  EXPECT_EQ(got.label, want.label);
  EXPECT_EQ(got.distance, want.distance);  // bit-identical, not approximately
}

TEST(CompleteLinkageSelect, MatchesMapOracleOnRandomRows) {
  std::mt19937_64 rng(20261017);
  std::size_t joins = 0;
  std::size_t misses = 0;
  for (std::int32_t clusters = 1; clusters <= 48; ++clusters) {
    for (int trial = 0; trial < 40; ++trial) {
      // A small dim and a narrow count band make equal worst distances
      // (ties) and counts sitting exactly on the cut common.
      const std::size_t dim = trial % 2 == 0 ? 64 : 1024;
      const double threshold = std::uniform_real_distribution<double>(0.2, 0.6)(rng);
      const auto lo = static_cast<std::uint32_t>(0.15 * static_cast<double>(dim));
      const auto hi = static_cast<std::uint32_t>(0.65 * static_cast<double>(dim));
      std::uniform_int_distribution<std::uint32_t> count_of(lo, hi);
      // Every third trial only uses even labels: gaps in [0, clusters).
      const bool gaps = trial % 3 == 0;
      std::uniform_int_distribution<std::int32_t> label_of(0, clusters - 1);
      std::uniform_int_distribution<std::size_t> members_of(
          0, 4 * static_cast<std::size_t>(clusters));
      const std::size_t members = members_of(rng);
      std::vector<std::uint32_t> counts;
      std::vector<std::int32_t> labels;
      for (std::size_t i = 0; i < members; ++i) {
        auto label = label_of(rng);
        if (gaps) label -= label % 2;
        labels.push_back(label);
        counts.push_back(count_of(rng));
      }
      const auto want = map_oracle(counts, labels, dim, threshold);
      expect_same(dense(counts, labels, clusters, dim, threshold), want);
      (want.label >= 0 ? joins : misses) += 1;
    }
  }
  // The draw must exercise both outcomes, or the comparison proves little.
  EXPECT_GT(joins, 100U);
  EXPECT_GT(misses, 100U);
}

TEST(CompleteLinkageSelect, EqualWorstDistanceGoesToLaterLabel) {
  // Both clusters' worst member is 20/100; label 1 is scanned last.
  const std::vector<std::uint32_t> counts{10, 20, 20, 5};
  const std::vector<std::int32_t> labels{0, 1, 0, 1};
  const auto pick = dense(counts, labels, 2, 100, 0.5);
  EXPECT_EQ(pick.label, 1);
  EXPECT_EQ(pick.distance, 0.2);
  expect_same(pick, map_oracle(counts, labels, 100, 0.5));
}

TEST(CompleteLinkageSelect, WorstCountExactlyAtCutJoins) {
  // 250 / 1000 == 0.25 exactly, and the cut is inclusive.
  const std::vector<std::int32_t> labels{0, 0};
  const auto at = dense({100, 250}, labels, 1, 1000, 0.25);
  EXPECT_EQ(at.label, 0);
  EXPECT_EQ(at.distance, 0.25);
  expect_same(at, map_oracle({100, 250}, labels, 1000, 0.25));
  EXPECT_EQ(dense({100, 251}, labels, 1, 1000, 0.25).label, -1);
}

TEST(CompleteLinkageSelect, EveryClusterAboveCutPicksNothing) {
  const std::vector<std::uint32_t> counts{60, 10, 70, 55};
  const std::vector<std::int32_t> labels{0, 1, 1, 2};
  const auto pick = dense(counts, labels, 3, 100, 0.5);
  EXPECT_EQ(pick.label, -1);
  EXPECT_EQ(pick.distance, 1.0);
  expect_same(pick, map_oracle(counts, labels, 100, 0.5));
}

TEST(CompleteLinkageSelect, AbsentLabelsAreSkipped) {
  // Labels 0, 2 and 4 have no member. An absent label must not read as a
  // zero distance: label 4 would otherwise win the `<=` tie with label 3.
  const std::vector<std::uint32_t> counts{40, 0, 30};
  const std::vector<std::int32_t> labels{1, 3, 1};
  const auto pick = dense(counts, labels, 5, 100, 0.5);
  EXPECT_EQ(pick.label, 3);
  EXPECT_EQ(pick.distance, 0.0);
  expect_same(pick, map_oracle(counts, labels, 100, 0.5));
}

TEST(CompleteLinkageSelect, EmptyAndSingleMemberRows) {
  EXPECT_EQ(dense({}, {}, 0, 100, 0.5).label, -1);
  EXPECT_EQ(dense({}, {}, 3, 100, 0.5).label, -1);  // clusters but no members
  const auto one = dense({30}, {2}, 3, 100, 0.5);
  EXPECT_EQ(one.label, 2);
  EXPECT_EQ(one.distance, 0.3);
  EXPECT_EQ(dense({80}, {0}, 1, 100, 0.5).label, -1);
}

TEST(CompleteLinkageSelect, LabelOutsideClustersIsABrokenInvariant) {
  std::vector<std::uint32_t> worst(2);
  const std::vector<std::uint32_t> counts{1};
  EXPECT_THROW(complete_linkage_select(counts, std::vector<std::int32_t>{2}, 2, 100, 0.5,
                                       worst),
               spechd::logic_error);
  EXPECT_THROW(complete_linkage_select(counts, std::vector<std::int32_t>{-1}, 2, 100, 0.5,
                                       worst),
               spechd::logic_error);
  // Scratch smaller than the cluster count.
  EXPECT_THROW(complete_linkage_select(counts, std::vector<std::int32_t>{0}, 3, 100, 0.5,
                                       worst),
               spechd::logic_error);
}

TEST(CompleteLinkageSelect, PushIntoImportedStateWithLabelGapsFollowsOracle) {
  ms::synthetic_config sc;
  sc.peptide_count = 30;
  sc.spectra_per_peptide_mean = 6.0;
  sc.seed = 41;
  const auto spectra = ms::generate_dataset(sc).spectra;
  spechd_config config;
  config.encoder.dim = 1024;
  config.threads = 1;
  // Even spectra build the base state; odd ones (replicates of the same
  // peptides) are pushed into it.
  std::vector<ms::spectrum> even;
  for (std::size_t s = 0; s < spectra.size(); s += 2) even.push_back(spectra[s]);
  incremental_clusterer base(config);
  base.add_spectra(even);

  // Shift every label >= 1 up by one: label 1 is absent in every bucket
  // that holds more than one cluster. import_state accepts such gaps.
  auto gapped = base.export_state();
  std::set<std::int64_t> gapped_keys;
  for (auto& bucket : gapped.buckets) {
    if (bucket.next_local < 2) continue;
    gapped_keys.insert(bucket.key);
    for (auto& label : bucket.local_labels) label += label >= 1 ? 1 : 0;
    ++bucket.next_local;
  }
  ASSERT_FALSE(gapped_keys.empty());

  std::size_t joined_gapped = 0;
  for (std::size_t s = 1; s < spectra.size(); s += 2) {
    incremental_clusterer probe(config);
    probe.import_state(gapped);
    if (probe.push(spectra[s]).added == 0) continue;  // dropped by preprocessing
    const auto index = static_cast<std::uint32_t>(probe.size() - 1);
    const auto store = probe.export_state().store;
    const auto& hv = store.at(index).hv;
    bool found = false;
    probe.for_each_bucket([&](const incremental_clusterer::bucket_ref& bucket) {
      if (bucket.members.empty() || bucket.members.back() != index) return;
      found = true;
      const std::size_t existing = bucket.members.size() - 1;
      std::int32_t clusters_before = 0;
      for (const auto& snap : gapped.buckets) {
        if (snap.key == bucket.key) clusters_before = snap.next_local;
      }
      std::vector<std::uint32_t> counts;
      for (std::size_t i = 0; i < existing; ++i) {
        counts.push_back(
            static_cast<std::uint32_t>(hdc::hamming(hv, store.at(bucket.members[i]).hv)));
      }
      const std::vector<std::int32_t> labels(bucket.local_labels.begin(),
                                             bucket.local_labels.begin() +
                                                 static_cast<std::ptrdiff_t>(existing));
      const auto want = map_oracle(counts, labels, hv.dim(), config.distance_threshold);
      const auto expected = want.label >= 0 ? want.label : clusters_before;
      EXPECT_EQ(bucket.local_labels.back(), expected) << "spectrum " << s;
      if (want.label >= 0 && gapped_keys.count(bucket.key) != 0) ++joined_gapped;
    });
    EXPECT_TRUE(found) << "spectrum " << s;
  }
  EXPECT_GT(joined_gapped, 0U);
}

}  // namespace
}  // namespace spechd::core
