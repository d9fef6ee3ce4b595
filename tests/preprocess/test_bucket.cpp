#include "preprocess/bucket.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ms/spectrum.hpp"
#include "util/error.hpp"

namespace spechd::preprocess {
namespace {

quantized_spectrum qs(double precursor_mz, int charge) {
  quantized_spectrum q;
  q.precursor_mz = precursor_mz;
  q.precursor_charge = charge;
  return q;
}

TEST(BucketIndex, MatchesEquationOne) {
  bucket_config c;
  c.resolution = 1.0;
  // bucket = floor((500 - 1.00794) * 2 / 1.0) = floor(997.98412) = 997.
  EXPECT_EQ(bucket_index(500.0, 2, c), 997);
}

TEST(BucketIndex, ResolutionScalesIndex) {
  bucket_config c;
  c.resolution = 0.05;
  const auto fine = bucket_index(500.0, 2, c);
  c.resolution = 1.0;
  const auto coarse = bucket_index(500.0, 2, c);
  EXPECT_NEAR(static_cast<double>(fine) / 20.0, static_cast<double>(coarse), 1.0);
}

TEST(BucketIndex, ChargeMultiplies) {
  bucket_config c;
  c.resolution = 1.0;
  EXPECT_GT(bucket_index(500.0, 3, c), bucket_index(500.0, 2, c));
}

TEST(BucketIndex, UnknownChargeUsesFallback) {
  bucket_config c;
  c.resolution = 1.0;
  c.fallback_charge = 2;
  EXPECT_EQ(bucket_index(500.0, 0, c), bucket_index(500.0, 2, c));
}

TEST(BucketIndex, MonotoneInPrecursorMz) {
  bucket_config c;
  c.resolution = 0.5;
  std::int64_t prev = bucket_index(200.0, 2, c);
  for (double mz = 201.0; mz < 1000.0; mz += 13.7) {
    const auto b = bucket_index(mz, 2, c);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(BucketIndex, OutOfRangeMassesClampIntoTheKeyRange) {
  // An MGF PEPMASS or an ingest frame can carry a huge or non-finite m/z.
  // Its key clamps into the int64 range by sign instead of overflowing the
  // cast, and NaN takes the lowest key.
  constexpr auto lowest = std::numeric_limits<std::int64_t>::min();
  constexpr auto highest = std::numeric_limits<std::int64_t>::max();
  constexpr double inf = std::numeric_limits<double>::infinity();
  bucket_config c;
  c.resolution = 1.0;
  EXPECT_EQ(bucket_index(1e300, 2, c), highest);
  EXPECT_EQ(bucket_index(inf, 2, c), highest);
  EXPECT_EQ(bucket_index(-1e300, 2, c), lowest);
  EXPECT_EQ(bucket_index(-inf, 2, c), lowest);
  EXPECT_EQ(bucket_index(std::nan(""), 2, c), lowest);
  // At charge 1 the key is the mass itself: 2^63 is the first value past
  // the range, while -2^63 and 2^62 are keys.
  EXPECT_EQ(bucket_index(0x1p63, 1, c), highest);
  EXPECT_EQ(bucket_index(-0x1p63, 1, c), lowest);
  EXPECT_EQ(bucket_index(0x1p62, 1, c), std::int64_t{1} << 62);
}

TEST(BucketSpectra, GroupsSameKeyTogether) {
  bucket_config c;
  c.resolution = 1.0;
  // (400.1..400.3 - 1.00794) * 2 all floor to key 798; 600.0 floors to 1197.
  std::vector<quantized_spectrum> spectra = {
      qs(400.1, 2), qs(400.3, 2), qs(600.0, 2), qs(400.2, 2)};
  const auto buckets = bucket_spectra(spectra, c);
  ASSERT_EQ(buckets.size(), 2U);
  // Keys ascend; the 400-ish bucket comes first with 3 members.
  EXPECT_EQ(buckets[0].size(), 3U);
  EXPECT_EQ(buckets[1].size(), 1U);
}

TEST(BucketSpectra, KeysAscending) {
  bucket_config c;
  std::vector<quantized_spectrum> spectra = {qs(900.0, 2), qs(300.0, 2), qs(600.0, 2)};
  const auto buckets = bucket_spectra(spectra, c);
  ASSERT_EQ(buckets.size(), 3U);
  EXPECT_LT(buckets[0].key, buckets[1].key);
  EXPECT_LT(buckets[1].key, buckets[2].key);
}

TEST(BucketSpectra, EveryMemberAssignedExactlyOnce) {
  bucket_config c;
  c.resolution = 0.5;
  std::vector<quantized_spectrum> spectra;
  for (int i = 0; i < 100; ++i) spectra.push_back(qs(300.0 + i * 2.5, 2 + i % 2));
  const auto buckets = bucket_spectra(spectra, c);
  std::vector<bool> seen(spectra.size(), false);
  for (const auto& b : buckets) {
    for (const auto m : b.members) {
      EXPECT_FALSE(seen[m]);
      seen[m] = true;
    }
  }
  for (const auto s : seen) EXPECT_TRUE(s);
}

TEST(BucketSpectra, ZeroResolutionRejected) {
  bucket_config c;
  c.resolution = 0.0;
  std::vector<quantized_spectrum> spectra = {qs(500.0, 2)};
  EXPECT_THROW(bucket_spectra(spectra, c), logic_error);
}

TEST(BucketStats, SummaryValues) {
  std::vector<bucket> buckets(3);
  buckets[0].members = {0, 1, 2};
  buckets[1].members = {3};
  buckets[2].members = {4, 5};
  const auto st = summarize(buckets);
  EXPECT_EQ(st.bucket_count, 3U);
  EXPECT_EQ(st.largest, 3U);
  EXPECT_EQ(st.singletons, 1U);
  EXPECT_NEAR(st.mean_size, 2.0, 1e-12);
}

TEST(BucketStats, EmptyIsZero) {
  const auto st = summarize({});
  EXPECT_EQ(st.bucket_count, 0U);
  EXPECT_DOUBLE_EQ(st.mean_size, 0.0);
}

}  // namespace
}  // namespace spechd::preprocess
