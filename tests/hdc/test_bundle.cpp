#include "hdc/bundle.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace spechd::hdc {
namespace {

std::vector<hypervector> random_hvs(std::size_t n, std::size_t dim, std::uint64_t seed) {
  xoshiro256ss rng(seed);
  std::vector<hypervector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(hypervector::random(dim, rng));
  return out;
}

TEST(Bundle, SingleInputIsIdentity) {
  const auto hvs = random_hvs(1, 512, 1);
  EXPECT_EQ(bundle_majority(hvs), hvs[0]);
}

TEST(Bundle, EmptyInputRejected) {
  std::vector<hypervector> none;
  EXPECT_THROW(bundle_majority(none), logic_error);
}

TEST(Bundle, MajorityOfThreeKnownBits) {
  hypervector a(64);
  hypervector b(64);
  hypervector c(64);
  a.set(0);
  b.set(0);          // bit 0: 2/3 -> set
  c.set(1);          // bit 1: 1/3 -> clear
  a.set(2);
  b.set(2);
  c.set(2);          // bit 2: 3/3 -> set
  const std::vector<hypervector> hvs = {a, b, c};
  const auto m = bundle_majority(hvs);
  EXPECT_TRUE(m.test(0));
  EXPECT_FALSE(m.test(1));
  EXPECT_TRUE(m.test(2));
}

TEST(Bundle, BundleIsCloserToMembersThanRandom) {
  const auto members = random_hvs(7, 2048, 3);
  const auto bundle = bundle_majority(members);
  xoshiro256ss rng(99);
  const auto outsider = hypervector::random(2048, rng);
  for (const auto& m : members) {
    EXPECT_LT(hamming(bundle, m), hamming(bundle, outsider));
    // Members sit well inside the ~0.5 random distance.
    EXPECT_LT(hamming_normalized(bundle, m), 0.40);
  }
}

TEST(Bundle, EvenTieBreaksTowardFirstInput) {
  hypervector a(64);
  hypervector b(64);
  a.set(5);  // bit 5: 1/2 -> tie -> follows a (set)
  const std::vector<hypervector> hvs = {a, b};
  EXPECT_TRUE(bundle_majority(hvs).test(5));
  const std::vector<hypervector> reversed = {b, a};
  EXPECT_FALSE(bundle_majority(reversed).test(5));
}

TEST(IncrementalBundle, MatchesBatchBundle) {
  const auto members = random_hvs(9, 1024, 7);
  incremental_bundle inc(1024);
  for (const auto& m : members) inc.add(m.words());
  EXPECT_EQ(inc.majority(), bundle_majority(members));
  EXPECT_EQ(inc.members(), 9U);
}

TEST(IncrementalBundle, DimensionMismatchRejected) {
  incremental_bundle inc(512);
  EXPECT_THROW(inc.add(hypervector(1024).words()), logic_error);
}

TEST(IncrementalBundle, EmptyMajorityRejected) {
  incremental_bundle inc(512);
  EXPECT_THROW(inc.majority(), logic_error);
}

// Property: the bundle of n noisy variants of a prototype recovers a vector
// closer to the prototype than any single variant is (denoising).
class BundleDenoising : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BundleDenoising, RecoversPrototype) {
  const std::size_t n = GetParam();
  xoshiro256ss rng(11 + n);
  const auto prototype = hypervector::random(2048, rng);
  std::vector<hypervector> variants;
  variants.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto v = prototype;
    for (std::size_t flips = 0; flips < 2048 / 5; ++flips) {
      v.flip(rng.bounded(2048));  // ~20% bit noise
    }
    variants.push_back(std::move(v));
  }
  const auto recovered = bundle_majority(variants);
  double worst_variant = 0.0;
  for (const auto& v : variants) {
    worst_variant = std::max(worst_variant, hamming_normalized(prototype, v));
  }
  EXPECT_LT(hamming_normalized(prototype, recovered), worst_variant);
}

INSTANTIATE_TEST_SUITE_P(MemberCounts, BundleDenoising, ::testing::Values(3U, 5U, 9U, 15U));

}  // namespace
}  // namespace spechd::hdc
