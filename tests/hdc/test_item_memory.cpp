#include "hdc/item_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "hdc/cpu_kernels.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hypervector.hpp"
#include "util/rng.hpp"

namespace spechd::hdc {
namespace {

bool same_row(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b) {
  return std::ranges::equal(a, b);
}

bool same_row(std::span<const std::uint64_t> a, const hypervector& b) {
  return std::ranges::equal(a, b.words());
}

std::size_t row_hamming(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b) {
  return kernels::xor_popcount(a.data(), b.data(), a.size());
}

double row_hamming_normalized(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b) {
  return static_cast<double>(row_hamming(a, b)) / static_cast<double>(a.size() * 64);
}

TEST(IdMemory, SizeAndDim) {
  id_memory ids(2048, 100, 1);
  EXPECT_EQ(ids.size(), 100U);
  EXPECT_EQ(ids.dim(), 2048U);
  EXPECT_EQ(ids.at(0).size(), 2048U / 64);
}

TEST(IdMemory, DeterministicInSeed) {
  id_memory a(512, 10, 77);
  id_memory b(512, 10, 77);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_TRUE(same_row(a.at(i), b.at(i)));
}

TEST(IdMemory, DifferentSeedsDiffer) {
  id_memory a(512, 4, 1);
  id_memory b(512, 4, 2);
  EXPECT_FALSE(same_row(a.at(0), b.at(0)));
}

TEST(IdMemory, PairwiseApproximatelyOrthogonal) {
  id_memory ids(4096, 20, 5);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = i + 1; j < 20; ++j) {
      const double d = row_hamming_normalized(ids.at(i), ids.at(j));
      EXPECT_NEAR(d, 0.5, 0.08) << i << "," << j;
    }
  }
}

TEST(IdMemory, OutOfRangeThrows) {
  id_memory ids(512, 3, 1);
  EXPECT_THROW(ids.at(3), logic_error);
}

// Pins the generation order: row i is the i-th successive hypervector::random
// draw from the table's seeded generator, so encoded HVs (and every
// persisted format holding them) cannot move when the storage changes.
TEST(IdMemory, RowsAreSuccessiveRandomDraws) {
  constexpr std::uint64_t seed = 0xC0FFEE;
  for (const std::size_t dim : {64UL, 2048UL}) {
    const id_memory ids(dim, 300, seed);
    xoshiro256ss rng(seed ^ 0x1D1D1D1D1D1D1D1DULL);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(same_row(ids.at(i), hypervector::random(dim, rng))) << dim << " row " << i;
    }
  }
}

TEST(IdMemory, TableIsContiguousAndCacheLineAligned) {
  const id_memory ids(2048, 5, 3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ids.at(0).data()) % 64, 0U);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(ids.at(i).data(), ids.at(i - 1).data() + 2048 / 64);
  }
}

TEST(LevelMemory, EndpointsNearOrthogonal) {
  level_memory levels(4096, 64, 9);
  const double d = row_hamming_normalized(levels.at(0), levels.at(63));
  EXPECT_NEAR(d, 0.5, 0.02);
}

TEST(LevelMemory, AdjacentLevelsClose) {
  level_memory levels(4096, 64, 9);
  for (std::size_t l = 0; l + 1 < 64; ++l) {
    const auto d = row_hamming(levels.at(l), levels.at(l + 1));
    EXPECT_LE(d, 4096 / 2 / 63 + 2) << l;
  }
}

TEST(LevelMemory, HammingMonotoneInLevelGap) {
  level_memory levels(2048, 16, 11);
  // d(0, k) grows monotonically with k (progressive flips never revert).
  std::size_t prev = 0;
  for (std::size_t l = 1; l < 16; ++l) {
    const auto d = row_hamming(levels.at(0), levels.at(l));
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST(LevelMemory, ExpectedHammingExactByConstruction) {
  level_memory levels(2048, 16, 12);
  for (std::size_t a = 0; a < 16; ++a) {
    for (std::size_t b = 0; b < 16; ++b) {
      EXPECT_EQ(row_hamming(levels.at(a), levels.at(b)), levels.expected_hamming(a, b))
          << a << "," << b;
    }
  }
}

// Pins the Level generation order against the construction spelled out
// with hypervector operations: a Fisher-Yates flip order, then a random
// base drawn from the same generator, then progressive flips.
TEST(LevelMemory, RowsMatchProgressiveFlipConstruction) {
  constexpr std::uint64_t seed = 0xC0FFEE;
  for (const std::size_t dim : {64UL, 2048UL}) {
    for (const std::size_t q : {2UL, 7UL, 64UL}) {
      const level_memory levels(dim, q, seed);
      xoshiro256ss rng(seed ^ 0x7E7E7E7E7E7E7E7EULL);
      std::vector<std::uint32_t> order(dim);
      std::iota(order.begin(), order.end(), 0U);
      for (std::size_t i = dim; i > 1; --i) std::swap(order[i - 1], order[rng.bounded(i)]);
      hypervector current = hypervector::random(dim, rng);
      const double step = static_cast<double>(dim) / 2.0 / static_cast<double>(q - 1);
      std::size_t flipped = 0;
      for (std::size_t level = 0; level < q; ++level) {
        const auto target = static_cast<std::size_t>(step * static_cast<double>(level) + 0.5);
        for (; flipped < target && flipped < dim; ++flipped) current.flip(order[flipped]);
        ASSERT_TRUE(same_row(levels.at(level), current))
            << "dim " << dim << " q " << q << " level " << level;
      }
    }
  }
}

TEST(LevelMemory, RequiresAtLeastTwoLevels) {
  EXPECT_THROW(level_memory(512, 1, 1), logic_error);
  EXPECT_NO_THROW(level_memory(512, 2, 1));
}

TEST(LevelMemory, Deterministic) {
  level_memory a(512, 8, 42);
  level_memory b(512, 8, 42);
  for (std::size_t l = 0; l < 8; ++l) EXPECT_TRUE(same_row(a.at(l), b.at(l)));
}

TEST(LevelMemory, OutOfRangeThrows) {
  level_memory levels(512, 8, 1);
  EXPECT_THROW(levels.at(8), logic_error);
}

// encode() range-checks every peak before the kernel reads raw table rows:
// an out-of-range bin or level throws under every variant instead of
// reading past the flat tables.
TEST(IdMemory, EncodeRejectsOutOfRangePeaksUnderEveryVariant) {
  const kernels::variant saved = kernels::active();
  const id_level_encoder encoder(encoder_config{.dim = 2048, .seed = 7}, 100, 16);
  for (const auto v : {kernels::variant::scalar, kernels::variant::avx2,
                       kernels::variant::avx512}) {
    if (!kernels::supported(v)) continue;
    kernels::set_active(v);
    for (const std::size_t peaks : {1UL, 40UL}) {
      preprocess::quantized_spectrum bad_bin;
      preprocess::quantized_spectrum bad_level;
      for (std::size_t p = 0; p < peaks; ++p) {
        bad_bin.peaks.push_back({static_cast<std::uint32_t>(p % 100), 3});
        bad_level.peaks.push_back({static_cast<std::uint32_t>(p % 100), 3});
      }
      bad_bin.peaks.back().mz_bin = 100;
      bad_level.peaks.back().level = 16;
      EXPECT_THROW((void)encoder.encode(bad_bin), logic_error) << kernels::variant_name(v);
      EXPECT_THROW((void)encoder.encode(bad_level), logic_error) << kernels::variant_name(v);
      EXPECT_THROW((void)encoder.encode_batch({bad_bin}), logic_error)
          << kernels::variant_name(v);
    }
  }
  kernels::set_active(saved);
}

// --- the process-wide cache ---------------------------------------------------
//
// The cache never drops a table, and other suites (or an earlier
// --gtest_repeat iteration) fill it too, so byte checks compare deltas over
// keys whose seed no earlier call in this process has used.

std::uint64_t fresh_seed() {
  static std::uint64_t next = 0x5EED'0000'0000'0000ULL;
  return next++;
}

std::size_t table_set_bytes(std::size_t dim, std::size_t bins, std::size_t levels) {
  return (bins + levels) * (dim / 8);
}

TEST(ItemMemoryCache, EncodersWithOneKeyShareRows) {
  const encoder_config config{.dim = 512, .seed = fresh_seed()};
  const auto before = shared_item_memory_bytes();
  const id_level_encoder a(config, 100, 16);
  const id_level_encoder b(config, 100, 16);
  EXPECT_EQ(a.ids().at(0).data(), b.ids().at(0).data());
  EXPECT_EQ(a.levels().at(0).data(), b.levels().at(0).data());
  EXPECT_EQ(a.ids().at(0).data(), shared_id_memory(512, 100, config.seed)->at(0).data());
  EXPECT_EQ(shared_item_memory_bytes() - before, table_set_bytes(512, 100, 16));
}

TEST(ItemMemoryCache, DifferentDimCountOrSeedGetsADifferentTable) {
  const std::uint64_t seed = 0x5EED'1000'0000'0000ULL;
  const id_level_encoder base(encoder_config{.dim = 512, .seed = seed}, 100, 16);
  const id_level_encoder wider(encoder_config{.dim = 1024, .seed = seed}, 100, 16);
  const id_level_encoder more_rows(encoder_config{.dim = 512, .seed = seed}, 101, 17);
  const id_level_encoder reseeded(encoder_config{.dim = 512, .seed = seed + 1}, 100, 16);
  for (const auto* other : {&wider, &more_rows, &reseeded}) {
    EXPECT_NE(base.ids().at(0).data(), other->ids().at(0).data());
    EXPECT_NE(base.levels().at(0).data(), other->levels().at(0).data());
  }
  EXPECT_EQ(wider.dim(), 1024U);
  EXPECT_EQ(more_rows.ids().size(), 101U);
  EXPECT_EQ(more_rows.levels().size(), 17U);
  EXPECT_FALSE(same_row(base.ids().at(0), reseeded.ids().at(0)));
}

TEST(ItemMemoryCache, CachedRowsEqualFreshlyConstructedTables) {
  for (const std::size_t dim : {192UL, 2048UL}) {
    const std::uint64_t seed = 0x5EED'1000'0000'0002ULL;
    const auto cached_ids = shared_id_memory(dim, 300, seed);
    const id_memory fresh_ids(dim, 300, seed);
    ASSERT_EQ(cached_ids->size(), fresh_ids.size());
    for (std::size_t i = 0; i < fresh_ids.size(); ++i) {
      EXPECT_TRUE(same_row(cached_ids->at(i), fresh_ids.at(i))) << "dim " << dim << " id " << i;
    }
    const auto cached_levels = shared_level_memory(dim, 32, seed);
    const level_memory fresh_levels(dim, 32, seed);
    ASSERT_EQ(cached_levels->size(), fresh_levels.size());
    for (std::size_t l = 0; l < fresh_levels.size(); ++l) {
      EXPECT_TRUE(same_row(cached_levels->at(l), fresh_levels.at(l)))
          << "dim " << dim << " level " << l;
      EXPECT_EQ(cached_levels->expected_hamming(0, l), fresh_levels.expected_hamming(0, l));
    }
  }
}

TEST(ItemMemoryCache, ConcurrentFirstBuildsOfOneKeyGetOneTable) {
  const encoder_config config{.dim = 512, .seed = fresh_seed()};
  const auto before = shared_item_memory_bytes();
  constexpr std::size_t k_threads = 8;
  std::vector<const std::uint64_t*> id_rows(k_threads);
  std::vector<const std::uint64_t*> level_rows(k_threads);
  std::latch start(k_threads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < k_threads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const id_level_encoder encoder(config, 2000, 64);
      id_rows[t] = encoder.ids().at(0).data();
      level_rows[t] = encoder.levels().at(0).data();
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 1; t < k_threads; ++t) {
    EXPECT_EQ(id_rows[t], id_rows[0]) << "thread " << t;
    EXPECT_EQ(level_rows[t], level_rows[0]) << "thread " << t;
  }
  EXPECT_EQ(shared_item_memory_bytes() - before, table_set_bytes(512, 2000, 64));
}

TEST(ItemMemoryCache, ThrowingConstructionLeavesNoEntry) {
  const std::uint64_t seed = fresh_seed();
  const auto before = shared_item_memory_bytes();
  // dim 100 is not a multiple of 64: the table constructor rejects it.
  EXPECT_THROW(id_level_encoder(encoder_config{.dim = 100, .seed = seed}, 100, 16),
               logic_error);
  EXPECT_THROW((void)shared_level_memory(100, 16, seed), logic_error);
  EXPECT_EQ(shared_item_memory_bytes(), before);
  // Nothing half-built was kept: the same key throws again, and the cache
  // keeps serving valid keys.
  EXPECT_THROW((void)shared_id_memory(100, 100, seed), logic_error);
  const id_level_encoder a(encoder_config{.dim = 128, .seed = seed}, 100, 16);
  const id_level_encoder b(encoder_config{.dim = 128, .seed = seed}, 100, 16);
  EXPECT_EQ(a.ids().at(99).data(), b.ids().at(99).data());
  EXPECT_TRUE(same_row(a.ids().at(99), id_memory(128, 100, seed).at(99)));
  EXPECT_EQ(shared_item_memory_bytes() - before, table_set_bytes(128, 100, 16));
}

}  // namespace
}  // namespace spechd::hdc
