// Equivalence tests for the dispatching kernel layer: every SIMD variant
// and every thread count must produce *bit-identical* results to the scalar
// reference — same Hamming counts, same encoded vectors (including the
// even-count tie-break) — so kernel dispatch can never move quality
// metrics.
#include "hdc/cpu_kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "hdc/distance.hpp"
#include "hdc/encoder.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spechd::hdc {
namespace {

namespace k = kernels;

/// Restores the dispatched variant on scope exit.
class variant_guard {
public:
  variant_guard() : saved_(k::active()) {}
  ~variant_guard() { k::set_active(saved_); }

private:
  k::variant saved_;
};

std::vector<k::variant> supported_variants() {
  std::vector<k::variant> out;
  for (const k::variant v : {k::variant::scalar, k::variant::avx2, k::variant::avx512}) {
    if (k::supported(v)) out.push_back(v);
  }
  return out;
}

std::vector<std::uint64_t> random_words(std::size_t n, xoshiro256ss& rng) {
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) x = rng();
  return w;
}

std::vector<hypervector> random_hvs(std::size_t n, std::size_t dim, std::uint64_t seed) {
  xoshiro256ss rng(seed);
  std::vector<hypervector> hvs;
  hvs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) hvs.push_back(hypervector::random(dim, rng));
  return hvs;
}

std::size_t xor_popcount_reference(const std::uint64_t* a, const std::uint64_t* b,
                                   std::size_t words) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < words; ++w) count += std::popcount(a[w] ^ b[w]);
  return count;
}

TEST(KernelDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(k::supported(k::variant::scalar));
  EXPECT_TRUE(k::supported(k::best_supported()));
}

TEST(KernelDispatch, SetActiveRejectsUnsupported) {
  variant_guard guard;
  if (!k::supported(k::variant::avx512)) {
    EXPECT_THROW(k::set_active(k::variant::avx512), logic_error);
  }
  k::set_active(k::variant::scalar);
  EXPECT_EQ(k::active(), k::variant::scalar);
}

TEST(KernelDispatch, ParseVariantRoundTripsAndRejectsGarbage) {
  EXPECT_EQ(k::parse_variant("scalar"), k::variant::scalar);
  EXPECT_EQ(k::parse_variant("avx2"), k::variant::avx2);
  EXPECT_EQ(k::parse_variant("avx512"), k::variant::avx512);
  EXPECT_EQ(k::parse_variant("auto"), k::best_supported());
  EXPECT_THROW(k::parse_variant("sse9000"), logic_error);
}

TEST(XorPopcount, AllVariantsMatchReferenceAcrossWordCounts) {
  variant_guard guard;
  xoshiro256ss rng(11);
  // 1/32/64 words = dims {64, 2048, 4096}; 3/7/33 exercise the SIMD tails.
  for (const std::size_t words : {1UL, 3UL, 7UL, 32UL, 33UL, 64UL}) {
    const auto a = random_words(words, rng);
    const auto b = random_words(words, rng);
    const std::size_t expected = xor_popcount_reference(a.data(), b.data(), words);
    for (const auto v : supported_variants()) {
      k::set_active(v);
      EXPECT_EQ(k::xor_popcount(a.data(), b.data(), words), expected)
          << k::variant_name(v) << " words=" << words;
      EXPECT_EQ(k::popcount(a.data(), words),
                xor_popcount_reference(a.data(), std::vector<std::uint64_t>(words, 0).data(),
                                       words))
          << k::variant_name(v) << " words=" << words;
    }
  }
}

// Randomized equivalence: the packed tile must agree with the per-pair
// scalar reference for every supported variant, across ragged shapes
// that exercise the 4-row blocking remainders, the SIMD word tails, and
// — at words >= 128 — the AVX-512 carry-save reduction path.
TEST(HammingTilePacked, RandomizedEquivalenceAcrossVariantsAndShapes) {
  variant_guard guard;
  struct shape {
    std::size_t n_rows, n_cols, words;
  };
  const shape shapes[] = {
      {1, 1, 1},   {1, 7, 3},    {2, 5, 7},    {3, 3, 8},     {4, 64, 32},
      {5, 9, 32},  {6, 2, 31},   {7, 64, 33},  {64, 64, 32},  {8, 8, 64},
      {4, 4, 128}, {5, 3, 129},  {9, 17, 130}, {2, 2, 136},
  };
  std::uint64_t seed = 1;
  for (const auto& s : shapes) {
    xoshiro256ss rng(1000 + seed++);
    std::vector<std::uint64_t> rows = random_words(s.n_rows * s.words, rng);
    std::vector<std::uint64_t> cols = random_words(s.n_cols * s.words, rng);

    std::vector<std::uint32_t> expected(s.n_rows * s.n_cols);
    for (std::size_t r = 0; r < s.n_rows; ++r) {
      for (std::size_t c = 0; c < s.n_cols; ++c) {
        expected[r * s.n_cols + c] = static_cast<std::uint32_t>(xor_popcount_reference(
            rows.data() + r * s.words, cols.data() + c * s.words, s.words));
      }
    }

    for (const auto v : supported_variants()) {
      k::set_active(v);
      std::vector<std::uint32_t> counts(s.n_rows * s.n_cols, 0);
      k::hamming_tile_packed(rows.data(), s.n_rows, cols.data(), s.n_cols, s.words,
                             counts.data());
      ASSERT_EQ(counts, expected) << k::variant_name(v) << " rows=" << s.n_rows
                                  << " cols=" << s.n_cols << " words=" << s.words;
    }
  }
}

// Random shapes on top of the fixed ones above: every variant must agree
// with the per-pair reference — the contract that lets pairwise_hamming_*,
// the incremental assigner and the query views share one kernel without
// moving any quality metric.
TEST(HammingTilePacked, MatchesPointerTileOnRandomTrials) {
  variant_guard guard;
  xoshiro256ss rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n_rows = 1 + rng.bounded(70);
    const std::size_t n_cols = 1 + rng.bounded(70);
    const std::size_t words = 1 + rng.bounded(40);
    std::vector<std::uint64_t> blob = random_words((n_rows + n_cols) * words, rng);
    const std::uint64_t* const cols = blob.data() + n_rows * words;
    std::vector<std::uint32_t> expected(n_rows * n_cols);
    for (std::size_t r = 0; r < n_rows; ++r) {
      for (std::size_t c = 0; c < n_cols; ++c) {
        expected[r * n_cols + c] = static_cast<std::uint32_t>(
            xor_popcount_reference(blob.data() + r * words, cols + c * words, words));
      }
    }
    for (const auto v : supported_variants()) {
      k::set_active(v);
      std::vector<std::uint32_t> packed(n_rows * n_cols, 1);
      k::hamming_tile_packed(blob.data(), n_rows, cols, n_cols, words, packed.data());
      ASSERT_EQ(packed, expected) << k::variant_name(v) << " trial=" << trial
                                  << " rows=" << n_rows << " cols=" << n_cols
                                  << " words=" << words;
    }
  }
}

TEST(PairwiseHamming, VariantsAndThreadCountsBitIdentical) {
  variant_guard guard;
  for (const std::size_t dim : {64UL, 2048UL, 4096UL}) {
    // 150 vectors spans multiple 64-wide tiles plus a ragged edge.
    const auto hvs = random_hvs(150, dim, dim);

    k::set_active(k::variant::scalar);
    const auto f32_ref = pairwise_hamming_f32(hvs);
    const auto q16_ref = pairwise_hamming_q16(hvs);

    for (const auto v : supported_variants()) {
      k::set_active(v);
      for (const std::size_t threads : {0UL, 1UL, 4UL}) {
        thread_pool pool(threads == 0 ? 1 : threads);
        thread_pool* p = threads == 0 ? nullptr : &pool;
        const auto f32 = pairwise_hamming_f32(hvs, p);
        const auto q16m = pairwise_hamming_q16(hvs, p);
        ASSERT_EQ(f32.data(), f32_ref.data())
            << k::variant_name(v) << " dim=" << dim << " threads=" << threads;
        ASSERT_TRUE(q16m.data() == q16_ref.data())
            << k::variant_name(v) << " dim=" << dim << " threads=" << threads;
      }
    }
  }
}

preprocess::quantized_spectrum random_quantized(std::size_t peaks, std::uint32_t mz_bins,
                                                std::uint16_t levels, xoshiro256ss& rng) {
  preprocess::quantized_spectrum s;
  for (std::size_t p = 0; p < peaks; ++p) {
    s.peaks.push_back({static_cast<std::uint32_t>(rng.bounded(mz_bins)),
                       static_cast<std::uint16_t>(rng.bounded(levels))});
  }
  return s;
}

/// Per-dimension counter oracle: scatter every bound bit into an integer
/// count, then threshold (count > n/2, exact half of an even n takes the
/// tie-break bit). Independent of the bit-sliced planes every variant uses.
hypervector counter_encode(const id_level_encoder& encoder,
                           const preprocess::quantized_spectrum& s) {
  std::vector<std::size_t> counts(encoder.dim(), 0);
  for (const auto& peak : s.peaks) {
    const auto id = encoder.ids().at(peak.mz_bin);
    const auto level = encoder.levels().at(peak.level);
    for (std::size_t d = 0; d < encoder.dim(); ++d) {
      counts[d] += ((id[d / 64] ^ level[d / 64]) >> (d % 64)) & 1U;
    }
  }
  const std::size_t n = s.peaks.size();
  hypervector out(encoder.dim());
  for (std::size_t d = 0; d < encoder.dim(); ++d) {
    const bool tie = n % 2 == 0 && counts[d] == n / 2;
    out.assign(d, tie ? encoder.tiebreak().test(d) : counts[d] > n / 2);
  }
  return out;
}

/// Checks every supported variant, single calls and pooled batches, against
/// the scalar reference, and the scalar reference against counter_encode.
void expect_encode_bit_identical(const id_level_encoder& encoder,
                                 const std::vector<preprocess::quantized_spectrum>& spectra) {
  variant_guard guard;
  k::set_active(k::variant::scalar);
  std::vector<hypervector> reference;
  for (const auto& s : spectra) {
    reference.push_back(encoder.encode(s));
    ASSERT_EQ(reference.back(), counter_encode(encoder, s))
        << "dim=" << encoder.dim() << " peaks=" << s.peaks.size();
  }

  for (const auto v : supported_variants()) {
    k::set_active(v);
    for (std::size_t i = 0; i < spectra.size(); ++i) {
      EXPECT_EQ(encoder.encode(spectra[i]), reference[i])
          << k::variant_name(v) << " dim=" << encoder.dim()
          << " peaks=" << spectra[i].peaks.size();
    }
    for (const std::size_t threads : {1UL, 4UL}) {
      thread_pool pool(threads);
      const auto batch = encoder.encode_batch(spectra, &pool);
      ASSERT_EQ(batch.size(), reference.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch[i], reference[i])
            << k::variant_name(v) << " threads=" << threads << " dim=" << encoder.dim()
            << " peaks=" << spectra[i].peaks.size();
      }
    }
  }
}

// Every plane-count boundary bit_width(n) = 0..9 (even counts reach the
// tie-break, 0 is the all-ties spectrum), plus the first count past the SIMD
// register budget, which takes the scalar reference.
TEST(Encoder, VariantsBitIdenticalIncludingEvenPeakCountsAndEmpty) {
  const id_level_encoder encoder(encoder_config{.dim = 2048, .seed = 0xC0FFEE}, 512, 32);
  xoshiro256ss rng(23);
  std::vector<preprocess::quantized_spectrum> spectra;
  for (const std::size_t peaks : {0UL, 1UL, 2UL, 3UL, 7UL, 50UL, 63UL, 64UL, 65UL, 127UL, 128UL,
                                  255UL, 256UL, std::size_t{1} << k::encode_register_planes}) {
    spectra.push_back(random_quantized(peaks, 512, 32, rng));
  }
  expect_encode_bit_identical(encoder, spectra);
}

// Word counts that are not a multiple of the 4- or 8-word SIMD groups take
// the masked ragged-group path (1, 3 and 5 words); 4096 is a second full
// width.
TEST(Encoder, VariantsBitIdenticalOnRaggedWordCounts) {
  for (const std::size_t dim : {64UL, 192UL, 320UL, 4096UL}) {
    const id_level_encoder encoder(encoder_config{.dim = dim, .seed = 0xC0FFEE}, 300, 16);
    xoshiro256ss rng(dim);
    std::vector<preprocess::quantized_spectrum> spectra;
    for (const std::size_t peaks : {0UL, 1UL, 2UL, 5UL, 64UL, 111UL}) {
      spectra.push_back(random_quantized(peaks, 300, 16, rng));
    }
    expect_encode_bit_identical(encoder, spectra);
  }
}

// The serving configuration: 34000 m/z bins x 64 levels at D = 2048, with
// window_topk-sized spectra.
TEST(Encoder, VariantsBitIdenticalOnProductionTable) {
  const preprocess::quantize_config qc;
  ASSERT_EQ(qc.mz_bins, 34000U);
  ASSERT_EQ(qc.intensity_levels, 64U);
  const id_level_encoder encoder(encoder_config{}, qc.mz_bins, qc.intensity_levels);
  xoshiro256ss rng(29);
  std::vector<preprocess::quantized_spectrum> spectra;
  for (const std::size_t peaks : {50UL, 109UL, 110UL, 150UL}) {
    spectra.push_back(random_quantized(peaks, qc.mz_bins, qc.intensity_levels, rng));
  }
  expect_encode_bit_identical(encoder, spectra);
}

}  // namespace
}  // namespace spechd::hdc
