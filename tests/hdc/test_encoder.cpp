#include "hdc/encoder.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace spechd::hdc {
namespace {

using preprocess::quantized_peak;
using preprocess::quantized_spectrum;

quantized_spectrum make_qs(std::initializer_list<quantized_peak> peaks) {
  quantized_spectrum q;
  q.peaks = peaks;
  return q;
}

encoder_config small_config() {
  encoder_config c;
  c.dim = 1024;
  c.seed = 5;
  return c;
}

TEST(Encoder, DeterministicAcrossInstances) {
  id_level_encoder a(small_config(), 100, 16);
  id_level_encoder b(small_config(), 100, 16);
  const auto q = make_qs({{10, 3}, {20, 7}, {30, 15}});
  EXPECT_EQ(a.encode(q), b.encode(q));
}

TEST(Encoder, SinglePeakEqualsBoundPair) {
  id_level_encoder enc(small_config(), 100, 16);
  const auto q = make_qs({{42, 9}});
  // With one peak the majority of a single binding is the binding itself.
  hypervector expected(enc.dim());
  const auto id = enc.ids().at(42);
  const auto level = enc.levels().at(9);
  for (std::size_t w = 0; w < expected.word_count(); ++w) expected.words()[w] = id[w] ^ level[w];
  EXPECT_EQ(enc.encode(q), expected);
}

TEST(Encoder, EmptySpectrumEncodesToTiebreakPattern) {
  id_level_encoder enc(small_config(), 100, 16);
  const auto hv = enc.encode(make_qs({}));
  // Zero peaks: every count ties at 0 == n/2; result is deterministic and
  // stable (the tiebreak vector).
  EXPECT_EQ(hv, enc.encode(make_qs({})));
}

TEST(Encoder, IdenticalSpectraZeroDistance) {
  id_level_encoder enc(small_config(), 1000, 16);
  const auto q = make_qs({{1, 5}, {500, 10}, {999, 2}});
  EXPECT_EQ(hamming(enc.encode(q), enc.encode(q)), 0U);
}

TEST(Encoder, SimilarSpectraCloserThanRandomPair) {
  id_level_encoder enc(small_config(), 1000, 16);
  // 20 shared peaks, one level bumped by 1 in the "similar" copy.
  quantized_spectrum a;
  quantized_spectrum b;
  quantized_spectrum c;
  xoshiro256ss rng(3);
  for (int i = 0; i < 20; ++i) {
    const auto bin = static_cast<std::uint32_t>(rng.bounded(1000));
    const auto level = static_cast<std::uint16_t>(rng.bounded(15));
    a.peaks.push_back({bin, level});
    b.peaks.push_back({bin, static_cast<std::uint16_t>(level + 1)});
    c.peaks.push_back({static_cast<std::uint32_t>(rng.bounded(1000)),
                       static_cast<std::uint16_t>(rng.bounded(16))});
  }
  const auto ha = enc.encode(a);
  const auto hb = enc.encode(b);
  const auto hc = enc.encode(c);
  EXPECT_LT(hamming(ha, hb), hamming(ha, hc));
  EXPECT_LT(hamming_normalized(ha, hb), 0.25);
  EXPECT_GT(hamming_normalized(ha, hc), 0.3);
}

TEST(Encoder, DisjointSpectraNearOrthogonal) {
  encoder_config c;
  c.dim = 4096;
  id_level_encoder enc(c, 1000, 16);
  quantized_spectrum a;
  quantized_spectrum b;
  for (std::uint32_t i = 0; i < 25; ++i) {
    a.peaks.push_back({i, 8});
    b.peaks.push_back({500 + i, 8});
  }
  EXPECT_NEAR(hamming_normalized(enc.encode(a), enc.encode(b)), 0.5, 0.08);
}

TEST(Encoder, EvenPeakCountTieBreakDeterministic) {
  id_level_encoder enc(small_config(), 100, 16);
  const auto q = make_qs({{1, 2}, {50, 10}});  // n = 2, ties possible
  EXPECT_EQ(enc.encode(q), enc.encode(q));
}

TEST(Encoder, BatchMatchesIndividual) {
  id_level_encoder enc(small_config(), 100, 16);
  std::vector<quantized_spectrum> batch = {make_qs({{1, 1}}), make_qs({{2, 2}, {3, 3}})};
  const auto hvs = enc.encode_batch(batch);
  ASSERT_EQ(hvs.size(), 2U);
  EXPECT_EQ(hvs[0], enc.encode(batch[0]));
  EXPECT_EQ(hvs[1], enc.encode(batch[1]));
}

TEST(CompressionFactor, MatchesDefinition) {
  // 1000 spectra x 300 peaks x 12 B vs 1000 x 256 B HVs -> 14.06x.
  const double f = compression_factor(1000ULL * 300 * 12, 1000, 2048);
  EXPECT_NEAR(f, 3600.0 / 256.0, 1e-9);
}

TEST(CompressionFactor, ZeroGuards) {
  EXPECT_DOUBLE_EQ(compression_factor(100, 0, 2048), 0.0);
  EXPECT_DOUBLE_EQ(compression_factor(100, 10, 0), 0.0);
}

}  // namespace
}  // namespace spechd::hdc
