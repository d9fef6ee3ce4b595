#include "preprocess/filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace spechd::preprocess {
namespace {

ms::spectrum base_spectrum() {
  ms::spectrum s;
  s.precursor_mz = 500.0;
  s.precursor_charge = 2;
  // Ten informative peaks at 100 intensity, none inside the precursor
  // windows (500 for 2+, ~999 for the charge-reduced 1+).
  for (int i = 0; i < 10; ++i) s.peaks.push_back({150.0 + 40.0 * i, 100.0F});
  ms::sort_peaks(s);
  return s;
}

filter_config lenient() {
  filter_config c;
  c.min_peaks = 1;
  return c;
}

TEST(Filter, RemovesLowIntensityPeaks) {
  auto s = base_spectrum();
  s.peaks.push_back({700.5, 0.5F});  // 0.5% of base peak
  ms::sort_peaks(s);
  ASSERT_TRUE(filter_spectrum(s, lenient()));
  for (const auto& p : s.peaks) EXPECT_GE(p.intensity, 1.0F);
}

TEST(Filter, KeepsPeaksAtExactlyOnePercent) {
  auto s = base_spectrum();
  s.peaks.push_back({710.5, 1.0F});  // exactly 1%
  ms::sort_peaks(s);
  const std::size_t before = s.peaks.size();
  ASSERT_TRUE(filter_spectrum(s, lenient()));
  EXPECT_EQ(s.peaks.size(), before);
}

TEST(Filter, RemovesPrecursorPeak) {
  auto s = base_spectrum();
  s.peaks.push_back({500.2, 100.0F});  // within 1.5 Da of precursor
  ms::sort_peaks(s);
  ASSERT_TRUE(filter_spectrum(s, lenient()));
  for (const auto& p : s.peaks) {
    EXPECT_GT(std::abs(p.mz - 500.0), 1.0) << p.mz;
  }
}

TEST(Filter, RemovesChargeReducedPrecursor) {
  auto s = base_spectrum();  // neutral mass ~997.99
  const double singly = s.precursor_neutral_mass() + ms::proton_mass;  // ~999
  s.peaks.push_back({singly, 100.0F});
  ms::sort_peaks(s);
  ASSERT_TRUE(filter_spectrum(s, lenient()));
  for (const auto& p : s.peaks) {
    EXPECT_GT(std::abs(p.mz - singly), 1.0) << p.mz;
  }
}

TEST(Filter, RemovesOutOfWindowPeaks) {
  auto s = base_spectrum();
  s.peaks.push_back({50.0, 100.0F});
  s.peaks.push_back({1950.0, 100.0F});
  ms::sort_peaks(s);
  ASSERT_TRUE(filter_spectrum(s, lenient()));
  for (const auto& p : s.peaks) {
    EXPECT_GE(p.mz, 101.0);
    EXPECT_LE(p.mz, 1905.0);
  }
}

TEST(Filter, RejectsSpectrumWithTooFewPeaks) {
  ms::spectrum s;
  s.precursor_mz = 500.0;
  s.precursor_charge = 2;
  s.peaks = {{200.0, 10.0F}, {300.0, 10.0F}};
  filter_config c;
  c.min_peaks = 5;
  EXPECT_FALSE(filter_spectrum(s, c));
}

TEST(Filter, BatchDropsAndCounts) {
  std::vector<ms::spectrum> batch(3, base_spectrum());
  batch.push_back(ms::spectrum{});  // empty -> dropped
  filter_config c;
  c.min_peaks = 5;
  const auto dropped = filter_spectra(batch, c);
  EXPECT_EQ(dropped, 1U);
  EXPECT_EQ(batch.size(), 3U);
}

TEST(Filter, UnknownChargeStillFiltersPrecursorWindow) {
  auto s = base_spectrum();
  s.precursor_charge = 0;
  s.peaks.push_back({500.3, 100.0F});
  ms::sort_peaks(s);
  ASSERT_TRUE(filter_spectrum(s, lenient()));
  for (const auto& p : s.peaks) EXPECT_GT(std::abs(p.mz - 500.0), 1.0);
}

TEST(Filter, NonFinitePrecursorOrPeakIsDropped) {
  // A non-finite precursor has no Eq. 1 bucket: the spectrum is dropped.
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (const double mz : {std::nan(""), inf, -inf}) {
    auto s = base_spectrum();
    s.precursor_mz = mz;
    EXPECT_FALSE(filter_spectrum(s, lenient())) << "precursor " << mz;
  }
  // A NaN m/z or intensity fails every peak test, so the peak goes.
  auto s = base_spectrum();
  s.peaks.push_back({std::nan(""), 100.0F});
  s.peaks.push_back({700.5, std::nanf("")});
  ASSERT_TRUE(filter_spectrum(s, lenient()));
  EXPECT_EQ(s.peaks.size(), 10U);
  for (const auto& p : s.peaks) {
    EXPECT_TRUE(std::isfinite(p.mz));
    EXPECT_TRUE(std::isfinite(p.intensity));
  }
}

}  // namespace
}  // namespace spechd::preprocess
