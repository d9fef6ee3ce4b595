#include "preprocess/bucket.hpp"

#include <cmath>
#include <limits>

#include "ms/spectrum.hpp"
#include "util/error.hpp"

namespace spechd::preprocess {

std::int64_t floor_key(double value) noexcept {
  constexpr double limit = 0x1p63;
  const double key = std::floor(value);
  if (key >= limit) return std::numeric_limits<std::int64_t>::max();
  if (!(key >= -limit)) return std::numeric_limits<std::int64_t>::min();  // NaN too
  return static_cast<std::int64_t>(key);
}

std::int64_t bucket_index(double precursor_mz, int charge,
                          const bucket_config& config) noexcept {
  const int c = charge > 0 ? charge : config.fallback_charge;
  // Eq. (1); 1.00794 is the hydrogen mass constant the paper uses.
  return floor_key((precursor_mz - ms::hydrogen_mass) * c / config.resolution);
}

std::vector<bucket> bucket_spectra(const std::vector<quantized_spectrum>& spectra,
                                   const bucket_config& config) {
  SPECHD_EXPECTS(config.resolution > 0.0);
  std::map<std::int64_t, bucket> by_key;
  for (std::uint32_t i = 0; i < spectra.size(); ++i) {
    const auto key =
        bucket_index(spectra[i].precursor_mz, spectra[i].precursor_charge, config);
    auto& b = by_key[key];
    b.key = key;
    b.members.push_back(i);
  }
  std::vector<bucket> result;
  result.reserve(by_key.size());
  for (auto& [key, b] : by_key) result.push_back(std::move(b));
  return result;
}

bucket_stats summarize(const std::vector<bucket>& buckets) noexcept {
  bucket_stats st;
  st.bucket_count = buckets.size();
  std::size_t total = 0;
  for (const auto& b : buckets) {
    total += b.size();
    st.largest = std::max(st.largest, b.size());
    if (b.size() == 1) ++st.singletons;
  }
  st.mean_size = buckets.empty() ? 0.0 : static_cast<double>(total) / buckets.size();
  return st;
}

}  // namespace spechd::preprocess
