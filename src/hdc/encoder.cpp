#include "hdc/encoder.hpp"

#include "hdc/cpu_kernels.hpp"
#include "util/thread_pool.hpp"

namespace spechd::hdc {

id_level_encoder::id_level_encoder(const encoder_config& config, std::size_t mz_bins,
                                   std::size_t intensity_levels)
    : config_(config),
      ids_(shared_id_memory(config.dim, mz_bins, config.seed)),
      levels_(shared_level_memory(config.dim, intensity_levels, config.seed)),
      tiebreak_(hypervector(config.dim)) {
  xoshiro256ss rng(config.seed ^ 0x71EB4EA7B17EULL);
  tiebreak_ = hypervector::random(config.dim, rng);
}

hypervector id_level_encoder::encode(const preprocess::quantized_spectrum& s) const {
  // at() range-checks every bin and level before the kernel reads raw rows.
  const auto& ids = *ids_;
  const auto& levels = *levels_;
  std::vector<kernels::bind_rows> rows;
  rows.reserve(s.peaks.size());
  for (const auto& peak : s.peaks) {
    rows.push_back({ids.at(peak.mz_bin).data(), levels.at(peak.level).data()});
  }
  hypervector out(config_.dim);
  kernels::encode_majority(rows.data(), rows.size(), out.word_count(),
                           tiebreak_.words().data(), out.words().data());
  return out;
}

std::vector<hypervector> id_level_encoder::encode_batch(
    const std::vector<preprocess::quantized_spectrum>& spectra, thread_pool* pool) const {
  std::vector<hypervector> result(spectra.size());
  if (pool != nullptr) {
    pool->parallel_for(spectra.size(), [&](std::size_t i) { result[i] = encode(spectra[i]); });
  } else {
    for (std::size_t i = 0; i < spectra.size(); ++i) result[i] = encode(spectra[i]);
  }
  return result;
}

double compression_factor(std::size_t total_raw_peak_bytes, std::size_t spectrum_count,
                          std::size_t dim) noexcept {
  if (spectrum_count == 0 || dim == 0) return 0.0;
  const double hv_bytes = static_cast<double>(spectrum_count) * (static_cast<double>(dim) / 8.0);
  return static_cast<double>(total_raw_peak_bytes) / hv_bytes;
}

}  // namespace spechd::hdc
