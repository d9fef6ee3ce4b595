// ID-Level encoder (Sec. III-B, Eq. 2):
//
//   spectra_i = majority( sum over peaks (ID[mz_bin] XOR L[level]) )
//
// Each (m/z, intensity) pair binds its ID and Level vectors with XOR; the
// bound vectors are accumulated per dimension and thresholded by the
// pointwise majority function into the final binary spectrum hypervector.
//
// Ties (possible when the peak count is even) are broken by a fixed,
// seed-derived tiebreaker vector so encoding stays deterministic — the
// hardware uses the carry-out of its accumulator tree the same way.
//
// Like the hardware, which allocates the ID and Level memories once at
// configuration time, a process holds one table set per (dim, seed, f, q):
// an encoder only points at the process-wide tables (item_memory.hpp), so
// building one more encoder costs a cache lookup, not a table generation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "preprocess/quantize.hpp"

namespace spechd {
class thread_pool;
}

namespace spechd::hdc {

struct encoder_config {
  std::size_t dim = 2048;       ///< D_hv (paper value)
  std::uint64_t seed = 0xC0FFEE;  ///< item-memory seed
};

/// Encodes quantised spectra into binary hypervectors over the process-wide
/// item memories for (config, f, q).
class id_level_encoder {
public:
  /// f = number of m/z bins (ID vectors), q = number of intensity levels.
  id_level_encoder(const encoder_config& config, std::size_t mz_bins,
                   std::size_t intensity_levels);

  std::size_t dim() const noexcept { return config_.dim; }
  const id_memory& ids() const noexcept { return *ids_; }
  const level_memory& levels() const noexcept { return *levels_; }
  /// Deterministic tie-break donor for even peak counts (seed-derived).
  const hypervector& tiebreak() const noexcept { return tiebreak_; }

  /// Encodes one quantised spectrum (Eq. 2) with kernels::encode_majority
  /// over the peaks' ID and Level rows. Throws logic_error when a peak's
  /// m/z bin or level is outside the item memories.
  hypervector encode(const preprocess::quantized_spectrum& s) const;

  /// Encodes a batch; order preserved. When `pool` is non-null, spectra are
  /// distributed across it (output order and bits are unchanged).
  std::vector<hypervector> encode_batch(
      const std::vector<preprocess::quantized_spectrum>& spectra,
      spechd::thread_pool* pool = nullptr) const;

private:
  encoder_config config_;
  std::shared_ptr<const id_memory> ids_;
  std::shared_ptr<const level_memory> levels_;
  hypervector tiebreak_;
};

/// Compression factor of HV storage vs raw peak lists (Fig. 6b): raw bytes
/// of all (f64 m/z, f32 intensity) peaks divided by D_hv/8 bytes per HV.
double compression_factor(std::size_t total_raw_peak_bytes, std::size_t spectrum_count,
                          std::size_t dim) noexcept;

}  // namespace spechd::hdc
