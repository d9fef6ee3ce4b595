// Precursor-m/z bucketing (Eq. 1 of the paper).
//
//   bucket_i = floor( (mz_i - 1.00794) * C_i / resolution )
//
// Spectra in different buckets are never compared, bounding the pairwise
// work per bucket and mapping naturally onto parallel clustering kernels.
// The bucket key is the precursor's neutral(ish) mass divided by the
// resolution, so co-eluting charge variants of the same peptide land in
// nearby buckets of the same mass scale.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "preprocess/quantize.hpp"

namespace spechd::preprocess {

struct bucket_config {
  double resolution = 1.0;  ///< Eq. 1 resolution; paper range [0.05, 1]
  /// Spectra with unknown charge are assigned charge 2 (the most common
  /// tryptic state) rather than dropped; matches falcon's behaviour.
  int fallback_charge = 2;
};

/// floor(value) as a bucket key, clamped into the int64 range by sign; NaN
/// maps to the lowest key. Every mass-to-key conversion goes through it, so
/// a non-finite or huge m/z read from a file or frame never reaches an
/// out-of-range (undefined) float-to-int cast.
std::int64_t floor_key(double value) noexcept;

/// Eq. (1): the bucket index for one spectrum.
std::int64_t bucket_index(double precursor_mz, int charge, const bucket_config& config) noexcept;

/// A bucket: indices into the quantised-spectra array.
struct bucket {
  std::int64_t key = 0;
  std::vector<std::uint32_t> members;  ///< positions in the input vector

  std::size_t size() const noexcept { return members.size(); }
};

/// Partitions spectra into buckets ordered by ascending key ("data
/// organization strategy based on precursor m/z sorting").
std::vector<bucket> bucket_spectra(const std::vector<quantized_spectrum>& spectra,
                                   const bucket_config& config);

/// Summary statistics used by the design-space exploration bench.
struct bucket_stats {
  std::size_t bucket_count = 0;
  std::size_t largest = 0;
  std::size_t singletons = 0;
  double mean_size = 0.0;
};
bucket_stats summarize(const std::vector<bucket>& buckets) noexcept;

}  // namespace spechd::preprocess
