#include "preprocess/filter.hpp"

#include <algorithm>
#include <cmath>

namespace spechd::preprocess {

bool filter_spectrum(ms::spectrum& s, const filter_config& config) {
  // A non-finite precursor (MGF PEPMASS, frame and mzML fields can carry
  // NaN or inf) has no Eq. 1 bucket and no precursor windows.
  if (!std::isfinite(s.precursor_mz)) return false;
  const float base = ms::base_peak_intensity(s);
  const float floor = static_cast<float>(base * config.min_intensity_fraction);

  // Precursor-related m/z values: the precursor itself and charge-reduced
  // species down to 1+ (all appear as intense uninformative peaks).
  double precursor_windows[8];
  std::size_t window_count = 0;
  if (s.precursor_charge >= 1 && s.precursor_mz > 0.0) {
    const double neutral = s.precursor_neutral_mass();
    for (int z = 1; z <= s.precursor_charge && window_count < 8; ++z) {
      precursor_windows[window_count++] = (neutral + z * ms::proton_mass) / z;
    }
  } else if (s.precursor_mz > 0.0) {
    precursor_windows[window_count++] = s.precursor_mz;
  }

  auto is_precursor_related = [&](double mz) {
    for (std::size_t i = 0; i < window_count; ++i) {
      if (std::abs(mz - precursor_windows[i]) <= config.precursor_tolerance_da) {
        return true;
      }
    }
    return false;
  };

  // Written so that a NaN m/z or intensity fails the test and is dropped.
  std::erase_if(s.peaks, [&](const ms::peak& p) {
    return !(p.intensity >= floor) || !(p.mz >= config.mz_min && p.mz <= config.mz_max) ||
           is_precursor_related(p.mz);
  });

  return s.peaks.size() >= config.min_peaks;
}

std::size_t filter_spectra(std::vector<ms::spectrum>& spectra, const filter_config& config) {
  const std::size_t before = spectra.size();
  std::erase_if(spectra, [&](ms::spectrum& s) { return !filter_spectrum(s, config); });
  return before - spectra.size();
}

}  // namespace spechd::preprocess
