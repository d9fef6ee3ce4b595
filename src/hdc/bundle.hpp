// Majority bundling of hypervectors.
//
// Bundling is HDC's superposition operator: the pointwise majority of a set
// of binary HVs yields a vector similar to every input — the HDC-native
// cluster representative. SpecHD's incremental mode uses bundled
// representatives to test membership in O(1) Hamming comparisons instead
// of the O(|cluster|) complete-linkage scan, trading a little accuracy for
// update speed (the same trade HyperSpec makes for its streaming variant).
#pragma once

#include <span>

#include "hdc/cpu_kernels.hpp"
#include "hdc/hypervector.hpp"

namespace spechd::hdc {

/// Pointwise majority of `inputs` (ties on even counts break toward the
/// first input, keeping the operation deterministic and associative-ish
/// for incremental updates). All inputs must share a dimension; the list
/// must be non-empty.
hypervector bundle_majority(std::span<const hypervector> inputs);

/// Incrementally maintained bundle: keeps per-dimension counters so
/// members can be added without re-reading the full set. The counters are
/// bit-sliced (hdc::kernels::bitsliced_accumulator), so add() is a word-wide
/// carry-save ripple rather than a per-set-bit scatter; majority() output is
/// bit-identical to the integer-counter reference.
class incremental_bundle {
public:
  incremental_bundle() = default;
  explicit incremental_bundle(std::size_t dim);

  std::size_t dim() const noexcept { return dim_; }
  std::size_t members() const noexcept { return static_cast<std::size_t>(acc_.additions()); }
  bool empty() const noexcept { return members() == 0; }

  /// Adds one member, given as its packed words (dim / 64 of them).
  void add(std::span<const std::uint64_t> hv);

  /// Current majority vector. Requires at least one member.
  hypervector majority() const;

private:
  std::size_t dim_ = 0;
  kernels::bitsliced_accumulator acc_;
  hypervector first_;  ///< tie-break donor
};

}  // namespace spechd::hdc
