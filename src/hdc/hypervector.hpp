// Binary hypervector: the fundamental HDC datatype (Sec. II-B, III-B).
//
// SpecHD encodes each spectrum into a D_hv-dimensional binary vector
// (D_hv = 2048 in the paper). We bit-pack into 64-bit words so XOR/popcount
// map directly onto both CPU instructions and the FPGA's "fast unrolled XOR
// and efficient population count" modules (Sec. III-C).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace spechd::hdc {

/// The largest dimension a file or flag may declare: the top of the D_hv
/// ablation sweep. An item memory is sized by the dimension, and a file
/// that holds no vectors has no bytes to bound it by, so the readers and
/// the --dim flags refuse a larger one before any encoder is built.
inline constexpr std::size_t k_max_dim = 8192;

/// True for a dimension a file or flag may declare: positive, a multiple
/// of 64 and at most k_max_dim.
constexpr bool dim_in_range(std::size_t dim) noexcept {
  return dim != 0 && dim % 64 == 0 && dim <= k_max_dim;
}

class hypervector {
public:
  hypervector() = default;

  /// Zero vector of `dim` bits. dim must be a multiple of 64 (hardware word
  /// alignment; the paper's 2048 satisfies this).
  explicit hypervector(std::size_t dim) : dim_(dim), words_((dim + 63) / 64, 0) {
    SPECHD_EXPECTS(dim > 0 && dim % 64 == 0);
  }

  /// Copy of the packed words `words` (dim = 64 per word; non-empty).
  explicit hypervector(std::span<const std::uint64_t> words)
      : dim_(words.size() * 64), words_(words.begin(), words.end()) {
    SPECHD_EXPECTS(!words.empty());
  }

  /// Random dense vector (each bit i.i.d. fair coin) from `rng`.
  static hypervector random(std::size_t dim, xoshiro256ss& rng);

  std::size_t dim() const noexcept { return dim_; }
  std::size_t word_count() const noexcept { return words_.size(); }
  std::span<const std::uint64_t> words() const noexcept { return words_; }
  std::span<std::uint64_t> words() noexcept { return words_; }

  bool test(std::size_t bit) const noexcept {
    return (words_[bit / 64] >> (bit % 64)) & 1ULL;
  }
  void set(std::size_t bit) noexcept { words_[bit / 64] |= 1ULL << (bit % 64); }
  void reset(std::size_t bit) noexcept { words_[bit / 64] &= ~(1ULL << (bit % 64)); }
  void flip(std::size_t bit) noexcept { words_[bit / 64] ^= 1ULL << (bit % 64); }
  void assign(std::size_t bit, bool value) noexcept {
    value ? set(bit) : reset(bit);
  }

  /// Number of set bits.
  std::size_t popcount() const noexcept;

  /// In-place XOR (binding). Dimensions must match.
  hypervector& operator^=(const hypervector& other);

  friend hypervector operator^(hypervector a, const hypervector& b) {
    a ^= b;
    return a;
  }

  friend bool operator==(const hypervector&, const hypervector&) = default;

private:
  std::size_t dim_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Hamming distance between equal-dimension vectors (number of differing
/// bits). This is the FPGA's XOR + popcount datapath.
std::size_t hamming(const hypervector& a, const hypervector& b);

/// Normalised Hamming distance in [0, 1].
double hamming_normalized(const hypervector& a, const hypervector& b);

}  // namespace spechd::hdc
