// Dispatching CPU kernel layer for the binary-HDC hot loops (Sec. III-C).
//
// SpecHD's premise is that binary HDC reduces spectrum clustering to XOR +
// popcount datapaths; this header is the CPU-side equivalent of the FPGA's
// "fast unrolled XOR and efficient population count" modules. Three kernel
// families, each with a portable std::uint64_t fallback and SIMD variants
// selected at *runtime* (compile-time guarded so non-x86 builds work):
//
//   * xor_popcount / popcount — fused XOR+popcount over whole hypervectors.
//   * hamming_tile_packed — a dense tile of Hamming counts over *packed*
//     operands: each side is one contiguous row-major blob of
//     hypervectors, the one layout every caller holds (pairwise_hamming_*
//     copies a bucket into an arena blob and sweeps 64×64 tiles of the
//     condensed matrix; the incremental clusterer and the shard query
//     views keep their member HVs in it and run one row against a whole
//     bucket, the spectral library one row against a whole search
//     window). The SIMD variants block rows so each
//     column load is reused, and reduce the per-pair popcounts through a
//     carry-save (bit-sliced) accumulator — XOR words are compressed with
//     full-adder logic (VPTERNLOG on AVX-512) before the expensive
//     popcount, halving popcount-port pressure. Counts are exact integers,
//     so every variant is trivially bit-identical to the scalar reference.
//   * encode_majority — ID-Level encoding (Eq. 2) of one spectrum: a
//     carry-save (bit-sliced) majority over every peak's ID-row XOR
//     Level-row. Instead of scattering every set bit of a bound word into
//     per-bit integer counters, counts are kept as bit planes and each
//     64-dim word is added with a ripple-carry of word-wide AND/XOR — the
//     combinational counter tree of Schmuck et al.'s dense-binary-HDC
//     hardware optimisations, expressed in SIMD registers. It runs one 4-
//     or 8-word lane group at a time with the group's counter planes held
//     in registers, so each output word is stored once.
//   * nearest_active_scan / lance_williams_row_update — the HAC row
//     kernels: NN-chain's nearest-neighbour scan is an argmin over a flat
//     row of doubles (retired columns are parked at +inf so no mask load
//     is needed on the scan), and the post-merge Lance–Williams update
//     rewrites the survivor's row under an active-lane mask with the exact
//     arithmetic and store rounding of the scalar reference.
//
// All variants are bit-identical to the scalar reference (same tie-break
// bits, same rounding); the equivalence tests in tests/hdc/test_cpu_kernels
// enforce this, so quality metrics cannot move when dispatch changes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace spechd::hdc::kernels {

/// Kernel implementation variants, in increasing preference order.
enum class variant : std::uint8_t {
  scalar = 0,  ///< portable uint64_t loops (always available)
  avx2 = 1,    ///< 256-bit SPSHUFB nibble-LUT popcount (Mula)
  avx512 = 2,  ///< 512-bit VPOPCNTQ (AVX-512 VPOPCNTDQ)
};

/// Human-readable variant name ("scalar", "avx2", "avx512").
const char* variant_name(variant v) noexcept;

/// True when the running CPU (and this build) can execute `v`.
bool supported(variant v) noexcept;

/// Best variant supported on the running CPU.
variant best_supported() noexcept;

/// Currently dispatched variant. Defaults to best_supported() on first use.
variant active() noexcept;

/// Forces dispatch to `v` (benches/tests compare variants; the pipeline's
/// kernel knob routes here). Throws spechd::logic_error if unsupported.
void set_active(variant v);

/// Parses "scalar" / "avx2" / "avx512" / "auto"; throws on anything else.
variant parse_variant(const std::string& name);

/// popcount(a[0..words)) — set bits over a packed bit vector.
std::size_t popcount(const std::uint64_t* a, std::size_t words) noexcept;

/// popcount((a ^ b)[0..words)) — the Hamming-distance datapath, fused so no
/// XOR temporary is materialised.
std::size_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) noexcept;

/// Dense Hamming tile over packed operands: operand r is the contiguous
/// range rows[r * words .. (r + 1) * words), likewise for cols, and
/// counts[r * n_cols + c] = popcount(row_r ^ col_c) for every (r, c) in
/// the tile. The SIMD variants use carry-save popcount reduction (see the
/// header comment).
void hamming_tile_packed(const std::uint64_t* rows, std::size_t n_rows,
                         const std::uint64_t* cols, std::size_t n_cols,
                         std::size_t words, std::uint32_t* counts) noexcept;

// ---------------------------------------------------------------------------
// top-k selection (OMS retrieval over a search window's Hamming count row)
// ---------------------------------------------------------------------------

/// One k-select hit: a Hamming count and the candidate index that produced
/// it. Ordered by the packed (count, index) key — lower count first, lower
/// index among equal counts — which is the deterministic tie-break every
/// variant must reproduce.
struct select_entry {
  std::uint32_t count = 0;
  std::uint32_t index = 0;

  friend constexpr bool operator==(const select_entry&, const select_entry&) = default;
};

/// Writes the min(k, n) smallest entries of counts[0..n) into out, sorted
/// ascending by (count, index). The output is a *totally ordered prefix* —
/// fully determined by the input — so every variant is bit-identical by
/// construction: ties between equal counts always resolve to the lowest
/// index, exactly like a std::partial_sort over (count << 32 | index) keys.
/// `out` must hold at least min(k, n) entries. Returns the number written.
/// The SIMD variants prune with a vectorised compare against the current
/// k-th best count (a superset test), so candidate rows where most counts
/// are worse than the running top-k skip 8/16 lanes per instruction.
std::size_t k_select(const std::uint32_t* counts, std::size_t n, std::size_t k,
                     select_entry* out) noexcept;

// ---------------------------------------------------------------------------
// HAC row kernels (NN-chain over a flat n×n working matrix)
// ---------------------------------------------------------------------------

/// Result of nearest_active_scan: the row minimum and the lowest index
/// attaining it.
struct row_min {
  std::uint32_t index = 0;
  double value = 0.0;
};

/// Masked argmin over row[0..n) with the scalar reference's tie semantics:
/// lanes with active[i] == 0 read as +inf, and among equal minima the
/// *lowest* index wins (the strict-< ascending scan order). The NN-chain
/// caller parks its own diagonal entry at +inf, so no self-exclusion
/// parameter is needed. When every active lane is +inf the returned index
/// is the lowest +inf lane (possibly inactive — the caller's degenerate
/// fallback handles it). Requires n >= 1; active lanes must not hold NaN.
row_min nearest_active_scan(const double* row, const std::uint8_t* active,
                            std::size_t n) noexcept;

/// Float-row overload (value is widened exactly). NN-chain stores its
/// working matrix as float whenever every reachable value is exactly
/// float-representable — q16-grid stores, or min/max linkages whose updates
/// only ever *select* existing values — which halves the memory traffic of
/// the scan-dominated inner loop without changing a single bit of output.
row_min nearest_active_scan(const float* row, const std::uint8_t* active,
                            std::size_t n) noexcept;

/// Linkage criterion of the Lance–Williams row update. Mirrors
/// cluster::linkage (which delegates its scalar arithmetic here so the SIMD
/// variants and the scalar reference share one definition — the hdc layer
/// cannot depend on cluster/).
enum class lw_linkage : std::uint8_t { single, complete, average, ward };

/// Store-rounding policy applied to every updated entry: f64 writes the
/// double back untouched; q16 re-quantises to the Q0.16 grid first, exactly
/// as the FPGA kernel writes back to its 16-bit BRAM matrix.
enum class lw_store : std::uint8_t { f64, q16 };

/// Canonical scalar Lance–Williams update (moved from cluster/linkage.cpp):
/// distance from cluster k to the merge of a and b given the previous
/// distances and cluster sizes. Every kernel variant reproduces this
/// arithmetic operation-for-operation (the library builds with
/// -ffp-contract=off so the compiler cannot fuse it differently). Inline:
/// NN-chain's lazy row repair calls it per replayed merge, and inlining
/// lets the optimiser hoist the linkage switch out of the replay loop.
inline double lance_williams(lw_linkage l, double d_ka, double d_kb, double d_ab,
                             double size_a, double size_b, double size_k) noexcept {
  switch (l) {
    case lw_linkage::single:
      return d_kb < d_ka ? d_kb : d_ka;  // std::min(d_ka, d_kb)
    case lw_linkage::complete:
      return d_ka < d_kb ? d_kb : d_ka;  // std::max(d_ka, d_kb)
    case lw_linkage::average:
      return (size_a * d_ka + size_b * d_kb) / (size_a + size_b);
    case lw_linkage::ward: {
      const double t = size_a + size_b + size_k;
      const double v = ((size_a + size_k) * d_ka * d_ka +
                        (size_b + size_k) * d_kb * d_kb - size_k * d_ab * d_ab) /
                       t;
      return std::sqrt(std::max(0.0, v));
    }
  }
  return d_ka;
}

/// Per-merge parameters of lance_williams_row_update.
struct lw_update {
  lw_linkage link = lw_linkage::complete;
  lw_store store = lw_store::f64;
  double size_a = 1.0;  ///< members in the retired cluster (d_ka side)
  double size_b = 1.0;  ///< members in the surviving cluster (d_kb side)
  double d_ab = 0.0;    ///< merge height
};

/// Post-merge row update: for every k with active[k] != 0,
///   keep_row[k] = store(lance_williams(link, gone_row[k], keep_row[k],
///                                      d_ab, size_a, size_b, sizes[k]))
/// Inactive lanes are left untouched. The caller is expected to clear the
/// survivor's own active flag around the call (its diagonal stays +inf).
void lance_williams_row_update(double* keep_row, const double* gone_row,
                               const std::uint8_t* active, const double* sizes,
                               std::size_t n, const lw_update& u) noexcept;

/// Float-row overload: lanes are widened to double, updated with the exact
/// scalar arithmetic, and narrowed back. Callers must only route cases
/// whose results are exactly float-representable here (q16 stores, or
/// min/max linkages over float-exact rows); otherwise the narrowing would
/// silently round and break the bit-identity guarantee.
void lance_williams_row_update(float* keep_row, const float* gone_row,
                               const std::uint8_t* active, const double* sizes,
                               std::size_t n, const lw_update& u) noexcept;

/// One peak's operands for encode_majority: the ID row and the Level row it
/// binds, each `words` words read in place from the item memories.
struct bind_rows {
  const std::uint64_t* id = nullptr;
  const std::uint64_t* level = nullptr;
};

/// Most counter planes the SIMD encode_majority variants hold in registers:
/// spectra with more than 2^encode_register_planes - 1 peaks go to the
/// scalar reference.
inline constexpr std::size_t encode_register_planes = 9;

/// ID-Level encoding (Eq. 2): out[0..words) = bitwise majority of the n
/// bound vectors peaks[p].id ^ peaks[p].level: bit d is set when more than
/// n/2 of them set it, and when n is even and exactly n/2 do, it takes the
/// tie_bits bit (n == 0 yields tie_bits). The scalar variant is the
/// plane-major reference — one ripple-carry pass per peak. The SIMD
/// variants keep each 4- or 8-word group's bit_width(n) counter planes in
/// registers, add the peaks' bound slices into them four at a time (full
/// adders, then a carry ripple), and threshold and store the group once.
void encode_majority(const bind_rows* peaks, std::size_t n, std::size_t words,
                     const std::uint64_t* tie_bits, std::uint64_t* out);

}  // namespace spechd::hdc::kernels
