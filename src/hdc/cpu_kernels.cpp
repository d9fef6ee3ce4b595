#include "hdc/cpu_kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "util/fixed_point.hpp"

// SIMD variants are compiled only on x86-64 GCC/Clang builds (the target
// attribute lets one translation unit hold AVX code without global -mavx
// flags); every other platform keeps the portable scalar path and the
// runtime dispatcher simply never offers the SIMD variants.
#if defined(SPECHD_ENABLE_SIMD) && defined(__x86_64__) && defined(__GNUC__)
#define SPECHD_X86_KERNELS 1
#include <immintrin.h>
#else
#define SPECHD_X86_KERNELS 0
#endif

namespace spechd::hdc::kernels {
namespace {

// ---------------------------------------------------------------------------
// scalar reference kernels
// ---------------------------------------------------------------------------

std::size_t popcount_scalar(const std::uint64_t* a, std::size_t words) noexcept {
  std::size_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w]));
  }
  return count;
}

std::size_t xor_popcount_scalar(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) noexcept {
  std::size_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return count;
}

// Tile reference: one scalar XOR+popcount per (row, col) pair. The SIMD
// variants must match this bit for bit (trivial — Hamming counts are exact
// integers).
void hamming_tile_packed_scalar(const std::uint64_t* rows, std::size_t n_rows,
                                const std::uint64_t* cols, std::size_t n_cols,
                                std::size_t words, std::uint32_t* counts) noexcept {
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::uint64_t* row = rows + r * words;
    for (std::size_t c = 0; c < n_cols; ++c) {
      counts[r * n_cols + c] =
          static_cast<std::uint32_t>(xor_popcount_scalar(row, cols + c * words, words));
    }
  }
}

// The packed comparison key of one candidate: counts are at most 64 * words
// (a popcount), far below 2^32, so (count << 32 | index) orders exactly by
// (count, index) — the deterministic lowest-index tie-break.
inline std::uint64_t kselect_key(std::uint32_t count, std::uint32_t index) noexcept {
  return (static_cast<std::uint64_t>(count) << 32) | index;
}

/// Inserts (count, index) into the sorted prefix out[0..size), bounded at
/// `cap` entries: a candidate no better than the current worst of a full
/// buffer is rejected, otherwise the worst is dropped and the candidate is
/// placed by binary search + memmove. Shared by every variant — the SIMD
/// paths only differ in how they *skip* non-qualifying candidates.
inline void kselect_insert(select_entry* out, std::size_t& size, std::size_t cap,
                           std::uint32_t count, std::uint32_t index) noexcept {
  const std::uint64_t key = kselect_key(count, index);
  if (size == cap) {
    if (key >= kselect_key(out[size - 1].count, out[size - 1].index)) return;
    --size;
  }
  std::size_t lo = 0;
  std::size_t hi = size;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (key < kselect_key(out[mid].count, out[mid].index)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::memmove(out + lo + 1, out + lo, (size - lo) * sizeof(select_entry));
  out[lo] = {count, index};
  ++size;
}

std::size_t k_select_scalar(const std::uint32_t* counts, std::size_t n, std::size_t k,
                            select_entry* out) noexcept {
  const std::size_t cap = std::min(k, n);
  if (cap == 0) return 0;
  std::size_t size = 0;
  for (std::size_t i = 0; i < n; ++i) {
    kselect_insert(out, size, cap, counts[i], static_cast<std::uint32_t>(i));
  }
  return size;
}

row_min nearest_active_scan_scalar(const double* row, const std::uint8_t* active,
                                   std::size_t n) noexcept {
  constexpr double inf = std::numeric_limits<double>::infinity();
  row_min best{0, inf};
  for (std::size_t i = 0; i < n; ++i) {
    const double v = active[i] != 0 ? row[i] : inf;
    if (v < best.value) {
      best.value = v;
      best.index = static_cast<std::uint32_t>(i);
    }
  }
  return best;
}

row_min nearest_active_scan_f32_scalar(const float* row, const std::uint8_t* active,
                                       std::size_t n) noexcept {
  constexpr float inf = std::numeric_limits<float>::infinity();
  std::uint32_t index = 0;
  float best = inf;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = active[i] != 0 ? row[i] : inf;
    if (v < best) {
      best = v;
      index = static_cast<std::uint32_t>(i);
    }
  }
  return {index, static_cast<double>(best)};
}

// q16 store rounding over a double (see q16::from_double): used by the row
// update so the working matrix stays on the FPGA's Q0.16 grid.
double lw_store_q16(double v) noexcept { return q16::from_double(v).to_double(); }

void lance_williams_row_update_scalar(double* keep_row, const double* gone_row,
                                      const std::uint8_t* active, const double* sizes,
                                      std::size_t n, const lw_update& u) noexcept {
  const bool round = u.store == lw_store::q16;
  for (std::size_t k = 0; k < n; ++k) {
    if (active[k] == 0) continue;
    const double v = lance_williams(u.link, gone_row[k], keep_row[k], u.d_ab, u.size_a,
                                    u.size_b, sizes[k]);
    keep_row[k] = round ? lw_store_q16(v) : v;
  }
}

void lance_williams_row_update_f32_scalar(float* keep_row, const float* gone_row,
                                          const std::uint8_t* active, const double* sizes,
                                          std::size_t n, const lw_update& u) noexcept {
  const bool round = u.store == lw_store::q16;
  for (std::size_t k = 0; k < n; ++k) {
    if (active[k] == 0) continue;
    const double v = lance_williams(u.link, static_cast<double>(gone_row[k]),
                                    static_cast<double>(keep_row[k]), u.d_ab, u.size_a,
                                    u.size_b, sizes[k]);
    keep_row[k] = static_cast<float>(round ? lw_store_q16(v) : v);
  }
}

// Ripple-carry add of one 0/1-per-dimension word array into the bit planes.
// Carry density halves per plane, so the expected work is ~2 word ops per
// input word — already far below the per-set-bit counter scatter it replaces.
void bitsliced_add_scalar(std::uint64_t* planes, std::size_t words, std::size_t plane_count,
                          const std::uint64_t* bits) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t carry = bits[w];
    for (std::size_t p = 0; p < plane_count && carry != 0; ++p) {
      std::uint64_t& a = planes[p * words + w];
      const std::uint64_t t = a ^ carry;
      carry &= a;
      a = t;
    }
  }
}

// MSB-first bit-sliced comparison of each dimension's count (plane-major,
// planes[p * words + w]) against the constant adds/2: gt accumulates strict
// greater-than, eq tracks exact equality; ties (only reachable when the add
// count is even) take the corresponding tie_bits bit.
void majority_planes(const std::uint64_t* planes, std::size_t words, std::size_t plane_count,
                     std::uint64_t adds, const std::uint64_t* tie_bits,
                     std::uint64_t* out) noexcept {
  const std::uint64_t half = adds / 2;
  const bool even = (adds % 2) == 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t gt = 0;
    std::uint64_t eq = ~0ULL;
    for (std::size_t p = plane_count; p-- > 0;) {
      const std::uint64_t a = planes[p * words + w];
      const std::uint64_t h = ((half >> p) & 1ULL) ? ~0ULL : 0ULL;
      gt |= eq & a & ~h;
      eq &= ~(a ^ h);
    }
    out[w] = gt | (even ? (eq & tie_bits[w]) : 0ULL);
  }
}

// Plane-major encode reference: bind each peak into a scratch word array and
// ripple it through heap-allocated counter planes, then threshold once.
void encode_majority_scalar(const bind_rows* peaks, std::size_t n, std::size_t words,
                            const std::uint64_t* tie_bits, std::uint64_t* out) {
  const auto planes = static_cast<std::size_t>(std::bit_width(n));
  std::vector<std::uint64_t> acc(planes * words, 0);
  std::vector<std::uint64_t> bound(words);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t w = 0; w < words; ++w) bound[w] = peaks[p].id[w] ^ peaks[p].level[w];
    bitsliced_add_scalar(acc.data(), words, planes, bound.data());
  }
  majority_planes(acc.data(), words, planes, n, tie_bits, out);
}

#if SPECHD_X86_KERNELS

// ---------------------------------------------------------------------------
// AVX2 kernels — Mula nibble-LUT popcount with byte-lane accumulation
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i popcount_epi8_avx2(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
}

__attribute__((target("avx2"))) inline std::uint64_t hsum_epi64_avx2(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

__attribute__((target("avx2"))) std::size_t xor_popcount_avx2(const std::uint64_t* a,
                                                              const std::uint64_t* b,
                                                              std::size_t words) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  __m256i total = zero;
  std::size_t w = 0;
  while (words - w >= 4) {
    // Byte counters saturate only past 255/8 = 31 vectors; block well below.
    const std::size_t block_end = std::min(words, w + 4 * 31);
    __m256i acc8 = zero;
    for (; w + 4 <= block_end; w += 4) {
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
      const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
      acc8 = _mm256_add_epi8(acc8, popcount_epi8_avx2(_mm256_xor_si256(va, vb)));
    }
    total = _mm256_add_epi64(total, _mm256_sad_epu8(acc8, zero));
  }
  std::size_t count = hsum_epi64_avx2(total);
  for (; w < words; ++w) count += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  return count;
}

__attribute__((target("avx2"))) std::size_t popcount_avx2(const std::uint64_t* a,
                                                          std::size_t words) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  __m256i total = zero;
  std::size_t w = 0;
  while (words - w >= 4) {
    const std::size_t block_end = std::min(words, w + 4 * 31);
    __m256i acc8 = zero;
    for (; w + 4 <= block_end; w += 4) {
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
      acc8 = _mm256_add_epi8(acc8, popcount_epi8_avx2(va));
    }
    total = _mm256_add_epi64(total, _mm256_sad_epu8(acc8, zero));
  }
  std::size_t count = hsum_epi64_avx2(total);
  for (; w < words; ++w) count += static_cast<std::size_t>(std::popcount(a[w]));
  return count;
}

/// Packed tile, AVX2: rows are processed in pairs so each column vector is
/// loaded once per two outputs, and the per-pair popcount reduction runs
/// through a carry-save accumulator — two XOR words are compressed with
/// full-adder logic (sum = xor3, carry = majority) and only the weight-2
/// carry goes through the (expensive, 2-shuffle) Mula popcount, halving
/// shuffle-port pressure; the residual weight-1 `ones` plane is popcounted
/// once per pair. Counts are exact, so this is bit-identical to the scalar
/// packed reference.
__attribute__((target("avx2"))) void hamming_tile_packed_avx2(
    const std::uint64_t* rows, std::size_t n_rows, const std::uint64_t* cols,
    std::size_t n_cols, std::size_t words, std::uint32_t* counts) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  const std::size_t w8 = words & ~std::size_t{7};
  std::size_t r = 0;
  for (; r + 2 <= n_rows; r += 2) {
    const std::uint64_t* ra = rows + r * words;
    const std::uint64_t* rb = ra + words;
    std::uint32_t* out0 = counts + r * n_cols;
    std::uint32_t* out1 = out0 + n_cols;
    for (std::size_t c = 0; c < n_cols; ++c) {
      const std::uint64_t* cc = cols + c * words;
      __m256i ones_a = zero;
      __m256i ones_b = zero;
      __m256i total_a = zero;  // 64-bit lanes: accumulated weight-2 carries
      __m256i total_b = zero;
      std::size_t w = 0;
      while (w8 - w >= 8) {
        // Byte counters saturate only past 255/8 = 31 vectors; block below.
        const std::size_t block_end = std::min(w8, w + 8 * 31);
        __m256i acc_a = zero;
        __m256i acc_b = zero;
        for (; w + 8 <= block_end; w += 8) {
          const __m256i c0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cc + w));
          const __m256i c1 =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cc + w + 4));
          {
            const __m256i x0 = _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ra + w)), c0);
            const __m256i x1 = _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ra + w + 4)), c1);
            const __m256i u = _mm256_xor_si256(x0, x1);
            const __m256i carry = _mm256_or_si256(_mm256_and_si256(x0, x1),
                                                  _mm256_and_si256(u, ones_a));
            acc_a = _mm256_add_epi8(acc_a, popcount_epi8_avx2(carry));
            ones_a = _mm256_xor_si256(u, ones_a);
          }
          {
            const __m256i x0 = _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rb + w)), c0);
            const __m256i x1 = _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rb + w + 4)), c1);
            const __m256i u = _mm256_xor_si256(x0, x1);
            const __m256i carry = _mm256_or_si256(_mm256_and_si256(x0, x1),
                                                  _mm256_and_si256(u, ones_b));
            acc_b = _mm256_add_epi8(acc_b, popcount_epi8_avx2(carry));
            ones_b = _mm256_xor_si256(u, ones_b);
          }
        }
        total_a = _mm256_add_epi64(total_a, _mm256_sad_epu8(acc_a, zero));
        total_b = _mm256_add_epi64(total_b, _mm256_sad_epu8(acc_b, zero));
      }
      std::size_t cnt_a =
          2 * hsum_epi64_avx2(total_a) +
          hsum_epi64_avx2(_mm256_sad_epu8(popcount_epi8_avx2(ones_a), zero));
      std::size_t cnt_b =
          2 * hsum_epi64_avx2(total_b) +
          hsum_epi64_avx2(_mm256_sad_epu8(popcount_epi8_avx2(ones_b), zero));
      for (; w < words; ++w) {
        cnt_a += static_cast<std::size_t>(std::popcount(ra[w] ^ cc[w]));
        cnt_b += static_cast<std::size_t>(std::popcount(rb[w] ^ cc[w]));
      }
      out0[c] = static_cast<std::uint32_t>(cnt_a);
      out1[c] = static_cast<std::uint32_t>(cnt_b);
    }
  }
  if (r < n_rows) {
    const std::uint64_t* ra = rows + r * words;
    std::uint32_t* out = counts + r * n_cols;
    for (std::size_t c = 0; c < n_cols; ++c) {
      out[c] = static_cast<std::uint32_t>(xor_popcount_avx2(ra, cols + c * words, words));
    }
  }
}

/// k-select, AVX2: scan 8 counts per compare against the running k-th best
/// count. `v <= thr` (unsigned, via min+cmpeq) is a *superset* of "improves
/// the top-k" — equal-count/higher-index candidates pass the lane test but
/// are rejected by kselect_insert's full-key compare — so skipped blocks
/// can never drop a qualifying candidate and the output stays bit-identical
/// to the scalar insertion order (which itself equals the sorted prefix).
__attribute__((target("avx2"))) std::size_t k_select_avx2(const std::uint32_t* counts,
                                                          std::size_t n, std::size_t k,
                                                          select_entry* out) noexcept {
  const std::size_t cap = std::min(k, n);
  if (cap == 0) return 0;
  std::size_t size = 0;
  std::size_t i = 0;
  for (; i < n && size < cap; ++i) {
    kselect_insert(out, size, cap, counts[i], static_cast<std::uint32_t>(i));
  }
  for (; i + 8 <= n; i += 8) {
    const __m256i thr = _mm256_set1_epi32(static_cast<int>(out[cap - 1].count));
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts + i));
    const __m256i le = _mm256_cmpeq_epi32(_mm256_min_epu32(v, thr), v);
    unsigned hits = static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(le)));
    while (hits != 0) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(hits));
      hits &= hits - 1;
      kselect_insert(out, size, cap, counts[i + lane],
                     static_cast<std::uint32_t>(i + lane));
    }
  }
  for (; i < n; ++i) {
    kselect_insert(out, size, cap, counts[i], static_cast<std::uint32_t>(i));
  }
  return size;
}

/// 4 active bytes -> 4 all-ones/all-zeros double lanes.
__attribute__((target("avx2"))) inline __m256d active_mask_pd_avx2(const std::uint8_t* active) {
  std::uint32_t packed;
  std::memcpy(&packed, active, 4);
  const __m256i lanes = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(packed)));
  return _mm256_castsi256_pd(_mm256_cmpgt_epi64(lanes, _mm256_setzero_si256()));
}

__attribute__((target("avx2"))) row_min nearest_active_scan_avx2(
    const double* row, const std::uint8_t* active, std::size_t n) noexcept {
  if (n < 8) return nearest_active_scan_scalar(row, active, n);
  constexpr double inf = std::numeric_limits<double>::infinity();
  const __m256d vinf = _mm256_set1_pd(inf);
  // Pass 1: lane-wise minimum with inactive lanes blended to +inf.
  __m256d vmin = vinf;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_blendv_pd(vinf, _mm256_loadu_pd(row + i),
                                       active_mask_pd_avx2(active + i));
    vmin = _mm256_min_pd(vmin, v);
  }
  const __m128d lo = _mm256_castpd256_pd128(vmin);
  const __m128d hi = _mm256_extractf128_pd(vmin, 1);
  const __m128d m2 = _mm_min_pd(lo, hi);
  double m = _mm_cvtsd_f64(_mm_min_sd(m2, _mm_unpackhi_pd(m2, m2)));
  for (; i < n; ++i) {
    const double v = active[i] != 0 ? row[i] : inf;
    m = std::min(m, v);
  }
  // Pass 2: first masked lane equal to the minimum — the strict-< scalar
  // loop keeps the lowest index among ties, and so does this scan order.
  const __m256d vm = _mm256_set1_pd(m);
  for (std::size_t j = 0; j + 4 <= n; j += 4) {
    const __m256d v = _mm256_blendv_pd(vinf, _mm256_loadu_pd(row + j),
                                       active_mask_pd_avx2(active + j));
    const int hit = _mm256_movemask_pd(_mm256_cmp_pd(v, vm, _CMP_EQ_OQ));
    if (hit != 0) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(hit)));
      return {static_cast<std::uint32_t>(j + lane), m};
    }
  }
  for (std::size_t j = n & ~std::size_t{3}; j < n; ++j) {
    const double v = active[j] != 0 ? row[j] : inf;
    if (v == m) return {static_cast<std::uint32_t>(j), m};
  }
  return {0, m};  // unreachable for NaN-free active lanes
}

/// q16::from_double over 4 lanes: clamp at 0, round-half-up on the Q0.16
/// grid, saturate at 0xFFFF — every branch of the scalar matches a blend.
__attribute__((target("avx2"))) inline __m256d q16_store_pd_avx2(__m256d v) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d scale = _mm256_set1_pd(65536.0);
  const __m256d t = _mm256_add_pd(_mm256_mul_pd(v, scale), _mm256_set1_pd(0.5));
  __m256d r = _mm256_mul_pd(_mm256_round_pd(t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC),
                            _mm256_set1_pd(1.0 / 65536.0));
  r = _mm256_blendv_pd(r, _mm256_set1_pd(65535.0 / 65536.0),
                       _mm256_cmp_pd(t, scale, _CMP_GE_OQ));
  return _mm256_blendv_pd(r, zero, _mm256_cmp_pd(v, zero, _CMP_LE_OQ));
}

/// lance_williams over 4 lanes, operation-for-operation (the library builds
/// with -ffp-contract=off, so mul/add/div/sqrt below round exactly like the
/// scalar's).
__attribute__((target("avx2"))) inline __m256d lw_avx2(__m256d d_ka, __m256d d_kb,
                                                       __m256d nk, const lw_update& u) {
  switch (u.link) {
    case lw_linkage::single:
      return _mm256_min_pd(d_ka, d_kb);
    case lw_linkage::complete:
      return _mm256_max_pd(d_ka, d_kb);
    case lw_linkage::average: {
      const __m256d na = _mm256_set1_pd(u.size_a);
      const __m256d nb = _mm256_set1_pd(u.size_b);
      return _mm256_div_pd(_mm256_add_pd(_mm256_mul_pd(na, d_ka), _mm256_mul_pd(nb, d_kb)),
                           _mm256_set1_pd(u.size_a + u.size_b));
    }
    case lw_linkage::ward: {
      const __m256d na = _mm256_set1_pd(u.size_a);
      const __m256d nb = _mm256_set1_pd(u.size_b);
      const __m256d dab = _mm256_set1_pd(u.d_ab);
      const __m256d t = _mm256_add_pd(_mm256_set1_pd(u.size_a + u.size_b), nk);
      const __m256d t1 = _mm256_mul_pd(_mm256_mul_pd(_mm256_add_pd(na, nk), d_ka), d_ka);
      const __m256d t2 = _mm256_mul_pd(_mm256_mul_pd(_mm256_add_pd(nb, nk), d_kb), d_kb);
      const __m256d t3 = _mm256_mul_pd(_mm256_mul_pd(nk, dab), dab);
      const __m256d v = _mm256_div_pd(_mm256_sub_pd(_mm256_add_pd(t1, t2), t3), t);
      // std::max(0.0, v) with its exact NaN semantics: 0 < v is false for
      // NaN, so NaN (inf - inf on degenerate rows) collapses to 0.
      const __m256d pos = _mm256_cmp_pd(_mm256_setzero_pd(), v, _CMP_LT_OQ);
      return _mm256_sqrt_pd(_mm256_and_pd(v, pos));
    }
  }
  return d_ka;
}

__attribute__((target("avx2"))) void lance_williams_row_update_avx2(
    double* keep_row, const double* gone_row, const std::uint8_t* active,
    const double* sizes, std::size_t n, const lw_update& u) noexcept {
  const bool round = u.store == lw_store::q16;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d mask = active_mask_pd_avx2(active + k);
    if (_mm256_testz_pd(mask, mask) != 0) continue;
    const __m256d d_kb = _mm256_loadu_pd(keep_row + k);
    const __m256d d_ka = _mm256_loadu_pd(gone_row + k);
    __m256d v = lw_avx2(d_ka, d_kb, _mm256_loadu_pd(sizes + k), u);
    if (round) v = q16_store_pd_avx2(v);
    _mm256_storeu_pd(keep_row + k, _mm256_blendv_pd(d_kb, v, mask));
  }
  for (; k < n; ++k) {
    if (active[k] == 0) continue;
    const double v = lance_williams(u.link, gone_row[k], keep_row[k], u.d_ab, u.size_a,
                                    u.size_b, sizes[k]);
    keep_row[k] = round ? lw_store_q16(v) : v;
  }
}

/// 8 active bytes -> 8 all-ones/all-zeros float lanes.
__attribute__((target("avx2"))) inline __m256 active_mask_ps_avx2(const std::uint8_t* active) {
  std::uint64_t packed;
  std::memcpy(&packed, active, 8);
  const __m256i lanes =
      _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(static_cast<long long>(packed)));
  return _mm256_castsi256_ps(_mm256_cmpgt_epi32(lanes, _mm256_setzero_si256()));
}

__attribute__((target("avx2"))) row_min nearest_active_scan_f32_avx2(
    const float* row, const std::uint8_t* active, std::size_t n) noexcept {
  if (n < 16) return nearest_active_scan_f32_scalar(row, active, n);
  constexpr float inf = std::numeric_limits<float>::infinity();
  const __m256 vinf = _mm256_set1_ps(inf);
  __m256 vmin = vinf;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_blendv_ps(vinf, _mm256_loadu_ps(row + i),
                                      active_mask_ps_avx2(active + i));
    vmin = _mm256_min_ps(vmin, v);
  }
  __m128 x = _mm_min_ps(_mm256_castps256_ps128(vmin), _mm256_extractf128_ps(vmin, 1));
  x = _mm_min_ps(x, _mm_movehl_ps(x, x));
  x = _mm_min_ss(x, _mm_shuffle_ps(x, x, 1));
  float m = _mm_cvtss_f32(x);
  for (; i < n; ++i) {
    const float v = active[i] != 0 ? row[i] : inf;
    m = std::min(m, v);
  }
  const __m256 vm = _mm256_set1_ps(m);
  for (std::size_t j = 0; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_blendv_ps(vinf, _mm256_loadu_ps(row + j),
                                      active_mask_ps_avx2(active + j));
    const int hit = _mm256_movemask_ps(_mm256_cmp_ps(v, vm, _CMP_EQ_OQ));
    if (hit != 0) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(hit)));
      return {static_cast<std::uint32_t>(j + lane), static_cast<double>(m)};
    }
  }
  for (std::size_t j = n & ~std::size_t{7}; j < n; ++j) {
    const float v = active[j] != 0 ? row[j] : inf;
    if (v == m) return {static_cast<std::uint32_t>(j), static_cast<double>(m)};
  }
  return {0, static_cast<double>(m)};  // unreachable for NaN-free active lanes
}

__attribute__((target("avx2"))) void lance_williams_row_update_f32_avx2(
    float* keep_row, const float* gone_row, const std::uint8_t* active,
    const double* sizes, std::size_t n, const lw_update& u) noexcept {
  const bool minmax = u.link == lw_linkage::single || u.link == lw_linkage::complete;
  const bool round = u.store == lw_store::q16;
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 mask = active_mask_ps_avx2(active + k);
    if (_mm256_testz_ps(mask, mask) != 0) continue;
    const __m256 kb = _mm256_loadu_ps(keep_row + k);
    const __m256 ka = _mm256_loadu_ps(gone_row + k);
    __m256 res;
    if (minmax) {
      // min/max only ever *select* one of the two float operands, so no
      // widening (and no q16 re-rounding of on-grid values) is needed.
      res = u.link == lw_linkage::single ? _mm256_min_ps(ka, kb) : _mm256_max_ps(ka, kb);
    } else {
      // Widen each half to double, run the exact double-lane update, and
      // narrow the (grid-exact) results back.
      const __m256d ka_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(ka));
      const __m256d ka_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(ka, 1));
      const __m256d kb_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(kb));
      const __m256d kb_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(kb, 1));
      __m256d r_lo = lw_avx2(ka_lo, kb_lo, _mm256_loadu_pd(sizes + k), u);
      __m256d r_hi = lw_avx2(ka_hi, kb_hi, _mm256_loadu_pd(sizes + k + 4), u);
      if (round) {
        r_lo = q16_store_pd_avx2(r_lo);
        r_hi = q16_store_pd_avx2(r_hi);
      }
      res = _mm256_set_m128(_mm256_cvtpd_ps(r_hi), _mm256_cvtpd_ps(r_lo));
    }
    _mm256_storeu_ps(keep_row + k, _mm256_blendv_ps(kb, res, mask));
  }
  for (; k < n; ++k) {
    if (active[k] == 0) continue;
    const double v = lance_williams(u.link, static_cast<double>(gone_row[k]),
                                    static_cast<double>(keep_row[k]), u.d_ab, u.size_a,
                                    u.size_b, sizes[k]);
    keep_row[k] = static_cast<float>(round ? lw_store_q16(v) : v);
  }
}

__attribute__((target("avx2"))) inline __m256i maskload_avx2(const std::uint64_t* src,
                                                              __m256i live) {
  return _mm256_maskload_epi64(reinterpret_cast<const long long*>(src), live);
}

// Words [w, w + 4) of one peak's bound vector ID ^ Level.
__attribute__((target("avx2"))) inline __m256i bound_avx2(const bind_rows& peak, std::size_t w,
                                                          __m256i live) {
  return _mm256_xor_si256(maskload_avx2(peak.id + w, live), maskload_avx2(peak.level + w, live));
}

// Full adder over three bit planes: a becomes a ^ b ^ c, the majority is
// returned as the carry.
__attribute__((target("avx2"))) inline __m256i full_add_avx2(__m256i& a, __m256i b,
                                                             __m256i c) {
  const __m256i ab = _mm256_xor_si256(a, b);
  const __m256i carry = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(ab, c));
  a = _mm256_xor_si256(ab, c);
  return carry;
}

// Adds `carry` (weight 2^from) into planes [from, P) with a half-adder ripple.
template <std::size_t P>
__attribute__((target("avx2"))) inline void ripple_avx2(__m256i (&plane)[P], __m256i carry,
                                                        std::size_t from) {
#pragma GCC unroll 16
  for (std::size_t k = from; k < P; ++k) {
    const __m256i next = _mm256_and_si256(plane[k], carry);
    plane[k] = _mm256_xor_si256(plane[k], carry);
    carry = next;
  }
}

// Register-resident encode, AVX2: the bit_width(n) = P counter planes of one
// 4-word group live in ymm registers while every peak's bound slice is
// added into them; the group is thresholded with majority_planes' MSB-first
// rule and stored once. Four peaks are added per step: two full adders fold
// them into plane 0, a third folds the two weight-2 carries into plane 1,
// and only the weight-4 carry ripples through the upper planes. The ragged
// last group of a dim that is not a multiple of 256 uses masked loads and
// stores.
template <std::size_t P>
__attribute__((target("avx2"))) void encode_majority_avx2_planes(
    const bind_rows* peaks, std::size_t n, std::size_t words, const std::uint64_t* tie_bits,
    std::uint64_t* out) noexcept {
  const std::uint64_t half = n / 2;
  const __m256i lanes = _mm256_setr_epi64x(0, 1, 2, 3);
  for (std::size_t w = 0; w < words; w += 4) {
    const __m256i live =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(words - w)), lanes);
    __m256i plane[P];
#pragma GCC unroll 16
    for (std::size_t k = 0; k < P; ++k) plane[k] = _mm256_setzero_si256();
    std::size_t p = 0;
    if constexpr (P >= 3) {  // a four-peak step needs n >= 4, so P >= 3
      for (; p + 4 <= n; p += 4) {
        const __m256i c0 = full_add_avx2(plane[0], bound_avx2(peaks[p], w, live),
                                         bound_avx2(peaks[p + 1], w, live));
        const __m256i c1 = full_add_avx2(plane[0], bound_avx2(peaks[p + 2], w, live),
                                         bound_avx2(peaks[p + 3], w, live));
        ripple_avx2(plane, full_add_avx2(plane[1], c0, c1), 2);
      }
    }
    for (; p < n; ++p) ripple_avx2(plane, bound_avx2(peaks[p], w, live), 0);

    __m256i gt = _mm256_setzero_si256();
    __m256i eq = _mm256_set1_epi64x(-1);
#pragma GCC unroll 16
    for (std::size_t i = 0; i < P; ++i) {
      const std::size_t k = P - 1 - i;  // MSB first
      if ((half >> k) & 1ULL) {
        eq = _mm256_and_si256(eq, plane[k]);
      } else {
        const __m256i above = _mm256_and_si256(eq, plane[k]);
        gt = _mm256_or_si256(gt, above);
        eq = _mm256_xor_si256(eq, above);
      }
    }
    if (n % 2 == 0) {
      gt = _mm256_or_si256(gt, _mm256_and_si256(eq, maskload_avx2(tie_bits + w, live)));
    }
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(out + w), live, gt);
  }
}

// ---------------------------------------------------------------------------
// AVX-512 kernels — native VPOPCNTQ (Ice Lake+)
// ---------------------------------------------------------------------------

__attribute__((target("avx512f,avx512vpopcntdq"))) std::size_t xor_popcount_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i va = _mm512_loadu_si512(a + w);
    const __m512i vb = _mm512_loadu_si512(b + w);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
  }
  std::size_t count = static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
  for (; w < words; ++w) count += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  return count;
}

__attribute__((target("avx512f,avx512vpopcntdq"))) std::size_t popcount_avx512(
    const std::uint64_t* a, std::size_t words) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_loadu_si512(a + w)));
  }
  std::size_t count = static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
  for (; w < words; ++w) count += static_cast<std::size_t>(std::popcount(a[w]));
  return count;
}

/// Batched horizontal reduction of four 8-lane accumulators: sums each of
/// a/b/c/d's 64-bit lanes with one unpack/shuffle tree instead of four
/// sequential _mm512_reduce_add_epi64 chains (which would spend ~3 shuffle
/// ops on port 5 *per pair* — comparable to the popcounts themselves).
/// Totals land in out[0] (a), out[1] (b), out[4] (c), out[5] (d).
__attribute__((target("avx512f"))) inline void hsum4_epi64_avx512(
    __m512i a, __m512i b, __m512i c, __m512i d, std::uint64_t* out) {
  const __m512i s_ab =
      _mm512_add_epi64(_mm512_unpacklo_epi64(a, b), _mm512_unpackhi_epi64(a, b));
  const __m512i s_cd =
      _mm512_add_epi64(_mm512_unpacklo_epi64(c, d), _mm512_unpackhi_epi64(c, d));
  // 128-bit units: lo = [ab01 ab23 cd01 cd23], hi = [ab45 ab67 cd45 cd67].
  const __m512i lo = _mm512_shuffle_i64x2(s_ab, s_cd, 0x44);
  const __m512i hi = _mm512_shuffle_i64x2(s_ab, s_cd, 0xEE);
  const __m512i t = _mm512_add_epi64(lo, hi);
  // Swap adjacent 128-bit units and add: unit 0 = [a_total, b_total],
  // unit 2 = [c_total, d_total].
  const __m512i u = _mm512_add_epi64(t, _mm512_shuffle_i64x2(t, t, 0xB1));
  _mm512_storeu_si512(out, u);
}

/// Packed tile, AVX-512, plain reduction: rows are processed four at a
/// time so every column load is shared by four outputs, each XOR word goes
/// straight through VPOPCNTQ, and the four accumulators reduce through one
/// batched shuffle tree (hsum4) instead of four serial reduce_add chains.
/// Fastest shape up to words ≈ 64 on VPOPCNTDQ hardware (popcounts are
/// ~free there; see the CSA variant below for the long-vector regime).
__attribute__((target("avx512f,avx512vpopcntdq"))) void hamming_tile_packed_avx512_plain(
    const std::uint64_t* rows, std::size_t n_rows, const std::uint64_t* cols,
    std::size_t n_cols, std::size_t words, std::uint32_t* counts) noexcept {
  const std::size_t w8 = words & ~std::size_t{7};
  alignas(64) std::uint64_t totals[8];
  std::size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    const std::uint64_t* r0 = rows + r * words;
    const std::uint64_t* r1 = r0 + words;
    const std::uint64_t* r2 = r1 + words;
    const std::uint64_t* r3 = r2 + words;
    std::uint32_t* out = counts + r * n_cols;
    for (std::size_t c = 0; c < n_cols; ++c) {
      const std::uint64_t* cc = cols + c * words;
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      __m512i acc2 = _mm512_setzero_si512();
      __m512i acc3 = _mm512_setzero_si512();
      std::size_t w = 0;
      for (; w < w8; w += 8) {
        const __m512i cv = _mm512_loadu_si512(cc + w);
        acc0 = _mm512_add_epi64(
            acc0, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(r0 + w), cv)));
        acc1 = _mm512_add_epi64(
            acc1, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(r1 + w), cv)));
        acc2 = _mm512_add_epi64(
            acc2, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(r2 + w), cv)));
        acc3 = _mm512_add_epi64(
            acc3, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(r3 + w), cv)));
      }
      hsum4_epi64_avx512(acc0, acc1, acc2, acc3, totals);
      std::size_t cnt0 = static_cast<std::size_t>(totals[0]);
      std::size_t cnt1 = static_cast<std::size_t>(totals[1]);
      std::size_t cnt2 = static_cast<std::size_t>(totals[4]);
      std::size_t cnt3 = static_cast<std::size_t>(totals[5]);
      for (; w < words; ++w) {
        const std::uint64_t cw = cc[w];
        cnt0 += static_cast<std::size_t>(std::popcount(r0[w] ^ cw));
        cnt1 += static_cast<std::size_t>(std::popcount(r1[w] ^ cw));
        cnt2 += static_cast<std::size_t>(std::popcount(r2[w] ^ cw));
        cnt3 += static_cast<std::size_t>(std::popcount(r3[w] ^ cw));
      }
      out[c] = static_cast<std::uint32_t>(cnt0);
      out[n_cols + c] = static_cast<std::uint32_t>(cnt1);
      out[2 * n_cols + c] = static_cast<std::uint32_t>(cnt2);
      out[3 * n_cols + c] = static_cast<std::uint32_t>(cnt3);
    }
  }
  for (; r < n_rows; ++r) {
    const std::uint64_t* ra = rows + r * words;
    std::uint32_t* out = counts + r * n_cols;
    for (std::size_t c = 0; c < n_cols; ++c) {
      out[c] = static_cast<std::uint32_t>(xor_popcount_avx512(ra, cols + c * words, words));
    }
  }
}

/// Packed tile, AVX-512, carry-save reduction: same four-row blocking, but
/// each pair's popcount stream is compressed with VPTERNLOG full adders —
/// two XOR words fold into a weight-2 carry plane (majority, imm 0xE8) and
/// a running weight-1 `ones` plane (xor3, imm 0x96); only the carry goes
/// through VPOPCNTQ each step, halving popcount traffic, and the ones
/// plane is popcounted once per pair. Exact integer arithmetic — bit-
/// identical to the plain and scalar paths by construction.
__attribute__((target("avx512f,avx512vpopcntdq"))) void hamming_tile_packed_avx512_csa(
    const std::uint64_t* rows, std::size_t n_rows, const std::uint64_t* cols,
    std::size_t n_cols, std::size_t words, std::uint32_t* counts) noexcept {
  const std::size_t w16 = words & ~std::size_t{15};
  const std::size_t w8 = words & ~std::size_t{7};
  alignas(64) std::uint64_t totals[8];
  std::size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    const std::uint64_t* r0 = rows + r * words;
    const std::uint64_t* r1 = r0 + words;
    const std::uint64_t* r2 = r1 + words;
    const std::uint64_t* r3 = r2 + words;
    std::uint32_t* out = counts + r * n_cols;
    for (std::size_t c = 0; c < n_cols; ++c) {
      const std::uint64_t* cc = cols + c * words;
      __m512i ones0 = _mm512_setzero_si512(), twos0 = _mm512_setzero_si512();
      __m512i ones1 = _mm512_setzero_si512(), twos1 = _mm512_setzero_si512();
      __m512i ones2 = _mm512_setzero_si512(), twos2 = _mm512_setzero_si512();
      __m512i ones3 = _mm512_setzero_si512(), twos3 = _mm512_setzero_si512();
      std::size_t w = 0;
      for (; w < w16; w += 16) {
        const __m512i c0 = _mm512_loadu_si512(cc + w);
        const __m512i c1 = _mm512_loadu_si512(cc + w + 8);
        {
          const __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(r0 + w), c0);
          const __m512i x1 = _mm512_xor_si512(_mm512_loadu_si512(r0 + w + 8), c1);
          const __m512i carry = _mm512_ternarylogic_epi64(ones0, x0, x1, 0xE8);
          ones0 = _mm512_ternarylogic_epi64(ones0, x0, x1, 0x96);
          twos0 = _mm512_add_epi64(twos0, _mm512_popcnt_epi64(carry));
        }
        {
          const __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(r1 + w), c0);
          const __m512i x1 = _mm512_xor_si512(_mm512_loadu_si512(r1 + w + 8), c1);
          const __m512i carry = _mm512_ternarylogic_epi64(ones1, x0, x1, 0xE8);
          ones1 = _mm512_ternarylogic_epi64(ones1, x0, x1, 0x96);
          twos1 = _mm512_add_epi64(twos1, _mm512_popcnt_epi64(carry));
        }
        {
          const __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(r2 + w), c0);
          const __m512i x1 = _mm512_xor_si512(_mm512_loadu_si512(r2 + w + 8), c1);
          const __m512i carry = _mm512_ternarylogic_epi64(ones2, x0, x1, 0xE8);
          ones2 = _mm512_ternarylogic_epi64(ones2, x0, x1, 0x96);
          twos2 = _mm512_add_epi64(twos2, _mm512_popcnt_epi64(carry));
        }
        {
          const __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(r3 + w), c0);
          const __m512i x1 = _mm512_xor_si512(_mm512_loadu_si512(r3 + w + 8), c1);
          const __m512i carry = _mm512_ternarylogic_epi64(ones3, x0, x1, 0xE8);
          ones3 = _mm512_ternarylogic_epi64(ones3, x0, x1, 0x96);
          twos3 = _mm512_add_epi64(twos3, _mm512_popcnt_epi64(carry));
        }
      }
      __m512i acc0 =
          _mm512_add_epi64(_mm512_slli_epi64(twos0, 1), _mm512_popcnt_epi64(ones0));
      __m512i acc1 =
          _mm512_add_epi64(_mm512_slli_epi64(twos1, 1), _mm512_popcnt_epi64(ones1));
      __m512i acc2 =
          _mm512_add_epi64(_mm512_slli_epi64(twos2, 1), _mm512_popcnt_epi64(ones2));
      __m512i acc3 =
          _mm512_add_epi64(_mm512_slli_epi64(twos3, 1), _mm512_popcnt_epi64(ones3));
      for (; w < w8; w += 8) {
        const __m512i cv = _mm512_loadu_si512(cc + w);
        acc0 = _mm512_add_epi64(
            acc0, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(r0 + w), cv)));
        acc1 = _mm512_add_epi64(
            acc1, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(r1 + w), cv)));
        acc2 = _mm512_add_epi64(
            acc2, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(r2 + w), cv)));
        acc3 = _mm512_add_epi64(
            acc3, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(r3 + w), cv)));
      }
      hsum4_epi64_avx512(acc0, acc1, acc2, acc3, totals);
      std::size_t cnt0 = static_cast<std::size_t>(totals[0]);
      std::size_t cnt1 = static_cast<std::size_t>(totals[1]);
      std::size_t cnt2 = static_cast<std::size_t>(totals[4]);
      std::size_t cnt3 = static_cast<std::size_t>(totals[5]);
      for (; w < words; ++w) {
        const std::uint64_t cw = cc[w];
        cnt0 += static_cast<std::size_t>(std::popcount(r0[w] ^ cw));
        cnt1 += static_cast<std::size_t>(std::popcount(r1[w] ^ cw));
        cnt2 += static_cast<std::size_t>(std::popcount(r2[w] ^ cw));
        cnt3 += static_cast<std::size_t>(std::popcount(r3[w] ^ cw));
      }
      out[c] = static_cast<std::uint32_t>(cnt0);
      out[n_cols + c] = static_cast<std::uint32_t>(cnt1);
      out[2 * n_cols + c] = static_cast<std::uint32_t>(cnt2);
      out[3 * n_cols + c] = static_cast<std::uint32_t>(cnt3);
    }
  }
  for (; r < n_rows; ++r) {
    const std::uint64_t* ra = rows + r * words;
    std::uint32_t* out = counts + r * n_cols;
    for (std::size_t c = 0; c < n_cols; ++c) {
      out[c] = static_cast<std::uint32_t>(xor_popcount_avx512(ra, cols + c * words, words));
    }
  }
}

/// Measured crossover on an Ice Lake core: with native VPOPCNTQ the plain
/// reduction beats the carry-save ladder up to words ≈ 64 (dim 4096) —
/// popcounts are nearly free while the ternlog ladder adds port pressure —
/// and the CSA pulls ahead from words ≈ 128 (dim 8192), where halving the
/// popcount stream dominates. Both are exact, so the split is pure dispatch.
constexpr std::size_t avx512_csa_min_words = 128;

void hamming_tile_packed_avx512(const std::uint64_t* rows, std::size_t n_rows,
                                const std::uint64_t* cols, std::size_t n_cols,
                                std::size_t words, std::uint32_t* counts) noexcept {
  if (words >= avx512_csa_min_words) {
    hamming_tile_packed_avx512_csa(rows, n_rows, cols, n_cols, words, counts);
  } else {
    hamming_tile_packed_avx512_plain(rows, n_rows, cols, n_cols, words, counts);
  }
}

/// k-select, AVX-512: 16-lane unsigned compare-mask against the running
/// k-th best count. Same superset-prune contract as the AVX2 variant (the
/// threshold only tightens inside a block, so a stale per-block threshold
/// still never skips a qualifying lane), same bit-identical output.
__attribute__((target("avx512f"))) std::size_t k_select_avx512(const std::uint32_t* counts,
                                                               std::size_t n, std::size_t k,
                                                               select_entry* out) noexcept {
  const std::size_t cap = std::min(k, n);
  if (cap == 0) return 0;
  std::size_t size = 0;
  std::size_t i = 0;
  for (; i < n && size < cap; ++i) {
    kselect_insert(out, size, cap, counts[i], static_cast<std::uint32_t>(i));
  }
  for (; i + 16 <= n; i += 16) {
    const __m512i thr = _mm512_set1_epi32(static_cast<int>(out[cap - 1].count));
    const __m512i v = _mm512_loadu_si512(counts + i);
    unsigned hits = _mm512_cmple_epu32_mask(v, thr);
    while (hits != 0) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(hits));
      hits &= hits - 1;
      kselect_insert(out, size, cap, counts[i + lane],
                     static_cast<std::uint32_t>(i + lane));
    }
  }
  for (; i < n; ++i) {
    kselect_insert(out, size, cap, counts[i], static_cast<std::uint32_t>(i));
  }
  return size;
}

/// 8 active bytes -> an 8-lane predicate mask.
__attribute__((target("avx512f"))) inline __mmask8 active_mask_avx512(
    const std::uint8_t* active) {
  const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(active));
  return _mm512_cmpneq_epi64_mask(_mm512_cvtepu8_epi64(bytes), _mm512_setzero_si512());
}

__attribute__((target("avx512f"))) row_min nearest_active_scan_avx512(
    const double* row, const std::uint8_t* active, std::size_t n) noexcept {
  if (n < 16) return nearest_active_scan_scalar(row, active, n);
  constexpr double inf = std::numeric_limits<double>::infinity();
  const __m512d vinf = _mm512_set1_pd(inf);
  __m512d vmin = vinf;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v =
        _mm512_mask_loadu_pd(vinf, active_mask_avx512(active + i), row + i);
    vmin = _mm512_min_pd(vmin, v);
  }
  double m = _mm512_reduce_min_pd(vmin);
  for (; i < n; ++i) {
    const double v = active[i] != 0 ? row[i] : inf;
    m = std::min(m, v);
  }
  const __m512d vm = _mm512_set1_pd(m);
  for (std::size_t j = 0; j + 8 <= n; j += 8) {
    const __m512d v =
        _mm512_mask_loadu_pd(vinf, active_mask_avx512(active + j), row + j);
    const __mmask8 hit = _mm512_cmp_pd_mask(v, vm, _CMP_EQ_OQ);
    if (hit != 0) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(hit)));
      return {static_cast<std::uint32_t>(j + lane), m};
    }
  }
  for (std::size_t j = n & ~std::size_t{7}; j < n; ++j) {
    const double v = active[j] != 0 ? row[j] : inf;
    if (v == m) return {static_cast<std::uint32_t>(j), m};
  }
  return {0, m};  // unreachable for NaN-free active lanes
}

/// q16::from_double over 8 lanes (see the AVX2 variant for the mapping of
/// scalar branches to mask moves).
__attribute__((target("avx512f"))) inline __m512d q16_store_pd_avx512(__m512d v) {
  const __m512d scale = _mm512_set1_pd(65536.0);
  const __m512d t = _mm512_add_pd(_mm512_mul_pd(v, scale), _mm512_set1_pd(0.5));
  __m512d r =
      _mm512_mul_pd(_mm512_roundscale_pd(t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC),
                    _mm512_set1_pd(1.0 / 65536.0));
  r = _mm512_mask_mov_pd(r, _mm512_cmp_pd_mask(t, scale, _CMP_GE_OQ),
                         _mm512_set1_pd(65535.0 / 65536.0));
  return _mm512_mask_mov_pd(r, _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_LE_OQ),
                            _mm512_setzero_pd());
}

__attribute__((target("avx512f"))) inline __m512d lw_avx512(__m512d d_ka, __m512d d_kb,
                                                            __m512d nk,
                                                            const lw_update& u) {
  switch (u.link) {
    case lw_linkage::single:
      return _mm512_min_pd(d_ka, d_kb);
    case lw_linkage::complete:
      return _mm512_max_pd(d_ka, d_kb);
    case lw_linkage::average: {
      const __m512d na = _mm512_set1_pd(u.size_a);
      const __m512d nb = _mm512_set1_pd(u.size_b);
      return _mm512_div_pd(_mm512_add_pd(_mm512_mul_pd(na, d_ka), _mm512_mul_pd(nb, d_kb)),
                           _mm512_set1_pd(u.size_a + u.size_b));
    }
    case lw_linkage::ward: {
      const __m512d na = _mm512_set1_pd(u.size_a);
      const __m512d nb = _mm512_set1_pd(u.size_b);
      const __m512d dab = _mm512_set1_pd(u.d_ab);
      const __m512d t = _mm512_add_pd(_mm512_set1_pd(u.size_a + u.size_b), nk);
      const __m512d t1 = _mm512_mul_pd(_mm512_mul_pd(_mm512_add_pd(na, nk), d_ka), d_ka);
      const __m512d t2 = _mm512_mul_pd(_mm512_mul_pd(_mm512_add_pd(nb, nk), d_kb), d_kb);
      const __m512d t3 = _mm512_mul_pd(_mm512_mul_pd(nk, dab), dab);
      const __m512d v = _mm512_div_pd(_mm512_sub_pd(_mm512_add_pd(t1, t2), t3), t);
      const __mmask8 pos = _mm512_cmp_pd_mask(_mm512_setzero_pd(), v, _CMP_LT_OQ);
      return _mm512_sqrt_pd(_mm512_maskz_mov_pd(pos, v));
    }
  }
  return d_ka;
}

__attribute__((target("avx512f"))) void lance_williams_row_update_avx512(
    double* keep_row, const double* gone_row, const std::uint8_t* active,
    const double* sizes, std::size_t n, const lw_update& u) noexcept {
  const bool round = u.store == lw_store::q16;
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(active + k));
    const __mmask8 mask =
        _mm512_cmpneq_epi64_mask(_mm512_cvtepu8_epi64(bytes), _mm512_setzero_si512());
    if (mask == 0) continue;
    const __m512d d_kb = _mm512_loadu_pd(keep_row + k);
    const __m512d d_ka = _mm512_loadu_pd(gone_row + k);
    __m512d v = lw_avx512(d_ka, d_kb, _mm512_loadu_pd(sizes + k), u);
    if (round) v = q16_store_pd_avx512(v);
    _mm512_mask_storeu_pd(keep_row + k, mask, v);
  }
  for (; k < n; ++k) {
    if (active[k] == 0) continue;
    const double v = lance_williams(u.link, gone_row[k], keep_row[k], u.d_ab, u.size_a,
                                    u.size_b, sizes[k]);
    keep_row[k] = round ? lw_store_q16(v) : v;
  }
}

/// 16 active bytes -> a 16-lane predicate mask.
__attribute__((target("avx512f"))) inline __mmask16 active_mask16_avx512(
    const std::uint8_t* active) {
  const __m128i bytes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(active));
  return _mm512_cmpneq_epi32_mask(_mm512_cvtepu8_epi32(bytes), _mm512_setzero_si512());
}

__attribute__((target("avx512f"))) row_min nearest_active_scan_f32_avx512(
    const float* row, const std::uint8_t* active, std::size_t n) noexcept {
  if (n < 32) return nearest_active_scan_f32_scalar(row, active, n);
  constexpr float inf = std::numeric_limits<float>::infinity();
  const __m512 vinf = _mm512_set1_ps(inf);
  __m512 vmin = vinf;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_mask_loadu_ps(vinf, active_mask16_avx512(active + i), row + i);
    vmin = _mm512_min_ps(vmin, v);
  }
  float m = _mm512_reduce_min_ps(vmin);
  for (; i < n; ++i) {
    const float v = active[i] != 0 ? row[i] : inf;
    m = std::min(m, v);
  }
  const __m512 vm = _mm512_set1_ps(m);
  for (std::size_t j = 0; j + 16 <= n; j += 16) {
    const __m512 v = _mm512_mask_loadu_ps(vinf, active_mask16_avx512(active + j), row + j);
    const __mmask16 hit = _mm512_cmp_ps_mask(v, vm, _CMP_EQ_OQ);
    if (hit != 0) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(hit)));
      return {static_cast<std::uint32_t>(j + lane), static_cast<double>(m)};
    }
  }
  for (std::size_t j = n & ~std::size_t{15}; j < n; ++j) {
    const float v = active[j] != 0 ? row[j] : inf;
    if (v == m) return {static_cast<std::uint32_t>(j), static_cast<double>(m)};
  }
  return {0, static_cast<double>(m)};  // unreachable for NaN-free active lanes
}

__attribute__((target("avx512f"))) void lance_williams_row_update_f32_avx512(
    float* keep_row, const float* gone_row, const std::uint8_t* active,
    const double* sizes, std::size_t n, const lw_update& u) noexcept {
  const bool round = u.store == lw_store::q16;
  std::size_t k = 0;
  if (u.link == lw_linkage::single || u.link == lw_linkage::complete) {
    // min/max only ever *select* one of the two float operands, so no
    // widening (and no q16 re-rounding of on-grid values) is needed.
    for (; k + 16 <= n; k += 16) {
      const __mmask16 mask = active_mask16_avx512(active + k);
      if (mask == 0) continue;
      const __m512 kb = _mm512_loadu_ps(keep_row + k);
      const __m512 ka = _mm512_loadu_ps(gone_row + k);
      const __m512 res =
          u.link == lw_linkage::single ? _mm512_min_ps(ka, kb) : _mm512_max_ps(ka, kb);
      _mm512_mask_storeu_ps(keep_row + k, mask, res);
    }
  } else {
    // Widen 8 lanes to a 512-bit double vector, run the exact double-lane
    // update, and narrow the (grid-exact) results back.
    for (; k + 8 <= n; k += 8) {
      const __mmask8 mask = active_mask_avx512(active + k);
      if (mask == 0) continue;
      const __m256 kb = _mm256_loadu_ps(keep_row + k);
      const __m512d ka_d = _mm512_cvtps_pd(_mm256_loadu_ps(gone_row + k));
      const __m512d kb_d = _mm512_cvtps_pd(kb);
      __m512d r = lw_avx512(ka_d, kb_d, _mm512_loadu_pd(sizes + k), u);
      if (round) r = q16_store_pd_avx512(r);
      // Masked 256-bit stores need AVX-512VL; blend in the AVX2 domain
      // instead so plain avx512f machines stay supported.
      const __m256 res = _mm512_cvtpd_ps(r);
      _mm256_storeu_ps(keep_row + k,
                       _mm256_blendv_ps(kb, res, active_mask_ps_avx2(active + k)));
    }
  }
  for (; k < n; ++k) {
    if (active[k] == 0) continue;
    const double v = lance_williams(u.link, static_cast<double>(gone_row[k]),
                                    static_cast<double>(keep_row[k]), u.d_ab, u.size_a,
                                    u.size_b, sizes[k]);
    keep_row[k] = static_cast<float>(round ? lw_store_q16(v) : v);
  }
}

// Words [w, w + 8) of one peak's bound vector ID ^ Level.
__attribute__((target("avx512f"))) inline __m512i bound_avx512(const bind_rows& peak,
                                                               std::size_t w, __mmask8 live) {
  return _mm512_xor_si512(_mm512_maskz_loadu_epi64(live, peak.id + w),
                          _mm512_maskz_loadu_epi64(live, peak.level + w));
}

// Full adder (VPTERNLOG): a becomes a ^ b ^ c, the majority is returned.
__attribute__((target("avx512f"))) inline __m512i full_add_avx512(__m512i& a, __m512i b,
                                                                  __m512i c) {
  const __m512i carry = _mm512_ternarylogic_epi64(a, b, c, 0xE8);
  a = _mm512_ternarylogic_epi64(a, b, c, 0x96);
  return carry;
}

template <std::size_t P>
__attribute__((target("avx512f"))) inline void ripple_avx512(__m512i (&plane)[P],
                                                             __m512i carry, std::size_t from) {
#pragma GCC unroll 16
  for (std::size_t k = from; k < P; ++k) {
    const __m512i next = _mm512_and_si512(plane[k], carry);
    plane[k] = _mm512_xor_si512(plane[k], carry);
    carry = next;
  }
}

// Register-resident encode, AVX-512: encode_majority_avx2_planes over 8-word
// groups. With 64-byte-aligned rows of a dim that is a multiple of 512 every
// slice is one cache line; masked loads and stores cover the ragged last
// group at no cost to the full ones.
template <std::size_t P>
__attribute__((target("avx512f"))) void encode_majority_avx512_planes(
    const bind_rows* peaks, std::size_t n, std::size_t words, const std::uint64_t* tie_bits,
    std::uint64_t* out) noexcept {
  const std::uint64_t half = n / 2;
  for (std::size_t w = 0; w < words; w += 8) {
    const auto live = static_cast<__mmask8>(words - w >= 8 ? 0xFF : (1U << (words - w)) - 1);
    __m512i plane[P];
#pragma GCC unroll 16
    for (std::size_t k = 0; k < P; ++k) plane[k] = _mm512_setzero_si512();
    std::size_t p = 0;
    if constexpr (P >= 3) {  // a four-peak step needs n >= 4, so P >= 3
      for (; p + 4 <= n; p += 4) {
        const __m512i c0 = full_add_avx512(plane[0], bound_avx512(peaks[p], w, live),
                                           bound_avx512(peaks[p + 1], w, live));
        const __m512i c1 = full_add_avx512(plane[0], bound_avx512(peaks[p + 2], w, live),
                                           bound_avx512(peaks[p + 3], w, live));
        ripple_avx512(plane, full_add_avx512(plane[1], c0, c1), 2);
      }
    }
    for (; p < n; ++p) ripple_avx512(plane, bound_avx512(peaks[p], w, live), 0);

    __m512i gt = _mm512_setzero_si512();
    __m512i eq = _mm512_set1_epi64(-1);
#pragma GCC unroll 16
    for (std::size_t i = 0; i < P; ++i) {
      const std::size_t k = P - 1 - i;  // MSB first
      if ((half >> k) & 1ULL) {
        eq = _mm512_and_si512(eq, plane[k]);
      } else {
        const __m512i above = _mm512_and_si512(eq, plane[k]);
        gt = _mm512_or_si512(gt, above);
        eq = _mm512_xor_si512(eq, above);
      }
    }
    if (n % 2 == 0) {
      const __m512i tie = _mm512_maskz_loadu_epi64(live, tie_bits + w);
      gt = _mm512_or_si512(gt, _mm512_and_si512(eq, tie));
    }
    _mm512_mask_storeu_epi64(out + w, live, gt);
  }
}

using encode_planes_fn = void (*)(const bind_rows*, std::size_t, std::size_t,
                                  const std::uint64_t*, std::uint64_t*) noexcept;

// Runs by_planes[P - 1] for P = bit_width(n); the empty spectrum and peak
// counts past the register budget take the scalar reference.
void encode_by_planes(const std::array<encode_planes_fn, encode_register_planes>& by_planes,
                      const bind_rows* peaks, std::size_t n, std::size_t words,
                      const std::uint64_t* tie_bits, std::uint64_t* out) {
  const auto planes = static_cast<std::size_t>(std::bit_width(n));
  if (planes == 0 || planes > encode_register_planes) {
    encode_majority_scalar(peaks, n, words, tie_bits, out);
    return;
  }
  // The ID table does not fit in L2: touch every row's cache lines up front
  // so the scattered reads overlap instead of stalling the adds one peak at
  // a time.
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t w = 0; w < words; w += 8) {
      _mm_prefetch(reinterpret_cast<const char*>(peaks[p].id + w), _MM_HINT_T0);
    }
  }
  by_planes[planes - 1](peaks, n, words, tie_bits, out);
}

void encode_majority_avx2(const bind_rows* peaks, std::size_t n, std::size_t words,
                          const std::uint64_t* tie_bits, std::uint64_t* out) {
  static constexpr auto by_planes = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<encode_planes_fn, sizeof...(I)>{&encode_majority_avx2_planes<I + 1>...};
  }(std::make_index_sequence<encode_register_planes>{});
  encode_by_planes(by_planes, peaks, n, words, tie_bits, out);
}

void encode_majority_avx512(const bind_rows* peaks, std::size_t n, std::size_t words,
                            const std::uint64_t* tie_bits, std::uint64_t* out) {
  static constexpr auto by_planes = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<encode_planes_fn, sizeof...(I)>{&encode_majority_avx512_planes<I + 1>...};
  }(std::make_index_sequence<encode_register_planes>{});
  encode_by_planes(by_planes, peaks, n, words, tie_bits, out);
}

#endif  // SPECHD_X86_KERNELS

// ---------------------------------------------------------------------------
// runtime dispatch
// ---------------------------------------------------------------------------

struct kernel_table {
  std::size_t (*popcount)(const std::uint64_t*, std::size_t) noexcept;
  std::size_t (*xor_popcount)(const std::uint64_t*, const std::uint64_t*,
                              std::size_t) noexcept;
  void (*hamming_tile_packed)(const std::uint64_t*, std::size_t, const std::uint64_t*,
                              std::size_t, std::size_t, std::uint32_t*) noexcept;
  std::size_t (*k_select)(const std::uint32_t*, std::size_t, std::size_t,
                          select_entry*) noexcept;
  void (*encode_majority)(const bind_rows*, std::size_t, std::size_t, const std::uint64_t*,
                          std::uint64_t*);
  row_min (*nearest_active_scan)(const double*, const std::uint8_t*,
                                 std::size_t) noexcept;
  void (*lw_row_update)(double*, const double*, const std::uint8_t*, const double*,
                        std::size_t, const lw_update&) noexcept;
  row_min (*nearest_active_scan_f32)(const float*, const std::uint8_t*,
                                     std::size_t) noexcept;
  void (*lw_row_update_f32)(float*, const float*, const std::uint8_t*, const double*,
                            std::size_t, const lw_update&) noexcept;
};

constexpr kernel_table scalar_table{popcount_scalar,
                                    xor_popcount_scalar,
                                    hamming_tile_packed_scalar,
                                    k_select_scalar,
                                    encode_majority_scalar,
                                    nearest_active_scan_scalar,
                                    lance_williams_row_update_scalar,
                                    nearest_active_scan_f32_scalar,
                                    lance_williams_row_update_f32_scalar};

kernel_table table_for(variant v) noexcept {
#if SPECHD_X86_KERNELS
  switch (v) {
    case variant::avx2:
      return {popcount_avx2,           xor_popcount_avx2,
              hamming_tile_packed_avx2,
              k_select_avx2,
              encode_majority_avx2,
              nearest_active_scan_avx2, lance_williams_row_update_avx2,
              nearest_active_scan_f32_avx2, lance_williams_row_update_f32_avx2};
    case variant::avx512:
      return {popcount_avx512,          xor_popcount_avx512,
              hamming_tile_packed_avx512,
              k_select_avx512,
              encode_majority_avx512,
              nearest_active_scan_avx512, lance_williams_row_update_avx512,
              nearest_active_scan_f32_avx512, lance_williams_row_update_f32_avx512};
    case variant::scalar:
      break;
  }
#else
  (void)v;
#endif
  return scalar_table;
}

struct dispatch_state {
  variant active = variant::scalar;
  kernel_table table = scalar_table;
};

dispatch_state& state() noexcept {
  static dispatch_state s{best_supported(), table_for(best_supported())};
  return s;
}

}  // namespace

const char* variant_name(variant v) noexcept {
  switch (v) {
    case variant::scalar: return "scalar";
    case variant::avx2: return "avx2";
    case variant::avx512: return "avx512";
  }
  return "unknown";
}

bool supported(variant v) noexcept {
  if (v == variant::scalar) return true;
#if SPECHD_X86_KERNELS
  if (v == variant::avx2) return __builtin_cpu_supports("avx2") != 0;
  if (v == variant::avx512) {
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512vpopcntdq") != 0;
  }
#endif
  return false;
}

variant best_supported() noexcept {
  if (supported(variant::avx512)) return variant::avx512;
  if (supported(variant::avx2)) return variant::avx2;
  return variant::scalar;
}

variant active() noexcept { return state().active; }

void set_active(variant v) {
  SPECHD_EXPECTS(supported(v));
  state().active = v;
  state().table = table_for(v);
}

variant parse_variant(const std::string& name) {
  if (name == "auto") return best_supported();
  for (const variant v : {variant::scalar, variant::avx2, variant::avx512}) {
    if (name == variant_name(v)) return v;
  }
  throw logic_error("unknown kernel variant: " + name);
}

std::size_t popcount(const std::uint64_t* a, std::size_t words) noexcept {
  return state().table.popcount(a, words);
}

std::size_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) noexcept {
  return state().table.xor_popcount(a, b, words);
}

void hamming_tile_packed(const std::uint64_t* rows, std::size_t n_rows,
                         const std::uint64_t* cols, std::size_t n_cols, std::size_t words,
                         std::uint32_t* counts) noexcept {
  state().table.hamming_tile_packed(rows, n_rows, cols, n_cols, words, counts);
}

std::size_t k_select(const std::uint32_t* counts, std::size_t n, std::size_t k,
                     select_entry* out) noexcept {
  return state().table.k_select(counts, n, k, out);
}

row_min nearest_active_scan(const double* row, const std::uint8_t* active,
                            std::size_t n) noexcept {
  return state().table.nearest_active_scan(row, active, n);
}

row_min nearest_active_scan(const float* row, const std::uint8_t* active,
                            std::size_t n) noexcept {
  return state().table.nearest_active_scan_f32(row, active, n);
}

void lance_williams_row_update(double* keep_row, const double* gone_row,
                               const std::uint8_t* active, const double* sizes,
                               std::size_t n, const lw_update& u) noexcept {
  state().table.lw_row_update(keep_row, gone_row, active, sizes, n, u);
}

void lance_williams_row_update(float* keep_row, const float* gone_row,
                               const std::uint8_t* active, const double* sizes,
                               std::size_t n, const lw_update& u) noexcept {
  state().table.lw_row_update_f32(keep_row, gone_row, active, sizes, n, u);
}

void encode_majority(const bind_rows* peaks, std::size_t n, std::size_t words,
                     const std::uint64_t* tie_bits, std::uint64_t* out) {
  state().table.encode_majority(peaks, n, words, tie_bits, out);
}

}  // namespace spechd::hdc::kernels
