#include "hdc/distance.hpp"

#include <algorithm>
#include <array>

#include "hdc/cpu_kernels.hpp"
#include "util/arena_pool.hpp"
#include "util/thread_pool.hpp"

namespace spechd::hdc {
namespace {

// Block edge of the tile kernel: 64 rows × 64 cols of 2048-bit vectors
// reads ~32 KiB of operands per tile, so both tile inputs stay cache-hot
// while the kernel revisits them 64 times each.
constexpr std::size_t tile = 64;

template <typename T, typename Convert>
condensed_matrix<T> pairwise_impl(const std::vector<hypervector>& hvs, Convert convert,
                                  thread_pool* pool) {
  const std::size_t n = hvs.size();
  condensed_matrix<T> m(n);
  if (n < 2) return m;

  // Packing stage: validate each dimension (once per batch, hoisted out of
  // the O(n²) loop) and copy every operand once into one contiguous,
  // cache-aligned arena blob — an O(n·words) pass against the O(n²·words)
  // tile sweep. Every 64×64 tile then reads two contiguous row-major
  // slices of the blob (hardware prefetch-friendly, 64-byte-aligned
  // operands at the default dims), and the packed kernels layer their
  // carry-save popcount reduction on top. The blob is read-only during the
  // sweep, so block-row tasks share it.
  const std::size_t dim = hvs.front().dim();
  const std::size_t words = hvs.front().word_count();
  arena_lease packed = arena_pool::global().checkout(n * words * sizeof(std::uint64_t));
  std::uint64_t* const blob = packed.as<std::uint64_t>(n * words);
  for (std::size_t i = 0; i < n; ++i) {
    SPECHD_EXPECTS(hvs[i].dim() == dim);
    std::ranges::copy(hvs[i].words(), blob + i * words);
  }

  T* const out = m.data().data();
  const std::size_t block_rows = (n + tile - 1) / tile;

  auto run_block_row = [&](std::size_t br) {
    const std::size_t i0 = br * tile;
    const std::size_t i1 = std::min(n, i0 + tile);
    std::array<std::uint32_t, tile * tile> counts;

    // Full rectangular tiles: every column j < i0 pairs with every row.
    for (std::size_t j0 = 0; j0 < i0; j0 += tile) {
      const std::size_t j1 = std::min(i0, j0 + tile);
      const std::size_t cols = j1 - j0;
      kernels::hamming_tile_packed(blob + i0 * words, i1 - i0, blob + j0 * words, cols,
                                   words, counts.data());
      for (std::size_t i = i0; i < i1; ++i) {
        const std::size_t base = condensed_matrix<T>::index_of(i, 0);
        const std::uint32_t* row_counts = counts.data() + (i - i0) * cols;
        for (std::size_t j = j0; j < j1; ++j) {
          out[base + j] = convert(row_counts[j - j0]);
        }
      }
    }

    // Diagonal triangle: j in [i0, i).
    for (std::size_t i = i0 + 1; i < i1; ++i) {
      const std::size_t base = condensed_matrix<T>::index_of(i, 0);
      for (std::size_t j = i0; j < i; ++j) {
        out[base + j] = convert(static_cast<std::uint32_t>(
            kernels::xor_popcount(blob + i * words, blob + j * words, words)));
      }
    }
  };

  if (pool != nullptr) {
    // One task per block row; tasks write disjoint ranges of the condensed
    // array, so the output is deterministic for any thread count.
    pool->parallel_for(block_rows, run_block_row, /*grain=*/1);
  } else {
    for (std::size_t br = 0; br < block_rows; ++br) run_block_row(br);
  }
  return m;
}

}  // namespace

distance_matrix_f32 pairwise_hamming_f32(const std::vector<hypervector>& hvs,
                                         thread_pool* pool) {
  const double dim = hvs.empty() ? 1.0 : static_cast<double>(hvs.front().dim());
  return pairwise_impl<float>(
      hvs,
      [dim](std::uint32_t count) {
        // Matches the scalar reference exactly: divide in double, then
        // narrow to float (hamming_normalized's rounding).
        return static_cast<float>(static_cast<double>(count) / dim);
      },
      pool);
}

distance_matrix_q16 pairwise_hamming_q16(const std::vector<hypervector>& hvs,
                                         thread_pool* pool) {
  const std::uint64_t dim = hvs.empty() ? 1 : hvs.front().dim();
  return pairwise_impl<q16>(
      hvs, [dim](std::uint32_t count) { return q16::from_ratio(count, dim); }, pool);
}

}  // namespace spechd::hdc
