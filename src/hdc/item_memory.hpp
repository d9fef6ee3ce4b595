// Item memories: the pre-allocated ID and Level hypervector tables.
//
// Sec. III-B: "Pre-allocated vectors from high-dimensional memory spaces,
// denoted as ID[0,f] for m/z and L[0,q] for intensity, each of size D_hv".
//
//   * ID memory — f independent random HVs, one per quantised m/z bin.
//     Random vectors are pairwise ~orthogonal (Hamming ~ D/2), so distinct
//     m/z bins do not alias.
//   * Level memory — q *correlated* HVs built by progressive bit flipping,
//     so nearby intensity levels have small Hamming distance and the
//     encoding degrades gracefully under intensity noise. L[0] and L[q-1]
//     differ in exactly D/2 bits (orthogonal endpoints), the standard
//     level-encoding construction in the HDC literature.
//
// Both tables are a pure function of (dim, count, seed): hardware
// regenerates them at configuration time instead of storing them off-chip.
// Each is one contiguous, 64-byte-aligned, row-major table, so the encode
// kernel streams rows in place; this header is the only place that knows
// the layout, and at() hands out range-checked rows.
//
// A process holds one copy per key: shared_id_memory/shared_level_memory
// generate a table on its first request and hand every later caller (each
// id_level_encoder — shard clusterers, the query encoder, library builds,
// journal replay) the same immutable table, which lives until the process
// exits. The constructors below stay public for one-off tables and as the
// oracle the cache is tested against.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/arena_pool.hpp"
#include "util/error.hpp"

namespace spechd::hdc {

/// `rows` hypervectors of `dim` bits stored back to back in one 64-byte-
/// aligned allocation: row i is words [i * dim/64, (i + 1) * dim/64).
class hv_table {
public:
  hv_table(std::size_t dim, std::size_t rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t dim() const noexcept { return words_ * 64; }

  std::span<const std::uint64_t> row(std::size_t i) const noexcept {
    return {reinterpret_cast<const std::uint64_t*>(storage_.data()) + i * words_, words_};
  }
  std::span<std::uint64_t> row(std::size_t i) noexcept {
    return {reinterpret_cast<std::uint64_t*>(storage_.data()) + i * words_, words_};
  }

private:
  std::size_t words_;
  std::size_t rows_;
  arena storage_;
};

/// f random ID hypervectors.
class id_memory {
public:
  id_memory(std::size_t dim, std::size_t count, std::uint64_t seed);

  /// Words of ID[i]; throws logic_error when i is out of range.
  std::span<const std::uint64_t> at(std::size_t i) const {
    SPECHD_EXPECTS(i < table_.rows());
    return table_.row(i);
  }
  std::size_t size() const noexcept { return table_.rows(); }
  std::size_t dim() const noexcept { return table_.dim(); }

private:
  hv_table table_;
};

/// q correlated Level hypervectors (progressive flips of a random base).
class level_memory {
public:
  level_memory(std::size_t dim, std::size_t levels, std::uint64_t seed);

  /// Words of L[level]; throws logic_error when level is out of range.
  std::span<const std::uint64_t> at(std::size_t level) const {
    SPECHD_EXPECTS(level < table_.rows());
    return table_.row(level);
  }
  std::size_t size() const noexcept { return table_.rows(); }
  std::size_t dim() const noexcept { return table_.dim(); }

  /// Exact Hamming distance between levels a and b by construction:
  /// |flips(a) - flips(b)| where flips(i) = round(i * D/2 / (q-1)).
  std::size_t expected_hamming(std::size_t a, std::size_t b) const noexcept;

private:
  hv_table table_;
  std::vector<std::size_t> flip_counts_;
};

/// The process-wide ID table for (dim, count, seed): generated on the first
/// call for that key, then shared read-only by every caller until the
/// process exits. Thread-safe; concurrent first calls generate it once. A
/// shape the constructor rejects throws and caches nothing.
std::shared_ptr<const id_memory> shared_id_memory(std::size_t dim, std::size_t count,
                                                  std::uint64_t seed);

/// The process-wide Level table for (dim, levels, seed); as shared_id_memory.
std::shared_ptr<const level_memory> shared_level_memory(std::size_t dim, std::size_t levels,
                                                        std::uint64_t seed);

/// Row bytes (rows × dim/8) of every table the process-wide cache holds.
std::size_t shared_item_memory_bytes();

}  // namespace spechd::hdc
