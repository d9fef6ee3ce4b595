#include "hdc/item_memory.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <tuple>

#include "util/rng.hpp"

namespace spechd::hdc {

namespace {

// Validates the shape before anything is allocated.
std::size_t table_bytes(std::size_t dim, std::size_t rows) {
  SPECHD_EXPECTS(dim > 0 && dim % 64 == 0 && rows > 0);
  SPECHD_EXPECTS(rows <= std::numeric_limits<std::size_t>::max() / (dim / 8));
  return rows * (dim / 8);
}

}  // namespace

hv_table::hv_table(std::size_t dim, std::size_t rows)
    : words_(dim / 64), rows_(rows), storage_(table_bytes(dim, rows)) {}

id_memory::id_memory(std::size_t dim, std::size_t count, std::uint64_t seed)
    : table_(dim, count) {
  // Same draw order as one hypervector::random per row.
  xoshiro256ss rng(seed ^ 0x1D1D1D1D1D1D1D1DULL);
  for (std::size_t i = 0; i < count; ++i) {
    for (auto& w : table_.row(i)) w = rng();
  }
}

level_memory::level_memory(std::size_t dim, std::size_t levels, std::uint64_t seed)
    : table_(dim, levels) {
  SPECHD_EXPECTS(levels >= 2);
  xoshiro256ss rng(seed ^ 0x7E7E7E7E7E7E7E7EULL);

  // Random flip order over all D dimensions.
  std::vector<std::uint32_t> order(dim);
  std::iota(order.begin(), order.end(), 0U);
  for (std::size_t i = dim; i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }

  // Row 0 is the random base; every later row starts as a copy of the one
  // before and flips the next dimensions of the order.
  for (auto& w : table_.row(0)) w = rng();
  flip_counts_.reserve(levels);

  const double step = static_cast<double>(dim) / 2.0 / static_cast<double>(levels - 1);
  std::size_t flipped = 0;
  for (std::size_t level = 0; level < levels; ++level) {
    const auto row = table_.row(level);
    if (level > 0) std::ranges::copy(table_.row(level - 1), row.begin());
    const auto target = static_cast<std::size_t>(step * static_cast<double>(level) + 0.5);
    while (flipped < target && flipped < dim) {
      row[order[flipped] / 64] ^= 1ULL << (order[flipped] % 64);
      ++flipped;
    }
    flip_counts_.push_back(flipped);
  }
}

std::size_t level_memory::expected_hamming(std::size_t a, std::size_t b) const noexcept {
  const auto fa = flip_counts_[std::min(a, flip_counts_.size() - 1)];
  const auto fb = flip_counts_[std::min(b, flip_counts_.size() - 1)];
  return fa > fb ? fa - fb : fb - fa;
}

namespace {

using table_key = std::tuple<std::size_t, std::size_t, std::uint64_t>;  // dim, rows, seed

struct item_memory_cache {
  std::mutex mutex;
  std::map<table_key, std::shared_ptr<const id_memory>> ids;
  std::map<table_key, std::shared_ptr<const level_memory>> levels;
  std::size_t bytes = 0;
};

item_memory_cache& cache() {
  // Leaked on purpose, like the metrics registry: the tables live until the
  // process exits, and no exit-time destructor can pull one from under a
  // late caller.
  static auto* self = new item_memory_cache();
  return *self;
}

// Generates under the cache lock, so concurrent first callers of one key
// wait for a single table; a constructor that throws inserts nothing.
template <typename Memory>
std::shared_ptr<const Memory> shared_table(
    item_memory_cache& c, std::map<table_key, std::shared_ptr<const Memory>>& tables,
    std::size_t dim, std::size_t rows, std::uint64_t seed) {
  std::lock_guard lock(c.mutex);
  const table_key key{dim, rows, seed};
  if (const auto it = tables.find(key); it != tables.end()) return it->second;
  std::shared_ptr<const Memory> table = std::make_shared<Memory>(dim, rows, seed);
  tables.emplace(key, table);
  c.bytes += rows * (dim / 8);
  return table;
}

}  // namespace

std::shared_ptr<const id_memory> shared_id_memory(std::size_t dim, std::size_t count,
                                                  std::uint64_t seed) {
  auto& c = cache();
  return shared_table(c, c.ids, dim, count, seed);
}

std::shared_ptr<const level_memory> shared_level_memory(std::size_t dim, std::size_t levels,
                                                        std::uint64_t seed) {
  auto& c = cache();
  return shared_table(c, c.levels, dim, levels, seed);
}

std::size_t shared_item_memory_bytes() {
  auto& c = cache();
  std::lock_guard lock(c.mutex);
  return c.bytes;
}

}  // namespace spechd::hdc
