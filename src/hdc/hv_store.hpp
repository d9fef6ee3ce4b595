// Persistent hypervector store.
//
// Sec. IV-B: "By storing spectral data in the hyperdimensional space, we
// achieve significant data compression ... One-time preprocessing and
// subsequent updates, therefore, emerge as a promising approach for
// enhancing real-time data analysis."
//
// The store is the on-disk artefact that makes that workflow concrete: a
// compact binary file holding, per spectrum, the D_hv-bit hypervector plus
// the metadata clustering needs (precursor m/z, charge, scan, label). A
// repository keeps the store instead of raw peak lists (24-108x smaller)
// and re-clusters or appends without re-encoding.
//
// Format (little-endian), one field list of the codec in
// ms/spectrum_wire.hpp (wire<hv_store> below). A `.sphv` file holds it
// alone; each shard of a `.sphsnap` snapshot embeds it.
//   magic  "SPHV"            4 B
//   version u32              (currently 1)
//   dim     u32              bits per HV (multiple of 64)
//   count   u64              number of records
//   seed    u64              item-memory seed the HVs were encoded with
//   records: count x { precursor_mz f64, charge i32, scan u32, label i32,
//                      pad u32, words dim/64 x u64 }
// A `.sphv` carries no CRC, so the reader trusts nothing it cannot bound:
// the dimension must be a multiple of 64 no larger than hdc::k_max_dim,
// and the record count must fit the bytes left before any record is
// allocated. save_file() replaces the file by rename (util::replace_file),
// so a failed save keeps the previous file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hdc/hypervector.hpp"
#include "ms/spectrum_wire.hpp"

namespace spechd::hdc {

/// One stored record: hypervector + clustering metadata.
struct hv_record {
  hypervector hv;
  double precursor_mz = 0.0;
  std::int32_t precursor_charge = 0;
  std::uint32_t scan = 0;
  std::int32_t label = -1;
};

/// In-memory representation of a store file.
class hv_store {
public:
  hv_store() = default;

  /// Creates an empty store for `dim`-bit vectors encoded with `seed`.
  hv_store(std::size_t dim, std::uint64_t encoder_seed);

  std::size_t dim() const noexcept { return dim_; }
  std::uint64_t encoder_seed() const noexcept { return seed_; }
  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }

  const hv_record& at(std::size_t i) const { return records_.at(i); }
  const std::vector<hv_record>& records() const noexcept { return records_; }

  /// Appends a record; the vector's dimension must match the store's.
  void append(hv_record record);

  /// Byte size of the serialised store (header + records).
  std::size_t file_bytes() const noexcept;

  /// Serialisation. Throws spechd::io_error / parse_error on failure; a
  /// loaded store must end exactly where its records do.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  static hv_store load(std::istream& in, const std::string& source_name = "<hv_store>");
  static hv_store load_file(const std::string& path);

private:
  friend struct ms::wire<hv_store>;

  std::size_t dim_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<hv_record> records_;
};

}  // namespace spechd::hdc

template <>
struct spechd::ms::wire<spechd::hdc::hv_store> {
  template <typename V, typename S>
  static bool fields(V& v, S& s) {
    char magic[4] = {'S', 'P', 'H', 'V'};
    std::uint32_t version = 1;
    auto count = static_cast<std::uint64_t>(s.records_.size());
    if (!v(magic) || !v.valid(std::memcmp(magic, "SPHV", 4) == 0,
                              "not an hv_store file (bad magic)") ||
        !v(version) ||
        !v.valid(version == 1,
                 [&] { return "unsupported hv_store version " + std::to_string(version); }) ||
        !v(as<std::uint32_t>(s.dim_)) ||
        !v.valid(hdc::dim_in_range(s.dim_),
                 [&] {
                   return "hv_store dimension " + std::to_string(s.dim_) +
                          " is not a positive multiple of 64 up to " +
                          std::to_string(hdc::k_max_dim);
                 }) ||
        !v(count, s.seed_)) {
      return false;
    }
    const std::size_t dim = s.dim_;
    return v(given(count, s.records_, [dim](auto& v, auto& r) {
      std::uint32_t pad = 0;  // reserved
      if constexpr (std::remove_reference_t<decltype(v)>::reads) r.hv = hdc::hypervector(dim);
      return v(r.precursor_mz, r.precursor_charge, r.scan, r.label, pad,
               words(r.hv.words().data(), dim / 64));
    }));
  }
};
