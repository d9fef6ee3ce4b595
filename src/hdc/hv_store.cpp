#include "hdc/hv_store.hpp"

#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "util/error.hpp"
#include "util/io.hpp"

namespace spechd::hdc {

namespace {

hv_store parse_store(const std::string& bytes, const std::string& source) {
  hv_store store;
  std::string why;
  ms::wire_reader reader{{bytes.data(), bytes.size()}, &why};
  if (!reader(store)) {
    if (why.empty()) why = "truncated hv_store (its count or dimension runs past its bytes)";
    throw parse_error(source, 0, why);
  }
  if (!reader.done()) throw parse_error(source, 0, "trailing bytes after the hv_store");
  return store;
}

}  // namespace

hv_store::hv_store(std::size_t dim, std::uint64_t encoder_seed)
    : dim_(dim), seed_(encoder_seed) {
  SPECHD_EXPECTS(dim > 0 && dim % 64 == 0);
}

void hv_store::append(hv_record record) {
  SPECHD_EXPECTS(record.hv.dim() == dim_);
  records_.push_back(std::move(record));
}

std::size_t hv_store::file_bytes() const noexcept {
  ms::wire_sizer size;
  size(*this);
  return size.bytes;
}

void hv_store::save(std::ostream& out) const {
  const auto bytes = ms::encode_fields([this](auto& v) { return v(*this); });
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw io_error("hv_store write failure");
}

void hv_store::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw io_error("cannot create hv_store file: " + path);
  save(out);
}

hv_store hv_store::load(std::istream& in, const std::string& source_name) {
  const std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return parse_store(bytes, source_name);
}

hv_store hv_store::load_file(const std::string& path) {
  const auto bytes = util::read_file(path);
  if (!bytes) throw io_error("cannot open hv_store file: " + path);
  return parse_store(*bytes, path);
}

}  // namespace spechd::hdc
