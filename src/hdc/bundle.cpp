#include "hdc/bundle.hpp"

namespace spechd::hdc {

hypervector bundle_majority(std::span<const hypervector> inputs) {
  SPECHD_EXPECTS(!inputs.empty());
  incremental_bundle bundle(inputs.front().dim());
  for (const auto& hv : inputs) bundle.add(hv.words());
  return bundle.majority();
}

incremental_bundle::incremental_bundle(std::size_t dim) : dim_(dim), acc_(dim / 64) {
  SPECHD_EXPECTS(dim > 0 && dim % 64 == 0);
}

void incremental_bundle::add(std::span<const std::uint64_t> hv) {
  SPECHD_EXPECTS(hv.size() * 64 == dim_);
  if (empty()) first_ = hypervector(hv);
  acc_.add(hv.data());
}

hypervector incremental_bundle::majority() const {
  SPECHD_EXPECTS(!empty());
  hypervector out(dim_);
  acc_.majority(first_.words().data(), out.words().data());
  return out;
}

}  // namespace spechd::hdc
