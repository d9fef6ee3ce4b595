#include "serve/search.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "hdc/cpu_kernels.hpp"
#include "hdc/encoder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "preprocess/bucket.hpp"
#include "preprocess/pipeline.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"

/// The .sphlib payload: the identity block, u64 entry count, u64 bucket
/// count, then per bucket (ascending key) i64 key, u32 count, `count`
/// entries {name, f64 precursor m/z, i32 charge} in gid order, and the
/// bucket's `count` packed rows of dim/64 words. The reader reads each
/// bucket's rows straight into the library's row block.
template <>
struct spechd::ms::wire<spechd::serve::spectral_library> {
  template <typename V, typename L>
  static bool fields(V& v, L& lib) {
    auto entry_count = static_cast<std::uint64_t>(lib.entries_.size());
    auto bucket_count = static_cast<std::uint64_t>(lib.buckets_.size());
    if (!v(lib.identity_, entry_count, bucket_count)) return false;
    const std::size_t row_words = lib.identity_.dim / 64;
    // Every entry takes at least its name length, m/z, charge and row.
    const std::size_t entry_bytes = 4 + 8 + 4 + row_words * 8;
    if constexpr (V::reads) {
      if (!v.fits(entry_count, entry_bytes)) return false;
      lib.entries_.reserve(entry_count);
      lib.rows_.reserve(entry_count * row_words);
    }
    return v(given(bucket_count, lib.buckets_, [&](auto& v, auto& block) {
             if (!v(block.key, block.count)) return false;
             if constexpr (std::remove_reference_t<decltype(v)>::reads) {
               block.base = static_cast<std::uint32_t>(lib.entries_.size());
               if (!v.fits(block.count, entry_bytes)) return false;
               serve::library_entry blank;
               blank.bucket_key = block.key;
               lib.entries_.resize(lib.entries_.size() + block.count, blank);
               lib.rows_.resize(lib.entries_.size() * row_words);
             }
             for (auto& e : std::span(lib.entries_).subspan(block.base, block.count)) {
               if (!v(e.name, e.precursor_mz, e.precursor_charge)) return false;
             }
             return v(words(lib.rows_.data() + std::size_t{block.base} * row_words,
                            std::size_t{block.count} * row_words));
           })) &&
           v.valid(lib.entries_.size() == entry_count,
                   "library entry count does not match its bucket contents");
  }
};

namespace spechd::serve {

namespace {

constexpr ms::file_format k_format{
    {'S', 'P', 'L', 'B'}, 1, "spectral library", ".sphlib", /*short_length=*/false,
    1ULL << 40};

}  // namespace

key_window shifted_key_window(double precursor_mz, int charge, double tolerance_da,
                              const preprocess::bucket_config& config) noexcept {
  const std::int64_t exact = preprocess::bucket_index(precursor_mz, charge, config);
  if (!(tolerance_da > 0.0)) return {exact, exact};  // NaN too
  // Eq. 1 buckets the (neutral-ish) mass (mz − H) × charge; an open
  // modification shifts that mass, not the m/z, so the window is ±tolerance
  // on the same scale the keys live on.
  const int c = charge > 0 ? charge : config.fallback_charge;
  const double mass = (precursor_mz - ms::hydrogen_mass) * c;
  // Guard floating-point edge cases: the exact-match bucket is always in.
  return {std::min(preprocess::floor_key((mass - tolerance_da) / config.resolution), exact),
          std::max(preprocess::floor_key((mass + tolerance_da) / config.resolution), exact)};
}

snapshot_identity library_identity(const core::spechd_config& config) {
  snapshot_identity id;
  id.dim = static_cast<std::uint32_t>(config.encoder.dim);
  id.encoder_seed = config.encoder.seed;
  // Clustering-only knobs stay zero: a library is valid for any service
  // that *encodes and buckets* the same way, whatever its threshold or
  // shard count.
  id.distance_threshold = 0.0;
  id.bucket_resolution = config.preprocess.bucketing.resolution;
  id.fallback_charge = config.preprocess.bucketing.fallback_charge;
  id.shard_count = 0;
  id.config_digest = pipeline_digest(config);
  return id;
}

spectral_library spectral_library::from_spectra(const std::vector<ms::spectrum>& spectra,
                                                const core::spechd_config& config) {
  auto batch = preprocess::run_preprocessing(spectra, config.preprocess);
  const hdc::id_level_encoder encoder(config.encoder,
                                      config.preprocess.quantize.mz_bins,
                                      config.preprocess.quantize.intensity_levels);
  std::vector<library_entry> entries;
  std::vector<hdc::hypervector> hvs;
  entries.reserve(batch.spectra.size());
  hvs.reserve(batch.spectra.size());
  for (const auto& q : batch.spectra) {
    library_entry e;
    e.name = spectra[q.source_index].title;
    e.precursor_mz = q.precursor_mz;
    e.precursor_charge = q.precursor_charge;
    e.bucket_key =
        preprocess::bucket_index(q.precursor_mz, q.precursor_charge,
                                 config.preprocess.bucketing);
    entries.push_back(std::move(e));
    hvs.push_back(encoder.encode(q));
  }
  return assemble(std::move(entries), std::move(hvs), library_identity(config),
                  batch.dropped);
}

spectral_library spectral_library::from_peptides(const std::vector<ms::peptide>& peptides,
                                                 const std::vector<int>& charges,
                                                 const core::spechd_config& config) {
  std::vector<ms::spectrum> spectra;
  spectra.reserve(peptides.size() * charges.size());
  for (const auto& p : peptides) {
    for (const int z : charges) {
      auto s = ms::theoretical_spectrum(p, z);
      s.title = p.sequence() + "/" + std::to_string(z);
      spectra.push_back(std::move(s));
    }
  }
  return from_spectra(spectra, config);
}

spectral_library spectral_library::assemble(std::vector<library_entry> entries,
                                            std::vector<hdc::hypervector> hvs,
                                            const snapshot_identity& identity,
                                            std::size_t dropped) {
  spectral_library lib;
  lib.identity_ = identity;
  lib.words_ = (identity.dim + 63) / 64;
  lib.dropped_ = dropped;
  // Canonical gid order: (bucket key ascending, build arrival order). The
  // stable sort over an arrival-indexed permutation makes gids — and
  // therefore every tie-break downstream — a pure function of the input,
  // independent of how the caller shards or threads anything.
  std::vector<std::uint32_t> order(entries.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&entries](std::uint32_t a, std::uint32_t b) {
                     return entries[a].bucket_key < entries[b].bucket_key;
                   });
  lib.entries_.reserve(entries.size());
  lib.rows_.reserve(entries.size() * lib.words_);
  for (const auto src : order) {
    const auto& e = entries[src];
    if (lib.buckets_.empty() || lib.buckets_.back().key != e.bucket_key) {
      lib.buckets_.push_back({e.bucket_key, static_cast<std::uint32_t>(lib.entries_.size()), 0});
    }
    lib.buckets_.back().count += 1;
    const auto words = hvs[src].words();
    lib.rows_.insert(lib.rows_.end(), words.begin(), words.end());
    lib.entries_.push_back(entries[src]);
  }
  return lib;
}

search_result spectral_library::search(const hdc::hypervector& query, double precursor_mz,
                                       int charge, std::size_t top_k,
                                       double tolerance_da) const {
  if (query.dim() != identity_.dim) {
    throw spechd::error("query hypervector dimension " + std::to_string(query.dim()) +
                        " does not match library dimension " +
                        std::to_string(identity_.dim));
  }
  search_result result;
  if (top_k == 0 || buckets_.empty()) return result;
  preprocess::bucket_config bucketing;
  bucketing.resolution = identity_.bucket_resolution;
  bucketing.fallback_charge = identity_.fallback_charge;
  const auto window = shifted_key_window(precursor_mz, charge, tolerance_da, bucketing);

  // The window's buckets hold one gid range [lo, lo + n): one packed
  // Hamming row over its rows, then one k-select, whose lowest-index tie
  // break is the (count, gid) order.
  static auto& probe_ns =
      obs::registry::instance().histogram("spechd_search_bucket_probe_ns");
  static auto& kselect_ns =
      obs::registry::instance().histogram("spechd_search_k_select_ns");
  static auto& merge_ns =
      obs::registry::instance().histogram("spechd_search_merge_ns");

  obs::trace_span probe_span(probe_ns, obs::stage::bucket_probe);
  const auto first = std::lower_bound(
      buckets_.begin(), buckets_.end(), window.lo,
      [](const bucket_block& b, std::int64_t key) { return b.key < key; });
  const auto last = std::upper_bound(
      first, buckets_.end(), window.hi,
      [](std::int64_t key, const bucket_block& b) { return key < b.key; });
  const auto base_of = [this](auto it) {
    return it == buckets_.end() ? entries_.size() : std::size_t{it->base};
  };
  const std::size_t lo = base_of(first);
  const std::size_t n = base_of(last) - lo;
  result.buckets_probed = static_cast<std::uint64_t>(last - first);
  result.candidates = n;
  std::vector<std::uint32_t> counts(n);
  hdc::kernels::hamming_tile_packed(query.words().data(), 1, rows_.data() + lo * words_, n,
                                    words_, counts.data());
  probe_span.finish();

  obs::trace_span kselect_span(kselect_ns, obs::stage::k_select);
  std::vector<hdc::kernels::select_entry> selected(std::min(top_k, n));
  selected.resize(hdc::kernels::k_select(counts.data(), n, top_k, selected.data()));
  kselect_span.finish();

  obs::trace_span merge_span(merge_ns, obs::stage::merge);
  result.hits.reserve(selected.size());
  for (const auto& s : selected) {
    const auto gid = static_cast<std::uint32_t>(lo + s.index);
    const auto& e = entries_[gid];
    search_hit hit;
    hit.id = gid;
    hit.hamming = s.count;
    hit.distance = static_cast<double>(s.count) / static_cast<double>(identity_.dim);
    hit.bucket_key = e.bucket_key;
    hit.precursor_mz = e.precursor_mz;
    hit.precursor_charge = e.precursor_charge;
    hit.name = e.name;
    result.hits.push_back(std::move(hit));
  }
  return result;
}

void spectral_library::save(const std::string& path) const {
  std::string bytes;
  ms::append_file_frame(bytes, k_format, [this](auto& v) { return v(*this); });
  static util::failpoint fp_open("library.open");
  static util::failpoint fp_write("library.write");
  static util::failpoint fp_fsync("library.fsync");
  static util::failpoint fp_rename("library.rename");
  util::replace_file(path, bytes, {fp_open, fp_write, fp_fsync, fp_rename});
}

spectral_library spectral_library::load(const std::string& path) {
  const auto bytes = util::read_file(path);
  if (!bytes) throw io_error("cannot open library file: " + path);
  spectral_library lib;
  ms::read_framed_file(*bytes, k_format, path, [&lib](auto& v) { return v(lib); });
  lib.words_ = lib.identity_.dim / 64;
  for (std::size_t b = 0; b < lib.buckets_.size(); ++b) {
    if (lib.buckets_[b].count == 0) throw parse_error(path, 0, "library holds an empty bucket");
    if (b > 0 && lib.buckets_[b].key <= lib.buckets_[b - 1].key) {
      throw parse_error(path, 0, "library bucket keys are not strictly ascending");
    }
  }
  return lib;
}

}  // namespace spechd::serve
