// Open Modification Search (OMS): an immutable HV spectral library with
// shifted-bucket top-k retrieval — the serving tier's second workload.
//
// The sibling papers (RapidOMS, arxiv 2409.13361; Kang et al., arxiv
// 2211.16422) run spectral *library search* on the same binary-HV substrate
// as clustering: encode a reference library of identified spectra, then
// match queries by Hamming distance. The open-modification twist is the
// candidate walk — a modified peptide's precursor mass is shifted by the
// modification mass, so instead of requiring exact bucket equality the
// query probes every bucket whose key falls inside ± a modification-mass
// window around its own precursor mass:
//
//   query ──encode──▶ HV ──┐
//                          ▼
//   rows[gid ∈ window] ──hamming_tile_packed──▶ counts ──k_select──▶ top-k hits
//
// Determinism: library ids (gids) are assigned in (bucket key ascending,
// build arrival order), so the buckets of a key window hold one contiguous
// gid range [lo, lo + n) of the library's row block. One Hamming row over
// that range and one k-select over its counts, which breaks count ties
// toward the lowest index, give the *globally least* k candidates under
// the (count, gid) order — independent of shard count, SIMD variant, and
// in-process vs networked transport (the golden tests pin all of these).
//
// On disk the library is a `.sphlib`: one file frame ("SPLB" magic) of the
// field-list codec (ms/spectrum_wire.hpp), written and validated by the
// same frame reader as the state snapshot — magic/version/length/CRC
// checked before any payload field is trusted — around the snapshot
// identity block, so a library built under a different encoder/bucketing
// config is rejected at load with a clear diagnostic. Every count in the
// payload is bounded by the bytes left before anything is allocated, and
// the reader fills the row block in place. save() replaces the file by
// rename (util::replace_file), so a failed save keeps the previous file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/spechd.hpp"
#include "hdc/hypervector.hpp"
#include "ms/peptide.hpp"
#include "ms/spectrum.hpp"
#include "serve/snapshot.hpp"

namespace spechd::serve {

/// One reference entry of the library, in global-id order.
struct library_entry {
  std::string name;           ///< peptide sequence or source spectrum title
  double precursor_mz = 0.0;
  std::int32_t precursor_charge = 0;
  std::int64_t bucket_key = 0;

  friend bool operator==(const library_entry&, const library_entry&) = default;
};

/// One search hit: raw Hamming count (the bit-exact quantity every golden
/// test compares), normalised distance, and the matched entry's metadata.
struct search_hit {
  std::uint32_t id = 0;       ///< global library id
  std::uint32_t hamming = 0;  ///< raw Hamming count against the query HV
  double distance = 1.0;      ///< hamming / dim
  std::int64_t bucket_key = 0;
  double precursor_mz = 0.0;
  std::int32_t precursor_charge = 0;
  std::string name;

  friend bool operator==(const search_hit&, const search_hit&) = default;
};

struct search_result {
  bool encodable = true;           ///< false: query died in preprocessing
  std::uint64_t buckets_probed = 0;  ///< non-empty buckets inside the window
  std::uint64_t candidates = 0;      ///< library entries scored
  std::vector<search_hit> hits;      ///< ascending (hamming, id); size <= k

  friend bool operator==(const search_result&, const search_result&) = default;
};

/// Inclusive bucket-key window of the shifted candidate walk.
struct key_window {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// The window of bucket keys a query probes: every key reachable by
/// shifting the query's bucketing mass (precursor_mz − hydrogen) × charge
/// by at most ±tolerance_da. Guarantees: the exact-match bucket
/// bucket_index(precursor_mz, charge) is always inside the window, the
/// window is symmetric around the query mass, and a tolerance_da that is
/// not positive (NaN included) degenerates to exactly that one key (so
/// zero-tolerance search is bit-identical to an exact-bucket query — the
/// property tests pin this). An edge past the int64 key range (a huge or
/// infinite tolerance) clamps to it, so such a window spans every key.
key_window shifted_key_window(double precursor_mz, int charge, double tolerance_da,
                              const preprocess::bucket_config& config) noexcept;

/// The identity a spectral library pins: the encode/bucket-relevant subset
/// of snapshot_identity, with clustering-only knobs (distance threshold,
/// assign mode, shard count) zeroed so a library serves any service whose
/// encoding matches, regardless of its clustering setup.
snapshot_identity library_identity(const core::spechd_config& config);

/// Immutable bucket-partitioned HV reference library. Build once (from
/// identified spectra or FASTA-digested peptides), then search from any
/// number of threads concurrently — search touches no mutable state.
class spectral_library {
public:
  spectral_library() = default;

  /// Builds from identified spectra (entry names are the spectrum titles).
  /// Encoding runs the full preprocessing chain; spectra the filter drops
  /// are counted in dropped() and excluded. Deterministic in input order.
  static spectral_library from_spectra(const std::vector<ms::spectrum>& spectra,
                                       const core::spechd_config& config);

  /// Builds from peptides: one theoretical spectrum per (peptide, charge),
  /// named "SEQ/z". Deterministic.
  static spectral_library from_peptides(const std::vector<ms::peptide>& peptides,
                                        const std::vector<int>& charges,
                                        const core::spechd_config& config);

  /// Shifted-bucket top-k retrieval for an already-encoded query. The HV's
  /// dimension must match the library's. tolerance_da widens the candidate
  /// walk (0 = exact bucket only); hits come back ascending (hamming, id).
  search_result search(const hdc::hypervector& query, double precursor_mz, int charge,
                       std::size_t top_k, double tolerance_da) const;

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  std::size_t dropped() const noexcept { return dropped_; }
  const snapshot_identity& identity() const noexcept { return identity_; }
  const library_entry& entry(std::size_t gid) const { return entries_.at(gid); }

  /// Writes / reads the `.sphlib` file ("SPLB" magic, version 1, framed
  /// exactly like a `.sphsnap`). load() re-derives every internal
  /// invariant (ascending keys, entry/bucket consistency) and throws
  /// parse_error on any violation — a corrupted, truncated or lying file
  /// can never produce a silently-wrong library.
  void save(const std::string& path) const;
  static spectral_library load(const std::string& path);

private:
  friend struct ms::wire<spectral_library>;

  /// One bucket: entries [base, base + count) of the gid order, whose rows
  /// sit at rows_[base * words_] onward. A window lookup binary-searches
  /// the keys and reads its gid range off the bases.
  struct bucket_block {
    std::int64_t key = 0;
    std::uint32_t base = 0;
    std::uint32_t count = 0;
  };

  static spectral_library assemble(std::vector<library_entry> entries,
                                   std::vector<hdc::hypervector> hvs,
                                   const snapshot_identity& identity,
                                   std::size_t dropped);

  snapshot_identity identity_;
  std::size_t words_ = 0;
  std::vector<library_entry> entries_;  ///< gid order: (bucket key asc, arrival)
  std::vector<std::uint64_t> rows_;     ///< one packed row of words_ words per gid
  std::vector<bucket_block> buckets_;   ///< ascending key
  std::size_t dropped_ = 0;
};

}  // namespace spechd::serve
