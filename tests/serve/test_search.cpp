// Open-modification search property layer: the shifted-bucket walk's
// window guarantees (exact-match bucket always probed, symmetric around
// the precursor mass, zero tolerance degenerates to the exact bucket
// bit-for-bit), spectral_library search pinned field-for-field against an
// independent brute-force oracle, shard-count independence of
// service-level search, and the .sphlib snapshot's round-trip/corruption/
// identity-validation behaviour.
#include "serve/search.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "hdc/encoder.hpp"
#include "ms/fasta.hpp"
#include "ms/synthetic.hpp"
#include "preprocess/bucket.hpp"
#include "preprocess/pipeline.hpp"
#include "serve/service.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace spechd::serve {
namespace {

std::vector<ms::spectrum> sample_stream(std::size_t peptides = 24,
                                        std::uint64_t seed = 77) {
  ms::synthetic_config config;
  config.peptide_count = peptides;
  config.spectra_per_peptide_mean = 3.0;
  config.noise_peaks_per_spectrum = 20.0;
  config.seed = seed;
  return ms::generate_dataset(config).spectra;
}

core::spechd_config small_config() {
  core::spechd_config config;
  config.encoder.dim = 1024;
  config.threads = 1;
  return config;
}

struct temp_path {
  std::string path;
  explicit temp_path(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("spechd_search_" + name + "_" + std::to_string(::getpid()))).string()) {}
  ~temp_path() { std::remove(path.c_str()); }
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Encodes one query spectrum exactly like the library build does;
/// nullopt when preprocessing drops it.
std::optional<hdc::hypervector> encode_query(const ms::spectrum& s,
                                             const core::spechd_config& config,
                                             double& mz, int& charge) {
  auto batch = preprocess::run_preprocessing({s}, config.preprocess);
  if (batch.spectra.empty()) return std::nullopt;
  const hdc::id_level_encoder encoder(config.encoder,
                                      config.preprocess.quantize.mz_bins,
                                      config.preprocess.quantize.intensity_levels);
  mz = batch.spectra.front().precursor_mz;
  charge = batch.spectra.front().precursor_charge;
  return encoder.encode(batch.spectra.front());
}

/// Independent re-derivation of the library's gid-ordered contents —
/// same preprocessing/encoding/ordering rules, none of the library code.
struct oracle_library {
  std::vector<library_entry> entries;  ///< gid order
  std::vector<hdc::hypervector> hvs;   ///< gid order
};

oracle_library build_oracle(const std::vector<ms::spectrum>& spectra,
                            const core::spechd_config& config) {
  auto batch = preprocess::run_preprocessing(spectra, config.preprocess);
  const hdc::id_level_encoder encoder(config.encoder,
                                      config.preprocess.quantize.mz_bins,
                                      config.preprocess.quantize.intensity_levels);
  std::vector<library_entry> entries;
  std::vector<hdc::hypervector> hvs;
  for (const auto& q : batch.spectra) {
    library_entry e;
    e.name = spectra[q.source_index].title;
    e.precursor_mz = q.precursor_mz;
    e.precursor_charge = q.precursor_charge;
    e.bucket_key = preprocess::bucket_index(q.precursor_mz, q.precursor_charge,
                                            config.preprocess.bucketing);
    entries.push_back(std::move(e));
    hvs.push_back(encoder.encode(q));
  }
  std::vector<std::uint32_t> order(entries.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&entries](std::uint32_t a, std::uint32_t b) {
                     return entries[a].bucket_key < entries[b].bucket_key;
                   });
  oracle_library lib;
  for (const auto i : order) {
    lib.entries.push_back(entries[i]);
    lib.hvs.push_back(hvs[i]);
  }
  return lib;
}

/// Brute-force reference search: full Hamming against every candidate in
/// the window, total (count, gid) sort — no tiles, no k-select, no bucket
/// blocks. spectral_library::search must match this field for field.
search_result oracle_search(const oracle_library& lib, const hdc::hypervector& query,
                            double mz, int charge, std::size_t top_k, double tolerance,
                            const core::spechd_config& config) {
  const auto window =
      shifted_key_window(mz, charge, tolerance, config.preprocess.bucketing);
  search_result result;
  std::set<std::int64_t> probed;
  std::vector<std::uint64_t> keys;
  for (std::size_t gid = 0; gid < lib.entries.size(); ++gid) {
    const auto key = lib.entries[gid].bucket_key;
    if (key < window.lo || key > window.hi) continue;
    probed.insert(key);
    result.candidates += 1;
    const auto count = hdc::hamming(query, lib.hvs[gid]);
    keys.push_back((static_cast<std::uint64_t>(count) << 32) | gid);
  }
  result.buckets_probed = probed.size();
  std::sort(keys.begin(), keys.end());
  keys.resize(std::min(top_k, keys.size()));
  for (const auto key : keys) {
    const auto gid = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
    const auto& e = lib.entries[gid];
    search_hit hit;
    hit.id = gid;
    hit.hamming = static_cast<std::uint32_t>(key >> 32);
    hit.distance = static_cast<double>(hit.hamming) /
                   static_cast<double>(config.encoder.dim);
    hit.bucket_key = e.bucket_key;
    hit.precursor_mz = e.precursor_mz;
    hit.precursor_charge = e.precursor_charge;
    hit.name = e.name;
    result.hits.push_back(std::move(hit));
  }
  return result;
}

// --- shifted_key_window properties -------------------------------------------

TEST(ShiftedKeyWindow, ExactMatchBucketAlwaysInside) {
  preprocess::bucket_config bucketing;
  xoshiro256ss rng(20260808);
  for (int i = 0; i < 2000; ++i) {
    const double mz = 101.0 + static_cast<double>(rng.bounded(1800 * 1000)) / 1000.0;
    const int charge = static_cast<int>(rng.bounded(5));  // 0 exercises fallback
    const double tolerance = static_cast<double>(rng.bounded(40000)) / 1000.0 - 5.0;
    const auto exact = preprocess::bucket_index(mz, charge, bucketing);
    const auto window = shifted_key_window(mz, charge, tolerance, bucketing);
    ASSERT_LE(window.lo, exact) << "mz=" << mz << " z=" << charge << " tol=" << tolerance;
    ASSERT_GE(window.hi, exact) << "mz=" << mz << " z=" << charge << " tol=" << tolerance;
  }
}

TEST(ShiftedKeyWindow, SymmetricAroundPrecursorMass) {
  // The window's ends are the buckets of (mass − tol) and (mass + tol):
  // shifting the query mass down or up by the same tolerance reaches
  // exactly the window edge on each side.
  preprocess::bucket_config bucketing;
  xoshiro256ss rng(42);
  for (int i = 0; i < 2000; ++i) {
    const double mz = 150.0 + static_cast<double>(rng.bounded(1500 * 1000)) / 1000.0;
    const int charge = 1 + static_cast<int>(rng.bounded(4));
    const double tolerance = 0.001 + static_cast<double>(rng.bounded(30000)) / 1000.0;
    const auto window = shifted_key_window(mz, charge, tolerance, bucketing);
    const double mass = (mz - ms::hydrogen_mass) * charge;
    const double shifted_lo_mz = (mass - tolerance) / charge + ms::hydrogen_mass;
    const double shifted_hi_mz = (mass + tolerance) / charge + ms::hydrogen_mass;
    EXPECT_EQ(window.lo, preprocess::bucket_index(shifted_lo_mz, charge, bucketing))
        << "mz=" << mz << " z=" << charge << " tol=" << tolerance;
    EXPECT_EQ(window.hi, preprocess::bucket_index(shifted_hi_mz, charge, bucketing))
        << "mz=" << mz << " z=" << charge << " tol=" << tolerance;
  }
}

TEST(ShiftedKeyWindow, ZeroOrNegativeToleranceDegeneratesToExactBucket) {
  preprocess::bucket_config bucketing;
  xoshiro256ss rng(7);
  for (int i = 0; i < 500; ++i) {
    const double mz = 101.0 + static_cast<double>(rng.bounded(1800 * 100)) / 100.0;
    const int charge = static_cast<int>(rng.bounded(4));
    const auto exact = preprocess::bucket_index(mz, charge, bucketing);
    for (const double tolerance :
         {0.0, -1.0, -1e9, std::numeric_limits<double>::quiet_NaN()}) {
      const auto window = shifted_key_window(mz, charge, tolerance, bucketing);
      ASSERT_EQ(window.lo, exact);
      ASSERT_EQ(window.hi, exact);
    }
  }
}

// --- library search vs the brute-force oracle --------------------------------

TEST(Search, MatchesBruteForceOracleAcrossTolerancesAndK) {
  const auto config = small_config();
  const auto reference = sample_stream(24, 77);
  const auto lib = spectral_library::from_spectra(reference, config);
  const auto oracle = build_oracle(reference, config);
  ASSERT_EQ(lib.size(), oracle.entries.size());

  // The loader fills the row block in place: search what it read too.
  temp_path file("oracle");
  lib.save(file.path);
  const auto loaded = spectral_library::load(file.path);

  const auto queries = sample_stream(12, 123);  // different seed: near-misses
  std::size_t checked = 0;
  for (const auto& q : queries) {
    double mz = 0.0;
    int charge = 0;
    const auto hv = encode_query(q, config, mz, charge);
    if (!hv) continue;
    for (const double tolerance : {0.0, 0.5, 2.5, 25.0, 250.0}) {
      for (const std::size_t top_k : {1UL, 3UL, 17UL}) {
        const auto want = oracle_search(oracle, *hv, mz, charge, top_k, tolerance,
                                        config);
        ASSERT_EQ(lib.search(*hv, mz, charge, top_k, tolerance), want)
            << q.title << " tol=" << tolerance << " k=" << top_k;
        ASSERT_EQ(loaded.search(*hv, mz, charge, top_k, tolerance), want)
            << "loaded: " << q.title << " tol=" << tolerance << " k=" << top_k;
        ++checked;
      }
    }
  }
  ASSERT_GT(checked, 0U);
}

TEST(Search, ZeroToleranceReproducesExactBucketBitForBit) {
  // tolerance 0 must walk exactly one bucket — the query's own — and its
  // results must be bit-identical to a brute-force scan restricted to
  // entries with that exact bucket key.
  const auto config = small_config();
  const auto reference = sample_stream(20, 9);
  const auto lib = spectral_library::from_spectra(reference, config);
  const auto oracle = build_oracle(reference, config);
  std::size_t nonempty = 0;
  for (const auto& q : reference) {
    double mz = 0.0;
    int charge = 0;
    const auto hv = encode_query(q, config, mz, charge);
    if (!hv) continue;
    const auto got = lib.search(*hv, mz, charge, 8, 0.0);
    const auto want = oracle_search(oracle, *hv, mz, charge, 8, 0.0, config);
    ASSERT_EQ(got, want) << q.title;
    ASSERT_LE(got.buckets_probed, 1U) << q.title;
    const auto exact = preprocess::bucket_index(mz, charge,
                                                config.preprocess.bucketing);
    for (const auto& hit : got.hits) ASSERT_EQ(hit.bucket_key, exact);
    nonempty += got.hits.empty() ? 0 : 1;
  }
  ASSERT_GT(nonempty, 0U);
}

TEST(Search, LibrarySpectrumFindsItselfAtHammingZero) {
  const auto config = small_config();
  const auto reference = sample_stream(16, 31);
  const auto lib = spectral_library::from_spectra(reference, config);
  std::size_t checked = 0;
  for (const auto& q : reference) {
    double mz = 0.0;
    int charge = 0;
    const auto hv = encode_query(q, config, mz, charge);
    if (!hv) continue;
    const auto r = lib.search(*hv, mz, charge, 1, 0.0);
    ASSERT_FALSE(r.hits.empty()) << q.title;
    EXPECT_EQ(r.hits.front().hamming, 0U) << q.title;
    ++checked;
  }
  ASSERT_GT(checked, 0U);
}

TEST(Search, TopKZeroAndOversizedKBehave) {
  const auto config = small_config();
  const auto reference = sample_stream(8, 3);
  const auto lib = spectral_library::from_spectra(reference, config);
  const auto& any = reference.front();
  double mz = 0.0;
  int charge = 0;
  const auto hv = encode_query(any, config, mz, charge);
  ASSERT_TRUE(hv.has_value());
  EXPECT_TRUE(lib.search(*hv, mz, charge, 0, 100.0).hits.empty());
  // A tolerance past the int64 key range clamps to it instead of
  // overflowing the key cast.
  for (const double tolerance : {1e9, 1e300, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(tolerance);
    const auto all = lib.search(*hv, mz, charge, 1 << 20, tolerance);
    EXPECT_EQ(all.hits.size(), lib.size());  // window spans everything
    EXPECT_EQ(all.buckets_probed, lib.bucket_count());
    EXPECT_TRUE(std::is_sorted(all.hits.begin(), all.hits.end(),
                               [](const search_hit& a, const search_hit& b) {
                                 return std::make_pair(a.hamming, a.id) <
                                        std::make_pair(b.hamming, b.id);
                               }));
  }
}

TEST(Search, TiesAcrossBucketsResolveToTheLowestGids) {
  // One peak list at six precursor masses, one bucket each (arriving in
  // descending mass order), plus a different peak list in the last of
  // those buckets. A window over all six with top_k 3 must return the
  // three lowest gids of the six Hamming-0 ties, ascending: over one gid
  // range that is k_select's lowest-index tie break.
  const auto config = small_config();
  ms::spectrum shared;
  shared.precursor_charge = 2;
  for (int i = 0; i < 40; ++i) {
    shared.peaks.push_back({200.0 + 13.7 * i, 10.0F + static_cast<float>(i % 7)});
  }
  std::vector<ms::spectrum> reference;
  for (int i = 5; i >= 0; --i) {
    auto copy = shared;
    copy.title = "copy" + std::to_string(i);
    copy.precursor_mz = 900.0 + 3.0 * i;  // the bucketed mass moves 6 Da per copy
    reference.push_back(std::move(copy));
  }
  ms::spectrum other = shared;
  other.title = "other";
  other.precursor_mz = 915.0;
  for (auto& p : other.peaks) p.mz += 1.3;
  reference.push_back(std::move(other));
  const auto lib = spectral_library::from_spectra(reference, config);
  ASSERT_EQ(lib.size(), 7U);
  ASSERT_EQ(lib.bucket_count(), 6U);

  auto query = shared;
  query.precursor_mz = 906.0;
  double mz = 0.0;
  int charge = 0;
  const auto hv = encode_query(query, config, mz, charge);
  ASSERT_TRUE(hv.has_value());
  const auto got = lib.search(*hv, mz, charge, 3, 20.0);
  EXPECT_EQ(got.buckets_probed, 6U);
  EXPECT_EQ(got.candidates, 7U);
  ASSERT_EQ(got.hits.size(), 3U);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got.hits[i].id, i);
    EXPECT_EQ(got.hits[i].hamming, 0U);
    EXPECT_EQ(got.hits[i].name, "copy" + std::to_string(i));
  }
  EXPECT_EQ(got, oracle_search(build_oracle(reference, config), *hv, mz, charge, 3, 20.0,
                               config));
}

TEST(Search, FromPeptidesIsDeterministic) {
  const auto config = small_config();
  const std::vector<ms::fasta_entry> fasta{
      {"sp|TEST1", "MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEENFKALVLIAFAQYLQQCPF"},
      {"sp|TEST2", "MTEYKLVVVGAGGVGKSALTIQLIQNHFVDEYDPTIEDSYRKQVVIDGETCLLDILDTAG"},
  };
  const auto peptides = ms::library_from_fasta(fasta, /*missed_cleavages=*/1);
  ASSERT_FALSE(peptides.empty());
  const auto a = spectral_library::from_peptides(peptides, {2, 3}, config);
  const auto b = spectral_library::from_peptides(peptides, {2, 3}, config);
  temp_path pa("pep_a");
  temp_path pb("pep_b");
  a.save(pa.path);
  b.save(pb.path);
  std::ifstream fa(pa.path, std::ios::binary);
  std::ifstream fb(pb.path, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  // Entries are named SEQ/z and every (peptide, charge) pair that survives
  // preprocessing appears.
  EXPECT_EQ(a.size() + a.dropped(), peptides.size() * 2);
}

// --- service-level search ----------------------------------------------------

TEST(Search, ServiceSearchIndependentOfShardCount) {
  const auto config = small_config();
  const auto lib = spectral_library::from_spectra(sample_stream(24, 77), config);
  temp_path file("shards");
  lib.save(file.path);

  const auto queries = sample_stream(10, 55);
  std::vector<search_result> golden;
  for (const std::size_t shards : {1UL, 4UL}) {
    serve_config sc;
    sc.pipeline = config;
    sc.shards = shards;
    clustering_service service(sc);
    EXPECT_FALSE(service.has_library());
    EXPECT_THROW(service.search(queries.front(), 4, 1.0), spechd::error);
    service.load_library(file.path);
    EXPECT_TRUE(service.has_library());
    std::vector<search_result> results;
    for (const auto& q : queries) results.push_back(service.search(q, 4, 2.5));
    if (golden.empty()) {
      golden = std::move(results);
      std::size_t with_hits = 0;
      for (const auto& r : golden) with_hits += r.hits.empty() ? 0 : 1;
      ASSERT_GT(with_hits, 0U);
    } else {
      ASSERT_EQ(results, golden) << shards << " shards";
    }
  }
}

// --- .sphlib snapshot behaviour ----------------------------------------------

TEST(SpectralLibrary, SaveLoadRoundTripIsExact) {
  const auto config = small_config();
  const auto reference = sample_stream(20, 11);
  const auto built = spectral_library::from_spectra(reference, config);
  temp_path file("roundtrip");
  built.save(file.path);
  const auto loaded = spectral_library::load(file.path);

  ASSERT_EQ(loaded.size(), built.size());
  EXPECT_EQ(loaded.bucket_count(), built.bucket_count());
  EXPECT_TRUE(loaded.identity() == built.identity());
  for (std::size_t gid = 0; gid < built.size(); ++gid) {
    ASSERT_EQ(loaded.entry(gid), built.entry(gid)) << "gid " << gid;
  }
  // Search through the loaded library is bit-identical to the built one.
  for (const auto& q : sample_stream(6, 99)) {
    double mz = 0.0;
    int charge = 0;
    const auto hv = encode_query(q, config, mz, charge);
    if (!hv) continue;
    ASSERT_EQ(loaded.search(*hv, mz, charge, 5, 3.0),
              built.search(*hv, mz, charge, 5, 3.0));
  }
}

TEST(SpectralLibrary, CorruptionModesAreRejected) {
  const auto config = small_config();
  const auto built = spectral_library::from_spectra(sample_stream(8, 5), config);
  temp_path file("corrupt");
  built.save(file.path);
  std::ifstream in(file.path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64U);

  const auto write_variant = [&file](const std::string& data) {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // Flipped payload byte: CRC mismatch.
  auto flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  write_variant(flipped);
  EXPECT_THROW(spectral_library::load(file.path), parse_error);

  // Truncation mid-payload.
  write_variant(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(spectral_library::load(file.path), parse_error);

  // Wrong magic — including a *state snapshot's* magic: the two formats
  // share framing but must never be confused for one another.
  auto wrong_magic = bytes;
  wrong_magic[0] = 'S';
  wrong_magic[1] = 'P';
  wrong_magic[2] = 'S';
  wrong_magic[3] = 'N';
  write_variant(wrong_magic);
  EXPECT_THROW(spectral_library::load(file.path), parse_error);

  // Trailing garbage after a valid frame.
  write_variant(bytes + std::string(8, '\x7f'));
  EXPECT_THROW(spectral_library::load(file.path), parse_error);

  std::remove(file.path.c_str());
  EXPECT_THROW(spectral_library::load(file.path), io_error);
}

TEST(SpectralLibrary, RewriteAfterLoadIsByteIdentical) {
  const auto built = spectral_library::from_spectra(sample_stream(8, 5), small_config());
  temp_path first("rewrite_first");
  temp_path second("rewrite_second");
  built.save(first.path);
  spectral_library::load(first.path).save(second.path);
  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(bytes(second.path), bytes(first.path));
}

TEST(SpectralLibrary, LyingEntryCountIsRefusedBeforeAllocating) {
  // A CRC-valid library whose entry count reads 2^40 must be refused as
  // malformed, not allocated for. The count follows the 16-byte frame
  // head and the 44-byte identity block.
  const auto built = spectral_library::from_spectra(sample_stream(8, 5), small_config());
  temp_path file("lying_count");
  built.save(file.path);
  std::string bytes;
  {
    std::ifstream in(file.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::uint64_t count = 1ULL << 40;
  std::memcpy(bytes.data() + 16 + 44, &count, sizeof count);
  const std::uint32_t crc = crc32(bytes.data() + 16, bytes.size() - 20);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof crc);
  std::ofstream(file.path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_THROW(spectral_library::load(file.path), parse_error);
}

TEST(SpectralLibrary, FailedSaveKeepsThePreviousFile) {
  // save() replaces by rename. A failure at any step before the rename
  // leaves the previous library byte-identical and loadable, and no
  // temporary file behind; the directory sync runs after the rename, so
  // a failure there leaves the new library, whole.
  struct failpoint_guard {
    ~failpoint_guard() { util::registry().reset(); }
  } guard;
  const auto config = small_config();
  const auto previous_lib = spectral_library::from_spectra(sample_stream(8, 5), config);
  const auto next_lib = spectral_library::from_spectra(sample_stream(12, 6), config);
  ASSERT_NE(previous_lib.size(), next_lib.size());
  temp_path file("replace");
  temp_path expected("replace_next");
  previous_lib.save(file.path);
  next_lib.save(expected.path);
  const auto previous = read_bytes(file.path);
  for (const std::string site : {"library.open", "library.write", "library.fsync",
                                 "library.rename", "dir.fsync"}) {
    SCOPED_TRACE(site);
    util::registry().reset();
    util::registry().arm_from_spec(site + "=error:ENOSPC");
    EXPECT_THROW(next_lib.save(file.path), util::io_failure);
    util::registry().reset();
    EXPECT_FALSE(std::filesystem::exists(file.path + ".tmp"));
    const bool renamed = site == "dir.fsync";
    EXPECT_EQ(read_bytes(file.path), renamed ? read_bytes(expected.path) : previous);
    EXPECT_EQ(spectral_library::load(file.path).size(),
              renamed ? next_lib.size() : previous_lib.size());
  }
}

TEST(SpectralLibrary, ServiceRejectsMismatchedIdentity) {
  const auto config = small_config();
  const auto built = spectral_library::from_spectra(sample_stream(8, 5), config);
  temp_path file("identity");
  built.save(file.path);

  serve_config mismatched;
  mismatched.pipeline = config;
  mismatched.pipeline.encoder.dim = 2048;  // different encoding
  mismatched.shards = 1;
  clustering_service service(mismatched);
  EXPECT_THROW(service.load_library(file.path), parse_error);
  EXPECT_FALSE(service.has_library());

  // The library identity deliberately ignores clustering-only knobs: a
  // service with a different threshold and shard count still accepts it.
  serve_config clustering_differs;
  clustering_differs.pipeline = config;
  clustering_differs.pipeline.distance_threshold = 0.1;
  clustering_differs.shards = 2;
  clustering_service tolerant(clustering_differs);
  tolerant.load_library(file.path);
  EXPECT_TRUE(tolerant.has_library());
}

}  // namespace
}  // namespace spechd::serve
