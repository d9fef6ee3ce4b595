// Golden bytes for every persisted format: the .sphsnap snapshot of a
// 2-shard service, the .sphlib library, the .sphv store, the journal file
// header, pipeline_digest and canonical_state (with and without scan
// counters), all from fixed inputs. A change to any writer or to the
// encoder shows up here as a changed length or CRC.
//
// A file that ends with the CRC-32 of its payload has the same whole-file
// CRC-32 for every payload of its length, so a framed file is pinned by
// its length plus the CRC-32 of everything before its closing 4 bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "hdc/hv_store.hpp"
#include "ms/synthetic.hpp"
#include "serve/journal.hpp"
#include "serve/search.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/crc32.hpp"

namespace spechd::serve {
namespace {

std::vector<ms::spectrum> fixed_stream() {
  ms::synthetic_config config;
  config.peptide_count = 12;
  config.spectra_per_peptide_mean = 3.0;
  config.noise_peaks_per_spectrum = 10.0;
  config.seed = 2026;
  return ms::generate_dataset(config).spectra;
}

core::spechd_config fixed_config() {
  core::spechd_config config;
  config.encoder.dim = 1024;
  config.threads = 1;
  return config;
}

struct temp_path {
  std::string path;
  explicit temp_path(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("spechd_golden_" + name + "_" + std::to_string(::getpid()))).string()) {}
  ~temp_path() { std::filesystem::remove_all(path); }
};

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct golden {
  std::uint64_t bytes;
  std::uint32_t crc;
};

/// Length plus CRC-32 of all bytes but the closing payload CRC.
void expect_framed(const std::string& bytes, golden want) {
  ASSERT_GE(bytes.size(), 4U);
  EXPECT_EQ(bytes.size(), want.bytes);
  EXPECT_EQ(crc32(bytes.data(), bytes.size() - 4), want.crc);
}

/// Length plus CRC-32 of every byte (for bytes that end in no CRC).
void expect_plain(const std::string& bytes, golden want) {
  EXPECT_EQ(bytes.size(), want.bytes);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), want.crc);
}

clustering_service fixed_service() {
  serve_config sc;
  sc.pipeline = fixed_config();
  sc.shards = 2;
  sc.queue_capacity = 4;
  return clustering_service(sc);
}

void ingest_fixed(clustering_service& service) {
  const auto stream = fixed_stream();
  for (std::size_t i = 0; i < stream.size(); i += 17) {
    const auto stop = std::min(i + 17, stream.size());
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(i),
                    stream.begin() + static_cast<std::ptrdiff_t>(stop)});
  }
}

TEST(FormatGolden, Snapshot) {
  auto service = fixed_service();
  ingest_fixed(service);
  temp_path snap("snapshot");
  service.snapshot_file(snap.path);
  expect_framed(file_bytes(snap.path), {5828, 0xf04b765bu});
  const auto states = service.export_states();
  expect_plain(canonical_state(states), {5424, 0x1b504631u});
  expect_plain(canonical_state(states, /*include_scan=*/false), {5288, 0x2fe114e5u});
}

TEST(FormatGolden, SpectralLibrary) {
  const auto library = spectral_library::from_spectra(fixed_stream(), fixed_config());
  temp_path lib("library");
  library.save(lib.path);
  expect_framed(file_bytes(lib.path), {6197, 0x3c4f213eu});
}

TEST(FormatGolden, HvStore) {
  auto service = fixed_service();
  ingest_fixed(service);
  temp_path store("store");
  service.to_store().save_file(store.path);
  expect_plain(file_bytes(store.path), {5196, 0xcc3de594u});
}

TEST(FormatGolden, JournalHeader) {
  temp_path dir("journal");
  std::filesystem::create_directories(dir.path);
  journal_file_header header;
  header.shard_index = 1;
  header.shard_count = 2;
  header.generation = 3;
  header.identity = fixed_service().identity();
  journal_head head;
  head.path = journal_shard_path(dir.path, 1, 3);
  journal_config config;
  config.fsync = false;
  { journal_writer writer(head, header, config); }
  expect_framed(file_bytes(head.path), {76, 0xbd80ae67u});
}

TEST(FormatGolden, PipelineDigest) {
  EXPECT_EQ(pipeline_digest(fixed_config()), 0xfa331f9cu);
  auto changed = fixed_config();
  changed.preprocess.top_k = 30;
  changed.preprocess.normalize.unit_norm = false;
  changed.preprocess.quantize.mz_bins = 17000;
  changed.use_fixed_point = false;
  EXPECT_EQ(pipeline_digest(changed), 0x591a7a3cu);
}

}  // namespace
}  // namespace spechd::serve
