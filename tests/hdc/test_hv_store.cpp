#include "hdc/hv_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace spechd::hdc {
namespace {

hv_store sample_store(std::size_t records = 5) {
  hv_store store(512, 0xC0FFEE);
  xoshiro256ss rng(1);
  for (std::size_t i = 0; i < records; ++i) {
    hv_record r;
    r.hv = hypervector::random(512, rng);
    r.precursor_mz = 400.0 + static_cast<double>(i);
    r.precursor_charge = 2 + static_cast<int>(i % 2);
    r.scan = static_cast<std::uint32_t>(i + 1);
    r.label = static_cast<std::int32_t>(i % 3);
    store.append(std::move(r));
  }
  return store;
}

TEST(HvStore, RoundTripPreservesEverything) {
  const auto store = sample_store();
  std::stringstream io;
  store.save(io);
  const auto back = hv_store::load(io);
  ASSERT_EQ(back.size(), store.size());
  EXPECT_EQ(back.dim(), 512U);
  EXPECT_EQ(back.encoder_seed(), 0xC0FFEEULL);
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(back.at(i).hv, store.at(i).hv) << i;
    EXPECT_DOUBLE_EQ(back.at(i).precursor_mz, store.at(i).precursor_mz);
    EXPECT_EQ(back.at(i).precursor_charge, store.at(i).precursor_charge);
    EXPECT_EQ(back.at(i).scan, store.at(i).scan);
    EXPECT_EQ(back.at(i).label, store.at(i).label);
  }
}

TEST(HvStore, FileBytesMatchesSerialisedSize) {
  const auto store = sample_store(7);
  std::stringstream io;
  store.save(io);
  EXPECT_EQ(io.str().size(), store.file_bytes());
}

TEST(HvStore, EmptyStoreRoundTrips) {
  hv_store store(2048, 42);
  std::stringstream io;
  store.save(io);
  const auto back = hv_store::load(io);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.dim(), 2048U);
}

TEST(HvStore, DimensionMismatchOnAppendThrows) {
  hv_store store(512, 1);
  hv_record r;
  r.hv = hypervector(1024);
  EXPECT_THROW(store.append(std::move(r)), logic_error);
}

TEST(HvStore, BadMagicRejected) {
  std::stringstream io;
  io << "NOTAHVSTORE_____________________";
  EXPECT_THROW(hv_store::load(io), parse_error);
}

TEST(HvStore, TruncatedFileRejected) {
  const auto store = sample_store(3);
  std::stringstream io;
  store.save(io);
  const std::string full = io.str();
  std::stringstream truncated(full.substr(0, full.size() - 10));
  EXPECT_THROW(hv_store::load(truncated), parse_error);
}

TEST(HvStore, SaveAfterLoadIsByteIdentical) {
  std::stringstream first;
  sample_store(4).save(first);
  std::stringstream in(first.str());
  std::stringstream second;
  hv_store::load(in).save(second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(HvStore, LyingCountIsRefusedBeforeAllocating) {
  // The u64 record count sits 12 bytes in (after magic, version and dim).
  // A .sphv has no CRC, so one flipped bit is enough to make it lie.
  const auto store = sample_store(3);
  std::stringstream io;
  store.save(io);
  const std::string original = io.str();
  std::uint64_t count = 0;
  std::memcpy(&count, original.data() + 12, sizeof count);
  for (const std::uint64_t lie : {1ULL << 40, count ^ (1ULL << 62)}) {
    SCOPED_TRACE(lie);
    std::string bytes = original;
    std::memcpy(bytes.data() + 12, &lie, sizeof lie);
    std::stringstream in(bytes);
    EXPECT_THROW(hv_store::load(in), parse_error);
  }
}

TEST(HvStore, LyingDimensionIsRefused) {
  // A dimension the bytes cannot hold: refused before a vector that wide
  // is allocated.
  const auto store = sample_store(3);
  std::stringstream io;
  store.save(io);
  std::string bytes = io.str();
  const std::uint32_t dim = 0xFFFFFFC0u;  // 2^32 - 64
  std::memcpy(bytes.data() + 8, &dim, sizeof dim);
  std::stringstream in(bytes);
  EXPECT_THROW(hv_store::load(in), parse_error);
}

TEST(HvStore, EmptyStoreWithOversizedDimensionIsRefused) {
  // A store without records has no bytes to bound its dimension by, and
  // clustering it sizes an item memory by that dimension: a dimension
  // above k_max_dim is refused at load.
  std::stringstream io;
  hv_store(512, 7).save(io);
  std::string bytes = io.str();
  ASSERT_EQ(bytes.size(), 28U);
  const std::uint32_t dim = 1U << 20;
  std::memcpy(bytes.data() + 8, &dim, sizeof dim);
  std::stringstream in(bytes);
  EXPECT_THROW(hv_store::load(in), parse_error);
}

TEST(HvStore, FailedSaveKeepsThePreviousFile) {
  // save_file replaces by rename. A failure at any step before the rename
  // leaves the previous file byte-identical and loadable, and no
  // temporary file behind; the directory sync runs after the rename, so
  // a failure there leaves the new file, whole.
  struct failpoint_guard {
    ~failpoint_guard() { util::registry().reset(); }
  } guard;
  const auto path = (std::filesystem::temp_directory_path() /
                     ("spechd_test_replace_" + std::to_string(::getpid()) + ".sphv"))
                        .string();
  const auto read = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  sample_store(2).save_file(path);
  const auto previous = read();
  const auto next = sample_store(5);
  for (const std::string site : {"hv_store.open", "hv_store.write", "hv_store.fsync",
                                 "hv_store.rename", "dir.fsync"}) {
    SCOPED_TRACE(site);
    util::registry().reset();
    util::registry().arm_from_spec(site + "=error:ENOSPC");
    EXPECT_THROW(next.save_file(path), util::io_failure);
    util::registry().reset();
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    if (site == "dir.fsync") {
      std::stringstream whole;
      next.save(whole);
      EXPECT_EQ(read(), whole.str());
    } else {
      EXPECT_EQ(read(), previous);
      EXPECT_EQ(hv_store::load_file(path).size(), 2U);
    }
  }
  std::remove(path.c_str());
}

TEST(HvStore, MissingFileThrows) {
  EXPECT_THROW(hv_store::load_file("/nonexistent/store.sphv"), io_error);
}

TEST(HvStore, SaveLoadFile) {
  const auto path = std::string("/tmp/spechd_test_store.sphv");
  const auto store = sample_store(4);
  store.save_file(path);
  const auto back = hv_store::load_file(path);
  EXPECT_EQ(back.size(), 4U);
  std::remove(path.c_str());
}

TEST(HvStore, CompressionVsMgfScale) {
  // A 2048-bit record costs 256 B + 24 B metadata; a raw 400-peak spectrum
  // costs 4.8 KB -> the store is an order of magnitude smaller.
  hv_store store(2048, 0);
  hv_record r;
  r.hv = hypervector(2048);
  store.append(std::move(r));
  EXPECT_LT(store.file_bytes(), 400U * 12U / 10U * 3U);
}

}  // namespace
}  // namespace spechd::hdc
