// Durability subsystem: journal framing, torn-tail tolerance, compaction
// rotation, maintenance reclusters, and the golden recovery guarantee —
// snapshot + journal replay (including a torn final record and a
// journaled maintenance recluster) is bit-identical to the uninterrupted
// run, at shard/thread counts {1, 4}.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "ms/synthetic.hpp"
#include "obs/flight.hpp"
#include "serve/journal.hpp"
#include "serve/recovery.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace spechd::serve {
namespace {

std::vector<ms::spectrum> sample_stream(std::size_t peptides = 32, std::uint64_t seed = 77) {
  ms::synthetic_config config;
  config.peptide_count = peptides;
  config.spectra_per_peptide_mean = 4.0;
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

serve_config make_serve_config(std::size_t shards, std::size_t threads = 1) {
  serve_config sc;
  sc.pipeline = small_config();
  sc.pipeline.threads = threads;
  sc.shards = shards;
  sc.queue_capacity = 4;
  return sc;
}

/// Unique journal directory wiped on destruction.
struct temp_dir {
  std::string path;
  explicit temp_dir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("spechd_jrnl_" + name + "_" + std::to_string(::getpid()))).string()) {
    std::filesystem::remove_all(path);
  }
  ~temp_dir() { std::filesystem::remove_all(path); }
};

void ingest_in_batches(clustering_service& service, const std::vector<ms::spectrum>& stream,
                       std::size_t begin, std::size_t end, std::size_t batch = 17) {
  for (std::size_t i = begin; i < end; i += batch) {
    const auto stop = std::min(i + batch, end);
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(i),
                    stream.begin() + static_cast<std::ptrdiff_t>(stop)});
  }
}

void chop_tail(const std::string& path, std::uint64_t bytes) {
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, bytes);
  std::filesystem::resize_file(path, size - bytes);
}

// --- framing -----------------------------------------------------------------

TEST(Journal, RecordsRoundTripThroughWriterAndScanner) {
  temp_dir dir("roundtrip");
  std::filesystem::create_directories(dir.path);
  const auto stream = sample_stream(6, 3);

  journal_file_header header;
  header.shard_index = 2;
  header.shard_count = 4;
  header.generation = 7;
  header.identity.dim = 1024;
  header.identity.encoder_seed = 42;

  journal_head head;
  head.path = journal_shard_path(dir.path, 2, 7);
  head.next_seq = 5;  // e.g. continuing after a rotation

  journal_config config;
  config.fsync = false;
  {
    journal_writer writer(head, header, config);
    writer.append_batch({stream.begin(), stream.begin() + 3});
    writer.append_recluster();
    writer.append_batch({stream.begin() + 3, stream.end()});
    EXPECT_EQ(writer.records(), 3U);
    EXPECT_EQ(writer.generation(), 7U);
  }

  const auto scan = read_journal_file(head.path);
  EXPECT_EQ(scan.header, header);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 3U);
  EXPECT_EQ(scan.records[0].type, journal_record::kind::ingest_batch);
  EXPECT_EQ(scan.records[0].seq, 5U);
  EXPECT_EQ(scan.records[1].type, journal_record::kind::recluster);
  EXPECT_EQ(scan.records[1].seq, 6U);
  EXPECT_EQ(scan.records[2].seq, 7U);
  EXPECT_EQ(scan.valid_bytes, std::filesystem::file_size(head.path));

  // Every spectrum field the pipeline consumes survives byte-for-byte.
  ASSERT_EQ(scan.records[0].batch.size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& original = stream[i];
    const auto& replayed = scan.records[0].batch[i];
    EXPECT_EQ(replayed.title, original.title);
    EXPECT_EQ(replayed.scan, original.scan);
    EXPECT_EQ(replayed.precursor_mz, original.precursor_mz);
    EXPECT_EQ(replayed.precursor_charge, original.precursor_charge);
    EXPECT_EQ(replayed.retention_time, original.retention_time);
    EXPECT_EQ(replayed.label, original.label);
    ASSERT_EQ(replayed.peaks.size(), original.peaks.size());
    EXPECT_EQ(replayed.peaks, original.peaks);
  }
}

/// Record length and CRC-32 over the whole record (frame header included),
/// taken from the hand-written record codec this layout was first shipped
/// with. The first entry is the file header.
struct golden_record {
  const char* name;
  std::size_t bytes;
  std::uint32_t crc;
};

constexpr golden_record k_golden_records[] = {
    {"header", 76, 0xfafbc8eau},
    {"batch", 174, 0x29fa6f63u},
    {"empty_batch", 37, 0x1742364bu},
    {"txn_batch", 174, 0xe4bb72aau},
    {"recluster", 17, 0x3c76f886u},
    {"commit", 25, 0xc5a60e9du},
};

TEST(Journal, EveryRecordKindMatchesGoldenBytes) {
  temp_dir dir("golden");
  std::filesystem::create_directories(dir.path);
  ms::spectrum s;
  s.title = "scan=42 peptide=LVEYK";
  s.scan = 42;
  s.precursor_mz = 523.77;
  s.precursor_charge = 2;
  s.retention_time = 1234.5;
  s.label = 7;
  s.peaks = {{101.07, 1000.0f}, {202.12, 250.5f}, {303.19, 80.25f}};
  ms::spectrum bare;
  bare.precursor_charge = -3;
  const std::vector<ms::spectrum> batch = {s, bare};

  journal_file_header header;
  header.shard_index = 1;
  header.shard_count = 2;
  header.generation = 3;
  header.identity.dim = 1024;
  header.identity.encoder_seed = 42;
  header.identity.distance_threshold = 0.3;
  header.identity.bucket_resolution = 1.0005;
  header.identity.fallback_charge = 2;
  header.identity.shard_count = 2;
  header.identity.config_digest = 0xfeedbeef;
  journal_head head;
  head.path = journal_shard_path(dir.path, 1, 3);
  head.next_seq = 10;
  journal_config config;
  config.fsync = false;

  std::vector<std::uint64_t> ends;
  {
    journal_writer writer(head, header, config);
    ends.push_back(writer.bytes());
    writer.append_batch(batch);
    ends.push_back(writer.bytes());
    writer.append_batch({});
    ends.push_back(writer.bytes());
    writer.append_batch(batch, 77, 2);
    ends.push_back(writer.bytes());
    writer.append_recluster();
    ends.push_back(writer.bytes());
    writer.append_commit(77);
    ends.push_back(writer.bytes());
  }

  std::ifstream in(head.path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), ends.back());
  ASSERT_EQ(ends.size(), std::size(k_golden_records));
  std::uint64_t begin = 0;
  for (std::size_t i = 0; i < ends.size(); ++i) {
    SCOPED_TRACE(k_golden_records[i].name);
    const auto crc = crc32(bytes.data() + begin, ends[i] - begin);
    EXPECT_EQ(ends[i] - begin, k_golden_records[i].bytes);
    EXPECT_EQ(crc, k_golden_records[i].crc);
    begin = ends[i];
  }

  const auto scan = read_journal_file(head.path);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 5U);
  EXPECT_EQ(scan.records[1].batch.size(), 0U);
  EXPECT_EQ(scan.records[2].txn_id, 77U);
  EXPECT_EQ(scan.records[2].participants, 2U);
  EXPECT_EQ(scan.records[3].type, journal_record::kind::recluster);
  EXPECT_EQ(scan.records[4].type, journal_record::kind::commit);
  EXPECT_EQ(scan.records[4].txn_id, 77U);
  EXPECT_EQ(scan.records[4].seq, 14U);
}

TEST(Journal, TornTailIsDetectedAndTruncatedToLastCompleteRecord) {
  temp_dir dir("torn");
  std::filesystem::create_directories(dir.path);
  const auto stream = sample_stream(6, 5);

  journal_file_header header;
  header.shard_count = 1;
  header.identity.dim = 1024;
  journal_head head;
  head.path = journal_shard_path(dir.path, 0, 0);
  journal_config config;
  config.fsync = false;

  std::uint64_t one_record = 0;
  std::uint64_t two_records = 0;
  {
    journal_writer writer(head, header, config);
    writer.append_batch({stream.begin(), stream.begin() + 4});
    one_record = writer.bytes();
    writer.append_batch({stream.begin() + 4, stream.begin() + 8});
    two_records = writer.bytes();
    writer.append_batch({stream.begin() + 8, stream.end()});
  }

  // Chop at several depths: into the final record (mid-payload, all but
  // one byte) must keep the first two records; past it into the second
  // record's frame must truncate to the first record only.
  const auto full = std::filesystem::file_size(head.path);
  const auto expect_cut = [&](std::uint64_t cut, std::size_t records,
                              std::uint64_t valid) {
    std::filesystem::copy_file(head.path, head.path + ".cut",
                               std::filesystem::copy_options::overwrite_existing);
    chop_tail(head.path + ".cut", cut);
    const auto scan = read_journal_file(head.path + ".cut");
    EXPECT_TRUE(scan.torn) << "cut " << cut;
    EXPECT_EQ(scan.records.size(), records) << "cut " << cut;
    EXPECT_EQ(scan.valid_bytes, valid) << "cut " << cut;
  };
  expect_cut(1, 2, two_records);
  expect_cut(4, 2, two_records);
  expect_cut(full - two_records - 1, 2, two_records);
  expect_cut(full - two_records + 3, 1, one_record);  // 3 bytes into record 2's tail
  expect_cut(full - one_record - 1, 1, one_record);

  // A flipped byte inside a record is indistinguishable from a torn tail
  // at that record: scanning stops there.
  {
    std::fstream f(head.path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(two_records + 12));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(two_records + 12));
    byte = static_cast<char>(byte ^ 0x10);
    f.write(&byte, 1);
  }
  const auto scan = read_journal_file(head.path);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.records.size(), 2U);
}

TEST(Journal, CrcValidRecordWithInconsistentBodyIsTorn) {
  // The CRC only proves the bytes arrived as written; the body must still
  // parse. A lying count, an unknown kind or trailing bytes each end the
  // scan at that record, which is never allocated by its claimed count.
  temp_dir dir("inconsistent");
  std::filesystem::create_directories(dir.path);
  const auto stream = sample_stream(6, 9);
  journal_file_header header;
  header.shard_count = 1;
  header.identity.dim = 1024;
  journal_head head;
  head.path = journal_shard_path(dir.path, 0, 0);
  journal_config config;
  config.fsync = false;
  std::uint64_t valid = 0;
  {
    journal_writer writer(head, header, config);
    writer.append_batch({stream.begin(), stream.begin() + 4});
    writer.append_recluster();
    valid = writer.bytes();
  }
  const auto intact = read_journal_file(head.path);
  ASSERT_FALSE(intact.torn);
  ASSERT_EQ(intact.records.size(), 2U);

  const auto field = [](auto v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const std::string seq = field(std::uint64_t{2});
  // ingest_batch, seq, txn_id, participants, count 4096 over 4096 zero bytes
  const std::string lying_count = field(std::uint8_t{1}) + seq + field(std::uint64_t{0}) +
                                  field(std::uint32_t{0}) + field(std::uint64_t{4096}) +
                                  std::string(4096, '\0');
  const std::string unknown_kind = field(std::uint8_t{9}) + seq;
  const std::string trailing = field(std::uint8_t{2}) + seq + field(std::uint8_t{0});
  for (const auto& [name, payload] : {std::pair{"lying count", lying_count},
                                      std::pair{"unknown kind", unknown_kind},
                                      std::pair{"trailing bytes", trailing}}) {
    SCOPED_TRACE(name);
    const std::string path = head.path + ".bad";
    std::filesystem::copy_file(head.path, path,
                               std::filesystem::copy_options::overwrite_existing);
    {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      const auto len = static_cast<std::uint32_t>(payload.size());
      const std::uint32_t crc = crc32(payload.data(), payload.size());
      out.write(reinterpret_cast<const char*>(&len), sizeof(len));
      out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
      out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    }
    const auto scan = read_journal_file(path);
    EXPECT_TRUE(scan.torn);
    EXPECT_EQ(scan.valid_bytes, valid);
    ASSERT_EQ(scan.records.size(), 2U);
    EXPECT_EQ(scan.records[0].seq, intact.records[0].seq);
    ASSERT_EQ(scan.records[0].batch.size(), 4U);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(scan.records[0].batch[i].title, stream[i].title);
      EXPECT_EQ(scan.records[0].batch[i].peaks, stream[i].peaks);
    }
    EXPECT_EQ(scan.records[1].type, journal_record::kind::recluster);
  }
}

TEST(Journal, CorruptHeaderIsRejected) {
  temp_dir dir("badheader");
  std::filesystem::create_directories(dir.path);
  const auto path = journal_shard_path(dir.path, 0, 0);
  {
    journal_config config;
    config.fsync = false;
    journal_writer writer(journal_head{path}, journal_file_header{}, config);
  }
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write("XX", 2);
  }
  EXPECT_THROW(read_journal_file(path), parse_error);
  EXPECT_THROW(read_journal_header_file(path), parse_error);
  EXPECT_THROW(read_journal_file(dir.path + "/nonexistent.sphjrnl"), io_error);
}

TEST(Journal, DirScanFindsGenerationsAndIgnoresForeignFiles) {
  temp_dir dir("scan");
  std::filesystem::create_directories(dir.path);
  const auto touch = [&](const std::string& name) {
    std::ofstream(std::filesystem::path(dir.path) / name) << "x";
  };
  EXPECT_TRUE(scan_journal_dir(dir.path).empty());
  touch("shard-0-0.sphjrnl");
  touch("shard-1-0.sphjrnl");
  touch("shard-0-3.sphjrnl");
  touch("base-3.sphsnap");
  touch("base-3.sphsnap.tmp");  // crash leftover: ignored
  touch("notes.txt");           // foreign: ignored
  const auto state = scan_journal_dir(dir.path);
  EXPECT_EQ(state.max_generation, 3U);
  ASSERT_TRUE(state.snapshot_generation.has_value());
  EXPECT_EQ(*state.snapshot_generation, 3U);
  EXPECT_EQ(state.journals.size(), 3U);

  remove_stale_generations(dir.path, 3);
  const auto pruned = scan_journal_dir(dir.path);
  EXPECT_EQ(pruned.journals.size(), 1U);  // only shard-0-3 survives
  EXPECT_EQ(pruned.journals[0].generation, 3U);
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir.path) / "notes.txt"));
}

// --- golden recovery ---------------------------------------------------------

TEST(JournalRecovery, RecoveredStateIsBitIdenticalToUninterruptedRun) {
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;

  for (const std::size_t threads : {1UL, 4UL}) {
    for (const std::size_t shards : {1UL, 4UL}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " + std::to_string(threads) +
                   " threads");

      // Uninterrupted reference (no journal): ingest, maintenance
      // recluster mid-stream, ingest the rest.
      clustering_service reference(make_serve_config(shards, threads));
      ingest_in_batches(reference, stream, 0, split);
      reference.drain();
      reference.run_maintenance_now();
      ingest_in_batches(reference, stream, split, stream.size());
      const auto golden = canonical_state(reference.export_states());

      // Journaled run with the same schedule, "crashed" (destroyed) at
      // the end; recovery must land on exactly the same bytes.
      temp_dir dir("golden_" + std::to_string(shards) + "_" + std::to_string(threads));
      auto sc = make_serve_config(shards, threads);
      sc.journal.dir = dir.path;
      sc.journal.fsync = false;  // page-cache durability is enough in tests
      {
        clustering_service journaled(sc);
        EXPECT_FALSE(journaled.recovery().recovered);
        ingest_in_batches(journaled, stream, 0, split);
        journaled.drain();
        EXPECT_EQ(journaled.run_maintenance_now(), shards);
        ingest_in_batches(journaled, stream, split, stream.size());
        journaled.drain();
        EXPECT_EQ(canonical_state(journaled.export_states()), golden);
      }
      clustering_service recovered(sc);
      EXPECT_TRUE(recovered.recovery().recovered);
      EXPECT_GT(recovered.recovery().batches_replayed, 0U);
      // Every shard that actually had dirty buckets journaled a recluster.
      EXPECT_GT(recovered.recovery().reclusters_replayed, 0U);
      EXPECT_LE(recovered.recovery().reclusters_replayed, shards);
      EXPECT_EQ(recovered.recovery().torn_bytes, 0U);
      EXPECT_EQ(canonical_state(recovered.export_states()), golden);
    }
  }
}

TEST(JournalRecovery, TornFinalRecordIsDroppedAndPriorStateRecovered) {
  const auto stream = sample_stream();
  const std::size_t split = (stream.size() * 3) / 4;

  for (const std::size_t shards : {1UL, 4UL}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    temp_dir dir("tornrec_" + std::to_string(shards));
    auto sc = make_serve_config(shards);
    sc.journal.dir = dir.path;
    sc.journal.fsync = false;

    std::string golden_prefix;
    std::vector<std::uint64_t> records_before(shards, 0);
    {
      clustering_service journaled(sc);
      ingest_in_batches(journaled, stream, 0, split);
      journaled.drain();
      golden_prefix = canonical_state(journaled.export_states());
      for (std::size_t s = 0; s < shards; ++s) {
        records_before[s] =
            read_journal_file(journal_shard_path(dir.path, s, 0)).records.size();
      }
      // One more ingest call: exactly one further journal record lands on
      // every shard that receives part of the batch.
      journaled.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
      journaled.drain();
      EXPECT_NE(canonical_state(journaled.export_states()), golden_prefix);
    }

    // Simulate a torn write of that final record on every shard journal
    // that received one: chop a few bytes so its frame is incomplete.
    // Shards untouched by the final batch are left alone (their journal
    // ends with prefix records the recovery must keep).
    std::size_t chopped = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto path = journal_shard_path(dir.path, s, 0);
      const auto before = read_journal_file(path);
      ASSERT_FALSE(before.torn);
      if (before.records.size() == records_before[s]) continue;
      ASSERT_EQ(before.records.size(), records_before[s] + 1);
      chop_tail(path, 4);
      ++chopped;
    }
    ASSERT_GT(chopped, 0U);

    clustering_service recovered(sc);
    EXPECT_TRUE(recovered.recovery().recovered);
    EXPECT_GT(recovered.recovery().torn_bytes, 0U);
    EXPECT_EQ(canonical_state(recovered.export_states()), golden_prefix);

    // The writer truncated the torn tails on attach: a second recovery is
    // clean and identical.
    clustering_service again(sc);
    EXPECT_EQ(again.recovery().torn_bytes, 0U);
    EXPECT_EQ(canonical_state(again.export_states()), golden_prefix);
  }
}

TEST(JournalRecovery, ResumedIngestionAfterRecoveryMatchesUninterrupted) {
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 3;

  clustering_service reference(make_serve_config(2));
  ingest_in_batches(reference, stream, 0, stream.size());
  const auto golden = canonical_state(reference.export_states());

  temp_dir dir("resume");
  auto sc = make_serve_config(2);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  {
    clustering_service first(sc);
    ingest_in_batches(first, stream, 0, split);
  }
  {
    clustering_service second(sc);
    EXPECT_TRUE(second.recovery().recovered);
    ingest_in_batches(second, stream, split, stream.size());
    second.drain();
    EXPECT_EQ(canonical_state(second.export_states()), golden);
  }
  // And the whole resumed run recovers again.
  clustering_service third(sc);
  EXPECT_EQ(canonical_state(third.export_states()), golden);
}

TEST(JournalRecovery, ZeroByteJournalFromCreateCrashIsRecreated) {
  // A crash between creating a journal file and writing its header
  // leaves a 0-byte file; it is provably record-free, so recovery drops
  // it and the writer recreates it — the directory must not be bricked.
  const auto stream = sample_stream(8, 21);
  temp_dir dir("zerobyte");
  auto sc = make_serve_config(2);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  std::string golden;
  {
    clustering_service service(sc);
    service.ingest(stream);
    service.drain();
    golden = canonical_state(service.export_states());
  }
  std::filesystem::resize_file(journal_shard_path(dir.path, 1, 0), 0);
  clustering_service recovered(sc);
  EXPECT_TRUE(recovered.recovery().recovered);
  // Shard 1's records are gone with its journal; shard 0's survive.
  EXPECT_LT(recovered.stats().record_count, stream.size());
  EXPECT_GT(recovered.stats().record_count, 0U);
  recovered.ingest(stream);  // and the shard ingests + journals again
  recovered.drain();
  clustering_service again(sc);
  EXPECT_EQ(canonical_state(again.export_states()),
            canonical_state(recovered.export_states()));
}

TEST(JournalRecovery, TruncatedHeaderOnNewestFileIsRecreatedCorruptHeaderRefused) {
  // A header cut short (crash before the header write became durable) is
  // provably record-free: the newest-generation file is recreated. Wrong
  // header *bytes* (corruption) must still refuse recovery.
  const auto stream = sample_stream(8, 33);
  temp_dir dir("trunchdr");
  auto sc = make_serve_config(2);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  {
    clustering_service service(sc);
    service.ingest(stream);
    service.drain();
  }
  const auto path = journal_shard_path(dir.path, 0, 0);
  EXPECT_EQ(probe_journal_header(path), journal_header_status::ok);
  std::filesystem::resize_file(path, 9);  // mid-header
  EXPECT_EQ(probe_journal_header(path), journal_header_status::truncated);
  {
    clustering_service recovered(sc);
    EXPECT_TRUE(recovered.recovery().recovered);
    EXPECT_GT(recovered.stats().record_count, 0U);  // shard 1 survived
  }
  // Now corrupt shard 1's header bytes instead: hard error, not discard.
  {
    const auto other = journal_shard_path(dir.path, 1, 0);
    std::fstream f(other, std::ios::binary | std::ios::in | std::ios::out);
    f.write("XXXX", 4);
  }
  EXPECT_EQ(probe_journal_header(journal_shard_path(dir.path, 1, 0)),
            journal_header_status::corrupt);
  EXPECT_THROW(clustering_service{sc}, parse_error);
}

TEST(JournalRecovery, MismatchedConfigurationIsRejected) {
  const auto stream = sample_stream(8, 9);
  temp_dir dir("mismatch");
  auto sc = make_serve_config(2);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  {
    clustering_service service(sc);
    service.ingest(stream);
    service.drain();
  }
  {
    auto wrong = sc;
    wrong.pipeline.distance_threshold = 0.2;
    EXPECT_THROW(clustering_service{wrong}, parse_error);
  }
  {
    auto wrong = sc;
    wrong.shards = 3;  // per-shard journals cannot be re-routed
    EXPECT_THROW(clustering_service{wrong}, parse_error);
  }
  // The original configuration still recovers fine afterwards.
  clustering_service ok(sc);
  EXPECT_TRUE(ok.recovery().recovered);
}

// --- compaction --------------------------------------------------------------

TEST(JournalCompaction, RotatesGenerationsAndStaysRecoverable) {
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;

  clustering_service reference(make_serve_config(2));
  ingest_in_batches(reference, stream, 0, stream.size());
  const auto golden = canonical_state(reference.export_states());

  temp_dir dir("compact");
  auto sc = make_serve_config(2);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  {
    clustering_service service(sc);
    ingest_in_batches(service, stream, 0, split);
    service.drain();
    service.compact_journal();

    // The directory now holds a generation-1 snapshot and fresh journals;
    // generation 0 files are gone.
    const auto state = scan_journal_dir(dir.path);
    ASSERT_TRUE(state.snapshot_generation.has_value());
    EXPECT_EQ(*state.snapshot_generation, 1U);
    for (const auto& j : state.journals) EXPECT_EQ(j.generation, 1U);
    EXPECT_EQ(state.journals.size(), 2U);
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(read_journal_file(journal_shard_path(dir.path, s, 1)).records.size(), 0U);
    }

    ingest_in_batches(service, stream, split, stream.size());
    service.drain();
    EXPECT_EQ(canonical_state(service.export_states()), golden);
  }

  clustering_service recovered(sc);
  ASSERT_TRUE(recovered.recovery().base_snapshot_generation.has_value());
  EXPECT_EQ(*recovered.recovery().base_snapshot_generation, 1U);
  EXPECT_EQ(canonical_state(recovered.export_states()), golden);
}

TEST(JournalCompaction, CrashBetweenRotationAndSnapshotStillRecovers) {
  // The compaction protocol's crash window: journals already rotated to
  // generation g+1 but the g+1 snapshot never became durable. Recovery
  // must fall back to generation g and replay *both* generations in
  // order. Recreate that layout by keeping a copy of the gen-0 journals
  // (compaction deletes them) and dropping the gen-1 snapshot.
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;

  clustering_service reference(make_serve_config(2));
  ingest_in_batches(reference, stream, 0, stream.size());
  const auto golden = canonical_state(reference.export_states());

  temp_dir dir("crashwin");
  auto sc = make_serve_config(2);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  {
    clustering_service service(sc);
    ingest_in_batches(service, stream, 0, split);
    service.drain();
    std::filesystem::create_directories(dir.path + "/keep");
    for (std::size_t s = 0; s < 2; ++s) {
      const auto path = journal_shard_path(dir.path, s, 0);
      std::filesystem::copy_file(
          path, dir.path + "/keep/" + std::filesystem::path(path).filename().string());
    }
    service.compact_journal();
    ingest_in_batches(service, stream, split, stream.size());
    service.drain();
    EXPECT_EQ(canonical_state(service.export_states()), golden);
  }
  for (std::size_t s = 0; s < 2; ++s) {
    const auto path = journal_shard_path(dir.path, s, 0);
    std::filesystem::rename(dir.path + "/keep/" +
                                std::filesystem::path(path).filename().string(),
                            path);
  }
  std::filesystem::remove(journal_snapshot_path(dir.path, 1));

  clustering_service recovered(sc);
  EXPECT_FALSE(recovered.recovery().base_snapshot_generation.has_value());
  EXPECT_EQ(recovered.recovery().journal_files, 4U);  // both generations replayed
  EXPECT_EQ(canonical_state(recovered.export_states()), golden);
}

TEST(JournalCompaction, FailedRotationFallsBackAndRetrySucceedsAtFreshGeneration) {
  // Force a *half-failed* compaction: shard 0 rotates to generation 1,
  // then shard 1's rotation hits an occupied generation-1 file (O_EXCL).
  // Shard 1 must fall back to its generation-0 journal (ingestion keeps
  // being journaled, not dropped), and the retry must pick a fresh
  // generation past every shard's current one instead of re-hitting the
  // conflict forever.
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;

  clustering_service reference(make_serve_config(2));
  ingest_in_batches(reference, stream, 0, stream.size());
  const auto golden = canonical_state(reference.export_states());

  temp_dir dir("rotfail");
  auto sc = make_serve_config(2);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  std::string live;
  {
    clustering_service service(sc);
    ingest_in_batches(service, stream, 0, split);
    service.drain();
    std::ofstream(journal_shard_path(dir.path, 1, 1)) << "occupied";
    EXPECT_THROW(service.compact_journal(), spechd::error);
    // Shards now sit at mixed generations (0 rotated to 1, 1 fell back
    // to 0) and ingestion is still journaled on both.
    ingest_in_batches(service, stream, split, stream.size());
    service.drain();
    EXPECT_EQ(canonical_state(service.export_states()), golden);
    // Retry — without touching the conflicting file — lands on a fresh
    // generation and cleans the old ones (including the garbage file).
    service.compact_journal();
    const auto state = scan_journal_dir(dir.path);
    ASSERT_TRUE(state.snapshot_generation.has_value());
    EXPECT_EQ(*state.snapshot_generation, 2U);
    live = canonical_state(service.export_states());
    EXPECT_EQ(live, golden);
  }
  clustering_service recovered(sc);
  EXPECT_EQ(canonical_state(recovered.export_states()), golden);
}

TEST(JournalCompaction, RestoreIntoJournaledServiceRebasesTheDirectory) {
  const auto stream = sample_stream();
  temp_dir dir("restorejrnl");
  const std::string snap =
      (std::filesystem::temp_directory_path() /
       ("spechd_jrnl_restore_" + std::to_string(::getpid()) + ".sphsnap")).string();

  clustering_service source(make_serve_config(2));
  ingest_in_batches(source, stream, 0, stream.size() / 2);
  source.snapshot_file(snap);
  const auto restored_golden = canonical_state(source.export_states());

  auto sc = make_serve_config(2);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  {
    clustering_service service(sc);
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(stream.size() / 2),
                    stream.end()});  // unrelated pre-restore state
    service.drain();
    service.restore_file(snap);
    EXPECT_EQ(canonical_state(service.export_states()), restored_golden);
  }
  // The directory was rebased onto the restored state: recovery yields it.
  clustering_service recovered(sc);
  EXPECT_EQ(canonical_state(recovered.export_states()), restored_golden);
  std::filesystem::remove(snap);
}

// --- fault injection ---------------------------------------------------------

/// Disarms every failpoint on entry and exit so a failing assertion in one
/// test cannot leak an armed fault into the next (the registry is global).
struct failpoint_guard {
  failpoint_guard() { util::registry().reset(); }
  ~failpoint_guard() { util::registry().reset(); }
};

TEST(JournalFaults, ShortWritesInAppendCompleteWithoutCorruption) {
  // A partial write(2) return is a retry, never framing corruption: with
  // the append site forced short repeatedly, every record still lands
  // whole and recovery is bit-identical.
  failpoint_guard guard;
  const auto stream = sample_stream();
  temp_dir dir("shortwrite");
  auto sc = make_serve_config(2);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  std::string live;
  {
    clustering_service service(sc);
    util::registry().arm_from_spec("journal.append.write=short@times8");
    ingest_in_batches(service, stream, 0, stream.size());
    service.drain();
    EXPECT_EQ(util::registry().stats("journal.append.write").fires, 8U);
    EXPECT_EQ(service.stats().degraded_shards, 0U);
    EXPECT_EQ(service.stats().failed_shards, 0U);
    live = canonical_state(service.export_states());
    util::registry().reset();
  }
  clustering_service recovered(sc);
  EXPECT_TRUE(recovered.recovery().recovered);
  EXPECT_EQ(canonical_state(recovered.export_states()), live);
}

TEST(JournalFaults, AppendErrorDegradesShardAndCompactionHeals) {
  failpoint_guard guard;
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;
  temp_dir dir("appenderr");
  auto sc = make_serve_config(1);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  std::string prefix;
  std::string live;
  {
    clustering_service service(sc);
    ingest_in_batches(service, stream, 0, split);
    service.drain();
    prefix = canonical_state(service.export_states());

    // One hard append failure: the batch is dropped, the record rolled
    // back, and the shard leaves healthy — loudly, not silently.
    util::registry().arm_from_spec("journal.append.write=error:ENOSPC@times1");
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
    EXPECT_THROW(service.drain(), io_error);
    auto stats = service.stats();
    EXPECT_EQ(stats.degraded_shards, 1U);
    ASSERT_EQ(stats.shards.size(), 1U);
    EXPECT_EQ(stats.shards[0].health, shard_health::degraded);
    EXPECT_FALSE(stats.shards[0].last_error.empty());
    EXPECT_GT(stats.dropped, 0U);
    // Degraded shards are read-only: further ingest is rejected with the
    // shard's health in the message, and the live state is untouched.
    EXPECT_THROW(
        service.ingest({stream.begin(), stream.begin() + 1}), spechd::error);
    EXPECT_EQ(canonical_state(service.export_states()), prefix);

    // Compaction reconciles journal and applied state — and heals.
    service.compact_journal();
    EXPECT_EQ(service.stats().degraded_shards, 0U);
    // The crash-dump status row follows the heal and the rotation at once,
    // without waiting for the next applied batch.
    stats = service.stats();
    const auto& row = obs::status_shard(0);
    EXPECT_EQ(row.health.load(), static_cast<std::uint32_t>(stats.shards[0].health));
    EXPECT_EQ(row.generation.load(), 1U);
    EXPECT_EQ(row.journal_bytes.load(), stats.shards[0].journal_bytes);
    EXPECT_EQ(row.journal_records.load(), stats.shards[0].journal_records);
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
    service.drain();
    live = canonical_state(service.export_states());
    EXPECT_NE(live, prefix);
  }
  // The dropped batch never reached the journal: recovery lands exactly on
  // the state the service actually held.
  clustering_service recovered(sc);
  EXPECT_EQ(canonical_state(recovered.export_states()), live);
}

TEST(JournalFaults, FailedCompactionLeavesShardDegradedUntilARetryCompletes) {
  // Compaction is what heals a degraded shard, so a compaction that fails
  // must not: the shard stays read-only until a retry completes.
  failpoint_guard guard;
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;
  temp_dir dir("compactretry");
  auto sc = make_serve_config(1);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  std::string live;
  {
    clustering_service service(sc);
    ingest_in_batches(service, stream, 0, split);
    service.drain();
    util::registry().arm_from_spec("journal.append.write=error:EIO@times1");
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
    EXPECT_THROW(service.drain(), io_error);
    EXPECT_EQ(service.stats().degraded_shards, 1U);

    util::registry().arm_from_spec("snapshot.rename=error:EIO@times1");
    EXPECT_THROW(service.compact_journal(), spechd::error);
    EXPECT_EQ(util::registry().stats("snapshot.rename").fires, 1U);
    EXPECT_EQ(service.stats().degraded_shards, 1U);
    EXPECT_THROW(service.ingest({stream.begin(), stream.begin() + 1}), spechd::error);

    // The retry completes and heals; the dropped half then ingests.
    service.compact_journal();
    EXPECT_EQ(service.stats().degraded_shards, 0U);
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
    service.drain();
    EXPECT_EQ(service.stats().record_count, stream.size());
    live = canonical_state(service.export_states());
  }
  clustering_service recovered(sc);
  EXPECT_EQ(canonical_state(recovered.export_states()), live);
}

TEST(JournalFaults, FailedReclusterFsyncLeavesNoRecord) {
  // A recluster record whose group-commit fsync fails has already landed,
  // but the recluster never runs: the record must be rolled back, or
  // recovery would replay a recluster the live run never did. The shard
  // stays healthy (its journal matches its applied state again) and its
  // buckets stay dirty for a later run_maintenance_now() to retry.
  failpoint_guard guard;
  const auto stream = sample_stream();
  temp_dir dir("reclusterfsync");
  auto sc = make_serve_config(1);
  sc.journal.dir = dir.path;
  sc.journal.fsync = true;
  sc.journal.group_commit_records = 1;  // every append fsyncs
  std::string live;
  {
    clustering_service service(sc);
    ingest_in_batches(service, stream, 0, stream.size());
    service.drain();
    const auto before = service.stats();
    ASSERT_GT(before.dirty_buckets, 0U);

    util::registry().arm_from_spec("journal.fsync=error:EIO@times1");
    EXPECT_THROW(service.run_maintenance_now(), io_error);
    EXPECT_EQ(util::registry().stats("journal.fsync").fires, 1U);
    const auto after = service.stats();
    EXPECT_EQ(after.dirty_buckets, before.dirty_buckets);
    EXPECT_EQ(after.journal_records, before.journal_records);
    EXPECT_EQ(after.journal_bytes, before.journal_bytes);
    EXPECT_EQ(after.degraded_shards, 0U);
    EXPECT_EQ(after.failed_shards, 0U);
    live = canonical_state(service.export_states());
  }
  clustering_service recovered(sc);
  EXPECT_TRUE(recovered.recovery().recovered);
  EXPECT_EQ(recovered.recovery().reclusters_replayed, 0U);
  EXPECT_EQ(canonical_state(recovered.export_states()), live);
}

TEST(JournalFaults, SnapshotPathFailuresLeaveDirectoryRecoverable) {
  // Disk-full/EIO at every step of the compaction snapshot protocol
  // (tmp open/write, tmp fsync, rename, directory fsync): the previous
  // snapshot and every journal generation stay replayable, the live state
  // is untouched, and a retry lands on a fresh generation.
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;
  for (const std::string site : {"snapshot.open", "snapshot.write", "snapshot.fsync",
                                 "snapshot.rename", "dir.fsync"}) {
    SCOPED_TRACE(site);
    failpoint_guard guard;
    temp_dir dir("snapfault_" + site);
    auto sc = make_serve_config(2);
    sc.journal.dir = dir.path;
    sc.journal.fsync = true;  // exercise the fsync sites for real
    std::string live;
    {
      clustering_service service(sc);
      ingest_in_batches(service, stream, 0, split);
      service.drain();
      service.compact_journal();  // a real base snapshot to fall back to
      ingest_in_batches(service, stream, split, stream.size());
      service.drain();
      live = canonical_state(service.export_states());

      util::registry().arm_from_spec(site + "=error:ENOSPC@times1");
      EXPECT_THROW(service.compact_journal(), spechd::error);
      EXPECT_EQ(util::registry().stats(site).fires, 1U);
      EXPECT_EQ(canonical_state(service.export_states()), live);
      // Injection budget spent: the retry completes.
      service.compact_journal();
      EXPECT_EQ(canonical_state(service.export_states()), live);
    }
    clustering_service recovered(sc);
    EXPECT_TRUE(recovered.recovery().recovered);
    EXPECT_EQ(canonical_state(recovered.export_states()), live);
  }
}

TEST(JournalFaults, AtomicIngestAbortsWholeTransactionWhenOneShardFails) {
  failpoint_guard guard;
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;
  temp_dir dir("txnabort");
  auto sc = make_serve_config(4);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  sc.atomic_ingest = true;
  std::string prefix;
  {
    clustering_service service(sc);
    ingest_in_batches(service, stream, 0, split);
    service.drain();
    prefix = canonical_state(service.export_states());

    // Fail exactly one participant's data-record append of the next
    // multi-shard transaction: no shard may apply its slice.
    util::registry().arm_from_spec("journal.append.write=error:EIO@times1");
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
    EXPECT_THROW(service.drain(), io_error);
    EXPECT_EQ(canonical_state(service.export_states()), prefix);
    auto stats = service.stats();
    EXPECT_EQ(stats.degraded_shards, 1U);  // the faulty shard, and only it
    EXPECT_EQ(stats.failed_shards, 0U);    // innocent participants stay healthy
  }
  // Every data record was rolled back: the journals hold no trace.
  clustering_service recovered(sc);
  EXPECT_EQ(recovered.recovery().txn_batches_dropped, 0U);
  EXPECT_EQ(canonical_state(recovered.export_states()), prefix);
}

TEST(JournalFaults, CommittedTransactionsReplayIdentically) {
  // The happy path of cross-shard atomicity: a journaled atomic service
  // equals the plain reference live, and recovery replays every committed
  // transaction to the same bytes.
  failpoint_guard guard;
  const auto stream = sample_stream();
  clustering_service reference(make_serve_config(4));
  ingest_in_batches(reference, stream, 0, stream.size());
  const auto golden = canonical_state(reference.export_states());

  temp_dir dir("txngolden");
  auto sc = make_serve_config(4);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  sc.atomic_ingest = true;
  {
    clustering_service service(sc);
    ingest_in_batches(service, stream, 0, stream.size());
    service.drain();
    EXPECT_EQ(canonical_state(service.export_states()), golden);
  }
  clustering_service recovered(sc);
  EXPECT_TRUE(recovered.recovery().recovered);
  EXPECT_GT(recovered.recovery().max_txn_id, 0U);
  EXPECT_EQ(recovered.recovery().txn_batches_dropped, 0U);
  EXPECT_EQ(canonical_state(recovered.export_states()), golden);
}

TEST(JournalFaults, TornTransactionRecordsDropTheTransactionEverywhere) {
  // The acceptance case: a multi-shard batch whose commit record — or one
  // participant's data record — did not survive the crash must vanish on
  // *every* shard at recovery, never apply on some and not others.
  failpoint_guard guard;
  const auto stream = sample_stream();
  const std::size_t split = (stream.size() * 3) / 4;
  temp_dir dir("torntxn");
  auto sc = make_serve_config(2);
  sc.journal.dir = dir.path;
  sc.journal.fsync = false;
  sc.atomic_ingest = true;
  std::string prefix;
  std::string full;
  {
    clustering_service service(sc);
    ingest_in_batches(service, stream, 0, split);
    service.drain();
    prefix = canonical_state(service.export_states());
    // One final multi-shard transaction.
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
    service.drain();
    full = canonical_state(service.export_states());
    ASSERT_NE(full, prefix);
  }
  // The layout the chops below rely on: the final transaction left its
  // commit record last on the coordinator (shard 0) and its data record
  // last on shard 1. (Holds whenever the final batch spans both shards,
  // which this stream's precursor spread guarantees.)
  {
    const auto scan0 = read_journal_file(journal_shard_path(dir.path, 0, 0));
    const auto scan1 = read_journal_file(journal_shard_path(dir.path, 1, 0));
    ASSERT_FALSE(scan0.records.empty());
    ASSERT_FALSE(scan1.records.empty());
    ASSERT_EQ(scan0.records.back().type, journal_record::kind::commit);
    ASSERT_EQ(scan1.records.back().type, journal_record::kind::ingest_batch);
    ASSERT_NE(scan1.records.back().txn_id, 0U);
  }
  // Keep pristine copies: each variant mutates the directory (recovery
  // itself truncates torn tails when the writers attach).
  for (std::size_t s = 0; s < 2; ++s) {
    const auto path = journal_shard_path(dir.path, s, 0);
    std::filesystem::copy_file(path, path + ".keep");
  }
  const auto restore = [&] {
    for (std::size_t s = 0; s < 2; ++s) {
      const auto path = journal_shard_path(dir.path, s, 0);
      std::filesystem::copy_file(path + ".keep", path,
                                 std::filesystem::copy_options::overwrite_existing);
    }
  };

  // Variant 1: tear the commit record (last record on the coordinator —
  // the lowest participating shard). Both data records survive, but the
  // transaction is unproven: both slices are dropped.
  chop_tail(journal_shard_path(dir.path, 0, 0), 4);
  {
    clustering_service recovered(sc);
    EXPECT_TRUE(recovered.recovery().recovered);
    EXPECT_EQ(recovered.recovery().txn_batches_dropped, 2U);
    EXPECT_EQ(canonical_state(recovered.export_states()), prefix);
  }

  // Variant 2: tear a *participant's* data record instead (shard 1's last
  // record). The commit record survives on shard 0, but the evidence is
  // incomplete — shard 0's slice must not apply either.
  restore();
  chop_tail(journal_shard_path(dir.path, 1, 0), 4);
  {
    clustering_service recovered(sc);
    EXPECT_TRUE(recovered.recovery().recovered);
    EXPECT_EQ(recovered.recovery().txn_batches_dropped, 1U);
    EXPECT_EQ(canonical_state(recovered.export_states()), prefix);
  }

  // Control: with the journals intact, the transaction replays whole.
  restore();
  for (std::size_t s = 0; s < 2; ++s) {
    std::filesystem::remove(journal_shard_path(dir.path, s, 0) + ".keep");
  }
  clustering_service recovered(sc);
  EXPECT_EQ(recovered.recovery().txn_batches_dropped, 0U);
  EXPECT_EQ(canonical_state(recovered.export_states()), full);
}

// --- maintenance -------------------------------------------------------------

TEST(Maintenance, RunMaintenanceNowMatchesRebuildDirtyBuckets) {
  // The deterministic trigger equals a reference clusterer doing
  // rebuild_dirty_buckets at the same stream position, per bucket.
  const auto stream = sample_stream(24, 15);
  const auto config = small_config();

  core::incremental_clusterer reference(config);
  reference.add_spectra(stream);
  reference.rebuild_dirty_buckets();
  const auto expected = canonical_state({reference.export_state()});

  clustering_service service(make_serve_config(1));
  service.ingest(stream);
  service.drain();
  EXPECT_GT(service.stats().dirty_buckets, 0U);
  service.run_maintenance_now();
  EXPECT_EQ(service.stats().dirty_buckets, 0U);
  EXPECT_EQ(canonical_state(service.export_states()), expected);

  // Nothing dirty: a second trigger is accepted but journals nothing and
  // changes nothing (no-op on the writer thread).
  service.run_maintenance_now();
  EXPECT_EQ(canonical_state(service.export_states()), expected);
}

}  // namespace
}  // namespace spechd::serve
