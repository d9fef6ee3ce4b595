#include "serve/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>

#include "obs/flight.hpp"
#include "util/error.hpp"

namespace spechd::serve {

namespace {

void check_journal_header(const journal_file_header& header, const std::string& path,
                          std::size_t shard, std::uint64_t generation,
                          std::size_t shards, const snapshot_identity& expected) {
  if (header.shard_index != shard || header.generation != generation) {
    throw parse_error(path, 0,
                      "journal header names shard " + std::to_string(header.shard_index) +
                          " generation " + std::to_string(header.generation) +
                          " but the file name says shard " + std::to_string(shard) +
                          " generation " + std::to_string(generation));
  }
  if (header.shard_count != shards) {
    throw parse_error(path, 0,
                      "journal was written with " + std::to_string(header.shard_count) +
                          " shards but this service has " + std::to_string(shards) +
                          " (per-shard journals cannot be re-routed; restore from a "
                          "snapshot to change the shard count)");
  }
  if (!(header.identity == expected)) {
    throw parse_error(path, 0,
                      "journal identity does not match this service's configuration "
                      "(dim/seed/threshold/bucketing/mode)");
  }
}

}  // namespace

std::optional<snapshot_identity> probe_journal_dir(const std::string& dir) {
  const auto state = scan_journal_dir(dir);
  if (state.snapshot_generation) {
    return read_snapshot_identity_file(
        journal_snapshot_path(dir, *state.snapshot_generation));
  }
  // Tolerate exactly what recovery tolerates: skip truncated-header /
  // 0-byte files (creation-crash leftovers recovery recreates) and read
  // the identity off any intact journal. Only if *no* readable journal
  // exists and a corrupt one does, surface that corruption.
  std::string corrupt_path;
  for (const auto& entry : state.journals) {
    const auto path = journal_shard_path(dir, entry.shard, entry.generation);
    switch (probe_journal_header(path)) {
      case journal_header_status::ok:
        return read_journal_header_file(path).identity;
      case journal_header_status::truncated:
        break;
      case journal_header_status::corrupt:
        corrupt_path = path;
        break;
    }
  }
  if (!corrupt_path.empty()) read_journal_header_file(corrupt_path);  // throws
  return std::nullopt;
}

recovered_state recover_journal_dir(const std::string& dir,
                                    const core::spechd_config& pipeline, std::size_t shards,
                                    const snapshot_identity& expected_identity,
                                    const recovery_progress_fn& progress) {
  const auto start = std::chrono::steady_clock::now();
  recovered_state out;
  out.shards.resize(shards);
  out.journal_heads.resize(shards);

  const auto dir_state = scan_journal_dir(dir);

  std::vector<std::vector<std::uint64_t>> generations(shards);
  for (const auto& entry : dir_state.journals) {
    if (entry.shard >= shards) {
      throw parse_error(journal_shard_path(dir, entry.shard, entry.generation), 0,
                        "journal for shard " + std::to_string(entry.shard) +
                            " but this service has only " + std::to_string(shards) +
                            " shards");
    }
    generations[entry.shard].push_back(entry.generation);
  }
  for (auto& gens : generations) std::sort(gens.begin(), gens.end());

  // Base state: the newest snapshot, or empty when none was compacted yet.
  std::uint64_t base_generation = 0;
  std::vector<core::clusterer_state> base(shards);
  if (dir_state.snapshot_generation) {
    base_generation = *dir_state.snapshot_generation;
    const auto snapshot_path = journal_snapshot_path(dir, base_generation);
    auto snapshot = read_snapshot_file(snapshot_path);
    if (!(snapshot.identity == expected_identity)) {
      throw parse_error(snapshot_path, 0,
                        "compaction snapshot identity does not match this service's "
                        "configuration (dim/seed/threshold/bucketing/mode/shards)");
    }
    base = std::move(snapshot.shards);
    out.report.recovered = true;
    out.report.base_snapshot_generation = base_generation;
  }

  // Pass 1: scan and validate every surviving journal file, and collect
  // cross-shard transaction evidence — which txn ids have a commit record
  // and which shards' data records are present. A transaction replays
  // only when its commit *and* every declared participant's data record
  // survived; anything less means the crash interrupted the transaction,
  // and all-or-nothing demands it vanish everywhere.
  std::vector<std::vector<journal_scan>> shard_scans(shards);
  std::vector<std::vector<std::uint64_t>> shard_replay(shards);
  struct txn_evidence {
    std::uint32_t declared_participants = 0;
    std::uint32_t data_records = 0;  ///< distinct shards (one slice per shard)
    bool committed = false;
  };
  std::map<std::uint64_t, txn_evidence> txns;
  for (std::size_t s = 0; s < shards; ++s) {
    // Only generations >= the snapshot base carry records the snapshot
    // does not already contain; older files are redundant leftovers. A
    // 0-byte file (crash between creation and header write) is provably
    // record-free: drop it rather than refusing the directory forever.
    std::vector<std::uint64_t> replay;
    for (const auto gen : generations[s]) {
      if (gen < base_generation) continue;
      std::error_code ec;
      if (std::filesystem::file_size(journal_shard_path(dir, s, gen), ec) == 0 && !ec) {
        std::filesystem::remove(journal_shard_path(dir, s, gen), ec);
        continue;
      }
      replay.push_back(gen);
    }
    // The shard's *newest* file may also carry a partially-written header
    // (crash before the header fsync): like the torn record tail, that is
    // provably record-free — recreate it rather than refusing the
    // directory forever. Anywhere else a bad header stays a hard error.
    while (!replay.empty()) {
      const auto path = journal_shard_path(dir, s, replay.back());
      if (probe_journal_header(path) != journal_header_status::truncated) break;
      std::error_code ec;
      std::filesystem::remove(path, ec);
      replay.pop_back();
    }

    std::uint64_t last_seq = 0;
    bool any_records = false;
    for (std::size_t g = 0; g < replay.size(); ++g) {
      const auto gen = replay[g];
      const auto path = journal_shard_path(dir, s, gen);
      auto scan = read_journal_file(path);
      check_journal_header(scan.header, path, s, gen, shards, expected_identity);
      const bool newest = g + 1 == replay.size();
      if (scan.torn && !newest) {
        throw parse_error(path, 0,
                          "torn record in a non-final journal generation — later "
                          "generations exist, so the history has a hole");
      }
      // Sequence numbers are contiguous across a shard's whole history
      // (rotate() carries next_seq over), so any jump means a lost file
      // or lost records in between — a hole, not a tail, and never safe
      // to replay past.
      if (any_records && !scan.records.empty() &&
          scan.records.front().seq != last_seq + 1) {
        throw parse_error(path, 0,
                          "journal sequence hole across generations (expected seq " +
                              std::to_string(last_seq + 1) + ", found " +
                              std::to_string(scan.records.front().seq) + ")");
      }
      for (const auto& record : scan.records) {
        last_seq = record.seq;
        any_records = true;
        if (record.type == journal_record::kind::commit) {
          txns[record.txn_id].committed = true;
          out.report.max_txn_id = std::max(out.report.max_txn_id, record.txn_id);
        } else if (record.type == journal_record::kind::ingest_batch &&
                   record.txn_id != 0) {
          auto& evidence = txns[record.txn_id];
          ++evidence.data_records;  // per-shard journals: one slice per shard
          evidence.declared_participants =
              std::max(evidence.declared_participants, record.participants);
          out.report.max_txn_id = std::max(out.report.max_txn_id, record.txn_id);
        }
      }
      shard_scans[s].push_back(std::move(scan));
    }
    shard_replay[s] = std::move(replay);
  }

  // Pass 2: rebuild each shard's state from the validated scans.
  std::uint64_t total_records_replayed = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    // Replay through a standalone clusterer: exactly the code the live
    // shard writer runs, so the rebuilt state cannot diverge from what an
    // uninterrupted run would hold.
    core::incremental_clusterer clusterer(pipeline);
    if (dir_state.snapshot_generation) clusterer.import_state(std::move(base[s]));

    journal_head head;
    head.path = journal_shard_path(dir, s, base_generation);
    head.generation = base_generation;
    std::uint64_t last_seq = 0;
    bool any_records = false;
    const auto& replay = shard_replay[s];
    for (std::size_t g = 0; g < replay.size(); ++g) {
      const auto gen = replay[g];
      const auto path = journal_shard_path(dir, s, gen);
      auto& scan = shard_scans[s][g];
      const bool newest = g + 1 == replay.size();
      for (auto& record : scan.records) {
        last_seq = record.seq;
        any_records = true;
        if (record.type == journal_record::kind::ingest_batch) {
          if (record.txn_id != 0) {
            const auto& evidence = txns.at(record.txn_id);
            if (!evidence.committed ||
                evidence.data_records < evidence.declared_participants) {
              // The transaction was interrupted before its commit record
              // (or a peer's data record) became durable: skip the slice
              // everywhere — all-or-nothing.
              ++out.report.txn_batches_dropped;
              continue;
            }
          }
          clusterer.push_batch(record.batch);
          ++out.report.batches_replayed;
          out.report.spectra_replayed += record.batch.size();
        } else if (record.type == journal_record::kind::recluster) {
          clusterer.rebuild_dirty_buckets();
          ++out.report.reclusters_replayed;
        }
        // commit records carry no state; pass 1 consumed them.
      }
      ++out.report.journal_files;
      out.report.recovered = true;
      std::uint64_t torn_bytes_here = 0;
      if (scan.torn) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (!ec && size > scan.valid_bytes) {
          torn_bytes_here = size - scan.valid_bytes;
          out.report.torn_bytes += torn_bytes_here;
        }
      }
      total_records_replayed += scan.records.size();
      obs::record_event(obs::event_kind::recovery_progress, scan.records.size(), gen);
      if (progress) {
        recovery_progress p;
        p.shard = s;
        p.generation = gen;
        p.records_replayed = scan.records.size();
        p.total_records_replayed = total_records_replayed;
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        p.records_per_sec =
            elapsed > 0.0 ? static_cast<double>(total_records_replayed) / elapsed : 0.0;
        p.torn_tail = scan.torn;
        p.torn_bytes = torn_bytes_here;
        progress(p);
      }
      if (newest) {
        head.path = path;
        head.generation = gen;
        head.exists = true;
        head.valid_bytes = scan.valid_bytes;
        head.next_seq = any_records ? last_seq + 1 : 0;
        head.records = scan.records.size();
      }
    }
    out.shards[s] = clusterer.export_state();
    out.journal_heads[s] = head;
  }

  out.report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

}  // namespace spechd::serve
