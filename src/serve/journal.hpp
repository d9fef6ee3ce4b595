// Per-shard append-only write-ahead journal (.sphjrnl) for the serving
// layer.
//
// A `.sphsnap` snapshot is O(total state) per checkpoint; the journal
// bounds that cost for long-lived services by making durability
// incremental: each shard's single writer thread appends one framed
// record per ingest batch *before* applying it, so the on-disk journal is
// always a superset of the applied stream and recovery can rebuild the
// exact live state by replaying records on top of the newest snapshot
// (see serve/recovery.hpp). Maintenance reclusters are journaled too, at
// the exact stream position they ran, so replay reproduces them.
//
// File format (`shard-<s>-<gen>.sphjrnl`):
//
//   magic "SPJL", version u32
//   u32 header_bytes, header payload, u32 CRC-32(header payload)
//     (the file frame of ms/spectrum_wire.hpp with a u32 length)
//     header: shard_index u32, shard_count u32, generation u64,
//             snapshot identity block (same fields as .sphsnap — a journal
//             is rejected unless the replaying service matches exactly)
//   records, each:
//     u32 payload_bytes, u32 CRC-32(payload)
//     payload: type u8 (1 = ingest batch, 2 = maintenance recluster,
//              3 = cross-shard commit),
//              seq u64 (per shard, strictly increasing across generations),
//              body (batch: txn_id u64 + participants u32, then the raw
//              spectra as submitted — replay re-runs the same deterministic
//              preprocess/encode/assign pipeline; commit: txn_id u64;
//              recluster: empty)
//
// Cross-shard atomicity: a multi-shard ingest batch (serve_config
// ::atomic_ingest) journals each shard's slice as an ingest-batch record
// tagged with a service-wide txn_id and the participant count, then the
// coordinating shard appends one commit record. Recovery applies the
// transaction's records only when the commit record *and* every
// participant's data record survived — so a torn multi-shard batch
// recovers all-or-nothing (see serve/recovery.hpp). txn_id 0 marks plain
// single-shard records, which commit individually as before.
//
// Torn tails are expected (power loss mid-append): scanning stops at the
// first record whose frame is truncated, whose CRC fails, or whose body
// does not parse exactly, reports the byte offset of the last complete
// record, and the writer truncates there before resuming appends. One
// field list writes and reads every record, and another the header (the
// codec in ms/spectrum_wire.hpp); its reader caps the batch count by the
// record's bytes before it allocates. Durability is group-committed: records are
// written immediately (one write() each) but fsynced only every
// `group_commit_records` or `group_commit_interval`, whichever trips
// first, so a power cut can cost at most the un-synced tail — never a
// torn state — and a hot writer never pays one fsync per batch.
//
// Generations tie journals to snapshots: the journal at generation g
// contains exactly the records applied *after* the state stored in
// `base-<g>.sphsnap` (or after the empty state when g has no snapshot).
// Compaction (clustering_service::compact_journal) rotates every shard to
// generation g+1 first — capturing each shard's state at its rotation
// point — then writes `base-<g+1>.sphsnap` and deletes older generations;
// a crash anywhere in that sequence leaves a directory the recovery scan
// (scan_journal_dir) still reads back exactly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ms/spectrum.hpp"
#include "serve/snapshot.hpp"

namespace spechd::serve {

/// Journal knobs carried in serve_config. An empty `dir` disables
/// journaling entirely (the PR-4 behaviour: snapshots only, on demand).
struct journal_config {
  /// Directory holding `base-<gen>.sphsnap` + `shard-<s>-<gen>.sphjrnl`;
  /// created if missing. Empty = journaling disabled.
  std::string dir;
  /// Group commit: fsync once at least N records accumulated unsynced,
  /// or once the last sync is older than `group_commit_interval` (checked
  /// at every append) — so a hot writer amortises fsyncs across many
  /// records while the power-cut loss window stays bounded by the
  /// interval plus any final burst tail. drain() always syncs (the
  /// explicit durability barrier).
  std::size_t group_commit_records = 128;
  /// Default in the usual database group-commit range: a power cut costs
  /// at most this much of the hottest stream (process crashes cost
  /// nothing — the page cache survives those).
  std::chrono::milliseconds group_commit_interval{200};
  /// `false` skips fsync entirely (page-cache durability only — survives
  /// process crashes, not power loss; useful for tests and benches).
  bool fsync = true;
};

/// Fixed per-file header: which shard/generation this journal belongs to
/// and the identity of the service that wrote it.
struct journal_file_header {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;
  std::uint64_t generation = 0;
  snapshot_identity identity;

  friend bool operator==(const journal_file_header&, const journal_file_header&) = default;
};

/// One parsed journal record.
struct journal_record {
  enum class kind : std::uint8_t { ingest_batch = 1, recluster = 2, commit = 3 };
  kind type = kind::ingest_batch;
  std::uint64_t seq = 0;
  /// Cross-shard transaction id (ingest_batch and commit records); 0 on a
  /// plain single-shard batch.
  std::uint64_t txn_id = 0;
  /// How many shards hold a data record for this transaction
  /// (ingest_batch records with txn_id != 0 only).
  std::uint32_t participants = 0;
  std::vector<ms::spectrum> batch;  ///< ingest_batch only
};

/// Result of scanning one journal file.
struct journal_scan {
  journal_file_header header;
  std::vector<journal_record> records;
  /// Offset one past the last complete record — the truncation point when
  /// the tail is torn, the file size otherwise.
  std::uint64_t valid_bytes = 0;
  /// True when trailing bytes past `valid_bytes` were dropped (truncated
  /// frame or CRC mismatch on the final record).
  bool torn = false;
};

/// Parses and CRC-verifies a journal file, stopping at (and reporting) a
/// torn tail. Throws parse_error on a bad/corrupt *header*, io_error when
/// the file cannot be read.
journal_scan read_journal_file(const std::string& path);

/// Reads just the verified header (cheap — no record scan).
journal_file_header read_journal_header_file(const std::string& path);

/// Classifies a journal file's header without throwing, through the same
/// frame reader as read_journal_header_file: `ok` (records may follow),
/// `truncated` (the file ends before the header frame completes — a crash
/// between file creation and the header fsync; provably record-free, safe
/// to recreate), or `corrupt` (bytes present but wrong: bad magic,
/// version, length, CRC or fields — never silently discarded).
using journal_header_status = ms::frame_status;
journal_header_status probe_journal_header(const std::string& path);

// --- directory layout --------------------------------------------------------

/// `<dir>/base-<gen>.sphsnap` — the compaction snapshot of generation gen.
std::string journal_snapshot_path(const std::string& dir, std::uint64_t generation);

/// `<dir>/shard-<s>-<gen>.sphjrnl`.
std::string journal_shard_path(const std::string& dir, std::size_t shard,
                               std::uint64_t generation);

/// What a journal directory currently holds (parsed from file names only —
/// contents are validated later, during recovery).
struct journal_dir_state {
  /// Highest generation seen across snapshots and journals; 0 for a fresh
  /// (or missing) directory.
  std::uint64_t max_generation = 0;
  /// Highest generation with a `base-<gen>.sphsnap` present.
  std::optional<std::uint64_t> snapshot_generation;
  /// Every `base-<gen>.sphsnap` present (leftovers included).
  std::vector<std::uint64_t> snapshots;
  /// (shard, generation) of every journal file present.
  struct journal_entry {
    std::size_t shard = 0;
    std::uint64_t generation = 0;
  };
  std::vector<journal_entry> journals;

  bool empty() const noexcept { return !snapshot_generation && journals.empty(); }
};

/// Lists the recognised snapshot/journal files in `dir` (missing dir =
/// empty state). Ignores foreign files and `.tmp` leftovers.
journal_dir_state scan_journal_dir(const std::string& dir);

/// Deletes recognised snapshot/journal files whose generation is below
/// `keep_from` — redundant once `base-<keep_from>.sphsnap` is durable.
void remove_stale_generations(const std::string& dir, std::uint64_t keep_from);

// --- writer ------------------------------------------------------------------

/// Where a shard's writer should (re)open its journal: either continue an
/// existing file — truncated to `valid_bytes` first if the tail was torn —
/// or create a fresh one.
struct journal_head {
  std::string path;
  std::uint64_t generation = 0;
  bool exists = false;            ///< continue vs create
  std::uint64_t valid_bytes = 0;  ///< truncate-to offset when continuing
  std::uint64_t next_seq = 0;     ///< first seq to write
  std::uint64_t records = 0;      ///< records already in the file
};

/// Single-owner append handle for one shard's journal. All appends happen
/// on the shard's writer thread; `bytes()`/`records()` are atomic so
/// stats() can read them from any thread concurrently.
class journal_writer {
public:
  /// Opens (or creates) the file per `head`, writing/validating the
  /// header. Throws io_error on filesystem failure.
  journal_writer(const journal_head& head, const journal_file_header& header,
                 const journal_config& config);
  ~journal_writer();

  journal_writer(const journal_writer&) = delete;
  journal_writer& operator=(const journal_writer&) = delete;

  /// Appends one framed record, group-committing fsyncs per the config
  /// (record-count threshold or interval since the last sync, whichever
  /// trips first). Throws io_error on write failure — the shard must
  /// then *not* apply the batch (write-ahead contract). A non-zero
  /// `txn_id` tags the record as one slice of a cross-shard transaction
  /// with `participants` data records; recovery applies it all-or-nothing
  /// with its commit record.
  void append_batch(const std::vector<ms::spectrum>& batch, std::uint64_t txn_id = 0,
                    std::uint32_t participants = 0);
  void append_recluster();

  /// Appends the commit record sealing cross-shard transaction `txn_id`
  /// (coordinator shard only, after every participant's data record is
  /// appended).
  void append_commit(std::uint64_t txn_id);

  /// fsyncs now (no-op when config.fsync is false or nothing is pending).
  void sync();

  /// Write-ahead compensation: restores the file to `bytes_before` (the
  /// bytes() value read just before an append) so a batch that was
  /// journaled but never applied — apply threw, or the append's own
  /// group-commit fsync failed after the frame landed — leaves no
  /// journal trace and recovery stays bit-identical to the live run.
  /// Idempotent: a no-op when nothing past the mark was written; also
  /// heals a poisoned writer when the truncate now succeeds. The
  /// truncation itself is fsynced (an un-synced rollback of an already-
  /// synced record would resurrect it on power loss). Poisons the writer
  /// (and throws io_error) on filesystem failure.
  void rollback_to(std::uint64_t bytes_before);

  /// Closes the current file and starts a fresh one at `head.path` for
  /// `header.generation`. Used by compaction, on the writer thread, right
  /// after the shard's state is exported — so the new file holds exactly
  /// the records that post-date the exported state.
  void rotate(const journal_head& head, const journal_file_header& header);

  std::uint64_t bytes() const noexcept { return bytes_.load(std::memory_order_relaxed); }
  std::uint64_t records() const noexcept {
    return records_.load(std::memory_order_relaxed);
  }
  std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_relaxed);
  }
  const std::string& path() const noexcept { return path_; }

private:
  void open(const journal_head& head, const journal_file_header& header);
  void append_frame(const std::string& frame);
  void close();

  int fd_ = -1;
  std::string path_;
  journal_config config_;
  /// Set when a partial frame could not be rolled back: the file ends in
  /// garbage, so further appends would be unreachable at recovery. Every
  /// later append throws (and the shard drops the batch).
  bool failed_ = false;
  std::uint64_t next_seq_ = 0;
  std::size_t unsynced_records_ = 0;
  std::chrono::steady_clock::time_point last_sync_{};
  std::string scratch_;  ///< reused record-framing buffer (grow-only)
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace spechd::serve
