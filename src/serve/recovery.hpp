// Crash recovery for a journaled clustering service.
//
// A journal directory holds at most a few *generations* of durable state
// (see serve/journal.hpp): `base-<g>.sphsnap` snapshots plus per-shard
// `shard-<s>-<g>.sphjrnl` journals, where the journal at generation g
// always contains exactly the records applied after the state in
// snapshot g. Recovery therefore:
//
//   1. restores the highest-generation snapshot present (or starts from
//      the empty state when none is);
//   2. replays, per shard, every journal at generations >= that base, in
//      generation order — ingest-batch records re-run the deterministic
//      push_batch pipeline, recluster records re-run
//      rebuild_dirty_buckets at the same stream position;
//   3. tolerates a torn tail on a shard's *newest* journal by stopping at
//      the last complete record (the writer truncates there when it
//      reopens the file). A torn record in a non-newest journal means the
//      directory's history has a hole and is refused;
//   4. applies cross-shard transactions all-or-nothing: replay happens in
//      two passes — the first collects, across every shard's surviving
//      generations, which transaction ids have a commit record and which
//      shards' data records are present; the second replays, skipping any
//      txn-tagged batch whose commit record or peer data records did not
//      survive (a torn multi-shard batch thus vanishes everywhere instead
//      of applying on some shards only). Plain records (txn_id 0) replay
//      unconditionally, as before.
//
// The result is bit-identical to the state the service held when the
// durable prefix was written — pinned by tests/serve/test_journal.cpp at
// shard/thread counts {1, 4}, including a journaled maintenance
// recluster and a torn final record.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "serve/journal.hpp"
#include "serve/snapshot.hpp"

namespace spechd::serve {

/// What a recovery pass did — kept by the service (and printed by
/// `spechd recover`) so operators can see how much journal was replayed
/// and whether a torn tail was dropped.
struct recovery_report {
  bool recovered = false;  ///< false: the directory held no prior state
  /// Generation of the snapshot the replay started from (nullopt: replay
  /// started from the empty state).
  std::optional<std::uint64_t> base_snapshot_generation;
  std::uint64_t journal_files = 0;
  std::uint64_t batches_replayed = 0;
  std::uint64_t spectra_replayed = 0;
  std::uint64_t reclusters_replayed = 0;
  /// Bytes past the last complete record of torn journals (dropped).
  std::uint64_t torn_bytes = 0;
  /// Cross-shard transaction data records skipped because the commit
  /// record or a peer shard's data record did not survive (the
  /// all-or-nothing guarantee: the whole batch vanished, nowhere applied).
  std::uint64_t txn_batches_dropped = 0;
  /// Highest transaction id seen anywhere in the replayed journals; the
  /// service continues numbering past it.
  std::uint64_t max_txn_id = 0;
  double seconds = 0.0;
};

/// Everything the service needs to resume after recovery: per-shard
/// states to import plus where each shard's writer should continue its
/// journal.
struct recovered_state {
  recovery_report report;
  std::vector<core::clusterer_state> shards;   ///< shard index order
  std::vector<journal_head> journal_heads;     ///< shard index order
};

/// Reads the identity block of the newest durable state in `dir`
/// (snapshot first, else any journal header); nullopt for a fresh/missing
/// directory. Lets `spechd recover` configure a service from the
/// directory alone, mirroring `serve --restore`.
std::optional<snapshot_identity> probe_journal_dir(const std::string& dir);

/// Replay progress, reported once per journal generation replayed (pass
/// 2) so large-journal recoveries are observable instead of silent —
/// `spechd recover` prints one line per callback.
struct recovery_progress {
  std::size_t shard = 0;
  std::uint64_t generation = 0;
  /// Records in this generation's journal (batches + reclusters + commits).
  std::uint64_t records_replayed = 0;
  /// Cumulative records across the whole recovery so far.
  std::uint64_t total_records_replayed = 0;
  /// Cumulative replay rate (records/sec since recovery started).
  double records_per_sec = 0.0;
  /// This generation ended in a torn tail; `torn_bytes` were dropped.
  bool torn_tail = false;
  std::uint64_t torn_bytes = 0;
};
using recovery_progress_fn = std::function<void(const recovery_progress&)>;

/// Rebuilds the per-shard clusterer states from `dir` and computes where
/// each shard's journal continues. `pipeline`/`shards` must match the
/// directory's identity block (dim, seed, threshold, bucketing, digest,
/// *and* shard count — per-shard journals do not re-route);
/// mismatch throws parse_error. Corrupt snapshots/headers and non-tail
/// torn records throw parse_error; an unreadable directory throws
/// io_error. A fresh directory yields empty states and fresh
/// generation-0 heads (report.recovered = false).
recovered_state recover_journal_dir(const std::string& dir,
                                    const core::spechd_config& pipeline, std::size_t shards,
                                    const snapshot_identity& expected_identity,
                                    const recovery_progress_fn& progress = {});

}  // namespace spechd::serve
