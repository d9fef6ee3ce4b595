// Sharded clustering service: the concurrent ingest/query engine.
//
// The ROADMAP's serving shape on CPU: live clustering state partitioned by
// precursor-mass bucket over N shards, each shard a single-writer
// incremental clusterer behind a bounded ingest queue, with immutable
// RCU-published views answering queries concurrently with ingestion, and a
// CRC-guarded snapshot/restore format so a restart resumes bit-identically.
//
//   ingest(batch) ─▶ shard_router ─▶ per-shard mpsc queues ─▶ writer threads
//                                                               │
//   query(spectrum) ◀── published shard views (lock-free) ◀── publish
//                                                               │
//   snapshot_file() / restore_file()  ◀──────────── .sphsnap ───┘
//
// Equivalence guarantee (pinned by tests/serve/test_service.cpp and
// test_snapshot.cpp): for a single producer, every bucket's cluster state
// equals what one sequential incremental_clusterer ingesting the same
// stream would hold — sharding, queueing, and snapshot/restore cycles
// never change results.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/nn_chain.hpp"
#include "core/incremental.hpp"
#include "hdc/encoder.hpp"
#include "serve/journal.hpp"
#include "serve/recovery.hpp"
#include "serve/search.hpp"
#include "serve/shard.hpp"
#include "serve/shard_router.hpp"
#include "serve/snapshot.hpp"

namespace spechd::serve {

struct serve_config {
  /// Pipeline knobs (threshold, preprocessing, encoder, linkage).
  /// `pipeline.threads` sizes each shard's *internal* pool and defaults to
  /// 1 when 0 — service parallelism comes from shards, not nested pools.
  core::spechd_config pipeline;
  std::size_t shards = 4;
  /// Ingest jobs (batches) buffered per shard before producers block.
  std::size_t queue_capacity = 16;
  /// Durability: set journal.dir to enable write-ahead journaling. The
  /// constructor then *recovers* whatever state the directory holds
  /// (newest snapshot + journal replay, truncating a torn tail) before
  /// accepting ingests — see recovery() for what it found.
  journal_config journal;
  /// Cross-shard atomic ingest (journaled services only): a batch whose
  /// spectra span multiple shards is journaled as one transaction — each
  /// shard's slice tagged with a txn id, sealed by a commit record on the
  /// coordinating shard — so recovery applies it all-or-nothing instead
  /// of possibly replaying only the shards whose records survived a
  /// crash. Costs one barrier rendezvous across the participating writer
  /// threads per multi-shard batch (single-shard batches are unaffected),
  /// so it is off by default.
  bool atomic_ingest = false;
  /// Invoked once per journal generation replayed during construction-time
  /// recovery (serve/recovery.hpp) — `spechd recover` prints one progress
  /// line per callback. Unset: recovery is silent.
  recovery_progress_fn recovery_progress;
};

/// Aggregate + per-shard counters.
struct service_stats {
  std::size_t ingested = 0;
  std::size_t dropped = 0;
  std::size_t batches = 0;
  std::size_t record_count = 0;
  std::size_t cluster_count = 0;
  std::size_t queue_depth = 0;
  std::size_t dirty_buckets = 0;      ///< buckets awaiting a maintenance recluster
  std::uint64_t journal_bytes = 0;    ///< summed journal sizes (0: unjournaled)
  std::uint64_t journal_records = 0;  ///< summed journal record counts
  std::size_t degraded_shards = 0;  ///< read-only shards (dropped a batch)
  std::size_t failed_shards = 0;    ///< shards whose journal may exceed applied state
  std::vector<shard_stats> shards;
};

class clustering_service {
public:
  /// Builds the router, encoder, and shards; writer threads start
  /// immediately. The config is copied.
  explicit clustering_service(serve_config config);

  /// Shuts down: closes every shard queue, drains backlog, joins writers.
  ~clustering_service() = default;

  clustering_service(const clustering_service&) = delete;
  clustering_service& operator=(const clustering_service&) = delete;

  const serve_config& config() const noexcept { return config_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Splits `spectra` by shard and enqueues one batch per shard; blocks
  /// while a target queue is full (backpressure). Safe from multiple
  /// producer threads, but per-bucket arrival order — and therefore the
  /// exact-equivalence guarantee — is only defined by a single producer
  /// (or producers feeding disjoint precursor ranges).
  ///
  /// Throws spechd::error — enqueuing nothing further, applying nothing
  /// on the rejecting shard — when a target shard rejects the batch
  /// because it is shutting down or has left healthy (degraded shards are
  /// read-only); the message names the shard and why. With
  /// `config.atomic_ingest`, a batch spanning several shards is journaled
  /// as one transaction and recovers all-or-nothing; a rejection then
  /// aborts the whole transaction (no shard applies its slice).
  void ingest(std::vector<ms::spectrum> spectra);

  /// Barrier: waits until everything enqueued before the call is applied
  /// and published, then rethrows the first ingest error if any.
  void drain();

  /// Answers "which cluster would this spectrum join / how close is it?"
  /// against the currently published views: preprocess + encode the
  /// spectrum (identically to ingest), route to its bucket's shard, and
  /// run the complete-linkage criterion over the bucket members with one
  /// packed Hamming-tile row. Lock-free with respect to ingest; safe from
  /// any number of threads.
  query_result query(const ms::spectrum& spectrum) const;

  /// Loads a spectral library snapshot (.sphlib) for search(). The file is
  /// framed/CRC-validated exactly like a state snapshot, and its identity
  /// must match this service's encoding + bucketing configuration
  /// (library_identity(config.pipeline)) — mismatch throws parse_error.
  /// Safe to call while serving; searches in flight keep the old library.
  void load_library(const std::string& path);
  bool has_library() const;

  /// Open-modification search: preprocess + encode `spectrum` exactly like
  /// query(), then shifted-bucket top-k retrieval against the loaded
  /// library (independent of this service's cluster state and shard
  /// count). Throws spechd::error when no library is loaded. Lock-free
  /// with respect to ingest; safe from any number of threads.
  search_result search(const ms::spectrum& spectrum, std::size_t top_k,
                       double tolerance_da) const;

  service_stats stats() const;

  /// Total ingest jobs queued across shards right now — the admission-
  /// control signal the network tier sheds on. Much cheaper than stats().
  std::size_t queue_depth() const;

  /// Drains, then writes the complete service state to `path` (.sphsnap).
  void snapshot_file(const std::string& path);

  /// Drains, then *replaces* all state with the snapshot. The snapshot's
  /// identity block must match this service's config (dim, seed,
  /// threshold, bucketing) — mismatch throws parse_error. The shard
  /// count may differ: buckets are re-routed onto this service's shards.
  void restore_file(const std::string& path);

  /// This service's identity block (what snapshots of it will carry).
  snapshot_identity identity() const;

  // --- durability (journal.dir set) --------------------------------------

  bool journaled() const noexcept { return !config_.journal.dir.empty(); }

  /// What constructor-time recovery found/replayed (default-constructed
  /// when unjournaled or the directory was fresh).
  const recovery_report& recovery() const noexcept { return recovery_; }

  /// Compacts the journal: each shard's state is exported and its journal
  /// atomically rotated to the next generation (on the writer thread, so
  /// the fresh journal holds exactly the post-export records), then one
  /// `base-<gen>.sphsnap` with those states is written and older
  /// generations are deleted. Concurrent ingest/queries keep running; a
  /// crash at any point leaves a directory recovery still reads exactly.
  /// No-op when unjournaled. Serialised against itself.
  ///
  /// Failure handling: refuses (throws spechd::error) while any shard is
  /// `failed` — such a shard's journal may end in un-rollback-able bytes,
  /// and rotating it would strand that garbage in a non-final generation
  /// recovery must refuse. A completed compaction *heals* `degraded`
  /// shards back to healthy: the fresh generation captures exactly their
  /// applied state, so the dropped batch is fully reconciled.
  void compact_journal();

  /// Maintenance trigger: asks every shard to recluster its dirty buckets
  /// — journaled, on the writer thread — and waits for completion, then
  /// rethrows the first error (a failed recluster record is rolled back,
  /// so the buckets stay dirty and a later call retries). Returns how
  /// many shards accepted a recluster job.
  std::size_t run_maintenance_now();

  // --- whole-state accessors (drain first; used by tests, CLI, bench) ----

  /// Per-shard states, shard index order.
  std::vector<core::clusterer_state> export_states();

  /// Merged flat clustering; labels are in shard-concatenated record order
  /// (shard 0's records, then shard 1's, ...), aligned with to_store().
  cluster::flat_clustering clustering();

  /// All records, shard-concatenated order (aligned with clustering()).
  hdc::hv_store to_store();

private:
  void attach_journal_dir();
  void compact_journal_locked();  ///< body of compact_journal; needs compact_mutex_
  journal_file_header shard_journal_header(std::size_t shard, std::uint64_t generation) const;

  /// Enqueues a multi-shard batch as one atomic transaction (atomic_ingest
  /// path of ingest()); `per_shard` holds the non-empty slices.
  void ingest_atomic(std::vector<std::vector<ms::spectrum>> per_shard);
  /// Throws the canonical rejection error for `shard` (names its health).
  [[noreturn]] void throw_rejected(std::size_t shard) const;

  serve_config config_;
  shard_router router_;
  hdc::id_level_encoder encoder_;
  std::vector<std::unique_ptr<shard>> shards_;
  /// Immutable once published; load_library swaps the pointer under
  /// library_mutex_, searches copy it out and run lock-free on the copy.
  std::shared_ptr<const spectral_library> library_;
  mutable std::mutex library_mutex_;
  recovery_report recovery_;
  /// Serialises cross-shard transactions: all of one transaction's jobs
  /// are enqueued before any of the next's, which (with FIFO shard
  /// queues) makes the writer-thread barrier rendezvous deadlock-free.
  std::mutex txn_mutex_;
  std::uint64_t next_txn_id_ = 0;  ///< guarded by txn_mutex_; seeded past recovery
  /// Highest journal generation in use; compaction bumps it. Guarded by
  /// compact_mutex_ (only compaction/restore mutate it after construction).
  std::uint64_t generation_ = 0;
  std::mutex compact_mutex_;
};

}  // namespace spechd::serve
