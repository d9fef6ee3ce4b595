// One shard of the clustering service: a single-writer ingest engine over
// an incremental_clusterer, with RCU-published immutable query views.
//
// Concurrency model (the whole point of this layer):
//
//   producers ──push──▶ bounded mpsc_queue (backpressure)
//                            │ one writer thread pops in order
//                            ▼
//                  incremental_clusterer (single owner)
//                            │ after each batch: copy the bucket_rows of
//                            │ the buckets push_batch reports (copy-on-write)
//                            ▼
//                  rcu_ptr<shard_view> ◀──load── query threads (lock-free
//                                                 reads, never block ingest)
//
// The writer thread is the *only* code that touches the clusterer, so the
// clusterer's single-owner contract holds by construction and per-shard
// ingestion order is exactly enqueue order — which is what makes the
// sharded service bit-identical to a sequential clusterer per bucket.
// Queries run against whatever view epoch is published; a view is a frozen
// copy of each bucket's core::bucket_rows, so a query sees a consistent
// prefix of the ingest stream, never a torn state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "serve/journal.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rcu_ptr.hpp"

namespace spechd::serve {

/// Frozen view of one shard: a copy of each bucket's rows as the clusterer
/// held them. Buckets are shared_ptr so an epoch swap only copies the map
/// and the *changed* buckets (copy-on-write).
struct shard_view {
  std::map<std::int64_t, std::shared_ptr<const core::bucket_rows>> buckets;
  std::size_t record_count = 0;
  std::size_t cluster_count = 0;
  /// Buckets awaiting a recluster (ingestion marked them dirty, and
  /// clustering_service::run_maintenance_now() clears them).
  std::size_t dirty_buckets = 0;
  std::uint64_t epoch = 0;  ///< strictly increasing per publish
};

/// Result of one query against a published view.
struct query_result {
  bool encodable = false;   ///< false: preprocessing dropped the spectrum
  bool matched = false;     ///< a cluster passed the complete-linkage cut
  std::int64_t bucket_key = 0;
  std::size_t shard = 0;
  std::int32_t local_label = -1;  ///< matched cluster (bucket-local id)
  double distance = 1.0;          ///< complete-linkage distance to the match
  double nearest_member = 1.0;    ///< min member distance in the bucket
  std::size_t cluster_size = 0;   ///< members of the matched cluster
  std::uint64_t view_epoch = 0;   ///< epoch the query executed against
};

/// Failure posture of a shard. Transitions are one-way escalations during
/// normal operation (healthy -> degraded -> failed); only a completed
/// journal compaction heals degraded back to healthy (the fresh
/// generation captures the applied state, so journal == applied again).
///
///  - healthy:  full service.
///  - degraded: read-only. A batch was dropped (journal append or apply
///    failed, and the write-ahead record was rolled back cleanly), so the
///    shard stopped accepting ingest rather than silently diverging from
///    its producers; queries and drains still work, and the journal still
///    matches the applied state exactly.
///  - failed:   a rollback itself failed, so the on-disk journal may hold
///    records this shard never applied (or a cross-shard commit landed
///    but the local apply failed). Ingest is rejected, queries still
///    serve the last published view; recovery after restart replays the
///    journal, which may resurrect batches the live run dropped —
///    in-doubt, surfaced, never silent.
enum class shard_health : std::uint8_t { healthy = 0, degraded = 1, failed = 2 };

const char* shard_health_name(shard_health health) noexcept;

/// Rendezvous for one cross-shard atomic ingest: every participant's
/// writer thread appends its data record (phase 1), the coordinator
/// appends the commit record once all landed (phase 2), then everyone
/// applies or rolls back together (phase 3). Created per transaction by
/// clustering_service::ingest.
struct txn_barrier {
  explicit txn_barrier(std::size_t n) : participants(n) {}
  std::mutex mutex;
  std::condition_variable cv;
  /// Jobs that will arrive; the service shrinks this (and sets `aborted`)
  /// when a shard rejects its enqueue, so nobody waits on a job that was
  /// never queued.
  std::size_t participants;
  std::size_t journaled = 0;  ///< phase-1 arrivals
  bool commit_done = false;   ///< phase 2 finished (committed or aborted)
  bool aborted = false;       ///< any append failed: roll back everywhere
};

/// Monotonic counters (safe to read from any thread at any time).
struct shard_stats {
  std::size_t ingested = 0;       ///< records accepted (post-preprocessing)
  std::size_t dropped = 0;        ///< spectra rejected by preprocessing
  std::size_t batches = 0;        ///< ingest jobs applied
  std::size_t queue_depth = 0;    ///< jobs currently waiting
  std::size_t record_count = 0;   ///< records in the published view
  std::size_t cluster_count = 0;  ///< clusters in the published view
  std::size_t dirty_buckets = 0;  ///< dirty buckets in the published view
  std::uint64_t view_epoch = 0;
  std::uint64_t journal_bytes = 0;    ///< current journal file size (0: unjournaled)
  std::uint64_t journal_records = 0;  ///< records in the current journal file
  shard_health health = shard_health::healthy;
  std::string last_error;  ///< why the shard left healthy (empty when healthy)
};

class shard {
public:
  /// Starts the writer thread. `config.threads` sizes the clusterer's
  /// internal pool (the service passes 1: parallelism comes from shards).
  /// Every applied batch publishes a view epoch.
  shard(std::size_t id, const core::spechd_config& config, std::size_t queue_capacity);

  /// Closes the queue, drains remaining jobs, joins the writer.
  ~shard();

  shard(const shard&) = delete;
  shard& operator=(const shard&) = delete;

  std::size_t id() const noexcept { return id_; }

  /// Enqueues a batch for the writer; blocks while the queue is full
  /// (backpressure). Returns false — dropping nothing, applying nothing —
  /// once shutdown began or the shard left healthy (degraded/failed
  /// shards are read-only; see health()). A producer blocked in the full-
  /// queue wait is woken and receives false when the shard stops
  /// mid-ingest. The service surfaces a false return as an error rather
  /// than dropping the batch silently.
  bool enqueue(std::vector<ms::spectrum> batch);

  /// Enqueues one slice of a cross-shard atomic batch. The job runs the
  /// barrier protocol with the other participants' writer threads: append
  /// data record, rendezvous, coordinator appends the commit record, then
  /// all apply — or all roll back. Returns false (nothing enqueued) when
  /// the shard is not healthy or is shut down; the *service* then shrinks
  /// `barrier->participants` and aborts the transaction.
  bool enqueue_txn(std::vector<ms::spectrum> batch, std::uint64_t txn_id,
                   std::shared_ptr<txn_barrier> barrier, bool coordinator);

  shard_health health() const noexcept {
    return health_.load(std::memory_order_relaxed);
  }

  /// Ingest jobs currently queued (one queue-size read; the network
  /// tier's admission control polls this on every ingest request).
  std::size_t queue_depth() const { return queue_.size(); }

  /// Why the shard left healthy (empty string while healthy).
  std::string health_message() const;

  /// degraded -> healthy, once the caller (journal compaction) has made
  /// the applied state durable in a fresh generation. Returns false when
  /// the shard was not degraded — `failed` is sticky until restart, since
  /// the journal may describe state the live shard does not hold.
  bool heal_degraded();

  /// Waits until every previously enqueued job has been applied and its
  /// view published (so after drain() the view reflects every applied
  /// batch) and the journal — when one is attached — is fsynced past every
  /// applied record; then rethrows the first ingest error if any occurred.
  void drain();

  /// Runs `fn` on the writer thread after all earlier jobs (so it sees a
  /// quiescent clusterer at a well-defined point in the stream). Blocks
  /// until done; rethrows fn's exception. Snapshot export/import and
  /// maintenance reclustering use this instead of external locking.
  /// `republish` (default) copies *all* bucket rows into a new view
  /// afterwards — pass false only when fn is read-only.
  void run_exclusive(const std::function<void(core::incremental_clusterer&)>& fn,
                     bool republish = true);

  /// Hands this shard its write-ahead journal. Must be called before any
  /// batch is enqueued (the service attaches journals during
  /// construction/recovery); the pointer is then stable for the shard's
  /// lifetime — the queue's mutex publishes it to the writer thread.
  /// Every subsequently applied batch is journaled *before* it is applied
  /// (a batch whose journal append fails is dropped and the error
  /// rethrown by the next drain()), and drain() additionally fsyncs the
  /// journal, making it a durability barrier.
  void attach_journal(std::unique_ptr<journal_writer> journal);

  bool journaled() const noexcept { return journal_ != nullptr; }
  std::uint64_t journal_bytes() const noexcept {
    return journal_ ? journal_->bytes() : 0;
  }
  std::uint64_t journal_records() const noexcept {
    return journal_ ? journal_->records() : 0;
  }
  std::uint64_t journal_generation() const noexcept {
    return journal_ ? journal_->generation() : 0;
  }

  /// Maintenance recluster: enqueues a job that runs rebuild_dirty_buckets
  /// on the writer thread (journaled as a recluster record first, so
  /// recovery replays it at the same stream position) and republishes all
  /// views. The job is a no-op (no journal record) when nothing is dirty
  /// by then. A failed append is rolled back and leaves the buckets dirty;
  /// its error is rethrown by the next drain(). Returns false once
  /// shutdown began.
  bool maintain();

  /// Compaction step: on the writer thread, exports the clusterer state
  /// and atomically rotates the journal to `head`/`header` — so the new
  /// journal file holds exactly the records applied after the returned
  /// state. Precondition: a journal is attached.
  core::clusterer_state export_and_rotate_journal(const journal_head& head,
                                                  const journal_file_header& header);

  /// Current published view (never null; empty before first ingest).
  std::shared_ptr<const shard_view> view() const { return view_.load(); }

  /// Query against the published view using *the same criterion ingest
  /// assignment uses* — so "query then ingest" agrees with the assignment
  /// the spectrum would get: core::complete_linkage_select over one packed
  /// Hamming-tile row against the bucket's members, matched if the pick
  /// passes `threshold`. Safe from any thread.
  query_result query(const hdc::hypervector& hv, std::int64_t bucket_key,
                     double threshold) const;

  shard_stats stats() const;

private:
  void writer_loop();
  void apply_batch(std::vector<ms::spectrum> batch);
  void apply_txn_batch(std::vector<ms::spectrum> batch, std::uint64_t txn_id,
                       const std::shared_ptr<txn_barrier>& barrier, bool coordinator);
  /// Records the first error for drain() to rethrow (writer thread side).
  void record_error(std::exception_ptr error);
  /// Escalates health (never downgrades) and remembers why.
  void set_health(shard_health health, const std::string& why);
  /// Runs `fn` on the writer thread after all earlier jobs; blocks until
  /// done and rethrows fn's exception (the plumbing under run_exclusive,
  /// attach/rotate, and drain).
  void run_on_writer(std::function<void()> fn);
  /// Publishes a new view epoch. `touched` names the buckets whose rows
  /// changed since the last publish: the view copies their rows and
  /// shares every other bucket with the previous epoch. Null copies every
  /// bucket afresh — after an import, a recluster or a failed apply, any
  /// bucket may have changed or gone.
  void publish(const std::vector<std::int64_t>* touched);
  /// Mirrors health/journal position/queue depth into the crash-dump
  /// status table (obs::status_shard) — relaxed stores only.
  void update_status() const;

  std::size_t id_;
  core::incremental_clusterer clusterer_;  ///< writer-thread-owned
  std::unique_ptr<journal_writer> journal_;  ///< writer-thread-owned after attach
  mpsc_queue<std::function<void()>> queue_;
  rcu_ptr<shard_view> view_;
  std::uint64_t epoch_ = 0;  ///< writer-thread-only

  std::atomic<std::size_t> ingested_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<shard_health> health_{shard_health::healthy};

  mutable std::mutex error_mutex_;
  std::exception_ptr first_error_;
  std::string health_error_;  ///< guarded by error_mutex_

  std::thread writer_;  ///< last member: starts after everything above
};

}  // namespace spechd::serve
