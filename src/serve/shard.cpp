#include "serve/shard.hpp"

#include <algorithm>
#include <future>
#include <span>
#include <utility>

#include "hdc/cpu_kernels.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace spechd::serve {

namespace {

/// Time-stamps an enqueue when timing is armed (epoch = disarmed marker);
/// the paired record on the writer thread charges the gap to the
/// queue-wait histogram — the cross-thread stage a request-thread span
/// cannot cover.
std::chrono::steady_clock::time_point queue_wait_start() noexcept {
  return obs::armed() ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};
}

void record_queue_wait(std::chrono::steady_clock::time_point enqueued_at) noexcept {
  if (enqueued_at == std::chrono::steady_clock::time_point{}) return;
  static auto& wait_ns =
      obs::registry::instance().histogram("spechd_ingest_queue_wait_ns");
  wait_ns.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - enqueued_at)
          .count()));
}

obs::histogram& shard_apply_ns() {
  static auto& h = obs::registry::instance().histogram("spechd_ingest_apply_ns");
  return h;
}

}  // namespace

const char* shard_health_name(shard_health health) noexcept {
  switch (health) {
    case shard_health::healthy: return "healthy";
    case shard_health::degraded: return "degraded";
    case shard_health::failed: return "failed";
  }
  return "?";
}

shard::shard(std::size_t id, const core::spechd_config& config, std::size_t queue_capacity)
    : id_(id), clusterer_(config), queue_(queue_capacity) {
  view_.store(std::make_shared<shard_view>());  // empty view: queries never see null
  writer_ = std::thread([this] { writer_loop(); });
}

void shard::attach_journal(std::unique_ptr<journal_writer> journal) {
  // Pre-ingest only (see header): the writer thread is parked in
  // queue_.pop(), and the queue mutex orders this store before any job
  // that could read journal_.
  journal_ = std::move(journal);
}

shard::~shard() {
  queue_.close();
  if (writer_.joinable()) writer_.join();
}

void shard::writer_loop() {
  // Heartbeat once per job: the watchdog flags this writer if it wedges
  // inside a job (or the queue machinery) past the configured deadline.
  auto beat =
      obs::watchdog::instance().register_component("shard-" + std::to_string(id_) +
                                                   "/writer");
  // Jobs are plain closures; apply_batch wraps its own errors, and
  // run_exclusive routes errors through its promise, so nothing here
  // should throw — but a writer that dies would deadlock drain(), so
  // catch anything that slips through and record it.
  while (auto job = queue_.pop()) {
    beat.pulse();
    try {
      (*job)();
    } catch (...) {
      std::lock_guard lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
  beat.retire();
}

void shard::update_status() const {
  // Mirror into the crash-dump status table (plain relaxed atomics the
  // fatal handler and the get_debug_dump frame read without touching this
  // object). Shards past k_max_status_shards share the last slot.
  auto& st = obs::status_shard(id_);
  st.health.store(static_cast<std::uint32_t>(health()), std::memory_order_relaxed);
  st.generation.store(journal_generation(), std::memory_order_relaxed);
  st.journal_bytes.store(journal_bytes(), std::memory_order_relaxed);
  st.journal_records.store(journal_records(), std::memory_order_relaxed);
  st.queue_depth.store(queue_.size(), std::memory_order_relaxed);
}

bool shard::enqueue(std::vector<ms::spectrum> batch) {
  if (batch.empty()) return true;
  // Degraded/failed shards are read-only: reject up front instead of
  // queueing a batch the writer would have to drop.
  if (health() != shard_health::healthy) return false;
  const auto enqueued_at = queue_wait_start();
  return queue_.push([this, batch = std::move(batch), enqueued_at]() mutable {
    record_queue_wait(enqueued_at);
    apply_batch(std::move(batch));
  });
}

bool shard::enqueue_txn(std::vector<ms::spectrum> batch, std::uint64_t txn_id,
                        std::shared_ptr<txn_barrier> barrier, bool coordinator) {
  SPECHD_EXPECTS(journal_ != nullptr);
  SPECHD_EXPECTS(!batch.empty());
  if (health() != shard_health::healthy) return false;
  const auto enqueued_at = queue_wait_start();
  return queue_.push([this, batch = std::move(batch), txn_id,
                      barrier = std::move(barrier), coordinator,
                      enqueued_at]() mutable {
    record_queue_wait(enqueued_at);
    apply_txn_batch(std::move(batch), txn_id, barrier, coordinator);
  });
}

void shard::record_error(std::exception_ptr error) {
  std::lock_guard lock(error_mutex_);
  if (!first_error_) first_error_ = std::move(error);
}

void shard::set_health(shard_health health, const std::string& why) {
  {
    std::lock_guard lock(error_mutex_);
    const auto current = health_.load(std::memory_order_relaxed);
    if (static_cast<int>(health) <= static_cast<int>(current)) return;
    health_.store(health, std::memory_order_relaxed);
    health_error_ = why;
  }
  obs::record_event(obs::event_kind::health_transition,
                    static_cast<std::uint64_t>(health), id_);
  update_status();
}

std::string shard::health_message() const {
  std::lock_guard lock(error_mutex_);
  return health_error_;
}

bool shard::heal_degraded() {
  {
    std::lock_guard lock(error_mutex_);
    if (health_.load(std::memory_order_relaxed) != shard_health::degraded) return false;
    health_.store(shard_health::healthy, std::memory_order_relaxed);
    health_error_.clear();
  }
  update_status();
  return true;
}

void shard::apply_batch(std::vector<ms::spectrum> batch) {
  const std::size_t submitted = batch.size();
  std::vector<std::int64_t> touched;  // stays empty when nothing was applied
  bool apply_failed = false;
  bool journaled_ok = true;
  const std::uint64_t journal_mark = journal_ ? journal_->bytes() : 0;
  if (journal_) {
    // Write-ahead: the journal record lands (fsynced per the group-commit
    // policy) before the batch mutates any state, so recovery can never
    // be missing an applied batch.
    try {
      journal_->append_batch(batch);
      obs::record_event(obs::event_kind::journal_append, journal_->records(),
                        journal_->bytes());
    } catch (...) {
      journaled_ok = false;
      record_error(std::current_exception());
      // The append may have failed *after* the frame landed (group-commit
      // fsync error): since the batch will be dropped, the record must go
      // too, or recovery would replay a batch this run never applied.
      try {
        journal_->rollback_to(journal_mark);
        set_health(shard_health::degraded, "journal append failed; batch dropped");
      } catch (...) {
        record_error(std::current_exception());
        set_health(shard_health::failed,
                   "journal rollback failed after a failed append; the journal may "
                   "hold records this shard never applied");
      }
    }
  }
  if (journaled_ok) {
    try {
      obs::trace_span apply_span(shard_apply_ns(), obs::stage::shard_apply);
      auto report = clusterer_.push_batch(batch);
      apply_span.finish();
      ingested_.fetch_add(report.added, std::memory_order_relaxed);
      dropped_.fetch_add(submitted - report.added, std::memory_order_relaxed);
      obs::record_event(obs::event_kind::ingest_batch, report.added, id_);
      touched = std::move(report.buckets_touched);
    } catch (...) {
      apply_failed = true;
      record_error(std::current_exception());
      // The record was journaled but the batch was never applied: remove
      // it again, or replay would resurrect a batch this service dropped
      // (and a deterministic apply failure would brick every recovery).
      if (journal_) {
        try {
          journal_->rollback_to(journal_mark);
          set_health(shard_health::degraded, "batch apply failed; batch dropped");
        } catch (...) {
          record_error(std::current_exception());
          set_health(shard_health::failed,
                     "journal rollback failed after a failed apply; the journal may "
                     "hold records this shard never applied");
        }
      } else {
        set_health(shard_health::degraded, "batch apply failed; batch dropped");
      }
    }
  } else {
    // An unjournaled batch must not be applied (recovery would silently
    // miss it); it is dropped and the journal error surfaces on drain().
    dropped_.fetch_add(submitted, std::memory_order_relaxed);
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  update_status();
  publish(apply_failed ? nullptr : &touched);
}

void shard::apply_txn_batch(std::vector<ms::spectrum> batch, std::uint64_t txn_id,
                            const std::shared_ptr<txn_barrier>& barrier,
                            bool coordinator) {
  const std::size_t submitted = batch.size();
  const std::uint64_t journal_mark = journal_->bytes();
  // The service may shrink `participants` concurrently when a peer's
  // enqueue is rejected (the transaction then aborts and every data
  // record is rolled back, so the count written here never reaches
  // recovery) — read it under the barrier mutex all the same.
  std::uint32_t declared_participants;
  {
    std::lock_guard lock(barrier->mutex);
    declared_participants = static_cast<std::uint32_t>(barrier->participants);
  }
  // Phase 1: write-ahead data record, tagged with the transaction.
  bool my_append_ok = true;
  try {
    journal_->append_batch(batch, txn_id, declared_participants);
  } catch (...) {
    my_append_ok = false;
    record_error(std::current_exception());
  }
  // Rendezvous: every participant's record is on disk (or has failed)
  // before the commit record may seal the transaction. Deadlock-freedom:
  // the service enqueues all of a transaction's jobs atomically (under
  // its txn mutex) before any job of a later transaction, and queues are
  // FIFO — so the peers this wait depends on are already queued and none
  // of the jobs ahead of them waits on this shard.
  {
    std::unique_lock lock(barrier->mutex);
    if (!my_append_ok) barrier->aborted = true;
    ++barrier->journaled;
    if (barrier->journaled >= barrier->participants) {
      barrier->cv.notify_all();
    } else {
      barrier->cv.wait(lock,
                       [&] { return barrier->journaled >= barrier->participants; });
    }
  }
  // Phase 2: the coordinator (lowest participating shard) seals the
  // transaction with a commit record — or aborts it.
  bool my_fault = !my_append_ok;
  if (coordinator) {
    bool do_commit;
    {
      std::lock_guard lock(barrier->mutex);
      do_commit = !barrier->aborted;
    }
    if (do_commit) {
      try {
        journal_->append_commit(txn_id);
      } catch (...) {
        my_fault = true;
        record_error(std::current_exception());
        std::lock_guard lock(barrier->mutex);
        barrier->aborted = true;
      }
    }
    {
      std::lock_guard lock(barrier->mutex);
      barrier->commit_done = true;
    }
    barrier->cv.notify_all();
  } else {
    std::unique_lock lock(barrier->mutex);
    barrier->cv.wait(lock, [&] { return barrier->commit_done; });
  }
  bool aborted;
  {
    std::lock_guard lock(barrier->mutex);
    aborted = barrier->aborted;
  }
  // Phase 3: one outcome everywhere.
  if (aborted) {
    // All participants roll their data record back (the coordinator's
    // rollback also removes a partially-appended commit record — its
    // append already truncated itself, so the mark covers everything).
    dropped_.fetch_add(submitted, std::memory_order_relaxed);
    try {
      journal_->rollback_to(journal_mark);
      if (my_fault) {
        set_health(shard_health::degraded,
                   "cross-shard transaction aborted by this shard; batch dropped");
      }
      // An innocent participant stays healthy: its journal matches its
      // applied state, and the abort is the *transaction's* clean
      // all-or-nothing rejection, accounted in dropped counters and the
      // faulty shard's health.
    } catch (...) {
      record_error(std::current_exception());
      set_health(shard_health::failed,
                 "cross-shard transaction rollback failed; the journal may hold "
                 "records this shard never applied");
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Committed: apply. A post-commit apply failure cannot be rolled back —
  // the commit record already promises the batch everywhere and peers are
  // applying it — so the shard goes failed (journal ⊃ applied; recovery
  // will apply the batch from the journal).
  std::vector<std::int64_t> touched;
  bool apply_failed = false;
  try {
    obs::trace_span apply_span(shard_apply_ns(), obs::stage::shard_apply);
    auto report = clusterer_.push_batch(batch);
    apply_span.finish();
    ingested_.fetch_add(report.added, std::memory_order_relaxed);
    dropped_.fetch_add(submitted - report.added, std::memory_order_relaxed);
    obs::record_event(obs::event_kind::ingest_batch, report.added, id_);
    touched = std::move(report.buckets_touched);
  } catch (...) {
    apply_failed = true;
    record_error(std::current_exception());
    set_health(shard_health::failed,
               "batch apply failed after its cross-shard commit; restart to recover "
               "the committed state from the journal");
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  update_status();
  publish(apply_failed ? nullptr : &touched);
}

void shard::run_on_writer(std::function<void()> fn) {
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  const bool accepted = queue_.push([fn = std::move(fn), done] {
    try {
      fn();
      done->set_value();
    } catch (...) {
      done->set_exception(std::current_exception());
    }
  });
  if (!accepted) throw spechd::error("shard " + std::to_string(id_) + " is shut down");
  future.get();
}

void shard::run_exclusive(const std::function<void(core::incremental_clusterer&)>& fn,
                          bool republish) {
  run_on_writer([this, &fn, republish] {
    std::exception_ptr error;
    try {
      fn(clusterer_);
    } catch (...) {
      // Publish anyway: fn may have partially mutated nothing (import
      // validates first), but republishing a consistent state is cheap
      // and keeps views honest if it did.
      error = std::current_exception();
    }
    if (republish) publish(nullptr);
    if (journal_) {
      // Exclusive sections double as durability barriers (drain, export).
      try {
        journal_->sync();
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
  });
}

void shard::drain() {
  run_exclusive([](core::incremental_clusterer&) {}, /*republish=*/false);
  std::lock_guard lock(error_mutex_);
  if (first_error_) {
    auto error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

bool shard::maintain() {
  return queue_.push([this] {
    // Checked on the writer thread, at this job's stream position: with
    // nothing dirty no journal record is written, so replay stays exact.
    if (clusterer_.dirty_bucket_count() == 0) return;
    if (journal_) {
      const std::uint64_t journal_mark = journal_->bytes();
      try {
        journal_->append_recluster();
      } catch (...) {
        // The append may have failed *after* the frame landed (group-
        // commit fsync error): the recluster will not run, so its record
        // must go too, or recovery would replay a recluster this run
        // never did. The buckets stay dirty and the error surfaces on
        // drain(), so a later maintain() retries.
        try {
          journal_->rollback_to(journal_mark);
        } catch (...) {
          set_health(shard_health::failed,
                     "journal rollback failed after a failed recluster append; the "
                     "journal may hold records this shard never applied");
        }
        throw;
      }
    }
    clusterer_.rebuild_dirty_buckets();
    obs::record_event(obs::event_kind::maintenance_action, /*reclusters=*/1, 0);
    publish(nullptr);
  });
}

core::clusterer_state shard::export_and_rotate_journal(const journal_head& head,
                                                       const journal_file_header& header) {
  SPECHD_EXPECTS(journal_ != nullptr);
  core::clusterer_state state;
  run_on_writer([this, &state, &head, &header] {
    state = clusterer_.export_state();
    journal_->rotate(head, header);
    update_status();
  });
  return state;
}

void shard::publish(const std::vector<std::int64_t>* touched) {
  static auto& publish_ns =
      obs::registry::instance().histogram("spechd_view_publish_ns");
  static auto& publishes =
      obs::registry::instance().counter("spechd_view_publishes_total");
  publishes.add(1);
  obs::trace_span span(publish_ns, obs::stage::view_publish);
  auto next = std::make_shared<shard_view>();
  if (touched == nullptr) {
    // Rebuild the map from the clusterer alone so buckets an import
    // removed cannot survive in query views.
    clusterer_.for_each_bucket([&](const core::incremental_clusterer::bucket_ref& bucket) {
      next->buckets.emplace(bucket.key, std::make_shared<const core::bucket_rows>(bucket.rows));
    });
  } else {
    next->buckets = view_.load()->buckets;  // shared_ptr copies: O(buckets)
    for (const auto key : *touched) {
      next->buckets[key] = std::make_shared<const core::bucket_rows>(clusterer_.rows(key));
    }
  }
  next->record_count = clusterer_.size();
  next->cluster_count = clusterer_.cluster_count();
  next->dirty_buckets = clusterer_.dirty_bucket_count();
  next->epoch = ++epoch_;
  view_.store(std::move(next));
  obs::record_event(obs::event_kind::view_publish, epoch_, id_);
}

query_result shard::query(const hdc::hypervector& hv, std::int64_t bucket_key,
                          double threshold) const {
  query_result result;
  result.encodable = true;
  result.bucket_key = bucket_key;
  result.shard = id_;

  const auto view = view_.load();
  result.view_epoch = view->epoch;
  const auto it = view->buckets.find(bucket_key);
  if (it == view->buckets.end() || it->second->labels.empty()) return result;
  const core::bucket_rows& bucket = *it->second;
  const std::size_t words = hv.word_count();
  const std::size_t n = bucket.labels.size();
  SPECHD_EXPECTS(bucket.packed.size() == n * words);

  static auto& probe_ns =
      obs::registry::instance().histogram("spechd_query_bucket_probe_ns");
  static auto& select_ns =
      obs::registry::instance().histogram("spechd_query_select_ns");

  // One packed Hamming-tile row against every member — the same kernels
  // (and the same normalisation) the ingest assignment path uses.
  obs::trace_span probe_span(probe_ns, obs::stage::bucket_probe);
  const auto clusters = static_cast<std::size_t>(bucket.cluster_count);
  // The member row, then one entry per cluster for the select.
  std::vector<std::uint32_t> scratch(n + clusters);
  std::uint32_t* const counts = scratch.data();
  hdc::kernels::hamming_tile_packed(hv.words().data(), 1, bucket.packed.data(), n, words,
                                    counts);

  const double dim = static_cast<double>(hv.dim());
  for (std::size_t i = 0; i < n; ++i) {
    result.nearest_member =
        std::min(result.nearest_member, static_cast<double>(counts[i]) / dim);
  }
  probe_span.finish();

  // The same select assign() runs over the same member rows.
  obs::trace_span select_span(select_ns, obs::stage::select);
  const auto pick = core::complete_linkage_select({counts, n}, bucket.labels,
                                                  bucket.cluster_count, hv.dim(), threshold,
                                                  {counts + n, clusters});
  if (pick.label >= 0) {
    result.matched = true;
    result.local_label = pick.label;
    result.distance = pick.distance;
    result.cluster_size = static_cast<std::size_t>(
        std::count(bucket.labels.begin(), bucket.labels.end(), pick.label));
  }
  return result;
}

shard_stats shard::stats() const {
  shard_stats s;
  s.ingested = ingested_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  const auto view = view_.load();
  s.record_count = view->record_count;
  s.cluster_count = view->cluster_count;
  s.dirty_buckets = view->dirty_buckets;
  s.view_epoch = view->epoch;
  s.journal_bytes = journal_bytes();
  s.journal_records = journal_records();
  s.health = health();
  s.last_error = health_message();
  return s;
}

}  // namespace spechd::serve
