#include "serve/service.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "preprocess/pipeline.hpp"
#include "util/io.hpp"

namespace spechd::serve {

namespace {

core::spechd_config shard_pipeline_config(const serve_config& config) {
  core::spechd_config pipeline = config.pipeline;
  // Each shard runs its clusterer on its own writer thread; a nested
  // hardware-wide pool per shard would oversubscribe N× for nothing.
  if (pipeline.threads == 0) pipeline.threads = 1;
  return pipeline;
}

}  // namespace

clustering_service::clustering_service(serve_config config)
    : config_(std::move(config)),
      router_(config_.pipeline.preprocess.bucketing, config_.shards),
      encoder_(config_.pipeline.encoder, config_.pipeline.preprocess.quantize.mz_bins,
               config_.pipeline.preprocess.quantize.intensity_levels) {
  SPECHD_EXPECTS(config_.shards >= 1);
  SPECHD_EXPECTS(config_.queue_capacity >= 1);
  // Size the crash-dump status table before any shard writes into it.
  obs::set_status_shard_count(config_.shards);
  const auto pipeline = shard_pipeline_config(config_);
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<shard>(s, pipeline, config_.queue_capacity));
  }
  if (journaled()) attach_journal_dir();
  // The query encoder, every shard clusterer and recovery's replay
  // clusterers read one process-wide table set; publish what it holds.
  static auto& item_memory_bytes =
      obs::registry::instance().gauge("spechd_item_memory_bytes");
  item_memory_bytes.set(static_cast<std::int64_t>(hdc::shared_item_memory_bytes()));
}

std::size_t clustering_service::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& s : shards_) depth += s->queue_depth();
  return depth;
}

void clustering_service::attach_journal_dir() {
  const auto& dir = config_.journal.dir;
  std::filesystem::create_directories(dir);
  auto recovered = recover_journal_dir(dir, shard_pipeline_config(config_), shards_.size(),
                                       identity(), config_.recovery_progress);
  if (recovered.report.recovered) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->run_exclusive(
          [state = std::move(recovered.shards[s])](
              core::incremental_clusterer& clusterer) mutable {
            clusterer.import_state(std::move(state));
          });
    }
  }
  bool created = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& head = recovered.journal_heads[s];
    generation_ = std::max(generation_, head.generation);
    created |= !head.exists;
    shards_[s]->attach_journal(std::make_unique<journal_writer>(
        head, shard_journal_header(s, head.generation), config_.journal));
  }
  if (recovered.report.base_snapshot_generation) {
    generation_ = std::max(generation_, *recovered.report.base_snapshot_generation);
    // Generations below the newest snapshot are redundant; drop leftovers
    // a crash mid-compaction may have stranded.
    remove_stale_generations(dir, *recovered.report.base_snapshot_generation);
  }
  if (created && config_.journal.fsync) util::fsync_dir(dir);
  // Transaction ids must keep increasing across restarts: a reused id
  // could pair a new commit record with a dead transaction's surviving
  // data records.
  next_txn_id_ = recovered.report.max_txn_id;
  recovery_ = recovered.report;
}

journal_file_header clustering_service::shard_journal_header(
    std::size_t shard, std::uint64_t generation) const {
  journal_file_header header;
  header.shard_index = static_cast<std::uint32_t>(shard);
  header.shard_count = static_cast<std::uint32_t>(shards_.size());
  header.generation = generation;
  header.identity = identity();
  return header;
}

void clustering_service::compact_journal() {
  if (!journaled()) return;
  std::lock_guard lock(compact_mutex_);
  compact_journal_locked();
}

void clustering_service::compact_journal_locked() {
  // Never rotate a failed shard: its journal may end in bytes a rollback
  // could not remove, and rotation would freeze that tail into a
  // non-final generation — which recovery must refuse as a hole in
  // history, bricking the directory. (Degraded shards are fine: their
  // journal still matches their applied state exactly, and compaction is
  // precisely what reconciles — and heals — them.)
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->health() == shard_health::failed) {
      throw spechd::error("cannot compact journal: shard " + std::to_string(s) +
                          " is failed (" + shards_[s]->health_message() +
                          "); restart the service to recover from the journal");
    }
  }
  // Base the new generation on the highest generation any shard actually
  // sits at, not just the last *completed* compaction: a compaction that
  // failed mid-rotation leaves some shards already on generation_+1, and
  // retrying with that same number would hit their existing files
  // (O_EXCL). A fresh number lets every shard rotate cleanly, and
  // recovery replays the in-between generations in order regardless.
  std::uint64_t new_gen = generation_;
  for (const auto& s : shards_) {
    new_gen = std::max(new_gen, s->journal_generation());
  }
  new_gen += 1;
  // Rotate first, snapshot second: each shard's state is captured at its
  // rotation point (on the writer thread), so the gen-(g+1) journal holds
  // exactly the records the gen-(g+1) snapshot does not. A crash before
  // the snapshot rename leaves both generations' journals on disk, and
  // recovery replays them in order on top of the *old* snapshot — no
  // drain or ingest pause is needed for correctness.
  std::vector<core::clusterer_state> states(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    journal_head head;
    head.path = journal_shard_path(config_.journal.dir, s, new_gen);
    head.generation = new_gen;
    states[s] = shards_[s]->export_and_rotate_journal(head,
                                                      shard_journal_header(s, new_gen));
  }
  // Replace by rename: a failure at any step (ENOSPC, EIO, torn rename)
  // leaves the previous snapshot and every rotated journal generation in
  // place, so recovery still replays the directory exactly; the
  // compaction itself reports the error and can be retried with a fresh
  // generation number.
  write_snapshot_file(journal_snapshot_path(config_.journal.dir, new_gen), identity(),
                      states, config_.journal.fsync);
  generation_ = new_gen;
  remove_stale_generations(config_.journal.dir, new_gen);
  // The new base snapshot captures each shard's applied state, so a shard
  // that had dropped a batch (degraded, read-only) is reconciled: journal
  // and durable state agree again. Heal it.
  for (auto& s : shards_) s->heal_degraded();
}

std::size_t clustering_service::run_maintenance_now() {
  std::size_t accepted = 0;
  for (auto& s : shards_) accepted += s->maintain() ? 1 : 0;
  drain();  // maintenance jobs run in queue order; drain waits them out
  return accepted;
}

void clustering_service::throw_rejected(std::size_t shard) const {
  const auto health = shards_[shard]->health();
  std::string why = health == shard_health::healthy
                        ? std::string("shut down")
                        : std::string(shard_health_name(health)) + ": " +
                              shards_[shard]->health_message();
  throw spechd::error("shard " + std::to_string(shard) + " rejected ingest (" + why +
                      ")");
}

void clustering_service::ingest(std::vector<ms::spectrum> spectra) {
  if (spectra.empty()) return;
  static auto& records = obs::registry::instance().counter("spechd_ingest_records_total");
  static auto& batches = obs::registry::instance().counter("spechd_ingest_batches_total");
  static auto& enqueue_ns =
      obs::registry::instance().histogram("spechd_ingest_enqueue_ns");
  records.add(spectra.size());
  batches.add(1);
  // The enqueue span covers routing + queue admission; while a target
  // queue is full it also covers the backpressure block, which is exactly
  // what makes it the ingest-side wait signal.
  obs::trace_span span(enqueue_ns, obs::stage::enqueue);
  if (shards_.size() == 1) {
    if (!shards_[0]->enqueue(std::move(spectra))) throw_rejected(0);
    return;
  }
  std::vector<std::vector<ms::spectrum>> per_shard(shards_.size());
  for (auto& s : spectra) {
    per_shard[router_.shard_of(s)].push_back(std::move(s));
  }
  if (config_.atomic_ingest && journaled()) {
    std::size_t participants = 0;
    for (const auto& slice : per_shard) participants += slice.empty() ? 0 : 1;
    if (participants > 1) {
      ingest_atomic(std::move(per_shard));
      return;
    }
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // A false return means the shard is shutting down or read-only
    // (degraded/failed): surface it — silently dropping an accepted batch
    // would diverge the service from its producers with no signal.
    if (!per_shard[i].empty() && !shards_[i]->enqueue(std::move(per_shard[i]))) {
      throw_rejected(i);
    }
  }
}

void clustering_service::ingest_atomic(std::vector<std::vector<ms::spectrum>> per_shard) {
  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    if (!per_shard[i].empty()) targets.push_back(i);
  }
  // One transaction at a time: all of this transaction's jobs enter the
  // shard queues before any later transaction's (see txn_mutex_ docs),
  // which is what makes the writer-thread rendezvous deadlock-free.
  std::lock_guard txn_lock(txn_mutex_);
  const std::uint64_t txn_id = ++next_txn_id_;
  auto barrier = std::make_shared<txn_barrier>(targets.size());
  std::size_t enqueued = 0;
  std::size_t rejected_shard = 0;
  bool rejected = false;
  for (const auto i : targets) {
    // The coordinator is the lowest participating shard; it appends the
    // commit record once every participant's data record landed.
    if (!shards_[i]->enqueue_txn(std::move(per_shard[i]), txn_id, barrier,
                                 /*coordinator=*/enqueued == 0)) {
      rejected = true;
      rejected_shard = i;
      break;
    }
    ++enqueued;
  }
  if (!rejected) return;
  // A shard refused its slice: the jobs already queued must not wait for
  // arrivals that will never come, and the transaction must abort (no
  // shard may apply). Shrink the rendezvous to the jobs actually queued
  // and mark the abort before releasing them.
  {
    std::lock_guard lock(barrier->mutex);
    barrier->aborted = true;
    barrier->participants = enqueued;
    if (enqueued == 0) barrier->commit_done = true;
  }
  barrier->cv.notify_all();
  throw_rejected(rejected_shard);
}

void clustering_service::drain() {
  for (auto& s : shards_) s->drain();
}

query_result clustering_service::query(const ms::spectrum& spectrum) const {
  static auto& queries = obs::registry::instance().counter("spechd_query_requests_total");
  static auto& route_ns = obs::registry::instance().histogram("spechd_query_route_ns");
  queries.add(1);
  // Route stage: preprocessing + encoding + bucket keying — everything up
  // to handing the query to its bucket's shard.
  obs::trace_span route_span(route_ns, obs::stage::route);
  // Same preprocessing as ingest — a spectrum the filter would drop on
  // ingest is reported unencodable rather than queried inconsistently.
  auto batch = preprocess::run_preprocessing({spectrum}, config_.pipeline.preprocess);
  if (batch.spectra.empty()) return query_result{};
  const auto& q = batch.spectra.front();
  const auto hv = encoder_.encode(q);
  const auto key = router_.bucket_key(q.precursor_mz, q.precursor_charge);
  route_span.finish();
  return shards_[router_.shard_of_key(key)]->query(hv, key,
                                                   config_.pipeline.distance_threshold);
}

void clustering_service::load_library(const std::string& path) {
  auto lib = std::make_shared<const spectral_library>(spectral_library::load(path));
  const auto expected = library_identity(config_.pipeline);
  if (!(lib->identity() == expected)) {
    throw parse_error(path, 0,
                      "spectral library identity does not match this service's "
                      "configuration (dim/seed/bucketing/preprocessing)");
  }
  std::lock_guard lock(library_mutex_);
  library_ = std::move(lib);
}

bool clustering_service::has_library() const {
  std::lock_guard lock(library_mutex_);
  return library_ != nullptr;
}

search_result clustering_service::search(const ms::spectrum& spectrum, std::size_t top_k,
                                         double tolerance_da) const {
  std::shared_ptr<const spectral_library> lib;
  {
    std::lock_guard lock(library_mutex_);
    lib = library_;
  }
  if (!lib) throw spechd::error("no spectral library loaded");
  static auto& searches =
      obs::registry::instance().counter("spechd_search_requests_total");
  static auto& route_ns = obs::registry::instance().histogram("spechd_search_route_ns");
  searches.add(1);
  obs::trace_span route_span(route_ns, obs::stage::route);
  // Same preprocessing as ingest/query — a spectrum the filter would drop
  // is reported unencodable rather than searched inconsistently.
  auto batch = preprocess::run_preprocessing({spectrum}, config_.pipeline.preprocess);
  if (batch.spectra.empty()) {
    search_result result;
    result.encodable = false;
    return result;
  }
  const auto& q = batch.spectra.front();
  const auto hv = encoder_.encode(q);
  route_span.finish();
  return lib->search(hv, q.precursor_mz, q.precursor_charge, top_k, tolerance_da);
}

service_stats clustering_service::stats() const {
  service_stats total;
  total.shards.reserve(shards_.size());
  for (const auto& s : shards_) {
    auto stats = s->stats();
    total.ingested += stats.ingested;
    total.dropped += stats.dropped;
    total.batches += stats.batches;
    total.record_count += stats.record_count;
    total.cluster_count += stats.cluster_count;
    total.queue_depth += stats.queue_depth;
    total.dirty_buckets += stats.dirty_buckets;
    total.journal_bytes += stats.journal_bytes;
    total.journal_records += stats.journal_records;
    total.degraded_shards += stats.health == shard_health::degraded ? 1 : 0;
    total.failed_shards += stats.health == shard_health::failed ? 1 : 0;
    total.shards.push_back(std::move(stats));
  }
  return total;
}

snapshot_identity clustering_service::identity() const {
  snapshot_identity id;
  id.dim = static_cast<std::uint32_t>(config_.pipeline.encoder.dim);
  id.encoder_seed = config_.pipeline.encoder.seed;
  id.distance_threshold = config_.pipeline.distance_threshold;
  id.bucket_resolution = config_.pipeline.preprocess.bucketing.resolution;
  id.fallback_charge = config_.pipeline.preprocess.bucketing.fallback_charge;
  id.shard_count = static_cast<std::uint32_t>(shards_.size());
  id.config_digest = pipeline_digest(config_.pipeline);
  return id;
}

std::vector<core::clusterer_state> clustering_service::export_states() {
  drain();
  std::vector<core::clusterer_state> states(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->run_exclusive([&states, s](core::incremental_clusterer& clusterer) {
      states[s] = clusterer.export_state();
    }, /*republish=*/false);
  }
  return states;
}

void clustering_service::snapshot_file(const std::string& path) {
  const auto states = export_states();  // drains
  write_snapshot_file(path, identity(), states);
}

void clustering_service::restore_file(const std::string& path) {
  auto data = read_snapshot_file(path);

  auto expected = identity();
  expected.shard_count = data.identity.shard_count;  // count may differ; rest must not
  if (!(data.identity == expected)) {
    throw parse_error(path, 0,
                      "snapshot identity does not match this service's configuration "
                      "(dim/seed/threshold/bucketing/mode)");
  }

  // When the shard count matches *and* every stored bucket already sits on
  // the shard this router would pick, states import verbatim (preserving
  // record order inside each shard). Otherwise whole buckets are re-routed.
  bool verbatim = data.shards.size() == shards_.size();
  if (verbatim) {
    for (std::size_t s = 0; verbatim && s < data.shards.size(); ++s) {
      for (const auto& bucket : data.shards[s].buckets) {
        if (router_.shard_of_key(bucket.key) != s) {
          verbatim = false;
          break;
        }
      }
    }
  }

  std::vector<core::clusterer_state> per_shard(shards_.size());
  if (verbatim) {
    per_shard = std::move(data.shards);
  } else {
    // Re-partition: buckets are self-contained, so move each whole bucket
    // (records in arrival order + labels) onto the shard this service's
    // router picks for its key. Record indices are renumbered per target
    // shard; per-bucket member order — the only order assignment depends
    // on — is unchanged. read_snapshot_file checked that each stored
    // shard's buckets partition its records, so every index followed
    // here is in range and used once.
    const auto dim = config_.pipeline.encoder.dim;
    const auto seed = config_.pipeline.encoder.seed;
    for (auto& state : per_shard) state.store = hdc::hv_store(dim, seed);
    // Buckets must land in ascending key order per target shard; stored
    // shards hold ascending keys and distinct shards hold distinct
    // buckets, so a stable merge by key over all stored shards suffices.
    struct bucket_source {
      const core::clusterer_state* state;
      const core::bucket_snapshot* bucket;
    };
    std::vector<bucket_source> sources;
    for (const auto& state : data.shards) {
      for (const auto& bucket : state.buckets) sources.push_back({&state, &bucket});
    }
    std::sort(sources.begin(), sources.end(),
              [](const bucket_source& a, const bucket_source& b) {
                return a.bucket->key < b.bucket->key;
              });
    for (const auto& src : sources) {
      auto& target = per_shard[router_.shard_of_key(src.bucket->key)];
      core::bucket_snapshot rebuilt;
      rebuilt.key = src.bucket->key;
      rebuilt.next_local = src.bucket->next_local;
      rebuilt.dirty = src.bucket->dirty;
      rebuilt.local_labels = src.bucket->local_labels;
      rebuilt.members.reserve(src.bucket->members.size());
      for (const auto idx : src.bucket->members) {
        rebuilt.members.push_back(static_cast<std::uint32_t>(target.store.size()));
        target.store.append(src.state->store.at(idx));
      }
      target.buckets.push_back(std::move(rebuilt));
    }
  }

  drain();
  // compact_mutex_ spans the imports *and* the rebase compaction: a
  // compact_journal() racing in from another thread mid-loop would
  // otherwise persist a half-restored cross-shard base snapshot.
  std::lock_guard lock(compact_mutex_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->run_exclusive(
        [state = std::move(per_shard[s])](core::incremental_clusterer& clusterer) mutable {
          clusterer.import_state(std::move(state));
        });
  }
  // A journaled service must keep its directory consistent with the live
  // state: the pre-restore journal describes state that no longer exists,
  // so compact immediately — the restored state becomes the new base
  // snapshot and every older generation is dropped.
  if (journaled()) compact_journal_locked();
}

cluster::flat_clustering clustering_service::clustering() {
  drain();
  cluster::flat_clustering merged;
  std::size_t label_offset = 0;
  for (auto& s : shards_) {
    cluster::flat_clustering local;
    s->run_exclusive([&local](core::incremental_clusterer& clusterer) {
      local = clusterer.clustering();
    }, /*republish=*/false);
    for (const auto label : local.labels) {
      merged.labels.push_back(label < 0 ? label
                                        : static_cast<std::int32_t>(
                                              label_offset + static_cast<std::size_t>(label)));
    }
    label_offset += local.cluster_count;
  }
  merged.cluster_count = label_offset;
  return merged;
}

hdc::hv_store clustering_service::to_store() {
  drain();
  hdc::hv_store merged(config_.pipeline.encoder.dim, config_.pipeline.encoder.seed);
  for (auto& s : shards_) {
    hdc::hv_store local;
    s->run_exclusive([&local](core::incremental_clusterer& clusterer) {
      local = clusterer.to_store();
    }, /*republish=*/false);
    for (const auto& r : local.records()) merged.append(r);
  }
  return merged;
}

}  // namespace spechd::serve
