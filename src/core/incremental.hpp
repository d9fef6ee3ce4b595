// Incremental clustering over a persistent hypervector store.
//
// Sec. IV-B: "repeatedly initiating the computational pipeline from the
// beginning for every analysis proves not only inefficient but also
// counterproductive. One-time preprocessing and subsequent updates,
// therefore, emerge as a promising approach for enhancing real-time data
// analysis."
//
// The incremental clusterer maintains per-bucket cluster state
// (core::bucket_rows: the members' rows and labels). New batches are
// preprocessed and encoded once, then each new spectrum either joins the
// nearest existing cluster (complete-linkage test against all members,
// matching the batch pipeline's criterion) or founds a new cluster; buckets
// whose membership changed re-run NN-chain locally when `rebuild` is
// requested.
//
// Two ingestion paths share one assignment semantic:
//   * push() / add_spectra() — the sequential reference: one spectrum at a
//     time, in arrival order.
//   * push_batch() — the streaming fast path: the whole batch is
//     preprocessed once, encoded through the shared thread pool, routed to
//     buckets, and then assigned bucket-by-bucket in parallel. Members of
//     one bucket are still assigned in arrival order and the in-bucket
//     distance rows go through the same dispatched Hamming kernels, so the
//     resulting clusters are identical to sequential push() of the same
//     sequence for any thread count (tests/core/test_incremental_batch.cpp
//     pins this).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/nn_chain.hpp"
#include "core/spechd.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hv_store.hpp"

namespace spechd {
class thread_pool;
}

namespace spechd::core {

/// Serialisable snapshot of one bucket's cluster state (see
/// incremental_clusterer::export_state). `members` index the exported
/// store's records; within a bucket they are in arrival order, which is
/// the order the assignment semantics depend on.
struct bucket_snapshot {
  std::int64_t key = 0;
  std::vector<std::uint32_t> members;
  std::vector<std::int32_t> local_labels;
  std::int32_t next_local = 0;
  bool dirty = false;
};

/// Complete externalised state of an incremental_clusterer: every record
/// (store order == ingestion order) plus the per-bucket cluster state.
/// This is what the serve layer persists into .sphsnap snapshots.
struct clusterer_state {
  hdc::hv_store store;
  std::vector<bucket_snapshot> buckets;  ///< ascending bucket key
};

/// Empty when the buckets' members partition the store's records (every
/// index in range, each record in exactly one bucket); otherwise what
/// breaks the partition. Checked before any restore follows an index.
std::string partition_error(const clusterer_state& state);

/// Result of one incremental update.
struct update_report {
  std::size_t added = 0;             ///< spectra ingested in this batch
  std::size_t joined_existing = 0;   ///< assigned to a pre-existing cluster
  std::size_t new_clusters = 0;      ///< founded by this batch
  std::vector<std::int64_t> buckets_touched;  ///< keys this update changed, ascending
};

/// One bucket's cluster state in the layout a probe reads. The clusterer
/// keeps it current on every update; the serve layer copies it unchanged
/// into its query views. Rows are hypervectors of dim / 64 words,
/// row-major: hamming_tile_packed's operand layout.
struct bucket_rows {
  std::vector<std::uint64_t> packed;  ///< members' rows, arrival order
  std::vector<std::int32_t> labels;   ///< local cluster label per member
  std::int32_t cluster_count = 0;     ///< local labels lie in [0, this)
};

/// Outcome of complete_linkage_select.
struct linkage_pick {
  std::int32_t label = -1;  ///< chosen local cluster; -1: none passes the cut
  double distance = 1.0;    ///< its complete-linkage distance (set when label >= 0)
};

/// The select of the streaming path, the one place it is written:
/// incremental_clusterer's assignment and serve::shard::query both call
/// it over the bucket's member rows, so a query answers exactly what
/// ingesting the spectrum would do.
///
/// `counts[i]` is the Hamming count from the probe to row i, whose
/// local label is `labels[i]`; every label must lie in [0, clusters). A
/// cluster's distance is its *worst* row count divided by `dim`. The
/// pick is the cluster with the smallest distance that is <= `threshold`;
/// labels are scanned in ascending order and a tie goes to the later
/// label. Labels no member carries are skipped (imported states may have
/// gaps). `worst` is caller scratch of at least `clusters` entries: the
/// row is reduced into it by label (0 = no member, else 1 + max count),
/// so the select costs one pass over the members plus one over the
/// labels, with no allocation. Dividing the max count equals taking the
/// max of the divided counts (IEEE division by a fixed positive `dim` is
/// monotonic), so the pick and its distance are bit-identical to a
/// per-member reduction.
linkage_pick complete_linkage_select(std::span<const std::uint32_t> counts,
                                     std::span<const std::int32_t> labels,
                                     std::int32_t clusters, std::size_t dim,
                                     double threshold, std::span<std::uint32_t> worst);

/// Streaming/incremental front end over per-bucket cluster state.
///
/// Thread-safety: an instance has single-owner semantics — do not call
/// two methods concurrently on the same instance. Internally, push_batch /
/// bootstrap / rebuild_dirty_buckets fan work out over a lazily created
/// shared pool (config.threads workers); that parallelism never changes
/// results (see the equivalence guarantee below). Distinct instances are
/// fully independent and may run concurrently.
///
/// Equivalence guarantee (pinned by tests/core/test_incremental_batch.cpp):
/// for the same spectrum sequence, push_batch() produces exactly the
/// clusters sequential push()/add_spectra() would — any batch split, any
/// thread count — and rebuild_dirty_buckets()/bootstrap() recluster
/// through the same core::bucket_hac path as the batch pipeline, so a
/// rebuilt incremental state matches a from-scratch pipeline run over the
/// same buckets.
class incremental_clusterer {
public:
  /// `config` is copied. The config's kernel_variant is *not* applied
  /// here — dispatch is process-global and owned by the pipeline/bench
  /// entry points.
  explicit incremental_clusterer(spechd_config config);
  ~incremental_clusterer();
  incremental_clusterer(incremental_clusterer&&) noexcept;
  incremental_clusterer& operator=(incremental_clusterer&&) noexcept;

  /// Bootstraps state from an existing store (e.g. loaded from disk):
  /// clusters every bucket with NN-chain — through the same bucket_hac
  /// path as the batch pipeline — in parallel across buckets. Replaces
  /// any previous state; store.dim() must equal config.encoder.dim.
  void bootstrap(const hdc::hv_store& store);

  /// Ingests one spectrum through the sequential reference path.
  update_report push(const ms::spectrum& spectrum);

  /// Ingests a new batch of raw spectra one at a time (sequential
  /// reference path): preprocess -> encode -> assign, in arrival order.
  update_report add_spectra(const std::vector<ms::spectrum>& spectra);

  /// Streaming fast path: preprocesses and encodes the whole batch at
  /// once (batch-parallel through the shared pool), then assigns per
  /// bucket in parallel. Produces exactly the clusters sequential push()
  /// of the same sequence would, for any thread count.
  update_report push_batch(const std::vector<ms::spectrum>& spectra);

  /// Fully re-clusters every bucket marked dirty by ingestion (restores
  /// batch-pipeline-equivalent assignments at O(changed buckets) cost);
  /// dirty buckets are redistributed over the shared pool.
  void rebuild_dirty_buckets();

  /// Current flat clustering over all ingested records, in ingestion order.
  cluster::flat_clustering clustering() const;

  /// All ingested records as a store (for persisting back to disk).
  hdc::hv_store to_store() const;

  /// Copies the complete state out — records plus per-bucket assignments —
  /// so a caller can persist it and later import_state() into an equally
  /// configured instance. Exported buckets are in ascending key order.
  clusterer_state export_state() const;

  /// Replaces all state with `state`, validating it first: the store's
  /// dimension must match the config, the buckets must partition the
  /// records exactly, every member's key must agree with the config's
  /// bucketing, labels must lie in [0, next_local), and next_local must
  /// lie in [0, member count]. Throws spechd::error on any violation (the
  /// instance is unchanged then). After a successful import, subsequent
  /// pushes behave exactly as if this instance had ingested the original
  /// sequence itself.
  void import_state(clusterer_state state);

  /// Read-only view of one bucket, valid only inside for_each_bucket.
  struct bucket_ref {
    std::int64_t key;
    const std::vector<std::uint32_t>& members;  ///< record indices, arrival order
    const bucket_rows& rows;
    bool dirty;
  };

  /// Visits every bucket in ascending key order. The serve layer uses this
  /// to republish every query view without copying the whole state.
  /// Single-owner semantics apply (do not ingest concurrently).
  void for_each_bucket(const std::function<void(const bucket_ref&)>& fn) const;

  /// The rows of bucket `key`, which must exist (e.g. a key of
  /// update_report::buckets_touched). Valid until the next mutating call.
  const bucket_rows& rows(std::int64_t key) const;

  std::size_t size() const noexcept { return records_.size(); }
  std::size_t cluster_count() const noexcept;
  std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// Buckets touched by ingestion since their last recluster — what a
  /// rebuild_dirty_buckets() call would visit. A serve shard's recluster
  /// job skips its journal record when this is 0, and replay runs
  /// recluster records against states whose dirty flags are identical —
  /// so the count is part of the deterministic-replay surface.
  std::size_t dirty_bucket_count() const noexcept;

private:
  /// A record's clustering metadata; its hypervector is a row of its
  /// bucket's `packed`.
  struct record_meta {
    double precursor_mz = 0.0;
    std::int32_t precursor_charge = 0;
    std::uint32_t scan = 0;
    std::int32_t label = -1;
  };

  struct bucket_state {
    std::vector<std::uint32_t> members;  ///< record indices, arrival order
    bucket_rows rows;
    bool dirty = false;

    void append(std::uint32_t index, std::span<const std::uint64_t> hv) {
      members.push_back(index);
      rows.packed.insert(rows.packed.end(), hv.begin(), hv.end());
    }
  };

  /// Member `i`'s hypervector: row i of `bucket.rows.packed`.
  std::span<const std::uint64_t> row(const bucket_state& bucket, std::size_t i) const {
    const std::size_t words = config_.encoder.dim / 64;
    return {bucket.rows.packed.data() + i * words, words};
  }

  /// Assigns the bucket's last member to a cluster: complete_linkage_select
  /// over one packed Hamming-tile row against the earlier members.
  /// Thread-safe for distinct buckets (mutates only `bucket` and `report`).
  void assign(bucket_state& bucket, update_report& report) const;

  void recluster(bucket_state& bucket);

  /// Lazily-created shared pool (config_.threads workers) for push_batch,
  /// bootstrap, and rebuild_dirty_buckets.
  thread_pool& pool();

  spechd_config config_;
  hdc::id_level_encoder encoder_;
  std::vector<record_meta> records_;  ///< ingestion order
  std::map<std::int64_t, bucket_state> buckets_;
  std::unique_ptr<thread_pool> pool_;
};

}  // namespace spechd::core
