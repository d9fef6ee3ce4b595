#include "core/incremental.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "hdc/cpu_kernels.hpp"
#include "preprocess/pipeline.hpp"
#include "util/arena_pool.hpp"
#include "util/thread_pool.hpp"

namespace spechd::core {

linkage_pick complete_linkage_select(std::span<const std::uint32_t> counts,
                                     std::span<const std::int32_t> labels,
                                     std::int32_t clusters, std::size_t dim,
                                     double threshold, std::span<std::uint32_t> worst) {
  SPECHD_EXPECTS(labels.size() == counts.size());
  SPECHD_EXPECTS(clusters >= 0 && worst.size() >= static_cast<std::size_t>(clusters));
  SPECHD_EXPECTS(dim > 0);
  const auto n_labels = static_cast<std::size_t>(clusters);
  std::fill_n(worst.begin(), n_labels, 0U);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    // A negative label wraps past n_labels, so one test covers both ends.
    const auto label = static_cast<std::size_t>(labels[i]);
    SPECHD_EXPECTS(label < n_labels);
    worst[label] = std::max(worst[label], counts[i] + 1);
  }
  linkage_pick pick;
  double best = threshold;
  const double d = static_cast<double>(dim);
  for (std::size_t label = 0; label < n_labels; ++label) {
    if (worst[label] == 0) continue;
    const double w = static_cast<double>(worst[label] - 1) / d;
    if (w <= best) {
      best = w;
      pick.label = static_cast<std::int32_t>(label);
    }
  }
  if (pick.label >= 0) pick.distance = best;
  return pick;
}

incremental_clusterer::incremental_clusterer(spechd_config config, assign_mode mode)
    : config_(std::move(config)),
      mode_(mode),
      encoder_(config_.encoder, config_.preprocess.quantize.mz_bins,
               config_.preprocess.quantize.intensity_levels) {}

incremental_clusterer::~incremental_clusterer() = default;
incremental_clusterer::incremental_clusterer(incremental_clusterer&&) noexcept = default;
incremental_clusterer& incremental_clusterer::operator=(incremental_clusterer&&) noexcept =
    default;

thread_pool& incremental_clusterer::pool() {
  if (!pool_) pool_ = std::make_unique<thread_pool>(config_.threads);
  return *pool_;
}

void incremental_clusterer::bootstrap(const hdc::hv_store& store) {
  SPECHD_EXPECTS(store.dim() == config_.encoder.dim);
  records_.clear();
  buckets_.clear();
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    const auto& r = store.records()[i];
    records_.push_back({r.precursor_mz, r.precursor_charge, r.scan, r.label});
    const auto key = preprocess::bucket_index(r.precursor_mz, r.precursor_charge,
                                              config_.preprocess.bucketing);
    buckets_[key].append(i, r.hv.words());
  }
  std::vector<bucket_state*> all;
  all.reserve(buckets_.size());
  for (auto& [key, bucket] : buckets_) all.push_back(&bucket);
  thread_pool& p = pool();
  p.parallel_for(all.size(), [&](std::size_t b) { recluster(*all[b]); }, /*grain=*/1);
}

update_report incremental_clusterer::push(const ms::spectrum& spectrum) {
  return add_spectra({spectrum});
}

update_report incremental_clusterer::add_spectra(const std::vector<ms::spectrum>& spectra) {
  update_report report;
  auto batch = preprocess::run_preprocessing(spectra, config_.preprocess);
  std::set<std::int64_t> touched;
  for (const auto& q : batch.spectra) {
    const auto index = static_cast<std::uint32_t>(records_.size());
    records_.push_back({q.precursor_mz, q.precursor_charge, index, q.label});
    const auto key = preprocess::bucket_index(q.precursor_mz, q.precursor_charge,
                                              config_.preprocess.bucketing);
    auto& bucket = buckets_[key];
    bucket.append(index, encoder_.encode(q).words());
    assign(bucket, report);
    bucket.dirty = true;
    touched.insert(key);
    ++report.added;
  }
  report.buckets_touched.assign(touched.begin(), touched.end());
  return report;
}

update_report incremental_clusterer::push_batch(const std::vector<ms::spectrum>& spectra) {
  update_report report;
  auto batch = preprocess::run_preprocessing(spectra, config_.preprocess);
  if (!batch.spectra.empty()) {
    thread_pool& p = pool();
    // One batch-parallel encode pass (bit-identical to per-spectrum
    // encode), then route every record to its bucket in arrival order.
    const auto hvs = encoder_.encode_batch(batch.spectra, &p);
    const auto base = static_cast<std::uint32_t>(records_.size());
    std::map<std::int64_t, std::vector<std::uint32_t>> fresh;
    for (const auto& q : batch.spectra) {
      const auto index = static_cast<std::uint32_t>(records_.size());
      records_.push_back({q.precursor_mz, q.precursor_charge, index, q.label});
      const auto key = preprocess::bucket_index(q.precursor_mz, q.precursor_charge,
                                                config_.preprocess.bucketing);
      fresh[key].push_back(index);
    }

    // Buckets advance independently: parallel across buckets, arrival
    // order within each — so the assignment each member sees is exactly
    // what sequential push() would have shown it.
    struct job {
      bucket_state* bucket;
      const std::vector<std::uint32_t>* indices;
    };
    std::vector<job> jobs;
    jobs.reserve(fresh.size());
    for (auto& [key, indices] : fresh) jobs.push_back({&buckets_[key], &indices});
    std::vector<update_report> partial(jobs.size());
    p.parallel_for(
        jobs.size(),
        [&](std::size_t b) {
          bucket_state& bucket = *jobs[b].bucket;
          for (const auto index : *jobs[b].indices) {
            bucket.append(index, hvs[index - base].words());
            assign(bucket, partial[b]);
            bucket.dirty = true;
          }
        },
        /*grain=*/1);
    for (const auto& r : partial) {
      report.joined_existing += r.joined_existing;
      report.new_clusters += r.new_clusters;
    }
    report.added = batch.spectra.size();
    for (const auto& [key, indices] : fresh) report.buckets_touched.push_back(key);
  }
  return report;
}

void incremental_clusterer::assign(bucket_state& bucket, update_report& report) const {
  // The new member is the last row; its local label is decided here.
  bucket_rows& rows = bucket.rows;
  const std::size_t dim = config_.encoder.dim;
  const std::size_t words = dim / 64;
  const auto hv = row(bucket, bucket.members.size() - 1);

  // Bundle mode selects against one majority row per cluster, complete
  // linkage against every earlier member; both through one packed
  // Hamming-tile row and complete_linkage_select. The counts row and the
  // select's per-cluster scratch share one pooled arena: no per-assign
  // heap allocation.
  const bool reps = mode_ == assign_mode::bundle_representative;
  const std::span<const std::int32_t> labels = reps ? rows.rep_labels : rows.labels;
  const std::size_t n = labels.size();
  std::int32_t label = -1;
  if (n > 0) {
    const auto clusters = static_cast<std::size_t>(rows.cluster_count);
    arena_lease scratch = arena_pool::global().checkout((n + clusters) * sizeof(std::uint32_t));
    std::uint32_t* const counts = scratch.as<std::uint32_t>(n + clusters);
    hdc::kernels::hamming_tile_packed(hv.data(), 1,
                                      reps ? rows.rep_packed.data() : rows.packed.data(), n,
                                      words, counts);
    label = complete_linkage_select({counts, n}, labels, rows.cluster_count, dim,
                                    config_.distance_threshold, {counts + n, clusters})
                .label;
  }

  if (label >= 0) {
    ++report.joined_existing;
  } else {
    label = rows.cluster_count++;
    ++report.new_clusters;
  }
  rows.labels.push_back(label);
  if (reps) {
    // Representatives are in ascending label order, and a founded
    // cluster's label is the largest yet, so it is appended.
    const auto at = std::lower_bound(rows.rep_labels.begin(), rows.rep_labels.end(), label);
    const auto r = static_cast<std::size_t>(at - rows.rep_labels.begin());
    if (at == rows.rep_labels.end()) {
      rows.rep_labels.push_back(label);
      rows.rep_packed.resize(rows.rep_packed.size() + words);
      bucket.bundles.emplace_back(dim);
    }
    bucket.bundles[r].add(hv);
    std::ranges::copy(bucket.bundles[r].majority().words(),
                      rows.rep_packed.begin() + static_cast<std::ptrdiff_t>(r * words));
  }
}

void incremental_clusterer::recluster(bucket_state& bucket) {
  bucket_rows& rows = bucket.rows;
  const std::size_t n = bucket.members.size();
  rows.labels.assign(n, 0);
  rows.cluster_count = 0;
  if (n == 0) return;
  if (n == 1) {
    rows.cluster_count = 1;
    bucket.dirty = false;
    rebuild_representatives(bucket);
    return;
  }

  std::vector<hdc::hypervector> hvs;
  hvs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) hvs.emplace_back(row(bucket, i));

  // Same code path as the batch pipeline's per-bucket clustering (the pool
  // may be null when only sequential ingestion ever ran; parallel_for is
  // nested-safe, so reclusters dispatched from the pool can share it).
  cluster::hac_result hac = bucket_hac(hvs, config_, pool_.get());
  auto flat = hac.tree.cut(config_.distance_threshold);
  rows.labels = std::move(flat.labels);
  rows.cluster_count = static_cast<std::int32_t>(flat.cluster_count);
  bucket.dirty = false;
  rebuild_representatives(bucket);
}

void incremental_clusterer::rebuild_representatives(bucket_state& bucket) const {
  bucket_rows& rows = bucket.rows;
  rows.rep_packed.clear();
  rows.rep_labels.clear();
  bucket.bundles.clear();
  if (mode_ != assign_mode::bundle_representative) return;
  // Bundle counters are per-bit sums, so adding the members in arrival
  // order reproduces the incrementally built bundles exactly, tie-break
  // donor (each cluster's first member) included. Only labels that
  // members carry get a representative.
  std::map<std::int32_t, hdc::incremental_bundle> by_label;
  for (std::size_t i = 0; i < bucket.members.size(); ++i) {
    by_label.try_emplace(rows.labels[i], config_.encoder.dim).first->second.add(row(bucket, i));
  }
  for (auto& [label, bundle] : by_label) {
    rows.rep_labels.push_back(label);
    const auto majority = bundle.majority();
    rows.rep_packed.insert(rows.rep_packed.end(), majority.words().begin(),
                           majority.words().end());
    bucket.bundles.push_back(std::move(bundle));
  }
}

void incremental_clusterer::rebuild_dirty_buckets() {
  std::vector<bucket_state*> dirty;
  for (auto& [key, bucket] : buckets_) {
    if (bucket.dirty) dirty.push_back(&bucket);
  }
  if (dirty.empty()) return;
  thread_pool& p = pool();
  p.parallel_for(dirty.size(), [&](std::size_t b) { recluster(*dirty[b]); },
                 /*grain=*/1);
}

cluster::flat_clustering incremental_clusterer::clustering() const {
  cluster::flat_clustering out;
  out.labels.assign(records_.size(), -1);
  std::size_t offset = 0;
  for (const auto& [key, bucket] : buckets_) {
    for (std::size_t i = 0; i < bucket.members.size(); ++i) {
      out.labels[bucket.members[i]] =
          static_cast<std::int32_t>(offset + static_cast<std::size_t>(bucket.rows.labels[i]));
    }
    offset += static_cast<std::size_t>(bucket.rows.cluster_count);
  }
  out.cluster_count = offset;
  return out;
}

clusterer_state incremental_clusterer::export_state() const {
  clusterer_state state;
  state.store = to_store();
  state.buckets.reserve(buckets_.size());
  for (const auto& [key, bucket] : buckets_) {
    bucket_snapshot snap;
    snap.key = key;
    snap.members = bucket.members;
    snap.local_labels = bucket.rows.labels;
    snap.next_local = bucket.rows.cluster_count;
    snap.dirty = bucket.dirty;
    state.buckets.push_back(std::move(snap));
  }
  return state;
}

void incremental_clusterer::import_state(clusterer_state state) {
  if (state.store.size() > 0 && state.store.dim() != config_.encoder.dim) {
    throw spechd::error("clusterer_state dimension " + std::to_string(state.store.dim()) +
                        " does not match configured dim " +
                        std::to_string(config_.encoder.dim));
  }
  const std::size_t n = state.store.size();
  // The buckets must partition [0, n): every record in exactly one bucket,
  // labels aligned with members and consistent with next_local, and every
  // member's bucket key must agree with this config's bucketing (otherwise
  // future pushes would route the same precursor to a different bucket).
  // Every cluster is founded by a member, so next_local cannot exceed the
  // member count: a larger one would size each select's scratch by it.
  std::vector<bool> seen(n, false);
  std::int64_t previous_key = 0;
  bool first = true;
  for (const auto& snap : state.buckets) {
    if (!first && snap.key <= previous_key) {
      throw spechd::error("clusterer_state buckets not in ascending key order");
    }
    first = false;
    previous_key = snap.key;
    if (snap.members.size() != snap.local_labels.size()) {
      throw spechd::error("clusterer_state bucket " + std::to_string(snap.key) +
                          ": members/labels size mismatch");
    }
    if (snap.next_local < 0 || static_cast<std::size_t>(snap.next_local) > snap.members.size()) {
      throw spechd::error("clusterer_state bucket " + std::to_string(snap.key) +
                          ": next_local " + std::to_string(snap.next_local) +
                          " outside [0, " + std::to_string(snap.members.size()) + "]");
    }
    for (std::size_t i = 0; i < snap.members.size(); ++i) {
      const auto idx = snap.members[i];
      if (idx >= n || seen[idx]) {
        throw spechd::error("clusterer_state bucket " + std::to_string(snap.key) +
                            ": invalid or duplicate record index " + std::to_string(idx));
      }
      seen[idx] = true;
      const auto label = snap.local_labels[i];
      if (label < 0 || label >= snap.next_local) {
        throw spechd::error("clusterer_state bucket " + std::to_string(snap.key) +
                            ": label " + std::to_string(label) + " outside [0, " +
                            std::to_string(snap.next_local) + ")");
      }
      const auto& r = state.store.at(idx);
      const auto expected =
          preprocess::bucket_index(r.precursor_mz, r.precursor_charge,
                                   config_.preprocess.bucketing);
      if (expected != snap.key) {
        throw spechd::error("clusterer_state bucket " + std::to_string(snap.key) +
                            ": record " + std::to_string(idx) +
                            " buckets to key " + std::to_string(expected) +
                            " under this config");
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!seen[i]) {
      throw spechd::error("clusterer_state: record " + std::to_string(i) +
                          " is in no bucket");
    }
  }

  records_.clear();
  for (const auto& r : state.store.records()) {
    records_.push_back({r.precursor_mz, r.precursor_charge, r.scan, r.label});
  }
  buckets_.clear();
  for (auto& snap : state.buckets) {
    bucket_state& bucket = buckets_[snap.key];
    // Rows follow the snapshot's member order (arrival order), not store order.
    for (const auto idx : snap.members) bucket.append(idx, state.store.at(idx).hv.words());
    bucket.rows.labels = std::move(snap.local_labels);
    bucket.rows.cluster_count = snap.next_local;
    bucket.dirty = snap.dirty;
    rebuild_representatives(bucket);
  }
}

void incremental_clusterer::for_each_bucket(
    const std::function<void(const bucket_ref&)>& fn) const {
  for (const auto& [key, bucket] : buckets_) {
    fn(bucket_ref{key, bucket.members, bucket.rows, bucket.dirty});
  }
}

const bucket_rows& incremental_clusterer::rows(std::int64_t key) const {
  const auto it = buckets_.find(key);
  SPECHD_EXPECTS(it != buckets_.end());
  return it->second.rows;
}

hdc::hv_store incremental_clusterer::to_store() const {
  // Each bucket's rows go back to their members' record indices.
  std::vector<hdc::hv_record> records(records_.size());
  for (const auto& [key, bucket] : buckets_) {
    for (std::size_t i = 0; i < bucket.members.size(); ++i) {
      const auto& m = records_[bucket.members[i]];
      records[bucket.members[i]] = {hdc::hypervector(row(bucket, i)), m.precursor_mz,
                                    m.precursor_charge, m.scan, m.label};
    }
  }
  hdc::hv_store store(config_.encoder.dim, config_.encoder.seed);
  for (auto& r : records) store.append(std::move(r));
  return store;
}

std::size_t incremental_clusterer::dirty_bucket_count() const noexcept {
  std::size_t dirty = 0;
  for (const auto& [key, bucket] : buckets_) {
    dirty += bucket.dirty ? 1 : 0;
  }
  return dirty;
}

std::size_t incremental_clusterer::cluster_count() const noexcept {
  std::size_t total = 0;
  for (const auto& [key, bucket] : buckets_) {
    total += static_cast<std::size_t>(bucket.rows.cluster_count);
  }
  return total;
}

}  // namespace spechd::core
