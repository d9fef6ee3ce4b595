// Clustering service: sharded ingest must equal the sequential reference
// clusterer bucket-for-bucket; queries must be consistent with ingest and
// safe to run concurrently with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "ms/synthetic.hpp"
#include "serve/service.hpp"

namespace spechd::serve {
namespace {

std::vector<ms::spectrum> sample_stream(std::size_t peptides = 40, std::uint64_t seed = 11) {
  ms::synthetic_config config;
  config.peptide_count = peptides;
  config.spectra_per_peptide_mean = 4.0;
  config.noise_peaks_per_spectrum = 20.0;
  config.seed = seed;
  return ms::generate_dataset(config).spectra;
}

core::spechd_config small_config() {
  core::spechd_config config;
  config.encoder.dim = 1024;  // keep the suite fast; any dim works
  config.threads = 1;
  return config;
}

/// Per-bucket fingerprint: labels + cluster count + member HV words.
struct bucket_fingerprint {
  std::vector<std::int32_t> labels;
  std::int32_t cluster_count = 0;
  std::vector<std::vector<std::uint64_t>> member_words;

  friend bool operator==(const bucket_fingerprint&, const bucket_fingerprint&) = default;
};

std::map<std::int64_t, bucket_fingerprint> fingerprint(
    const std::vector<core::clusterer_state>& states) {
  std::map<std::int64_t, bucket_fingerprint> out;
  for (const auto& state : states) {
    for (const auto& bucket : state.buckets) {
      bucket_fingerprint fp;
      fp.labels = bucket.local_labels;
      fp.cluster_count = bucket.next_local;
      for (const auto idx : bucket.members) {
        const auto words = state.store.at(idx).hv.words();
        fp.member_words.emplace_back(words.begin(), words.end());
      }
      const bool inserted = out.emplace(bucket.key, std::move(fp)).second;
      EXPECT_TRUE(inserted) << "bucket " << bucket.key << " on two shards";
    }
  }
  return out;
}

TEST(ClusteringService, MatchesSequentialReferencePerBucket) {
  const auto stream = sample_stream();
  const auto config = small_config();

  core::incremental_clusterer reference(config);
  reference.add_spectra(stream);
  const auto expected = fingerprint({reference.export_state()});
  ASSERT_FALSE(expected.empty());

  for (const std::size_t shards : {1UL, 3UL}) {
    serve_config sc;
    sc.pipeline = config;
    sc.shards = shards;
    sc.queue_capacity = 4;
    clustering_service service(sc);

    // Uneven batches so batch boundaries cross buckets.
    for (std::size_t offset = 0; offset < stream.size(); offset += 33) {
      const auto end = std::min(offset + 33, stream.size());
      service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(offset),
                      stream.begin() + static_cast<std::ptrdiff_t>(end)});
    }
    service.drain();

    EXPECT_EQ(fingerprint(service.export_states()), expected) << shards << " shards";
    EXPECT_EQ(service.stats().record_count, reference.size());
    EXPECT_EQ(service.stats().cluster_count, reference.cluster_count());
  }
}

TEST(ClusteringService, ClusteringAndStoreAlign) {
  const auto stream = sample_stream(20, 23);
  serve_config sc;
  sc.pipeline = small_config();
  sc.shards = 2;
  clustering_service service(sc);
  service.ingest(stream);
  const auto flat = service.clustering();
  const auto store = service.to_store();
  ASSERT_EQ(flat.labels.size(), store.size());
  for (const auto label : flat.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(static_cast<std::size_t>(label), flat.cluster_count);
  }
}

TEST(ClusteringService, QueryFindsIngestedSpectra) {
  const auto stream = sample_stream(24, 5);
  serve_config sc;
  sc.pipeline = small_config();
  sc.shards = 3;
  clustering_service service(sc);
  service.ingest(stream);
  service.drain();

  std::size_t encodable = 0;
  for (const auto& s : stream) {
    const auto r = service.query(s);
    if (!r.encodable) continue;  // preprocessing dropped it on ingest too
    ++encodable;
    // The spectrum itself is a stored member, so its nearest member
    // distance is exactly zero, whatever cluster the cut puts it in.
    EXPECT_EQ(r.nearest_member, 0.0);
    if (r.matched) {
      EXPECT_LE(r.distance, sc.pipeline.distance_threshold);
      EXPECT_GE(r.local_label, 0);
      EXPECT_GT(r.cluster_size, 0U);
    }
  }
  EXPECT_GT(encodable, 0U);
  EXPECT_EQ(encodable, service.stats().record_count);
}

/// A query must answer what ingesting the spectrum would do. A probe
/// clusterer holding exactly the queried shard's exported state pushes the
/// spectrum; it must join an existing cluster iff the query matched, and
/// then the same local label, whose size the query reports. Fresh probe
/// per query, so probes don't interact. One spectrum in four is held out
/// of ingest, so queries also miss.
void expect_query_agrees_with_assignment(core::assign_mode mode) {
  const auto stream = sample_stream(24, 5);
  std::vector<ms::spectrum> ingested;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i % 4 != 0) ingested.push_back(stream[i]);
  }
  serve_config sc;
  sc.pipeline = small_config();
  sc.mode = mode;
  sc.shards = 2;
  clustering_service service(sc);
  service.ingest(ingested);
  service.drain();
  const auto states = service.export_states();

  std::size_t matched = 0;
  std::size_t unmatched = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto& s = stream[i];
    const auto r = service.query(s);
    if (!r.encodable) continue;
    core::incremental_clusterer probe(sc.pipeline, mode);
    probe.import_state(states.at(r.shard));
    const auto report = probe.push(s);
    ASSERT_EQ(report.added, 1U) << "spectrum " << i;
    EXPECT_EQ(report.joined_existing == 1, r.matched) << "spectrum " << i;
    bool found = false;
    probe.for_each_bucket([&](const core::incremental_clusterer::bucket_ref& bucket) {
      if (bucket.key != r.bucket_key) return;
      found = true;
      if (!r.matched) return;
      const auto& labels = bucket.rows.labels;
      EXPECT_EQ(labels.back(), r.local_label) << "spectrum " << i;
      // The query counts the members it saw; the push added one more.
      const auto members = std::count(labels.begin(), labels.end() - 1, r.local_label);
      EXPECT_EQ(r.cluster_size, static_cast<std::size_t>(members)) << "spectrum " << i;
    });
    EXPECT_TRUE(found) << "spectrum " << i;
    if (r.matched) {
      ++matched;
      EXPECT_LE(r.distance, sc.pipeline.distance_threshold);
    } else {
      ++unmatched;
    }
  }
  EXPECT_GT(matched, 0U);
  EXPECT_GT(unmatched, 0U);
}

TEST(ClusteringService, BundleModeQueryAgreesWithAssignment) {
  // Bundle mode assigns against each cluster's majority representative;
  // queries must select over the same rows.
  expect_query_agrees_with_assignment(core::assign_mode::bundle_representative);
}

TEST(ClusteringService, CompleteLinkageQueryAgreesWithAssignment) {
  expect_query_agrees_with_assignment(core::assign_mode::complete_linkage);
}

TEST(ClusteringService, QueryAgainstEmptyServiceIsClean) {
  serve_config sc;
  sc.pipeline = small_config();
  sc.shards = 2;
  clustering_service service(sc);
  const auto stream = sample_stream(4, 3);
  const auto r = service.query(stream.front());
  EXPECT_TRUE(r.encodable);
  EXPECT_FALSE(r.matched);
  EXPECT_EQ(r.nearest_member, 1.0);
}

TEST(ClusteringService, ConcurrentIngestAndQueryIsSafe) {
  const auto stream = sample_stream(48, 29);
  serve_config sc;
  sc.pipeline = small_config();
  sc.shards = 2;
  sc.queue_capacity = 2;  // small queue: exercise producer backpressure
  clustering_service service(sc);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> queries{0};
  // Two producers feed disjoint halves; two query threads hammer views the
  // whole time. This checks safety/liveness, not golden equality (with two
  // producers the interleaving — and thus the clustering — is unspecified).
  std::thread producer_a([&] {
    for (std::size_t i = 0; i < stream.size() / 2; i += 16) {
      const auto end = std::min(i + 16, stream.size() / 2);
      service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(i),
                      stream.begin() + static_cast<std::ptrdiff_t>(end)});
    }
  });
  std::thread producer_b([&] {
    for (std::size_t i = stream.size() / 2; i < stream.size(); i += 16) {
      const auto end = std::min(i + 16, stream.size());
      service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(i),
                      stream.begin() + static_cast<std::ptrdiff_t>(end)});
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!done.load()) {
        const auto r = service.query(stream[i % stream.size()]);
        if (r.matched) EXPECT_LE(r.distance, sc.pipeline.distance_threshold);
        i += 7;
        ++queries;
      }
    });
  }

  producer_a.join();
  producer_b.join();
  service.drain();
  done = true;
  for (auto& r : readers) r.join();

  EXPECT_GT(queries.load(), 0U);
  const auto stats = service.stats();
  EXPECT_EQ(stats.queue_depth, 0U);
  EXPECT_GT(stats.record_count, 0U);
  EXPECT_EQ(stats.ingested, stats.record_count);
  EXPECT_EQ(stats.ingested + stats.dropped, stream.size());

  // Views are published and internally consistent after the drain.
  for (const auto& shard_stat : stats.shards) {
    EXPECT_GT(shard_stat.view_epoch, 0U);
  }
}

TEST(ClusteringService, OneViewEpochPerAppliedBatch) {
  // Query visibility, pinned: every applied batch publishes its own view
  // epoch, also while a backlog is queued behind it, and after drain()
  // the view reflects every applied batch.
  const auto stream = sample_stream(12, 7);
  const auto config = small_config();
  const auto batch_of = [&](std::size_t i) {
    return std::vector<ms::spectrum>{stream.begin() + static_cast<std::ptrdiff_t>(i * 8),
                                     stream.begin() + static_cast<std::ptrdiff_t>(i * 8 + 8)};
  };
  shard sh(0, config, core::assign_mode::complete_linkage, /*queue_capacity=*/8);

  // Park the writer on a blocking job so three batches pile up behind it:
  // batches 1 and 2 are then applied with a non-empty queue.
  std::promise<void> release;
  std::atomic<bool> started{false};
  auto release_future = release.get_future().share();
  std::thread blocker([&] {
    sh.run_exclusive(
        [&](core::incremental_clusterer&) {
          started = true;
          release_future.wait();
        },
        /*republish=*/false);
  });
  while (!started) std::this_thread::yield();

  for (std::size_t b = 0; b < 3; ++b) sh.enqueue(batch_of(b));
  const auto epoch_before = sh.view()->epoch;
  release.set_value();
  blocker.join();
  sh.drain();

  EXPECT_EQ(sh.view()->epoch - epoch_before, 3U);
  EXPECT_EQ(sh.view()->record_count, sh.stats().ingested);
  EXPECT_GT(sh.view()->record_count, 0U);
}

TEST(ClusteringService, DrainLeavesViewComplete) {
  // Service-level guarantee: after drain(), views reflect every ingested
  // spectrum.
  const auto stream = sample_stream(16, 19);
  serve_config sc;
  sc.pipeline = small_config();
  sc.shards = 2;
  clustering_service service(sc);
  for (std::size_t offset = 0; offset < stream.size(); offset += 8) {
    const auto end = std::min(offset + 8, stream.size());
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(offset),
                    stream.begin() + static_cast<std::ptrdiff_t>(end)});
  }
  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.record_count, stats.ingested);
  EXPECT_GT(stats.record_count, 0U);

  // And queries see the drained state: every ingested spectrum finds
  // itself.
  std::size_t hits = 0;
  for (const auto& s : stream) {
    const auto r = service.query(s);
    if (r.encodable) hits += r.nearest_member == 0.0 ? 1 : 0;
  }
  EXPECT_EQ(hits, stats.record_count);
}

TEST(ClusteringService, StatsAggregateShards) {
  const auto stream = sample_stream(16, 41);
  serve_config sc;
  sc.pipeline = small_config();
  sc.shards = 4;
  clustering_service service(sc);
  service.ingest(stream);
  service.drain();
  const auto stats = service.stats();
  ASSERT_EQ(stats.shards.size(), 4U);
  std::size_t records = 0;
  for (const auto& s : stats.shards) records += s.record_count;
  EXPECT_EQ(records, stats.record_count);
  EXPECT_EQ(stats.ingested + stats.dropped, stream.size());
}

}  // namespace
}  // namespace spechd::serve
