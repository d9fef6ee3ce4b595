// Clustering service: sharded ingest must equal the sequential reference
// clusterer bucket-for-bucket; queries must be consistent with ingest and
// safe to run concurrently with it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "hdc/item_memory.hpp"
#include "ms/synthetic.hpp"
#include "obs/metrics.hpp"
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

// A query must answer what ingesting the spectrum would do. A probe
// clusterer holding exactly the queried shard's exported state pushes the
// spectrum; it must join an existing cluster iff the query matched, and
// then the same local label, whose size the query reports. Fresh probe
// per query, so probes don't interact. One spectrum in four is held out
// of ingest, so queries also miss.
TEST(ClusteringService, CompleteLinkageQueryAgreesWithAssignment) {
  const auto stream = sample_stream(24, 5);
  std::vector<ms::spectrum> ingested;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i % 4 != 0) ingested.push_back(stream[i]);
  }
  serve_config sc;
  sc.pipeline = small_config();
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
    core::incremental_clusterer probe(sc.pipeline);
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

TEST(ClusteringService, NonFinitePrecursorsAreDroppedAndUnencodable) {
  // An MGF PEPMASS or an ingest frame can carry NaN or inf. Such a
  // spectrum has no Eq. 1 bucket: ingest drops it, and query and search
  // report it unencodable.
  const auto good = sample_stream(1, 3).front();
  auto nan_copy = good;
  nan_copy.precursor_mz = std::numeric_limits<double>::quiet_NaN();
  auto inf_copy = good;
  inf_copy.precursor_mz = std::numeric_limits<double>::infinity();

  serve_config sc;
  sc.pipeline = small_config();
  sc.shards = 2;
  clustering_service service(sc);
  service.ingest({good, nan_copy, inf_copy});
  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.dropped, 2U);
  EXPECT_EQ(stats.record_count, 1U);
  EXPECT_TRUE(service.query(good).encodable);
  EXPECT_FALSE(service.query(nan_copy).encodable);

  const auto library = (std::filesystem::temp_directory_path() /
                        ("spechd_test_nonfinite_" + std::to_string(::getpid()) + ".sphlib"))
                           .string();
  spectral_library::from_spectra({good}, sc.pipeline).save(library);
  service.load_library(library);
  std::filesystem::remove(library);
  EXPECT_TRUE(service.search(good, 4, 1.0).encodable);
  EXPECT_FALSE(service.search(nan_copy, 4, 1.0).encodable);
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
  shard sh(0, config, /*queue_capacity=*/8);

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

// --- one item memory per process ------------------------------------------
//
// The cache never drops a table, and other suites (or an earlier
// --gtest_repeat iteration) fill it too, so byte checks compare deltas over
// keys whose seed no earlier call in this process has used. A narrow m/z
// grid keeps each such key's tables small.

core::spechd_config fresh_key_config(std::size_t dim) {
  static std::uint64_t next_seed = 0x5EED'2000'0000'0000ULL;
  auto config = small_config();
  config.encoder.dim = dim;
  config.encoder.seed = next_seed++;
  config.preprocess.quantize.mz_bins = 2000;
  return config;
}

std::size_t table_set_bytes(const core::spechd_config& config) {
  const auto& q = config.preprocess.quantize;
  return (q.mz_bins + q.intensity_levels) * (config.encoder.dim / 8);
}

TEST(ItemMemoryCache, ServiceShardsQueryEncoderAndReplayShareOneTableSet) {
  const auto config = fresh_key_config(512);
  const auto before = hdc::shared_item_memory_bytes();
  {
    serve_config sc;
    sc.pipeline = config;
    sc.shards = 3;
    clustering_service service(sc);
    EXPECT_EQ(hdc::shared_item_memory_bytes() - before, table_set_bytes(config));
    // Held by the cache, the query encoder, each shard's clusterer, and here.
    const auto ids = hdc::shared_id_memory(config.encoder.dim,
                                           config.preprocess.quantize.mz_bins,
                                           config.encoder.seed);
    EXPECT_EQ(ids.use_count(), 1 + 1 + 3 + 1);
  }
  // A journaled service also replays its directory through one standalone
  // clusterer per shard; those read the same tables.
  const auto dir = (std::filesystem::temp_directory_path() /
                    ("spechd_item_memory_" + std::to_string(::getpid())))
                       .string();
  std::filesystem::remove_all(dir);
  serve_config journaled;
  journaled.pipeline = config;
  journaled.shards = 2;
  journaled.journal.dir = dir;
  journaled.journal.fsync = false;
  std::size_t records = 0;
  {
    clustering_service service(journaled);
    service.ingest(sample_stream(6, 3));
    service.drain();
    records = service.stats().record_count;
  }
  {
    clustering_service service(journaled);
    EXPECT_TRUE(service.recovery().recovered);
    EXPECT_GT(records, 0u);
    EXPECT_EQ(service.stats().record_count, records);
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(hdc::shared_item_memory_bytes() - before, table_set_bytes(config));
}

TEST(ItemMemoryCache, GaugeReportsTheBytesOfEveryKey) {
  auto& gauge = obs::registry::instance().gauge("spechd_item_memory_bytes");
  const auto first = fresh_key_config(512);
  const auto second = fresh_key_config(1024);
  const auto before = static_cast<std::int64_t>(hdc::shared_item_memory_bytes());
  const auto service_for = [](const core::spechd_config& pipeline) {
    serve_config sc;
    sc.pipeline = pipeline;
    sc.shards = 2;
    return std::make_unique<clustering_service>(sc);
  };
  auto a = service_for(first);
  EXPECT_EQ(gauge.value(), before + static_cast<std::int64_t>(table_set_bytes(first)));
  auto b = service_for(second);
  const auto both =
      before + static_cast<std::int64_t>(table_set_bytes(first) + table_set_bytes(second));
  EXPECT_EQ(gauge.value(), both);
  // A third service over an existing key generates nothing.
  auto c = service_for(first);
  EXPECT_EQ(gauge.value(), both);
}

}  // namespace
}  // namespace spechd::serve
