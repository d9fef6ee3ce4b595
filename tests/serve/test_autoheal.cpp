// Auto-heal: the maintenance scheduler notices a degraded shard and
// triggers the heal (journal compaction) itself — with exponential
// backoff while the underlying I/O condition persists, and prompt
// recovery once it clears. Regression for the ROADMAP follow-up where a
// degraded shard stayed read-only until an operator ran compact_journal
// by hand.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ms/synthetic.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace spechd::serve {
namespace {

std::vector<ms::spectrum> sample_stream(std::size_t peptides = 24,
                                        std::uint64_t seed = 77) {
  ms::synthetic_config config;
  config.peptide_count = peptides;
  config.spectra_per_peptide_mean = 4.0;
  config.noise_peaks_per_spectrum = 20.0;
  config.seed = seed;
  return ms::generate_dataset(config).spectra;
}

serve_config autoheal_config(const std::string& journal_dir) {
  serve_config sc;
  sc.pipeline.encoder.dim = 1024;
  sc.pipeline.threads = 1;
  sc.shards = 1;
  sc.queue_capacity = 4;
  sc.journal.dir = journal_dir;
  sc.journal.fsync = false;
  sc.maintenance.enabled = true;
  sc.maintenance.interval = std::chrono::milliseconds{10};
  sc.maintenance.heal_backoff_initial = std::chrono::milliseconds{10};
  sc.maintenance.heal_backoff_max = std::chrono::milliseconds{100};
  return sc;
}

struct temp_dir {
  std::string path;
  explicit temp_dir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("spechd_heal_" + name + "_" + std::to_string(::getpid()))).string()) {
    std::filesystem::remove_all(path);
  }
  ~temp_dir() { std::filesystem::remove_all(path); }
};

struct failpoint_guard {
  failpoint_guard() { util::registry().reset(); }
  ~failpoint_guard() { util::registry().reset(); }
};

/// Polls `predicate` until it holds or `deadline` elapses.
template <typename Predicate>
bool eventually(Predicate predicate,
                std::chrono::milliseconds deadline = std::chrono::milliseconds{5000}) {
  const auto stop = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < stop) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  return predicate();
}

TEST(AutoHeal, IntermittentAppendErrorHealsWithoutOperator) {
  failpoint_guard guard;
  temp_dir dir("intermittent");
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;

  auto sc = autoheal_config(dir.path);
  clustering_service service(sc);
  service.ingest({stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(split)});
  service.drain();

  // One hard append failure degrades the shard; the EIO condition clears
  // immediately (times1), so the very next scheduled heal should succeed.
  util::registry().arm_from_spec("journal.append.write=error:EIO@times1");
  service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
  EXPECT_THROW(service.drain(), spechd::error);
  // (No degraded assertion here: with a 10 ms interval the scheduler may
  // already have healed — the heals counter below proves the degradation
  // happened and was repaired.)

  // No compact_journal() call here: the scheduler must do it.
  ASSERT_TRUE(eventually([&] { return service.stats().degraded_shards == 0; }))
      << "shard never auto-healed";
  // The shard reads healthy while heal() is still returning; the scheduler
  // counts the heal only after it returns, so wait for the counter too.
  ASSERT_TRUE(eventually([&] {
    const auto m = service.maintenance_stats();
    return m && m->heals >= 1;
  })) << "the scheduler never counted the heal";

  const auto maintenance = service.maintenance_stats();
  ASSERT_TRUE(maintenance.has_value());
  EXPECT_GE(maintenance->heal_attempts, 1u);
  EXPECT_GE(maintenance->heals, 1u);

  // Healed means writable again — the dropped half ingests cleanly now.
  service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
  service.drain();
  EXPECT_EQ(service.stats().degraded_shards, 0u);
  EXPECT_EQ(service.stats().record_count, stream.size());
}

TEST(AutoHeal, PersistentFailureBacksOffThenHealsWhenCleared) {
  failpoint_guard guard;
  temp_dir dir("persistent");
  const auto stream = sample_stream();
  const std::size_t split = stream.size() / 2;

  auto sc = autoheal_config(dir.path);
  clustering_service service(sc);
  service.ingest({stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(split)});
  service.drain();

  // Degrade the shard, and keep the heal path broken: every compaction
  // attempt fails at the snapshot rename (persistent EIO).
  util::registry().arm_from_spec("journal.append.write=error:EIO@times1");
  util::registry().arm_from_spec("snapshot.rename=error:EIO");
  service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
  EXPECT_THROW(service.drain(), spechd::error);
  EXPECT_EQ(service.stats().degraded_shards, 1u);

  // The scheduler keeps probing (bounded by backoff), without healing.
  ASSERT_TRUE(eventually([&] {
    const auto m = service.maintenance_stats();
    return m && m->heal_attempts >= 2;
  })) << "scheduler stopped attempting heals under a persistent failure";
  EXPECT_EQ(service.stats().degraded_shards, 1u);
  EXPECT_EQ(service.maintenance_stats()->heals, 0u);

  // Condition clears (disk back): the next backoff-paced attempt heals.
  util::registry().disarm("snapshot.rename");
  ASSERT_TRUE(eventually([&] { return service.stats().degraded_shards == 0; }))
      << "shard never healed after the I/O condition cleared";
  // As above: the heal is counted only after heal() returns.
  ASSERT_TRUE(eventually([&] {
    const auto m = service.maintenance_stats();
    return m && m->heals >= 1;
  })) << "the scheduler never counted the heal";
  EXPECT_GE(service.maintenance_stats()->heals, 1u);

  service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(split), stream.end()});
  service.drain();
  EXPECT_EQ(service.stats().record_count, stream.size());
}

TEST(AutoHeal, UnjournaledServiceDoesNotAttemptHeals) {
  // No journal ⇒ no compaction ⇒ no heal hook: the scheduler must not
  // spin heal attempts it can never satisfy.
  serve_config sc;
  sc.pipeline.encoder.dim = 1024;
  sc.pipeline.threads = 1;
  sc.shards = 1;
  sc.maintenance.enabled = true;
  sc.maintenance.interval = std::chrono::milliseconds{5};
  clustering_service service(sc);
  service.ingest(sample_stream(4, 3));
  service.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds{100});
  const auto m = service.maintenance_stats();
  ASSERT_TRUE(m.has_value());
  EXPECT_GT(m->ticks, 0u);
  EXPECT_EQ(m->heal_attempts, 0u);
}

}  // namespace
}  // namespace spechd::serve
