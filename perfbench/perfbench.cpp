// One end-to-end benchmark run of the SpecHD serving tier over loopback TCP.
//
//   perfbench --workload wide|skewed --seed N --seconds S --trace 0|1
//             --workdir DIR
//
// run.py builds and invokes this; see BENCHMARK.json for the metric list.
//
// Workloads (synthetic HCD-like spectra drawn from --seed, at most
// k_bucket_cap per precursor bucket; 7680 ingested, every eighth kept
// spectrum held out as a query; one in k_library_stride ingested spectra
// forms the search library):
//   wide    peptides spread over the whole acquisition window, so each
//           precursor bucket holds a handful of spectra;
//   skewed  peptides packed into a 30 Da neutral-mass window: thirty
//           buckets of about 300. Bucket probe, select, k-select, view
//           publish and assignment all grow with bucket size; only this
//           workload exercises that regime.
//
// The traffic follows what the repository documents for a serving node:
//   - a durable service: 2 shards, write-ahead journal with the default
//     group commit and fsync, default queues and shed threshold, as
//     `spechd serve --listen --shards 2 --journal-dir` in the CI network
//     smoke job;
//   - ingest in batches of 256 spectra, the `spechd client --batch` default;
//   - the serving steady state of bench_serve phase 3: half the stream is
//     preloaded (in process, as there) so queries have state to hit, then
//     readers run while the second half streams in;
//   - every client a closed-loop blocking connection, as in bench_serve's
//     networked closed-loop sweep: one ingest producer, one query client,
//     one top-10 +-2.5 Da search client (bench_serve's search phase). No
//     query:search mix is chosen: each reader's rate is set by its own
//     round trip.
//
// A run is a sequence of cycles until --seconds have passed. One cycle:
//   set-up  library build + .sphlib save + journaled service
//           + library load + net::server + three client connects (setup_s);
//   preload the first half of the stream, in process, drained;
//   steady  the producer sends the second half while the query and search
//           clients issue requests back to back until the service has
//           drained (the rate counts accepted spectra over the time from
//           the first send to the end of the drain). The second half is
//           k_live_batches batches, fewer than a shard queue holds, so the
//           server never blocks its event loop on a full queue nor sheds:
//           readers wait on the loop only for the requests ahead of them,
//           and compete with the shard writers' apply, journal and view
//           publish;
//   check   the drained state must equal (canonical bytes) an in-process
//           ingest of the same batches; every search answer must equal the
//           in-process one and every query must route alike; the first
//           cycle also compares every post-drain wire answer in full.
// Each cycle yields one set-up time and one ingest rate; latencies give
// exact (every sample kept, nearest rank) p50/p90 per window of consecutive
// cycles. A metric is the median over the run's cycles or windows, so a
// burst of host contention that slows a few of them does not move it. The
// tail reported is p90: the highest of p50/p90/p99 with at least ten samples
// beyond it in every window.
//
// Any failed request (an exception, or a batch not accepted) makes the run
// incorrect and suppresses the end-to-end metrics, so a failure can never
// improve a figure.
//
// --trace 0 disarms the program's stage spans and reports end-to-end
// metrics. --trace 1 arms them and reports the mean of each stage the
// program times during the steady phases (count/sum deltas of its obs
// histograms) next to the client-side round trips and set-up parts.
//
// The last stdout line is the result object
//   {"correct": b, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "ms/synthetic.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "preprocess/bucket.hpp"
#include "serve/search.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/bench_json.hpp"

namespace {

using namespace spechd;
using clock_type = std::chrono::steady_clock;

constexpr std::size_t k_bucket_cap = 300;
constexpr std::size_t k_library_stride = 4;
constexpr std::size_t k_batch = 256;
/// One below the default shard queue capacity (16): every batch puts at
/// most one job on each shard's queue, so no queue fills.
constexpr std::size_t k_live_batches = 15;
constexpr std::size_t k_ingest_spectra = 2 * k_live_batches * k_batch;
constexpr std::size_t k_shards = 2;
constexpr std::uint32_t k_top_k = 10;
constexpr double k_tolerance_da = 2.5;
/// Percentiles are taken over windows of consecutive cycles holding this
/// many samples, so a window's p90 has at least 25 samples beyond it.
constexpr std::size_t k_window_samples = 250;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

std::uint64_t ns_since(clock_type::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() - t0)
          .count());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact nearest-rank percentile of `sorted_ns`, in microseconds.
double percentile_us(const std::vector<std::uint64_t>& sorted_ns, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted_ns.size())));
  return static_cast<double>(sorted_ns[std::max<std::size_t>(rank, 1) - 1]) / 1000.0;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const auto x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

ms::synthetic_config workload_config(const std::string& workload, std::uint64_t seed) {
  ms::synthetic_config c;
  c.seed = seed;
  c.spectra_per_peptide_mean = 6.0;
  c.noise_peaks_per_spectrum = 30.0;
  c.peptide_count = 2000;
  if (workload == "skewed") {
    c.peptide_count = 4500;
    c.peptide_mass_min = 1400.0;
    c.peptide_mass_max = 1430.0;
  }
  return c;
}

serve::serve_config service_config() {
  serve::serve_config config;
  config.pipeline.threads = 1;  // shard writers are the parallelism
  config.shards = k_shards;
  return config;
}

/// One `"name": {"value": v, "unit": u}` entry of the result's metrics.
void metric(json_writer& json, const char* name, double value, const char* unit) {
  json.begin_object(name);
  json.field("value", value);
  json.field("unit", unit);
  json.end_object();
}

/// Stage timings of the steady phases: count/sum deltas of the program's
/// obs histograms, accumulated between begin() and end() only, so set-up,
/// preload and checks do not count.
class stage_deltas {
public:
  struct stage {
    const char* metric;     ///< reported name
    const char* histogram;  ///< obs registry histogram
  };

  explicit stage_deltas(std::vector<stage> stages) : stages_(std::move(stages)) {
    for (const auto& s : stages_) {
      hists_.push_back(&obs::registry::instance().histogram(s.histogram));
    }
    start_.resize(stages_.size());
    delta_.resize(stages_.size());
  }

  void begin() {
    for (std::size_t i = 0; i < hists_.size(); ++i) {
      hists_[i]->totals(start_[i].first, start_[i].second);
    }
  }

  void end() {
    for (std::size_t i = 0; i < hists_.size(); ++i) {
      std::uint64_t count = 0;
      std::uint64_t sum = 0;
      hists_[i]->totals(count, sum);
      delta_[i].first += count - start_[i].first;
      delta_[i].second += sum - start_[i].second;
    }
  }

  void report(json_writer& json) const {
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      const auto [count, sum] = delta_[i];
      metric(json, stages_[i].metric,
             count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count), "ns");
    }
  }

private:
  std::vector<stage> stages_;
  std::vector<obs::histogram*> hists_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> start_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> delta_;
};

/// Request latencies of one client: the running sum (for the traced mean)
/// and the exact nearest-rank percentiles of each window of consecutive
/// cycles holding at least k_window_samples samples.
struct latencies {
  std::vector<std::uint64_t> window;
  double sum_ns = 0.0;
  std::size_t count = 0;
  std::vector<double> p50_us;
  std::vector<double> p90_us;

  void record(std::uint64_t ns) {
    window.push_back(ns);
    sum_ns += static_cast<double>(ns);
    ++count;
  }

  /// Closes the window once it is full; `flush` closes a partial one.
  void end_cycle(bool flush = false) {
    if (window.empty() || (window.size() < k_window_samples && !flush)) return;
    std::sort(window.begin(), window.end());
    p50_us.push_back(percentile_us(window, 0.50));
    p90_us.push_back(percentile_us(window, 0.90));
    window.clear();
  }

  double mean_ns() const { return count == 0 ? 0.0 : sum_ns / static_cast<double>(count); }
};

/// The part of a query answer that does not depend on how much of the
/// stream has been applied: preprocessing and routing.
bool same_route(const serve::query_result& a, const serve::query_result& b) {
  return a.encodable == b.encodable && a.bucket_key == b.bucket_key && a.shard == b.shard;
}

bool same_query(const serve::query_result& a, const serve::query_result& b) {
  return same_route(a, b) && a.matched == b.matched && a.local_label == b.local_label &&
         a.distance == b.distance && a.nearest_member == b.nearest_member &&
         a.cluster_size == b.cluster_size;
}

/// Request counts shared by the client threads of a cycle.
struct tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> mismatches{0};
};

void report_failure(tally& t, const char* what, const std::exception& e) {
  std::cerr << "perfbench: " << what << " failed: " << e.what() << "\n";
  t.failed.fetch_add(1, std::memory_order_relaxed);
}

/// Sends `batches` closed loop; returns the spectra the server accepted.
std::size_t send_batches(net::client& cli, const std::vector<std::vector<ms::spectrum>>& batches,
                         tally& t, std::vector<double>& batch_ns) {
  std::size_t accepted = 0;
  for (const auto& batch : batches) {
    t.attempted.fetch_add(1, std::memory_order_relaxed);
    const auto t0 = clock_type::now();
    try {
      if (cli.ingest(batch).accepted) {
        accepted += batch.size();
      } else {
        std::cerr << "perfbench: ingest batch not accepted\n";
        t.failed.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      report_failure(t, "ingest", e);
    }
    batch_ns.push_back(static_cast<double>(ns_since(t0)));
  }
  return accepted;
}

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string workdir;
};

bool parse_args(int argc, char** argv, options& opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opts.trace = std::stoi(value);
      } else if (flag == "--workdir") {
        opts.workdir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && (opts.workload == "wide" || opts.workload == "skewed") &&
         opts.seconds > 0.0 && (opts.trace == 0 || opts.trace == 1) &&
         !opts.workdir.empty();
}

std::vector<std::vector<ms::spectrum>> split_batches(const std::vector<ms::spectrum>& spectra,
                                                     std::size_t from, std::size_t to) {
  std::vector<std::vector<ms::spectrum>> batches;
  for (std::size_t off = from; off < to; off += k_batch) {
    const auto end = std::min(off + k_batch, to);
    batches.emplace_back(spectra.begin() + static_cast<std::ptrdiff_t>(off),
                         spectra.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return batches;
}

int run(const options& opts) {
  const bool traced = opts.trace == 1;
  obs::set_armed(traced);
  const std::string tag = std::to_string(::getpid());
  const std::string lib_path = opts.workdir + "/library-" + tag + ".sphlib";
  const std::string journal_dir = opts.workdir + "/journal-" + tag;
  std::filesystem::create_directories(opts.workdir);

  // --- inputs --------------------------------------------------------------
  // The generator's replicate counts and peptide masses are random; capping
  // the total and every precursor bucket keeps the work of a run, and the
  // skewed workload's bucket-size profile, the same for every seed.
  const auto config = service_config();
  auto journaled = config;
  journaled.journal.dir = journal_dir;
  const auto& bucketing = config.pipeline.preprocess.bucketing;
  const auto data = ms::generate_dataset(workload_config(opts.workload, opts.seed));
  std::vector<ms::spectrum> stream;
  std::vector<ms::spectrum> queries;
  std::map<std::int64_t, std::size_t> kept_per_bucket;
  std::size_t kept = 0;
  for (const auto& s : data.spectra) {
    if (stream.size() == k_ingest_spectra) break;
    auto& in_bucket =
        kept_per_bucket[preprocess::bucket_index(s.precursor_mz, s.precursor_charge, bucketing)];
    if (in_bucket == k_bucket_cap) continue;
    ++in_bucket;
    (kept++ % 8 == 0 ? queries : stream).push_back(s);
  }
  std::vector<ms::spectrum> library_spectra;
  for (std::size_t i = 0; i < stream.size(); i += k_library_stride) {
    library_spectra.push_back(stream[i]);
  }
  if (stream.size() != k_ingest_spectra) {
    std::cerr << "perfbench: the generator gave only " << stream.size() << " usable spectra\n";
    return 1;
  }
  const auto preload = split_batches(stream, 0, k_ingest_spectra / 2);
  const auto live = split_batches(stream, k_ingest_spectra / 2, k_ingest_spectra);
  std::cerr << "perfbench: " << opts.workload << " seed " << opts.seed << ": "
            << stream.size() << " ingest spectra in " << preload.size() << " + "
            << live.size() << " batches, " << queries.size() << " queries\n";

  // --- reference: the same batches ingested in process, and its answers ----
  serve::spectral_library::from_spectra(library_spectra, config.pipeline).save(lib_path);
  std::string reference_state;
  std::vector<serve::query_result> reference_queries;
  std::vector<serve::search_result> reference_searches;
  {
    serve::clustering_service reference(config);
    reference.load_library(lib_path);
    for (const auto* batches : {&preload, &live}) {
      for (const auto& batch : *batches) reference.ingest(batch);
    }
    reference.drain();
    reference_state = serve::canonical_state(reference.export_states());
    for (const auto& q : queries) {
      reference_queries.push_back(reference.query(q));
      reference_searches.push_back(reference.search(q, k_top_k, k_tolerance_da));
    }
  }
  std::filesystem::remove(lib_path);

  stage_deltas stages({{"ingest_server_request_ns", "spechd_net_ingest_request_ns"},
                       {"ingest_admission_ns", "spechd_ingest_admission_ns"},
                       {"ingest_enqueue_ns", "spechd_ingest_enqueue_ns"},
                       {"ingest_queue_wait_ns", "spechd_ingest_queue_wait_ns"},
                       {"ingest_journal_append_ns", "spechd_journal_append_ns"},
                       {"ingest_journal_fsync_ns", "spechd_journal_fsync_ns"},
                       {"ingest_apply_ns", "spechd_ingest_apply_ns"},
                       {"ingest_view_publish_ns", "spechd_view_publish_ns"},
                       {"net_parse_ns", "spechd_net_parse_ns"},
                       {"query_server_request_ns", "spechd_net_query_request_ns"},
                       {"query_route_ns", "spechd_query_route_ns"},
                       {"query_bucket_probe_ns", "spechd_query_bucket_probe_ns"},
                       {"query_select_ns", "spechd_query_select_ns"},
                       {"search_server_request_ns", "spechd_net_search_request_ns"},
                       {"search_route_ns", "spechd_search_route_ns"},
                       {"search_bucket_probe_ns", "spechd_search_bucket_probe_ns"},
                       {"search_k_select_ns", "spechd_search_k_select_ns"},
                       {"search_merge_ns", "spechd_search_merge_ns"}});

  tally counts;
  bool correct = true;
  std::vector<double> setup_s;
  std::vector<double> library_build_ms;
  std::vector<double> library_io_ms;
  std::vector<double> serve_start_ms;
  std::vector<double> ingest_rates;
  std::vector<double> batch_ns;
  latencies query_lat;
  latencies search_lat;
  std::size_t next_query = 0;
  std::size_t next_search = 0;
  std::uint64_t candidates = 0;
  std::uint64_t buckets_probed = 0;
  std::size_t cycles = 0;
  const auto run_start = clock_type::now();
  do {
    std::filesystem::remove_all(journal_dir);

    // set-up: library, journaled service, server, connections.
    const auto t0 = clock_type::now();
    auto library = serve::spectral_library::from_spectra(library_spectra, config.pipeline);
    const auto t1 = clock_type::now();
    library.save(lib_path);
    const auto t2 = clock_type::now();
    auto service = std::make_unique<serve::clustering_service>(journaled);
    const auto t3 = clock_type::now();
    service->load_library(lib_path);
    const auto t4 = clock_type::now();
    auto srv = std::make_unique<net::server>(*service, net::server_config{});
    net::client ingest_cli("127.0.0.1", srv->port());
    net::client query_cli("127.0.0.1", srv->port());
    net::client search_cli("127.0.0.1", srv->port());
    const auto t5 = clock_type::now();
    const auto ms_between = [](clock_type::time_point a, clock_type::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    setup_s.push_back(ms_between(t0, t5) / 1000.0);
    library_build_ms.push_back(ms_between(t0, t1));
    library_io_ms.push_back(ms_between(t1, t2) + ms_between(t3, t4));
    serve_start_ms.push_back(ms_between(t2, t3) + ms_between(t4, t5));

    // preload: half the stream, so queries have state to hit.
    for (const auto& batch : preload) service->ingest(batch);
    service->drain();

    // steady state: ingest the second half while both readers run.
    std::atomic<bool> ingest_done{false};
    stages.begin();
    std::thread query_thread([&] {
      while (!ingest_done.load(std::memory_order_acquire)) {
        const std::size_t i = next_query++ % queries.size();
        counts.attempted.fetch_add(1, std::memory_order_relaxed);
        const auto tq = clock_type::now();
        try {
          const auto r = query_cli.query(queries[i]);
          query_lat.record(ns_since(tq));
          if (!same_route(r, reference_queries[i])) {
            counts.mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception& e) {
          report_failure(counts, "query", e);
        }
      }
    });
    std::thread search_thread([&] {
      while (!ingest_done.load(std::memory_order_acquire)) {
        const std::size_t i = next_search++ % queries.size();
        counts.attempted.fetch_add(1, std::memory_order_relaxed);
        const auto ts = clock_type::now();
        try {
          const auto r = search_cli.search(queries[i], k_top_k, k_tolerance_da);
          search_lat.record(ns_since(ts));
          candidates += r.candidates;
          buckets_probed += r.buckets_probed;
          // Search answers depend on the library only, never on ingest.
          if (!(r == reference_searches[i])) {
            counts.mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception& e) {
          report_failure(counts, "search", e);
        }
      }
    });
    const auto ti = clock_type::now();
    const std::size_t accepted = send_batches(ingest_cli, live, counts, batch_ns);
    // Drained in process: a wire drain would block the server's event loop,
    // and with it the readers, until the writers finish.
    try {
      service->drain();
    } catch (const std::exception& e) {
      report_failure(counts, "drain", e);
    }
    ingest_rates.push_back(static_cast<double>(accepted) / seconds_since(ti));
    ingest_done.store(true, std::memory_order_release);
    query_thread.join();
    search_thread.join();
    stages.end();
    query_lat.end_cycle();
    search_lat.end_cycle();

    // checks: drained state, and on the first cycle every post-drain answer.
    if (serve::canonical_state(service->export_states()) != reference_state) {
      std::cerr << "perfbench: wire ingest state differs from in-process ingest\n";
      correct = false;
    }
    if (cycles == 0) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        counts.attempted.fetch_add(2, std::memory_order_relaxed);
        if (!same_query(query_cli.query(queries[i]), reference_queries[i]) ||
            !(search_cli.search(queries[i], k_top_k, k_tolerance_da) ==
              reference_searches[i])) {
          counts.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    ++cycles;
    srv.reset();
    service.reset();
    std::filesystem::remove(lib_path);
  } while (seconds_since(run_start) < opts.seconds);
  std::filesystem::remove_all(journal_dir);
  if (query_lat.p50_us.empty()) query_lat.end_cycle(true);
  if (search_lat.p50_us.empty()) search_lat.end_cycle(true);

  const auto attempted = counts.attempted.load();
  const auto failed = counts.failed.load();
  const auto mismatches = counts.mismatches.load();
  if (mismatches != 0) {
    std::cerr << "perfbench: " << mismatches << " wire answers differ from in-process\n";
  }
  correct = correct && failed == 0 && mismatches == 0 && !query_lat.p50_us.empty() &&
            !search_lat.p50_us.empty();

  json_writer json;
  json.begin_object();
  json.field("correct", correct);
  json.field("attempted", static_cast<std::size_t>(attempted));
  json.field("failed", static_cast<std::size_t>(failed));
  json.begin_object("metrics");
  if (traced) {
    const auto searches = static_cast<double>(std::max<std::size_t>(1, search_lat.count));
    metric(json, "setup_library_build_ms", median(library_build_ms), "ms");
    metric(json, "setup_library_io_ms", median(library_io_ms), "ms");
    metric(json, "setup_serve_start_ms", median(serve_start_ms), "ms");
    metric(json, "ingest_client_batch_ns", mean(batch_ns), "ns");
    metric(json, "query_client_rtt_ns", query_lat.mean_ns(), "ns");
    metric(json, "search_client_rtt_ns", search_lat.mean_ns(), "ns");
    stages.report(json);
    metric(json, "search_candidates", static_cast<double>(candidates) / searches, "count");
    metric(json, "search_buckets_probed", static_cast<double>(buckets_probed) / searches,
           "count");
  } else if (correct) {
    metric(json, "ingest_spectra_per_s", median(ingest_rates), "1/s");
    metric(json, "query_p50_us", median(query_lat.p50_us), "us");
    metric(json, "query_p90_us", median(query_lat.p90_us), "us");
    metric(json, "search_p50_us", median(search_lat.p50_us), "us");
    metric(json, "search_p90_us", median(search_lat.p90_us), "us");
    metric(json, "setup_s", median(setup_s), "s");
  }
  json.end_object();
  json.end_object();
  std::cerr << "perfbench: " << cycles << " cycles, " << query_lat.count << " queries, "
            << search_lat.count << " searches during ingest\n";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  options opts;
  if (!parse_args(argc, argv, opts)) {
    std::cerr << "usage: perfbench --workload wide|skewed --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n";
    return 2;
  }
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
