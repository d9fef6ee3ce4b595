// spechd — command-line front end to the SpecHD library.
//
// Subcommands:
//   synth    generate a synthetic labelled dataset (MGF)
//   info     summarise a spectra file (count, peaks, charges, buckets)
//   encode   preprocess + encode spectra into a hypervector store (.sphv)
//   cluster  cluster a spectra file or .sphv store; write consensus MGF
//   serve    run the sharded clustering service: ingest files, answer a
//            query workload, snapshot/restore service state (.sphsnap);
//            --journal-dir enables write-ahead journaling + crash recovery
//   recover  rebuild service state from a journal directory (newest
//            snapshot + journal replay, truncating a torn tail), report
//            what was replayed, optionally re-query / export a snapshot
//   search   open-modification search: build an HV spectral library
//            (.sphlib) from a FASTA database or identified spectra, then
//            answer top-k queries with a precursor-mass-shift tolerance
//   doctor   pretty-print a `.sphcrash` crash dump (metrics snapshot,
//            per-shard health, flight-recorder event tail) offline
//   model    print modelled FPGA runtime/energy for the paper datasets
//   help     print usage
//
// Formats are selected by extension: .mgf, .ms2, .mzML/.mzml, .mzXML.
// Unknown subcommands, unknown flags, and stray arguments are errors
// (usage on stderr, exit 2) — never silently ignored.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/incremental.hpp"
#include "core/spechd.hpp"
#include "fpga/des.hpp"
#include "fpga/tool_models.hpp"
#include "hdc/hv_store.hpp"
#include "metrics/quality.hpp"
#include "ms/fasta.hpp"
#include "ms/mgf.hpp"
#include "ms/ms2.hpp"
#include "ms/mzml.hpp"
#include "ms/mzxml.hpp"
#include "ms/synthetic.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "preprocess/pipeline.hpp"
#include "serve/search.hpp"
#include "serve/service.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace spechd;

/// Minimal flag parser: --key value / --flag, leaving positionals in order.
class arg_list {
public:
  arg_list(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::optional<std::string> take_option(const std::string& name) {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) {
        std::string value = args_[i + 1];
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                    args_.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        return value;
      }
    }
    return std::nullopt;
  }

  bool take_flag(const std::string& name) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == name) {
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  const std::vector<std::string>& positionals() const noexcept { return args_; }

private:
  std::vector<std::string> args_;
};

std::string extension_of(const std::string& path) {
  auto ext = std::filesystem::path(path).extension().string();
  for (auto& c : ext) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return ext;
}

std::vector<ms::spectrum> read_any(const std::string& path) {
  const auto ext = extension_of(path);
  if (ext == ".mgf") return ms::read_mgf_file(path);
  if (ext == ".ms2") return ms::read_ms2_file(path);
  if (ext == ".mzml") return ms::read_mzml_file(path);
  if (ext == ".mzxml") return ms::read_mzxml_file(path);
  throw spechd::error("unsupported input format: " + path +
                      " (expected .mgf/.ms2/.mzML/.mzXML)");
}

void write_any(const std::string& path, const std::vector<ms::spectrum>& spectra) {
  const auto ext = extension_of(path);
  if (ext == ".mgf") return ms::write_mgf_file(path, spectra);
  if (ext == ".ms2") return ms::write_ms2_file(path, spectra);
  if (ext == ".mzml") return ms::write_mzml_file(path, spectra);
  if (ext == ".mzxml") return ms::write_mzxml_file(path, spectra);
  throw spechd::error("unsupported output format: " + path);
}

cluster::linkage parse_linkage(const std::string& name) {
  if (name == "single") return cluster::linkage::single;
  if (name == "complete") return cluster::linkage::complete;
  if (name == "average") return cluster::linkage::average;
  if (name == "ward") return cluster::linkage::ward;
  throw spechd::error("unknown linkage: " + name);
}

void print_usage(std::ostream& out) {
  out <<
      "spechd — hyperdimensional mass-spectrometry clustering\n\n"
      "usage:\n"
      "  spechd synth -o out.mgf [--peptides N] [--replicates M] [--seed S]\n"
      "  spechd info <spectra-file>\n"
      "  spechd encode <spectra-file> -o store.sphv [--dim D]\n"
      "  spechd cluster <spectra-file|store.sphv> [-o consensus.mgf]\n"
      "                 [-t threshold] [--linkage single|complete|average|ward]\n"
      "                 [--float] [--threads N]\n"
      "  spechd serve   [--shards N] [--batch B] [--queue N] [--threads N]\n"
      "                 [-t threshold] [--restore in.sphsnap]\n"
      "                 [--journal-dir DIR] [--atomic]\n"
      "                 [--failpoints SPEC] [--failpoint-seed S]\n"
      "                 [--ingest spectra-file]... [--query spectra-file]\n"
      "                 [--snapshot out.sphsnap] [--listen HOST:PORT]\n"
      "                 [--shed-depth N] [--library lib.sphlib]\n"
      "                 [--metrics-log SECS] [--slow-threshold-us N]\n"
      "                 [--slow-sample N] [--crash-dump FILE.sphcrash]\n"
      "                 [--watchdog-deadline-ms N] [--watchdog-kill-after-ms N]\n"
      "  spechd client  --connect HOST:PORT [--batch B] [--timeout MS]\n"
      "                 [--ingest spectra-file]... [--query spectra-file]\n"
      "                 [--search spectra-file] [--topk K] [--tolerance DA]\n"
      "                 [--ping] [--stats] [--drain] [--debug-dump]\n"
      "                 [--metrics [--watch SECS] [--format table|prom]]\n"
      "  spechd search  --build lib.sphlib (--fasta db.fasta [--missed N]\n"
      "                 [--charges 2,3] | --spectra ref-file) [--dim D]\n"
      "  spechd search  --library lib.sphlib --query spectra-file\n"
      "                 [--topk K] [--tolerance DA]\n"
      "  spechd recover --journal-dir DIR [--query spectra-file]\n"
      "                 [--snapshot out.sphsnap]\n"
      "                 [--failpoints SPEC] [--failpoint-seed S]\n"
      "  spechd doctor  <dump.sphcrash>\n"
      "  spechd model [--overlap]\n"
      "  spechd help\n";
}

int usage_error() {
  print_usage(std::cerr);
  return 2;
}

/// Commands take the options they know first; anything left that still
/// looks like a flag is a typo — reject it loudly instead of silently
/// running with default settings. Extra positionals are typos too.
int reject_leftovers(const arg_list& args, const std::string& command,
                     std::size_t allowed_positionals) {
  for (const auto& arg : args.positionals()) {
    if (!arg.empty() && arg.front() == '-') {
      std::cerr << "spechd " << command << ": unknown option '" << arg << "'\n";
      return usage_error();
    }
  }
  if (args.positionals().size() > allowed_positionals) {
    std::cerr << "spechd " << command << ": unexpected argument '"
              << args.positionals()[allowed_positionals] << "'\n";
    return usage_error();
  }
  return 0;
}

/// `--dim D` into `dim`; false, after a message, unless D is a dimension
/// a file may declare (hdc::dim_in_range).
bool take_dim(arg_list& args, const char* command, std::size_t& dim) {
  const auto v = args.take_option("--dim");
  if (!v) return true;
  dim = std::stoul(*v);
  if (hdc::dim_in_range(dim)) return true;
  std::cerr << command << ": --dim must be a positive multiple of 64 up to "
            << hdc::k_max_dim << "\n";
  return false;
}

int cmd_synth(arg_list& args) {
  ms::synthetic_config config;
  if (const auto v = args.take_option("--peptides")) config.peptide_count = std::stoul(*v);
  if (const auto v = args.take_option("--replicates")) {
    config.spectra_per_peptide_mean = std::stod(*v);
  }
  if (const auto v = args.take_option("--seed")) config.seed = std::stoull(*v);
  const auto out = args.take_option("-o");
  if (const int rc = reject_leftovers(args, "synth", 0)) return rc;
  if (!out) {
    std::cerr << "synth: missing -o <output>\n";
    return 2;
  }
  const auto data = ms::generate_dataset(config);
  write_any(*out, data.spectra);
  std::cout << "wrote " << data.spectra.size() << " spectra ("
            << data.library.size() << " peptide classes) to " << *out << "\n";
  return 0;
}

int cmd_info(arg_list& args) {
  if (const int rc = reject_leftovers(args, "info", 1)) return rc;
  if (args.positionals().empty()) {
    std::cerr << "info: missing input file\n";
    return 2;
  }
  const auto path = args.positionals().front();
  const auto spectra = read_any(path);

  std::size_t peaks = 0;
  std::size_t raw_bytes = 0;
  std::map<int, std::size_t> charges;
  for (const auto& s : spectra) {
    peaks += s.size();
    raw_bytes += ms::raw_peak_bytes(s);
    ++charges[s.precursor_charge];
  }
  const auto batch =
      preprocess::run_preprocessing(spectra, preprocess::preprocess_config{});
  const auto st = preprocess::summarize(batch.buckets);

  text_table table("spectra file: " + path);
  table.set_header({"property", "value"});
  table.add_row({"spectra", text_table::num(spectra.size())});
  table.add_row({"total peaks", text_table::num(peaks)});
  table.add_row({"avg peaks/spectrum",
                 text_table::num(spectra.empty() ? 0.0
                                                 : static_cast<double>(peaks) /
                                                       static_cast<double>(spectra.size()),
                                 1)});
  table.add_row({"raw peak bytes", text_table::num(raw_bytes)});
  for (const auto& [charge, count] : charges) {
    table.add_row({"charge " + std::to_string(charge) + "+", text_table::num(count)});
  }
  table.add_row({"buckets (res 1.0)", text_table::num(st.bucket_count)});
  table.add_row({"largest bucket", text_table::num(st.largest)});
  table.add_row({"filter-dropped", text_table::num(batch.dropped)});
  table.print(std::cout);
  return 0;
}

int cmd_encode(arg_list& args) {
  const auto out = args.take_option("-o");
  core::spechd_config config;
  if (!take_dim(args, "encode", config.encoder.dim)) return 2;
  if (const int rc = reject_leftovers(args, "encode", 1)) return rc;
  if (args.positionals().empty() || !out) {
    std::cerr << "encode: need <input> and -o <store.sphv>\n";
    return 2;
  }
  const auto spectra = read_any(args.positionals().front());
  const auto batch = preprocess::run_preprocessing(spectra, config.preprocess);
  hdc::id_level_encoder encoder(config.encoder, config.preprocess.quantize.mz_bins,
                                config.preprocess.quantize.intensity_levels);

  hdc::hv_store store(config.encoder.dim, config.encoder.seed);
  for (const auto& q : batch.spectra) {
    hdc::hv_record record;
    record.hv = encoder.encode(q);
    record.precursor_mz = q.precursor_mz;
    record.precursor_charge = q.precursor_charge;
    record.scan = q.source_index;
    record.label = q.label;
    store.append(std::move(record));
  }
  store.save_file(*out);

  std::size_t raw_bytes = 0;
  for (const auto& s : spectra) raw_bytes += ms::raw_peak_bytes(s);
  std::cout << "encoded " << store.size() << " spectra -> " << *out << " ("
            << store.file_bytes() / 1024 << " KiB; raw peaks were "
            << raw_bytes / 1024 << " KiB)\n";
  return 0;
}

int cmd_cluster(arg_list& args) {
  core::spechd_config config;
  if (const auto v = args.take_option("-t")) config.distance_threshold = std::stod(*v);
  if (const auto v = args.take_option("--linkage")) config.link = parse_linkage(*v);
  if (const auto v = args.take_option("--threads")) config.threads = std::stoul(*v);
  if (args.take_flag("--float")) config.use_fixed_point = false;
  const auto out = args.take_option("-o");
  if (const int rc = reject_leftovers(args, "cluster", 1)) return rc;
  if (args.positionals().empty()) {
    std::cerr << "cluster: missing input\n";
    return 2;
  }
  const auto& input = args.positionals().front();

  if (extension_of(input) == ".sphv") {
    // Cluster a pre-encoded store (the standalone-clustering workflow).
    const auto store = hdc::hv_store::load_file(input);
    config.encoder.dim = store.dim();
    config.encoder.seed = store.encoder_seed();
    core::incremental_clusterer clusterer(config);
    clusterer.bootstrap(store);
    const auto flat = clusterer.clustering();
    std::cout << "clustered " << store.size() << " stored vectors into "
              << clusterer.cluster_count() << " clusters\n";
    std::vector<std::int32_t> truth;
    truth.reserve(store.size());
    for (const auto& r : store.records()) truth.push_back(r.label);
    const bool any_labels =
        std::any_of(truth.begin(), truth.end(), [](std::int32_t l) { return l >= 0; });
    if (any_labels) {
      const auto q = metrics::evaluate_clustering(truth, flat);
      std::cout << "clustered ratio " << q.clustered_ratio << ", ICR "
                << q.incorrect_ratio << ", completeness " << q.completeness << "\n";
    }
    return 0;
  }

  const auto spectra = read_any(input);
  core::spechd_pipeline pipeline(config);
  const auto result = pipeline.run(spectra);
  std::cout << "clustered " << spectra.size() << " spectra into "
            << result.clustering.cluster_count << " clusters ("
            << result.consensus.size() << " consensus spectra, compression "
            << result.compression_factor << "x)\n";

  std::vector<std::int32_t> truth;
  truth.reserve(spectra.size());
  for (const auto& s : spectra) truth.push_back(s.label);
  if (std::any_of(truth.begin(), truth.end(), [](std::int32_t l) { return l >= 0; })) {
    const auto q = metrics::evaluate_clustering(truth, result.clustering);
    std::cout << "clustered ratio " << q.clustered_ratio << ", ICR "
              << q.incorrect_ratio << ", completeness " << q.completeness << "\n";
  }
  if (out) {
    write_any(*out, result.consensus);
    std::cout << "consensus written to " << *out << "\n";
  }
  return 0;
}

/// `--failpoints SPEC [--failpoint-seed S]`: arm fault injection before
/// the service touches the directory (operator recovery drills; the same
/// grammar as the SPECHD_FAILPOINTS env var, which the registry already
/// honours — the flag takes precedence because it arms later). A bad spec
/// is an input error: exit 2 with the parser's complaint.
int arm_failpoint_flags(arg_list& args, const std::string& command) {
  const auto seed = args.take_option("--failpoint-seed");
  const auto spec = args.take_option("--failpoints");
  try {
    if (seed) util::registry().seed(std::stoull(*seed));
    if (spec) util::registry().arm_from_spec(*spec);
  } catch (const std::exception& e) {
    std::cerr << "spechd " << command << ": bad --failpoints: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

/// Configures a service from a snapshot/journal identity block (the
/// single source of truth for `serve --restore`, `serve --journal-dir`
/// resume, and `recover` — per-flag overrides stay at the call sites).
void apply_identity(serve::serve_config& config, const serve::snapshot_identity& id) {
  config.pipeline.encoder.dim = id.dim;
  config.pipeline.encoder.seed = id.encoder_seed;
  config.pipeline.distance_threshold = id.distance_threshold;
  config.pipeline.preprocess.bucketing.resolution = id.bucket_resolution;
  config.pipeline.preprocess.bucketing.fallback_charge = id.fallback_charge;
  config.mode = static_cast<core::assign_mode>(id.assign_mode);
}

/// The serve/recover query workload: per-query latency + match summary.
void run_query_workload(serve::clustering_service& service, const std::string& query_file) {
  using clock = std::chrono::steady_clock;
  const auto queries = read_any(query_file);
  std::size_t matched = 0;
  std::size_t unencodable = 0;
  double matched_distance = 0.0;
  std::vector<double> latencies_us;
  latencies_us.reserve(queries.size());
  for (const auto& q : queries) {
    const auto start = clock::now();
    const auto r = service.query(q);
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(clock::now() - start).count());
    if (!r.encodable) {
      ++unencodable;
    } else if (r.matched) {
      ++matched;
      matched_distance += r.distance;
    }
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  text_table table("query workload: " + query_file);
  table.set_header({"metric", "value"});
  table.add_row({"queries", text_table::num(queries.size())});
  table.add_row({"matched", text_table::num(matched)});
  table.add_row({"unmatched", text_table::num(queries.size() - matched - unencodable)});
  table.add_row({"unencodable", text_table::num(unencodable)});
  table.add_row({"mean matched distance",
                 text_table::num(matched > 0 ? matched_distance / static_cast<double>(matched)
                                             : 0.0,
                                 4)});
  table.add_row({"latency p50 (us)", text_table::num(percentile_sorted(latencies_us, 0.50), 1)});
  table.add_row({"latency p90 (us)", text_table::num(percentile_sorted(latencies_us, 0.90), 1)});
  table.add_row({"latency p99 (us)", text_table::num(percentile_sorted(latencies_us, 0.99), 1)});
  table.print(std::cout);
}

/// Deterministic per-query search report, shared by `spechd search` and
/// `spechd client --search` so the CI smoke job can diff in-process output
/// against networked output byte for byte. Every field is integral or a
/// library-entry string — nothing latency- or environment-dependent.
void print_search_hits(std::size_t index, const serve::search_result& r) {
  std::cout << "query " << index << (r.encodable ? "" : " unencodable")
            << " probed=" << r.buckets_probed << " candidates=" << r.candidates
            << " hits=" << r.hits.size() << "\n";
  for (std::size_t h = 0; h < r.hits.size(); ++h) {
    const auto& hit = r.hits[h];
    std::cout << "hit " << h << " id=" << hit.id << " hamming=" << hit.hamming
              << " bucket=" << hit.bucket_key << " charge=" << hit.precursor_charge
              << " name=" << hit.name << "\n";
  }
}

/// Per-shard state table plus (when ground-truth labels exist) quality.
void print_service_state(serve::clustering_service& service) {
  const auto stats = service.stats();
  text_table table("service state");
  table.set_header({"shard", "records", "clusters", "batches", "view epoch", "health"});
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    const auto& sh = stats.shards[s];
    table.add_row({text_table::num(s), text_table::num(sh.record_count),
                   text_table::num(sh.cluster_count), text_table::num(sh.batches),
                   text_table::num(sh.view_epoch), serve::shard_health_name(sh.health)});
  }
  table.add_row({"total", text_table::num(stats.record_count),
                 text_table::num(stats.cluster_count), text_table::num(stats.batches),
                 "", ""});
  table.print(std::cout);
  if (stats.degraded_shards > 0 || stats.failed_shards > 0) {
    std::cout << "WARNING: " << stats.degraded_shards << " degraded (read-only), "
              << stats.failed_shards << " failed shard(s)\n";
    for (std::size_t s = 0; s < stats.shards.size(); ++s) {
      const auto& sh = stats.shards[s];
      if (sh.health != serve::shard_health::healthy) {
        std::cout << "  shard " << s << " " << serve::shard_health_name(sh.health)
                  << ": " << sh.last_error << "\n";
      }
    }
  }
  if (stats.journal_bytes > 0) {
    std::cout << "journal: " << stats.journal_records << " records, "
              << stats.journal_bytes / 1024 << " KiB across " << stats.shards.size()
              << " shard journals\n";
  }

  // Quality vs ground truth when the ingested spectra carried labels.
  const auto store = service.to_store();
  std::vector<std::int32_t> truth;
  truth.reserve(store.size());
  for (const auto& r : store.records()) truth.push_back(r.label);
  if (std::any_of(truth.begin(), truth.end(), [](std::int32_t l) { return l >= 0; })) {
    const auto q = metrics::evaluate_clustering(truth, service.clustering());
    std::cout << "clustered ratio " << q.clustered_ratio << ", ICR " << q.incorrect_ratio
              << ", completeness " << q.completeness << "\n";
  }
}

/// The one live server, for the SIGTERM/SIGINT handler (request_stop is
/// async-signal-safe: one eventfd write).
std::atomic<spechd::net::server*> g_server{nullptr};

extern "C" void handle_shutdown_signal(int) {
  if (auto* s = g_server.load(std::memory_order_acquire)) s->request_stop();
}

// --- metrics rendering (client --metrics / serve --metrics-log) --------------

/// Value of a named counter in a snapshot (0 when absent — a counter that
/// was never bumped was never registered).
std::uint64_t counter_or_zero(const obs::metrics_snapshot& snap, const char* name) {
  const auto* c = snap.find_counter(name);
  return c ? c->value : 0;
}

/// Interval histogram: `cur` minus `prev` per bucket. Bucket counts are
/// monotone, so the difference is exactly the histogram of the samples
/// recorded between the two scrapes — this is how --watch reports interval
/// (not lifetime) percentiles.
obs::histogram_sample hist_delta(const obs::histogram_sample& cur,
                                 const obs::histogram_sample* prev) {
  if (!prev) return cur;
  obs::histogram_sample d;
  d.name = cur.name;
  d.unit = cur.unit;
  d.count = cur.count - prev->count;
  d.sum = cur.sum - prev->sum;
  std::map<std::uint64_t, std::uint64_t> base;
  for (const auto& b : prev->buckets) base[b.lo] = b.count;
  for (const auto& b : cur.buckets) {
    const auto it = base.find(b.lo);
    const std::uint64_t n = b.count - (it == base.end() ? 0 : it->second);
    if (n > 0) d.buckets.push_back({b.lo, b.hi, n});
  }
  return d;
}

/// Histograms are recorded in ns; render percentiles in µs (one decimal
/// keeps sub-µs stages readable). Non-ns histograms print raw values.
std::string hist_value(const obs::histogram_sample& h, double p) {
  const double v = h.percentile(p);
  if (h.unit == "ns") return text_table::num(v / 1000.0, 1);
  return text_table::num(v, 0);
}

/// One-shot rendering of a metrics scrape: counters/gauges, per-stage
/// histograms with p50/p90/p99, and the slow-request ring.
void print_metrics_tables(const net::wire_metrics& m, const std::string& where) {
  const auto& snap = m.snapshot;
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    text_table table("remote metrics: " + where);
    table.set_header({"counter", "value"});
    for (const auto& c : snap.counters) {
      table.add_row({c.name, text_table::num(c.value)});
    }
    for (const auto& g : snap.gauges) {
      table.add_row({g.name, std::to_string(g.value)});  // gauges are signed
    }
    table.print(std::cout);
  }
  if (!snap.histograms.empty()) {
    text_table table("stage latencies (us)");
    table.set_header({"histogram", "count", "p50", "p90", "p99"});
    for (const auto& h : snap.histograms) {
      table.add_row({h.name, text_table::num(h.count), hist_value(h, 0.50),
                     hist_value(h, 0.90), hist_value(h, 0.99)});
    }
    table.print(std::cout);
  }
  if (!m.slow.empty()) {
    text_table table("slow requests (newest last)");
    table.set_header({"kind", "seq", "total (ms)", "stage breakdown"});
    for (const auto& s : m.slow) {
      std::ostringstream stages;
      for (std::size_t i = 0; i < s.stages.size(); ++i) {
        if (i > 0) stages << " ";
        stages << obs::stage_name(s.stages[i].st) << "="
               << text_table::num(static_cast<double>(s.stages[i].ns) / 1e6, 2);
      }
      table.add_row({s.kind, text_table::num(s.seq),
                     text_table::num(static_cast<double>(s.total_ns) / 1e6, 2),
                     stages.str()});
    }
    table.print(std::cout);
  }
  if (snap.counters.empty() && snap.gauges.empty() && snap.histograms.empty()) {
    std::cout << "no metrics registered yet (server has served no work)\n";
  }
}

/// One --watch tick: counter deltas as rates, histogram interval
/// percentiles from bucket diffs against the previous scrape.
void print_metrics_interval(const net::wire_metrics& cur, const net::wire_metrics& prev,
                            double seconds) {
  text_table table("interval (" + text_table::num(seconds, 1) + " s)");
  table.set_header({"metric", "delta", "per second"});
  bool any = false;
  for (const auto& c : cur.snapshot.counters) {
    const auto* p = prev.snapshot.find_counter(c.name);
    const std::uint64_t delta = c.value - (p ? p->value : 0);  // wrap-safe
    if (delta == 0) continue;
    any = true;
    table.add_row({c.name, text_table::num(delta),
                   text_table::num(static_cast<double>(delta) / seconds, 1)});
  }
  if (any) table.print(std::cout);
  text_table hists("interval stage latencies (us)");
  hists.set_header({"histogram", "count", "p50", "p90", "p99"});
  bool any_hist = false;
  for (const auto& h : cur.snapshot.histograms) {
    const auto d = hist_delta(h, prev.snapshot.find_histogram(h.name));
    if (d.count == 0) continue;
    any_hist = true;
    hists.add_row({d.name, text_table::num(d.count), hist_value(d, 0.50),
                   hist_value(d, 0.90), hist_value(d, 0.99)});
  }
  if (any_hist) hists.print(std::cout);
  if (!any && !any_hist) std::cout << "(idle interval: no activity)\n";
}

// --- flight-recorder rendering (client --debug-dump / spechd doctor) ---------

/// Event tail as a table, newest last. Used for both the live wire dump
/// and an offline `.sphcrash` — the same events either way.
void print_flight_events(const std::vector<obs::flight_event>& events) {
  if (events.empty()) {
    std::cout << "no flight events recorded\n";
    return;
  }
  text_table table("flight events (" + text_table::num(events.size()) +
                   ", newest last)");
  table.set_header({"seq", "kind", "arg0", "arg1", "req id", "thread", "age (ms)"});
  const auto newest_ns = events.back().steady_ns;
  for (const auto& e : events) {
    table.add_row(
        {text_table::num(e.seq),
         obs::event_kind_name(static_cast<obs::event_kind>(e.kind)),
         text_table::num(e.arg0), text_table::num(e.arg1),
         e.request_id != 0 ? text_table::num(e.request_id) : std::string{"-"},
         text_table::num(static_cast<std::size_t>(e.thread_id)),
         text_table::num(static_cast<double>(newest_ns - e.steady_ns) / 1e6, 1)});
  }
  table.print(std::cout);
}

void print_shard_status_row(text_table& table, std::size_t shard,
                            std::uint32_t health, std::uint64_t generation,
                            std::uint64_t journal_bytes, std::uint64_t journal_records,
                            std::uint64_t queue_depth) {
  table.add_row({text_table::num(shard),
                 serve::shard_health_name(static_cast<serve::shard_health>(health)),
                 text_table::num(generation), text_table::num(journal_bytes),
                 text_table::num(journal_records), text_table::num(queue_depth)});
}

/// `spechd doctor FILE`: decode a `.sphcrash` dump offline — what was the
/// process doing right before it died, without the process.
int cmd_doctor(arg_list& args) {
  if (const int rc = reject_leftovers(args, "doctor", 1)) return rc;
  if (args.positionals().empty()) {
    std::cerr << "doctor: missing dump file\n";
    return 2;
  }
  const auto& path = args.positionals().front();
  obs::crash_dump dump;
  try {
    if (!obs::read_crash_dump_file(path, dump)) {
      std::cerr << "spechd doctor: '" << path
                << "' is not a parseable crash dump (bad magic/version or "
                   "truncated section)\n";
      return 1;
    }
  } catch (const spechd::error& e) {
    std::cerr << "spechd doctor: cannot read '" << path << "': " << e.what() << "\n";
    return 2;
  }

  const auto wall_s = static_cast<std::time_t>(dump.wall_ns / 1000000000ULL);
  char when[64] = "unknown";
  if (const auto* tm = std::gmtime(&wall_s)) {
    std::strftime(when, sizeof(when), "%Y-%m-%d %H:%M:%S UTC", tm);
  }
  std::cout << "crash dump " << path << " (format v" << dump.version << ")\n"
            << "  cause: "
            << (dump.signo != 0 ? std::string("signal ") + std::to_string(dump.signo) +
                                      " (" + strsignal(dump.signo) + ")"
                                : std::string("terminate/on-demand dump"))
            << "\n  pid " << dump.pid << ", written " << when << "\n";

  if (!dump.counters.empty() || !dump.gauges.empty()) {
    text_table table("metrics at crash");
    table.set_header({"metric", "value"});
    for (const auto& c : dump.counters) table.add_row({c.name, text_table::num(c.value)});
    for (const auto& g : dump.gauges) table.add_row({g.name, std::to_string(g.value)});
    table.print(std::cout);
  }
  if (!dump.histograms.empty()) {
    text_table table("histograms at crash");
    table.set_header({"histogram", "count", "sum"});
    for (const auto& h : dump.histograms) {
      table.add_row({h.name, text_table::num(h.count), text_table::num(h.sum)});
    }
    table.print(std::cout);
  }
  if (!dump.shards.empty()) {
    text_table table("shard status at crash");
    table.set_header({"shard", "health", "generation", "journal bytes",
                      "journal records", "queue depth"});
    for (std::size_t s = 0; s < dump.shards.size(); ++s) {
      const auto& sh = dump.shards[s];
      print_shard_status_row(table, s, sh.health, sh.generation, sh.journal_bytes,
                             sh.journal_records, sh.queue_depth);
    }
    table.print(std::cout);
  }
  print_flight_events(dump.events);
  return 0;
}

int cmd_serve(arg_list& args) {
  serve::serve_config config;
  config.pipeline.threads = 1;  // per-shard pools; shards are the parallelism
  std::size_t batch_size = 256;
  const auto shards_flag = args.take_option("--shards");
  if (shards_flag) config.shards = std::stoul(*shards_flag);
  if (const auto v = args.take_option("--queue")) config.queue_capacity = std::stoul(*v);
  if (const auto v = args.take_option("--batch")) batch_size = std::stoul(*v);
  if (const auto v = args.take_option("--threads")) config.pipeline.threads = std::stoul(*v);
  const auto threshold_flag = args.take_option("-t");
  if (threshold_flag) config.pipeline.distance_threshold = std::stod(*threshold_flag);
  if (const auto v = args.take_option("--journal-dir")) config.journal.dir = *v;
  if (args.take_flag("--atomic")) config.atomic_ingest = true;
  if (const int rc = arm_failpoint_flags(args, "serve")) return rc;
  const auto restore = args.take_option("--restore");
  const auto snapshot = args.take_option("--snapshot");
  const auto query_file = args.take_option("--query");
  const auto listen = args.take_option("--listen");
  const auto shed_depth = args.take_option("--shed-depth");
  const auto library = args.take_option("--library");
  std::size_t metrics_log_secs = 0;
  if (const auto v = args.take_option("--metrics-log")) metrics_log_secs = std::stoul(*v);
  // Slow-request ring knobs: capture threshold (default 10 ms) and the
  // every-Nth unconditional sample that keeps healthy-request breakdowns
  // in the ring next to the outliers.
  std::uint64_t slow_threshold_ns = obs::slow_ring::instance().threshold_ns();
  std::uint64_t slow_sample_every = 0;
  if (const auto v = args.take_option("--slow-threshold-us")) {
    slow_threshold_ns = std::stoull(*v) * 1000;
  }
  if (const auto v = args.take_option("--slow-sample")) {
    slow_sample_every = std::stoull(*v);
  }
  obs::slow_ring::instance().configure(slow_threshold_ns, slow_sample_every);
  // Crash-dump + watchdog knobs: --crash-dump pre-opens the dump file and
  // installs the fatal handlers; the watchdog flags (and optionally kills)
  // components silent past the deadline, producing a dump on the way out.
  const auto crash_dump_path = args.take_option("--crash-dump");
  std::uint64_t watchdog_deadline_ms = 0;
  std::uint64_t watchdog_kill_after_ms = 0;
  if (const auto v = args.take_option("--watchdog-deadline-ms")) {
    watchdog_deadline_ms = std::stoull(*v);
  }
  if (const auto v = args.take_option("--watchdog-kill-after-ms")) {
    watchdog_kill_after_ms = std::stoull(*v);
  }
  std::vector<std::string> ingest_files;
  while (const auto v = args.take_option("--ingest")) ingest_files.push_back(*v);
  if (const int rc = reject_leftovers(args, "serve", 0)) return rc;
  if (!restore && ingest_files.empty() && !query_file && !snapshot && !listen) {
    std::cerr << "serve: nothing to do (need --restore, --ingest, --query, "
                 "--snapshot, or --listen)\n";
    return 2;
  }
  if (batch_size == 0) {
    std::cerr << "serve: --batch must be >= 1\n";
    return 2;
  }
  if (metrics_log_secs > 0 && !listen) {
    std::cerr << "serve: --metrics-log requires --listen\n";
    return 2;
  }
  if (metrics_log_secs > 0 && get_log_level() > log_level::info) {
    // --metrics-log is an explicit request for the periodic info line;
    // don't let the warnings-only default threshold eat it.
    set_log_level(log_level::info);
  }
  if (watchdog_kill_after_ms > 0 && watchdog_deadline_ms == 0) {
    std::cerr << "serve: --watchdog-kill-after-ms requires --watchdog-deadline-ms\n";
    return 2;
  }

  // Install crash diagnostics *before* the service exists: a crash during
  // journal recovery should leave a dump too.
  if (crash_dump_path) {
    if (!obs::install_crash_handler(*crash_dump_path)) {
      std::cerr << "spechd serve: cannot open crash dump file '" << *crash_dump_path
                << "'\n";
      return 2;
    }
  }
  if (watchdog_deadline_ms > 0) {
    obs::watchdog::config wd;
    wd.deadline = std::chrono::milliseconds(watchdog_deadline_ms);
    wd.kill_after = std::chrono::milliseconds(watchdog_kill_after_ms);
    obs::watchdog::instance().start(wd);
  }

  if (restore) {
    // Configure from the snapshot's identity block so the restored service
    // is exactly the one that wrote it (restore_file re-validates). A
    // missing or corrupt snapshot is an operator-facing input error:
    // diagnose and exit 2 rather than surfacing a raw exception.
    try {
      apply_identity(config, serve::read_snapshot_identity_file(*restore));
    } catch (const spechd::error& e) {
      std::cerr << "spechd serve: cannot restore from '" << *restore
                << "': " << e.what() << "\n";
      return 2;
    }
  }

  if (!config.journal.dir.empty() && !restore) {
    // Resume semantics: a non-fresh journal directory pins the identity
    // the service must run with, so adopt it rather than demanding every
    // original flag be repeated — explicitly passed flags still win (and
    // recovery rejects them if they contradict the journal).
    try {
      if (const auto id = serve::probe_journal_dir(config.journal.dir)) {
        const double threshold = config.pipeline.distance_threshold;
        apply_identity(config, *id);
        if (!shards_flag) config.shards = id->shard_count;
        if (threshold_flag) config.pipeline.distance_threshold = threshold;
      }
    } catch (const spechd::error& e) {
      std::cerr << "spechd serve: cannot recover journal dir '" << config.journal.dir
                << "': " << e.what() << "\n";
      return 2;
    }
  }

  // Constructing a journaled service recovers the directory's state; bad
  // journal contents are input errors too.
  std::optional<serve::clustering_service> service_storage;
  try {
    service_storage.emplace(config);
  } catch (const spechd::error& e) {
    if (config.journal.dir.empty()) throw;
    std::cerr << "spechd serve: cannot recover journal dir '" << config.journal.dir
              << "': " << e.what() << "\n";
    return 2;
  }
  serve::clustering_service& service = *service_storage;
  if (service.recovery().recovered) {
    const auto& r = service.recovery();
    std::cout << "recovered " << service.stats().record_count << " records from "
              << config.journal.dir << " (" << r.batches_replayed
              << " journaled batches replayed";
    if (r.torn_bytes > 0) std::cout << ", " << r.torn_bytes << " torn bytes dropped";
    if (r.txn_batches_dropped > 0) {
      std::cout << ", " << r.txn_batches_dropped << " uncommitted txn batches dropped";
    }
    std::cout << ")\n";
  }
  if (restore) {
    try {
      service.restore_file(*restore);
    } catch (const spechd::error& e) {
      std::cerr << "spechd serve: cannot restore from '" << *restore
                << "': " << e.what() << "\n";
      return 2;
    }
    const auto stats = service.stats();
    std::cout << "restored " << stats.record_count << " records in "
              << stats.cluster_count << " clusters from " << *restore << "\n";
  }

  if (library) {
    // Load before --listen so the first networked query_topk already has
    // the library; a missing/corrupt/mismatched file is an input error.
    try {
      service.load_library(*library);
    } catch (const spechd::error& e) {
      std::cerr << "spechd serve: cannot load library '" << *library
                << "': " << e.what() << "\n";
      return 2;
    }
    std::cout << "loaded spectral library " << *library << "\n";
  }

  using clock = std::chrono::steady_clock;
  for (const auto& file : ingest_files) {
    auto spectra = read_any(file);
    const auto total = spectra.size();
    const auto start = clock::now();
    for (std::size_t offset = 0; offset < total; offset += batch_size) {
      const auto end = std::min(offset + batch_size, total);
      service.ingest({spectra.begin() + static_cast<std::ptrdiff_t>(offset),
                      spectra.begin() + static_cast<std::ptrdiff_t>(end)});
    }
    service.drain();
    const double seconds = std::chrono::duration<double>(clock::now() - start).count();
    std::cout << "ingested " << total << " spectra from " << file << " in " << seconds
              << " s (" << (seconds > 0 ? static_cast<double>(total) / seconds : 0.0)
              << " spectra/s)\n";
  }

  if (query_file) run_query_workload(service, *query_file);

  if (snapshot) {
    const auto start = clock::now();
    service.snapshot_file(*snapshot);
    const double seconds = std::chrono::duration<double>(clock::now() - start).count();
    std::cout << "snapshot written to " << *snapshot << " ("
              << std::filesystem::file_size(*snapshot) / 1024 << " KiB, " << seconds
              << " s)\n";
  }

  if (listen) {
    // Network front end: serve the framed binary protocol until SIGTERM/
    // SIGINT, then drain the service (journal catches up) before the
    // closing state report — a clean shutdown loses nothing enqueued.
    net::server_config net_config;
    try {
      std::tie(net_config.host, net_config.port) = net::split_host_port(*listen);
      if (shed_depth) net_config.shed_queue_depth = std::stoul(*shed_depth);
      net::server server(service, net_config);
      g_server.store(&server, std::memory_order_release);
      std::signal(SIGTERM, handle_shutdown_signal);
      std::signal(SIGINT, handle_shutdown_signal);
      std::cout << "serving on " << net_config.host << ":" << server.port()
                << " (" << config.shards << " shards)" << std::endl;

      // --metrics-log: one summary line per interval through util/log so
      // operators can tail progress without a client attached. The thread
      // wakes in short slices so shutdown never waits a full interval.
      std::atomic<bool> metrics_log_stop{false};
      std::thread metrics_log_thread;
      if (metrics_log_secs > 0) {
        metrics_log_thread = std::thread([&service, &metrics_log_stop, metrics_log_secs] {
          std::uint64_t last_requests = 0;
          while (!metrics_log_stop.load(std::memory_order_relaxed)) {
            for (std::size_t slept = 0;
                 slept < metrics_log_secs * 10 &&
                 !metrics_log_stop.load(std::memory_order_relaxed);
                 ++slept) {
              std::this_thread::sleep_for(std::chrono::milliseconds(100));
            }
            if (metrics_log_stop.load(std::memory_order_relaxed)) break;
            const auto snap = obs::registry::instance().snapshot();
            const std::uint64_t requests =
                counter_or_zero(snap, "spechd_net_requests_total");
            log_record line = log_info();
            line << "metrics: requests=" << requests << " (+"
                 << (requests - last_requests) << ") shed="
                 << counter_or_zero(snap, "spechd_net_shed_total") << " ingested="
                 << counter_or_zero(snap, "spechd_ingest_records_total")
                 << " queries="
                 << counter_or_zero(snap, "spechd_query_requests_total")
                 << " searches="
                 << counter_or_zero(snap, "spechd_search_requests_total")
                 << " fsyncs="
                 << counter_or_zero(snap, "spechd_journal_fsyncs_total")
                 << " queue_depth=" << service.queue_depth();
            if (const auto* h = snap.find_histogram("spechd_net_ingest_request_ns")) {
              line << " ingest_p99_us=" << h->percentile(0.99) / 1000.0;
            }
            if (const auto* h = snap.find_histogram("spechd_net_query_request_ns")) {
              line << " query_p99_us=" << h->percentile(0.99) / 1000.0;
            }
            last_requests = requests;
          }
        });
      }

      server.wait();
      g_server.store(nullptr, std::memory_order_release);
      metrics_log_stop.store(true, std::memory_order_relaxed);
      if (metrics_log_thread.joinable()) metrics_log_thread.join();
      const auto counters = server.counters();
      std::cout << "server stopped: " << counters.accepted << " connections, "
                << counters.requests << " requests, " << counters.shed
                << " shed, " << counters.protocol_errors << " protocol errors\n";
      // Final observability summary — the last line an operator sees on
      // SIGTERM answers "what did this process do with its life".
      const auto snap = obs::registry::instance().snapshot();
      std::uint64_t heal_attempts = 0;
      if (const auto maint = service.maintenance_stats()) {
        heal_attempts = maint->heal_attempts;
      }
      std::cout << "final metrics: " << counters.requests << " requests served, "
                << counter_or_zero(snap, "spechd_ingest_records_total")
                << " records ingested, "
                << counter_or_zero(snap, "spechd_query_requests_total") << " queries, "
                << counter_or_zero(snap, "spechd_search_requests_total")
                << " searches, " << counters.shed << " shed, " << heal_attempts
                << " heal attempts, "
                << counter_or_zero(snap, "spechd_journal_fsyncs_total")
                << " journal fsyncs\n";
    } catch (const spechd::error& e) {
      g_server.store(nullptr, std::memory_order_release);
      std::cerr << "spechd serve: " << e.what() << "\n";
      return 2;
    }
    service.drain();
  }

  // Stop the watchdog before the service's writer threads retire their
  // heartbeat slots during destruction — a clean shutdown must not be
  // mistaken for a stall (or killed mid-teardown by --watchdog-kill-after).
  if (watchdog_deadline_ms > 0) obs::watchdog::instance().stop();

  print_service_state(service);
  return 0;
}

/// Minimal remote workload driver over the binary protocol — the
/// operational counterpart of `serve --listen` (and what the CI loopback
/// smoke job exercises end-to-end).
int cmd_client(arg_list& args) {
  const auto connect = args.take_option("--connect");
  std::size_t batch_size = 256;
  net::client_config client_config;
  if (const auto v = args.take_option("--batch")) batch_size = std::stoul(*v);
  if (const auto v = args.take_option("--timeout")) {
    client_config.timeout = std::chrono::milliseconds(std::stoul(*v));
  }
  const auto query_file = args.take_option("--query");
  const auto search_file = args.take_option("--search");
  std::size_t top_k = 5;
  if (const auto v = args.take_option("--topk")) top_k = std::stoul(*v);
  double tolerance = 0.0;
  if (const auto v = args.take_option("--tolerance")) tolerance = std::stod(*v);
  const bool want_ping = args.take_flag("--ping");
  const bool want_stats = args.take_flag("--stats");
  const bool want_drain = args.take_flag("--drain");
  const bool want_metrics = args.take_flag("--metrics");
  const bool want_debug_dump = args.take_flag("--debug-dump");
  std::size_t watch_secs = 0;
  if (const auto v = args.take_option("--watch")) watch_secs = std::stoul(*v);
  std::string metrics_format = "table";
  if (const auto v = args.take_option("--format")) metrics_format = *v;
  std::vector<std::string> ingest_files;
  while (const auto v = args.take_option("--ingest")) ingest_files.push_back(*v);
  if (const int rc = reject_leftovers(args, "client", 0)) return rc;
  if (!connect) {
    std::cerr << "client: missing --connect HOST:PORT\n";
    return 2;
  }
  if (batch_size == 0) {
    std::cerr << "client: --batch must be >= 1\n";
    return 2;
  }
  if (search_file && top_k == 0) {
    std::cerr << "client: --topk must be >= 1\n";
    return 2;
  }
  if (metrics_format != "table" && metrics_format != "prom") {
    std::cerr << "client: --format must be 'table' or 'prom'\n";
    return 2;
  }
  if (watch_secs > 0 && !want_metrics) {
    std::cerr << "client: --watch requires --metrics\n";
    return 2;
  }

  const auto [host, port] = net::split_host_port(*connect);
  net::client client(host, port, client_config);
  if (want_ping) {
    client.ping();
    std::cout << "pong from " << *connect << "\n";
  }

  using clock = std::chrono::steady_clock;
  for (const auto& file : ingest_files) {
    auto spectra = read_any(file);
    const auto total = spectra.size();
    std::size_t accepted = 0;
    std::size_t shed = 0;
    const auto start = clock::now();
    for (std::size_t offset = 0; offset < total; offset += batch_size) {
      const auto end = std::min(offset + batch_size, total);
      const std::vector<ms::spectrum> batch(
          spectra.begin() + static_cast<std::ptrdiff_t>(offset),
          spectra.begin() + static_cast<std::ptrdiff_t>(end));
      // Shed batches are retried after a short backoff — admission control
      // asks the producer to slow down, not to drop data.
      for (;;) {
        const auto r = client.ingest(batch);
        if (r.accepted) {
          accepted += r.count;
          break;
        }
        ++shed;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    const double seconds = std::chrono::duration<double>(clock::now() - start).count();
    std::cout << "ingested " << accepted << " spectra from " << file << " in "
              << seconds << " s";
    if (shed > 0) std::cout << " (" << shed << " shed responses, retried)";
    std::cout << "\n";
  }

  if (query_file) {
    const auto queries = read_any(*query_file);
    std::size_t matched = 0;
    std::size_t unencodable = 0;
    std::vector<double> latencies_us;
    latencies_us.reserve(queries.size());
    for (const auto& q : queries) {
      const auto start = clock::now();
      const auto r = client.query(q);
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(clock::now() - start).count());
      if (!r.encodable) {
        ++unencodable;
      } else if (r.matched) {
        ++matched;
      }
    }
    std::sort(latencies_us.begin(), latencies_us.end());
    text_table table("remote query workload: " + *query_file);
    table.set_header({"metric", "value"});
    table.add_row({"queries", text_table::num(queries.size())});
    table.add_row({"matched", text_table::num(matched)});
    table.add_row({"unmatched",
                   text_table::num(queries.size() - matched - unencodable)});
    table.add_row({"unencodable", text_table::num(unencodable)});
    table.add_row({"latency p50 (us)",
                   text_table::num(percentile_sorted(latencies_us, 0.50), 1)});
    table.add_row({"latency p99 (us)",
                   text_table::num(percentile_sorted(latencies_us, 0.99), 1)});
    table.print(std::cout);
  }

  if (search_file) {
    // Same output lines as `spechd search` in-process — the CI smoke job
    // diffs the two byte for byte.
    const auto queries = read_any(*search_file);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      print_search_hits(i, client.search(queries[i],
                                         static_cast<std::uint32_t>(top_k), tolerance));
    }
  }

  if (want_drain) {
    client.drain();
    std::cout << "drained\n";
  }

  if (want_stats) {
    const auto s = client.stats();
    text_table table("remote service stats: " + *connect);
    table.set_header({"counter", "value"});
    table.add_row({"records", text_table::num(s.record_count)});
    table.add_row({"clusters", text_table::num(s.cluster_count)});
    table.add_row({"ingested", text_table::num(s.ingested)});
    table.add_row({"batches", text_table::num(s.batches)});
    table.add_row({"queue depth", text_table::num(s.queue_depth)});
    table.add_row({"degraded shards", text_table::num(s.degraded_shards)});
    table.add_row({"failed shards", text_table::num(s.failed_shards)});
    table.add_row({"server requests", text_table::num(s.requests)});
    table.add_row({"server shed", text_table::num(s.shed)});
    table.print(std::cout);
  }

  if (want_debug_dump) {
    const auto dump = client.debug_dump();
    std::cout << "debug dump from " << *connect << ": "
              << dump.total_events_recorded << " events recorded, "
              << dump.events.size() << " in the rings\n";
    if (!dump.shards.empty()) {
      text_table table("shard status");
      table.set_header({"shard", "health", "generation", "journal bytes",
                        "journal records", "queue depth"});
      for (const auto& sh : dump.shards) {
        print_shard_status_row(table, sh.shard, sh.health, sh.generation,
                               sh.journal_bytes, sh.journal_records, sh.queue_depth);
      }
      table.print(std::cout);
    }
    if (!dump.stalled.empty()) {
      std::cout << "WARNING: " << dump.stalled.size() << " stalled component(s):";
      for (const auto& name : dump.stalled) std::cout << " " << name;
      std::cout << "\n";
    }
    print_flight_events(dump.events);
  }

  if (want_metrics && watch_secs == 0) {
    const auto m = client.metrics();
    if (metrics_format == "prom") {
      std::cout << obs::render_prom(m.snapshot);
    } else {
      print_metrics_tables(m, *connect);
    }
  }

  if (want_metrics && watch_secs > 0) {
    // Interval mode: scrape every --watch seconds and report deltas/rates
    // (and interval percentiles from bucket diffs) until interrupted or
    // the server goes away.
    net::wire_metrics prev = client.metrics();
    auto prev_at = clock::now();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::seconds(watch_secs));
      const auto cur = client.metrics();
      const auto now = clock::now();
      const double seconds = std::chrono::duration<double>(now - prev_at).count();
      if (metrics_format == "prom") {
        std::cout << obs::render_prom(cur.snapshot);
      } else {
        print_metrics_interval(cur, prev, seconds);
      }
      std::cout.flush();
      prev = cur;
      prev_at = now;
    }
  }
  return 0;
}

int cmd_recover(arg_list& args) {
  const auto dir = args.take_option("--journal-dir");
  const auto snapshot = args.take_option("--snapshot");
  const auto query_file = args.take_option("--query");
  if (const int rc = arm_failpoint_flags(args, "recover")) return rc;
  if (const int rc = reject_leftovers(args, "recover", 0)) return rc;
  if (!dir) {
    std::cerr << "recover: missing --journal-dir\n";
    return 2;
  }

  serve::serve_config config;
  config.pipeline.threads = 1;
  config.journal.dir = *dir;
  std::optional<serve::clustering_service> service_storage;
  try {
    // Configure from the directory's own identity block (like
    // `serve --restore`), then let the service constructor replay
    // snapshot + journals; the shard count must match the journals'.
    const auto id = serve::probe_journal_dir(*dir);
    if (!id) {
      std::cerr << "spechd recover: no journal state found in '" << *dir << "'\n";
      return 2;
    }
    apply_identity(config, *id);
    config.shards = id->shard_count;
    // One line per journal generation replayed, so a large recovery shows
    // live progress instead of a silent pause.
    config.recovery_progress = [](const serve::recovery_progress& p) {
      std::cout << "  replaying shard " << p.shard << " generation " << p.generation
                << ": " << p.records_replayed << " records ("
                << p.total_records_replayed << " total, "
                << text_table::num(p.records_per_sec, 0) << " records/s)";
      if (p.torn_tail) {
        std::cout << " [torn tail: " << p.torn_bytes << " bytes dropped]";
      }
      std::cout << "\n";
    };
    service_storage.emplace(config);
  } catch (const spechd::error& e) {
    std::cerr << "spechd recover: cannot recover from '" << *dir << "': " << e.what()
              << "\n";
    return 2;
  }
  serve::clustering_service& service = *service_storage;

  const auto& report = service.recovery();
  const auto stats = service.stats();
  std::cout << "recovered " << stats.record_count << " records in "
            << stats.cluster_count << " clusters from " << *dir << " in "
            << report.seconds << " s\n"
            << "  base snapshot: "
            << (report.base_snapshot_generation
                    ? "generation " + std::to_string(*report.base_snapshot_generation)
                    : std::string("none (replayed from empty)"))
            << "\n  journal files: " << report.journal_files << ", batches replayed: "
            << report.batches_replayed << " (" << report.spectra_replayed
            << " spectra), reclusters replayed: " << report.reclusters_replayed << "\n";
  if (report.torn_bytes > 0) {
    std::cout << "  torn tail: " << report.torn_bytes
              << " bytes past the last complete record dropped\n";
  }
  if (report.txn_batches_dropped > 0) {
    std::cout << "  atomic ingest: " << report.txn_batches_dropped
              << " batch(es) from uncommitted transactions dropped\n";
  }

  if (query_file) run_query_workload(service, *query_file);
  if (snapshot) {
    service.snapshot_file(*snapshot);
    std::cout << "snapshot written to " << *snapshot << " ("
              << std::filesystem::file_size(*snapshot) / 1024 << " KiB)\n";
  }
  print_service_state(service);
  return 0;
}

int cmd_search(arg_list& args) {
  core::spechd_config pipeline_config;
  if (!take_dim(args, "search", pipeline_config.encoder.dim)) return 2;
  const auto build = args.take_option("--build");
  const auto fasta = args.take_option("--fasta");
  const auto ref_spectra = args.take_option("--spectra");
  const auto library = args.take_option("--library");
  const auto query_file = args.take_option("--query");
  std::size_t top_k = 5;
  if (const auto v = args.take_option("--topk")) top_k = std::stoul(*v);
  double tolerance = 0.0;
  if (const auto v = args.take_option("--tolerance")) tolerance = std::stod(*v);
  int missed = 0;
  if (const auto v = args.take_option("--missed")) missed = std::stoi(*v);
  std::vector<int> charges{2, 3};
  if (const auto v = args.take_option("--charges")) {
    charges.clear();
    std::stringstream list(*v);
    std::string token;
    while (std::getline(list, token, ',')) {
      if (!token.empty()) charges.push_back(std::stoi(token));
    }
    if (charges.empty()) {
      std::cerr << "search: --charges needs a comma-separated charge list\n";
      return 2;
    }
  }
  if (const int rc = reject_leftovers(args, "search", 0)) return rc;
  if (top_k == 0) {
    std::cerr << "search: --topk must be >= 1\n";
    return 2;
  }

  if (build) {
    if (static_cast<bool>(fasta) == static_cast<bool>(ref_spectra)) {
      std::cerr << "search: --build needs exactly one of --fasta or --spectra\n";
      return 2;
    }
    serve::spectral_library lib;
    if (fasta) {
      const auto peptides =
          ms::library_from_fasta(ms::read_fasta_file(*fasta), missed);
      lib = serve::spectral_library::from_peptides(peptides, charges, pipeline_config);
    } else {
      lib = serve::spectral_library::from_spectra(read_any(*ref_spectra),
                                                  pipeline_config);
    }
    lib.save(*build);
    std::cout << "built spectral library " << *build << ": " << lib.size()
              << " entries in " << lib.bucket_count() << " buckets ("
              << lib.dropped() << " dropped by preprocessing)\n";
    if (!query_file) return 0;
  }

  if (!query_file) {
    std::cerr << "search: nothing to do (need --build, or --library with --query)\n";
    return 2;
  }
  const std::string lib_path = library ? *library : (build ? *build : std::string{});
  if (lib_path.empty()) {
    std::cerr << "search: missing --library\n";
    return 2;
  }

  // Search through a clustering_service — the exact code path `serve
  // --library --listen` answers query_topk with — so in-process results
  // are the golden reference for the networked ones. A missing or corrupt
  // library file is an operator input error: diagnose and exit 2.
  serve::serve_config config;
  config.pipeline = pipeline_config;
  config.pipeline.threads = 1;
  config.shards = 1;
  std::optional<serve::clustering_service> service_storage;
  try {
    const auto identity = serve::spectral_library::load(lib_path).identity();
    config.pipeline.encoder.dim = identity.dim;
    config.pipeline.encoder.seed = identity.encoder_seed;
    config.pipeline.preprocess.bucketing.resolution = identity.bucket_resolution;
    config.pipeline.preprocess.bucketing.fallback_charge = identity.fallback_charge;
    service_storage.emplace(config);
    service_storage->load_library(lib_path);
  } catch (const spechd::error& e) {
    std::cerr << "spechd search: cannot load library '" << lib_path << "': " << e.what()
              << "\n";
    return 2;
  }
  const auto queries = read_any(*query_file);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    print_search_hits(i, service_storage->search(queries[i], top_k, tolerance));
  }
  return 0;
}

int cmd_model(arg_list& args) {
  const bool overlap = args.take_flag("--overlap");
  if (const int rc = reject_leftovers(args, "model", 0)) return rc;
  text_table table(overlap ? "SpecHD pipelined (DES) model" : "SpecHD phase model");
  if (overlap) {
    table.set_header({"dataset", "pipelined (s)", "end-to-end (s)", "encoder util"});
    for (const auto& ds : ms::paper_datasets()) {
      const auto r = fpga::simulate_dataflow(ds, {});
      table.add_row({std::string(ds.pride_id), text_table::num(r.pipeline_s, 1),
                     text_table::num(r.makespan_s, 1),
                     text_table::num(r.encoder_utilisation * 100.0, 1) + "%"});
    }
  } else {
    table.set_header({"dataset", "PP (s)", "encode (s)", "cluster (s)", "total (s)",
                      "energy (kJ)"});
    for (const auto& ds : ms::paper_datasets()) {
      const auto run = fpga::model_spechd_run(ds, {});
      table.add_row({std::string(ds.pride_id), text_table::num(run.time.preprocess, 1),
                     text_table::num(run.time.encode, 1),
                     text_table::num(run.time.cluster, 1),
                     text_table::num(run.time.end_to_end(), 1),
                     text_table::num(run.energy.end_to_end() / 1e3, 2)});
    }
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A peer disconnecting mid-write must be an EPIPE errno, not a fatal
  // signal — both server and client send with MSG_NOSIGNAL, but third-
  // party code (or a future write path) must not be able to kill the
  // process either.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return usage_error();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(std::cout);
    return 0;
  }
  arg_list args(argc, argv, 2);
  try {
    if (command == "synth") return cmd_synth(args);
    if (command == "info") return cmd_info(args);
    if (command == "encode") return cmd_encode(args);
    if (command == "cluster") return cmd_cluster(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "client") return cmd_client(args);
    if (command == "recover") return cmd_recover(args);
    if (command == "search") return cmd_search(args);
    if (command == "doctor") return cmd_doctor(args);
    if (command == "model") return cmd_model(args);
    std::cerr << "unknown command: " << command << "\n";
    return usage_error();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
