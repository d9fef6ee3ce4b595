// Kernel-layer microbench: quantifies what the dispatching SIMD + bit-sliced
// kernels (src/hdc/cpu_kernels) buy over the seed's scalar hot loops, and
// writes BENCH_kernels.json so future PRs can track the perf trajectory.
//
// Sections:
//   * pairwise Hamming — seed-style serial double loop (per-pair at() and
//     scalar word popcount) vs the tiled kernel, per variant, single- and
//     multi-threaded. The acceptance bar is >= 4x pairs/sec at n=2000,
//     dim=2048 on a multi-core host (>= 1.5x single-threaded from
//     SIMD/bit-slicing alone).
//   * encoding — seed-style per-set-bit counter scatter vs encode under
//     each supported variant (the scalar plane-major reference and the
//     register-resident SIMD kernels), plus batch-parallel throughput.
//   * end-to-end — the real pipeline on synthetic spectra with per-phase
//     seconds and spectra/sec.
//   * arena — the shared scratch pool's counters (checkouts, reuse hits,
//     trims, high-water bytes) after the HAC/streaming/pipeline sections
//     exercised it, so memory behaviour is tracked alongside throughput.
//
// Knobs: --threads=N --variant=auto|scalar|avx2|avx512 --n=N --dim=D
//        --json=PATH (default BENCH_kernels.json)
#include <bit>
#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "cluster/nn_chain.hpp"
#include "core/incremental.hpp"
#include "core/spechd.hpp"
#include "hdc/cpu_kernels.hpp"
#include "hdc/distance.hpp"
#include "hdc/encoder.hpp"
#include "ms/synthetic.hpp"
#include "util/arena_pool.hpp"
#include "util/bench_json.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

namespace k = spechd::hdc::kernels;
using spechd::hdc::hypervector;

std::vector<hypervector> random_hvs(std::size_t n, std::size_t dim, std::uint64_t seed) {
  spechd::xoshiro256ss rng(seed);
  std::vector<hypervector> hvs;
  hvs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) hvs.push_back(hypervector::random(dim, rng));
  return hvs;
}

/// The seed's pairwise loop, verbatim: per-pair bounds-checked at() plus
/// word-at-a-time scalar popcount. This is the baseline every kernel-layer
/// measurement is normalised against.
spechd::hdc::distance_matrix_f32 seed_pairwise_f32(const std::vector<hypervector>& hvs) {
  spechd::hdc::distance_matrix_f32 m(hvs.size());
  for (std::size_t i = 1; i < hvs.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const auto wa = hvs[i].words();
      const auto wb = hvs[j].words();
      std::size_t count = 0;
      for (std::size_t w = 0; w < wa.size(); ++w) {
        count += static_cast<std::size_t>(std::popcount(wa[w] ^ wb[w]));
      }
      m.at(i, j) = static_cast<float>(static_cast<double>(count) /
                                      static_cast<double>(hvs[i].dim()));
    }
  }
  return m;
}

/// The seed's encoder inner loop: scatter every set bound bit into a
/// per-dimension uint16 counter, then threshold.
hypervector seed_encode(const spechd::hdc::id_level_encoder& encoder,
                        const spechd::preprocess::quantized_spectrum& s,
                        const hypervector& tiebreak) {
  const std::size_t dim = encoder.dim();
  std::vector<std::uint16_t> counts(dim, 0);
  for (const auto& peak : s.peaks) {
    const auto wi = encoder.ids().at(peak.mz_bin);
    const auto wl = encoder.levels().at(peak.level);
    for (std::size_t w = 0; w < wi.size(); ++w) {
      std::uint64_t bound = wi[w] ^ wl[w];
      while (bound != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bound));
        ++counts[w * 64 + bit];
        bound &= bound - 1;
      }
    }
  }
  hypervector out(dim);
  const std::size_t n = s.peaks.size();
  const std::size_t half = n / 2;
  const bool even = (n % 2) == 0;
  for (std::size_t d = 0; d < dim; ++d) {
    const std::size_t c = counts[d];
    out.assign(d, (even && c == half) ? tiebreak.test(d) : c > half);
  }
  return out;
}

struct measurement {
  double seconds = 0.0;
  double per_sec = 0.0;
};

template <typename F>
measurement time_run(std::size_t items, F&& run) {
  spechd::stopwatch watch;
  run();
  measurement m;
  m.seconds = watch.seconds();
  m.per_sec = m.seconds > 0.0 ? static_cast<double>(items) / m.seconds : 0.0;
  return m;
}

void emit(spechd::json_writer& json, const std::string& key, const measurement& m,
          const char* rate_name) {
  json.begin_object(key);
  json.field("seconds", m.seconds);
  json.field(rate_name, m.per_sec);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using spechd::text_table;
  const auto opts = spechd::bench::parse_options(argc, argv);
  const std::size_t n = opts.n != 0 ? opts.n : 2000;
  const std::size_t dim = opts.dim != 0 ? opts.dim : 2048;
  const std::size_t threads = opts.resolved_threads();
  const std::string json_path = opts.json.empty() ? "BENCH_kernels.json" : opts.json;

  spechd::json_writer json;
  json.begin_object();
  json.begin_object("host");
  json.field("hardware_threads",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.field("best_variant", k::variant_name(k::best_supported()));
  json.end_object();
  json.begin_object("config");
  json.field("n", n);
  json.field("dim", dim);
  json.field("threads", threads);
  json.end_object();

  // --- pairwise Hamming ------------------------------------------------------
  const auto hvs = random_hvs(n, dim, 42);
  const std::size_t pairs = n * (n - 1) / 2;
  std::map<std::string, measurement> pw;

  k::set_active(k::variant::scalar);
  pw["seed_scalar"] = time_run(pairs, [&] {
    auto m = seed_pairwise_f32(hvs);
    (void)m;
  });
  pw["tiled_scalar"] = time_run(pairs, [&] {
    auto m = spechd::hdc::pairwise_hamming_f32(hvs);
    (void)m;
  });
  for (const k::variant v : {k::variant::avx2, k::variant::avx512}) {
    if (!k::supported(v)) continue;
    k::set_active(v);
    pw[std::string("tiled_") + k::variant_name(v)] = time_run(pairs, [&] {
      auto m = spechd::hdc::pairwise_hamming_f32(hvs);
      (void)m;
    });
  }
  k::set_active(opts.variant);
  {
    spechd::thread_pool pool(threads);
    pw["tiled_active_threaded"] = time_run(pairs, [&] {
      auto m = spechd::hdc::pairwise_hamming_f32(hvs, &pool);
      (void)m;
    });
  }

  const double base_rate = pw["seed_scalar"].per_sec;
  text_table pw_table("pairwise Hamming, n=" + std::to_string(n) +
                      ", dim=" + std::to_string(dim));
  pw_table.set_header({"path", "seconds", "pairs/sec", "speedup vs seed"});
  json.begin_object("pairwise_hamming");
  json.field("pairs", pairs);
  double best_single = 0.0;
  for (const auto& [name, m] : pw) {
    pw_table.add_row({name, text_table::num(m.seconds, 3), text_table::num(m.per_sec, 0),
                      text_table::num(m.per_sec / base_rate, 2)});
    emit(json, name, m, "pairs_per_sec");
    if (name != "seed_scalar" && name != "tiled_active_threaded") {
      best_single = std::max(best_single, m.per_sec);
    }
  }
  json.field("speedup_single_thread", best_single / base_rate);
  json.field("speedup_total", pw["tiled_active_threaded"].per_sec / base_rate);
  json.end_object();
  pw_table.print(std::cout);
  std::cout << '\n';

  // --- encoding --------------------------------------------------------------
  const spechd::hdc::encoder_config enc_config{.dim = dim, .seed = 0xC0FFEE};
  const spechd::preprocess::quantize_config qc;
  const spechd::hdc::id_level_encoder encoder(enc_config, qc.mz_bins, qc.intensity_levels);
  const auto& tiebreak = encoder.tiebreak();

  spechd::xoshiro256ss peak_rng(7);
  std::vector<spechd::preprocess::quantized_spectrum> spectra(n);
  for (auto& s : spectra) {
    for (std::size_t p = 0; p < 50; ++p) {
      s.peaks.push_back({static_cast<std::uint32_t>(peak_rng.bounded(qc.mz_bins)),
                         static_cast<std::uint16_t>(peak_rng.bounded(qc.intensity_levels))});
    }
  }

  std::map<std::string, measurement> enc;
  k::set_active(k::variant::scalar);
  enc["seed_scatter"] = time_run(n, [&] {
    for (const auto& s : spectra) {
      auto hv = seed_encode(encoder, s, tiebreak);
      (void)hv;
    }
  });
  for (const k::variant v : {k::variant::scalar, k::variant::avx2, k::variant::avx512}) {
    if (!k::supported(v)) continue;
    k::set_active(v);
    enc[std::string("encode_") + k::variant_name(v)] = time_run(n, [&] {
      for (const auto& s : spectra) {
        auto hv = encoder.encode(s);
        (void)hv;
      }
    });
  }
  k::set_active(opts.variant);
  {
    spechd::thread_pool pool(threads);
    enc["encode_active_threaded"] = time_run(n, [&] {
      auto hvs_out = encoder.encode_batch(spectra, &pool);
      (void)hvs_out;
    });
  }

  const double enc_base = enc["seed_scatter"].per_sec;
  text_table enc_table("ID-Level encoding, n=" + std::to_string(n) + " spectra x 50 peaks");
  enc_table.set_header({"path", "seconds", "spectra/sec", "speedup vs seed"});
  json.begin_object("encode");
  json.field("spectra", n);
  for (const auto& [name, m] : enc) {
    enc_table.add_row({name, text_table::num(m.seconds, 3), text_table::num(m.per_sec, 0),
                       text_table::num(m.per_sec / enc_base, 2)});
    emit(json, name, m, "spectra_per_sec");
  }
  json.field("speedup_single_thread",
             enc[std::string("encode_") + k::variant_name(opts.variant)].per_sec / enc_base);
  json.field("speedup_total", enc["encode_active_threaded"].per_sec / enc_base);
  json.end_object();
  enc_table.print(std::cout);
  std::cout << '\n';

  // --- NN-chain HAC (merges/sec) ---------------------------------------------
  // The kernel-backed flat-matrix NN-chain vs the pre-kernel condensed
  // implementation, single-threaded, best of three runs. The condensed
  // number doubles as the PR-1 baseline for cross-PR tracking.
  {
    const std::size_t n_hac = 2048;
    spechd::xoshiro256ss hac_rng(42);
    spechd::hdc::distance_matrix_f32 mf(n_hac);
    spechd::hdc::distance_matrix_q16 mq(n_hac);
    for (std::size_t i = 1; i < n_hac; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        const double v = hac_rng.uniform(0.01, 1.0);
        mf.at(i, j) = static_cast<float>(v);
        mq.at(i, j) = spechd::q16::from_double(v);
      }
    }
    auto best_of = [&](auto&& run) {
      double best = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {
        spechd::stopwatch watch;
        auto r = run();
        (void)r;
        best = std::min(best, watch.seconds());
      }
      measurement m;
      m.seconds = best;
      m.per_sec = static_cast<double>(n_hac - 1) / best;
      return m;
    };
    const auto link = spechd::cluster::linkage::complete;
    const auto condensed =
        best_of([&] { return spechd::cluster::nn_chain_hac_condensed(mf, link); });
    const auto flat_f32 = best_of([&] { return spechd::cluster::nn_chain_hac(mf, link); });
    const auto flat_q16 = best_of([&] { return spechd::cluster::nn_chain_hac(mq, link); });

    text_table hac_table("NN-chain HAC, n=" + std::to_string(n_hac) +
                         " (complete linkage, single-threaded)");
    hac_table.set_header({"path", "seconds", "merges/sec", "speedup"});
    hac_table.add_row({"condensed (pre-kernel)", text_table::num(condensed.seconds, 3),
                       text_table::num(condensed.per_sec, 0), "1.00"});
    hac_table.add_row({"flat kernel f32", text_table::num(flat_f32.seconds, 3),
                       text_table::num(flat_f32.per_sec, 0),
                       text_table::num(flat_f32.per_sec / condensed.per_sec, 2)});
    hac_table.add_row({"flat kernel q16", text_table::num(flat_q16.seconds, 3),
                       text_table::num(flat_q16.per_sec, 0),
                       text_table::num(flat_q16.per_sec / condensed.per_sec, 2)});
    hac_table.print(std::cout);
    std::cout << '\n';

    json.begin_object("hac_nn_chain");
    json.field("n", n_hac);
    json.field("linkage", std::string("complete"));
    emit(json, "condensed_f32", condensed, "merges_per_sec");
    emit(json, "flat_f32", flat_f32, "merges_per_sec");
    emit(json, "flat_q16", flat_q16, "merges_per_sec");
    json.field("speedup_f32", flat_f32.per_sec / condensed.per_sec);
    json.field("speedup_q16", flat_q16.per_sec / condensed.per_sec);
    json.end_object();
  }

  // --- streaming ingestion (spectra/sec) -------------------------------------
  // Sequential one-spectrum-at-a-time ingestion vs push_batch over the same
  // spectra (encode + route + assign through the shared pool and the
  // dispatched Hamming row kernels).
  {
    const auto stream_data =
        spechd::ms::generate_dataset(spechd::bench::synthetic_workload(200));
    const auto stream_config = spechd::bench::pipeline_config(opts);
    measurement sequential;
    {
      spechd::core::incremental_clusterer inc(stream_config);
      sequential = time_run(stream_data.spectra.size(),
                            [&] { inc.add_spectra(stream_data.spectra); });
    }
    measurement batched;
    {
      spechd::core::incremental_clusterer inc(stream_config);
      batched = time_run(stream_data.spectra.size(),
                         [&] { inc.push_batch(stream_data.spectra); });
    }

    text_table stream_table("streaming ingestion, " +
                            std::to_string(stream_data.spectra.size()) +
                            " synthetic spectra");
    stream_table.set_header({"path", "seconds", "spectra/sec", "speedup"});
    stream_table.add_row({"sequential add_spectra", text_table::num(sequential.seconds, 3),
                          text_table::num(sequential.per_sec, 0), "1.00"});
    stream_table.add_row({"push_batch", text_table::num(batched.seconds, 3),
                          text_table::num(batched.per_sec, 0),
                          text_table::num(batched.per_sec / sequential.per_sec, 2)});
    stream_table.print(std::cout);
    std::cout << '\n';

    json.begin_object("streaming");
    json.field("spectra", stream_data.spectra.size());
    json.field("threads", threads);
    emit(json, "sequential", sequential, "spectra_per_sec");
    emit(json, "push_batch", batched, "spectra_per_sec");
    json.field("speedup", batched.per_sec / sequential.per_sec);
    json.end_object();
  }

  // --- end-to-end pipeline ---------------------------------------------------
  const auto data =
      spechd::ms::generate_dataset(spechd::bench::synthetic_workload(200));
  spechd::core::spechd_pipeline pipeline(spechd::bench::pipeline_config(opts));
  spechd::stopwatch e2e_watch;
  const auto result = pipeline.run(data.spectra);
  const double e2e_seconds = e2e_watch.seconds();
  const double spectra_per_sec = static_cast<double>(data.spectra.size()) / e2e_seconds;

  text_table e2e_table("end-to-end pipeline, " + std::to_string(data.spectra.size()) +
                       " synthetic spectra");
  e2e_table.set_header({"phase", "seconds"});
  e2e_table.add_row({"preprocess", text_table::num(result.phases.preprocess, 3)});
  e2e_table.add_row({"encode", text_table::num(result.phases.encode, 3)});
  e2e_table.add_row({"cluster", text_table::num(result.phases.cluster, 3)});
  e2e_table.add_row({"consensus", text_table::num(result.phases.consensus, 3)});
  e2e_table.add_row({"total (spectra/sec)", text_table::num(spectra_per_sec, 0)});
  e2e_table.print(std::cout);

  json.begin_object("end_to_end");
  json.field("spectra", data.spectra.size());
  spechd::bench::emit_pipeline_phases(json, result, data.spectra.size(), e2e_seconds);
  json.end_object();

  // --- shared arena pool -----------------------------------------------------
  // Counters after the tile/HAC/streaming/pipeline sections above pushed
  // all their scratch (packed operand blobs, NN-chain matrices, assignment
  // rows) through the pool. high_water_bytes is the bloat metric the pool
  // exists to bound: peak in-use + retained bytes across the process.
  {
    const auto arena = spechd::arena_pool::global().stats();
    text_table arena_table("shared arena pool");
    arena_table.set_header({"metric", "value"});
    arena_table.add_row({"checkouts", std::to_string(arena.checkouts)});
    arena_table.add_row({"reuse hits", std::to_string(arena.reuses)});
    arena_table.add_row({"allocations", std::to_string(arena.allocations)});
    arena_table.add_row({"trims", std::to_string(arena.trims)});
    arena_table.add_row({"high-water bytes", std::to_string(arena.high_water_bytes)});
    arena_table.add_row({"retained bytes", std::to_string(arena.retained_bytes)});
    arena_table.print(std::cout);
    std::cout << '\n';

    json.begin_object("arena");
    json.field("checkouts", static_cast<std::size_t>(arena.checkouts));
    json.field("reuses", static_cast<std::size_t>(arena.reuses));
    json.field("allocations", static_cast<std::size_t>(arena.allocations));
    json.field("trims", static_cast<std::size_t>(arena.trims));
    json.field("trimmed_bytes", arena.trimmed_bytes);
    json.field("in_use_bytes", arena.in_use_bytes);
    json.field("retained_bytes", arena.retained_bytes);
    json.field("high_water_bytes", arena.high_water_bytes);
    json.end_object();
  }
  json.end_object();

  json.write_file(json_path);
  std::cout << "\nwrote " << json_path << '\n';
  return 0;
}
