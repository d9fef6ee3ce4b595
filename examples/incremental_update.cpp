// incremental_update: the "one-time preprocessing and subsequent updates"
// workflow from Sec. IV-B — encode a repository once into a compact
// hypervector store, persist it, then cluster new acquisition batches
// incrementally against it without re-encoding history.
//
//   $ ./incremental_update
#include <filesystem>
#include <iostream>

#include "core/incremental.hpp"
#include "metrics/quality.hpp"
#include "ms/synthetic.hpp"

int main() {
  using namespace spechd;

  // A "repository" of existing spectra and two subsequent acquisition runs
  // covering the same peptides.
  ms::synthetic_config base;
  base.peptide_count = 60;
  base.spectra_per_peptide_mean = 6.0;
  base.seed = 11;
  const auto repository = ms::generate_dataset(base);

  const std::size_t third = repository.spectra.size() / 3;
  std::vector<ms::spectrum> initial(repository.spectra.begin(),
                                    repository.spectra.begin() + 2 * third);
  std::vector<ms::spectrum> run1(repository.spectra.begin() + 2 * third,
                                 repository.spectra.begin() + 2 * third + third / 2);
  std::vector<ms::spectrum> run2(repository.spectra.begin() + 2 * third + third / 2,
                                 repository.spectra.end());

  core::spechd_config config;
  core::incremental_clusterer clusterer(config);

  // One-time encoding of the repository: push_batch preprocesses and
  // encodes the whole batch through the shared pool and assigns buckets in
  // parallel (identical clusters to one-at-a-time push()).
  auto report = clusterer.push_batch(initial);
  clusterer.rebuild_dirty_buckets();
  std::cout << "bootstrap: " << report.added << " spectra -> "
            << clusterer.cluster_count() << " clusters\n";

  // Persist the hyperdimensional store (the compressed repository format).
  const auto store_path =
      (std::filesystem::temp_directory_path() / "spechd_repository.sphv").string();
  clusterer.to_store().save_file(store_path);
  std::cout << "persisted store: " << store_path << " ("
            << clusterer.to_store().file_bytes() / 1024 << " KiB for "
            << clusterer.size() << " spectra)\n";

  // A new session: reload the store, then stream in new runs.
  core::incremental_clusterer session(config);
  session.bootstrap(hdc::hv_store::load_file(store_path));
  for (const auto* batch : {&run1, &run2}) {
    report = session.push_batch(*batch);
    std::cout << "update: +" << report.added << " spectra, "
              << report.joined_existing << " joined existing clusters, "
              << report.new_clusters << " new clusters, "
              << report.buckets_touched.size() << " buckets touched\n";
  }
  session.rebuild_dirty_buckets();

  // Quality of the final state against ground truth.
  std::vector<std::int32_t> truth;
  std::vector<const std::vector<ms::spectrum>*> order = {&initial, &run1, &run2};
  for (const auto* batch : order) {
    for (const auto& s : *batch) truth.push_back(s.label);
  }
  const auto q = metrics::evaluate_clustering(truth, session.clustering());
  std::cout << "final: " << session.cluster_count() << " clusters, clustered ratio "
            << q.clustered_ratio << ", ICR " << q.incorrect_ratio << "\n";

  std::filesystem::remove(store_path);
  return 0;
}
