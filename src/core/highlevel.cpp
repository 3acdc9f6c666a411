#include "core/highlevel.hpp"

#include <iterator>
#include <memory>

#include "common/error.hpp"
#include "core/moments_cluster.hpp"
#include "core/moments_cpu.hpp"
#include "core/moments_multigpu.hpp"
#include "diag/lanczos.hpp"

namespace kpm::core {

namespace {

constexpr EngineInfo kEngines[] = {
    {EngineKind::CpuReference, "cpu-reference", "cpu", true, false},
    {EngineKind::CpuPaired, "cpu-paired", "", true, false},
    {EngineKind::CpuParallel, "cpu-parallel", "", true, true},
    {EngineKind::Gpu, "gpu", "", false, false},
    {EngineKind::GpuCluster, "gpu-cluster", "multigpu", false, false},
    {EngineKind::ClusterSharded, "cluster-sharded", "cluster", true, true},
};

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kEngines); ++i)
    if (static_cast<std::size_t>(kEngines[i].kind) != i) return false;
  return true;
}
static_assert(rows_in_enum_order(), "engine table rows must follow EngineKind order");

}  // namespace

std::span<const EngineInfo> engine_table() noexcept { return kEngines; }

const EngineInfo& engine_info(EngineKind k) noexcept {
  return kEngines[static_cast<std::size_t>(k)];
}

const char* to_string(EngineKind k) noexcept { return engine_info(k).name; }

EngineKind engine_kind_from_string(std::string_view name) {
  for (const EngineInfo& e : kEngines)
    if (name == e.name || (*e.alias != '\0' && name == e.alias)) return e.kind;
  KPM_FAIL("unknown engine '" + std::string(name) + "' (" + engine_names() + ")");
}

std::string engine_names() {
  std::string out;
  for (const EngineInfo& e : kEngines)
    for (const char* spelling : {e.name, e.alias})
      if (*spelling != '\0') out += (out.empty() ? "" : "|") + std::string(spelling);
  return out;
}

std::unique_ptr<MomentEngine> make_engine(const MomentComputeOptions& options) {
  switch (options.engine) {
    case EngineKind::CpuReference:
      return std::make_unique<CpuMomentEngine>();
    case EngineKind::CpuPaired:
      return std::make_unique<CpuPairedMomentEngine>();
    case EngineKind::CpuParallel:
      return std::make_unique<CpuParallelMomentEngine>(options.cpu_threads);
    case EngineKind::Gpu:
      return std::make_unique<GpuMomentEngine>(options.gpu);
    case EngineKind::GpuCluster: {
      MultiGpuEngineConfig cfg;
      cfg.per_device = options.gpu;
      cfg.device_count = options.cluster_devices;
      cfg.link = gpusim::InterconnectSpec::from_name(options.cluster_interconnect);
      return std::make_unique<MultiGpuMomentEngine>(cfg);
    }
    case EngineKind::ClusterSharded: {
      ClusterEngineConfig cfg;
      cfg.node_count = options.cluster_nodes;
      cfg.halo_width = options.cluster_halo;
      cfg.link = gpusim::InterconnectSpec::from_name(options.cluster_interconnect);
      cfg.threads = options.cpu_threads;
      return std::make_unique<ClusterMomentEngine>(cfg);
    }
  }
  KPM_FAIL("make_engine: unknown engine kind");
}

MomentResult compute_moments(const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                             const MomentComputeOptions& options) {
  params.validate();
  return make_engine(options)->compute(h_tilde, params, options.sample_instances);
}

DosStudy compute_dos_study(const linalg::MatrixOperator& h, const DosStudyOptions& options) {
  options.params.validate();

  // 1. Spectral bounds and transform.
  const linalg::SpectralBounds bounds = options.use_lanczos_bounds
                                            ? diag::lanczos_bounds(h).bounds
                                            : linalg::gershgorin_bounds(h);
  DosStudy study;
  study.transform = linalg::SpectralTransform(bounds, options.bounds_epsilon);

  // 2. Rescale, keeping ownership of the storage that matches the input.
  linalg::DenseMatrix dense_tilde;
  linalg::CrsMatrix crs_tilde;
  linalg::SellMatrix sell_tilde;
  std::unique_ptr<linalg::MatrixOperator> op_tilde;
  if (options.use_sell_storage) {
    KPM_REQUIRE(h.storage() == linalg::Storage::Crs,
                "compute_dos_study: SELL storage needs a CRS input Hamiltonian");
    KPM_REQUIRE(engine_info(options.compute.engine).host_only,
                "compute_dos_study: SELL-C-sigma storage is host-only (CPU engines)");
    crs_tilde = linalg::rescale(*h.crs(), study.transform);
    sell_tilde =
        linalg::SellMatrix::from_crs(crs_tilde, options.sell_chunk, options.sell_sigma);
    op_tilde = std::make_unique<linalg::MatrixOperator>(sell_tilde);
  } else if (h.storage() == linalg::Storage::Dense) {
    dense_tilde = linalg::rescale(*h.dense(), study.transform);
    op_tilde = std::make_unique<linalg::MatrixOperator>(dense_tilde);
  } else {
    crs_tilde = linalg::rescale(*h.crs(), study.transform);
    op_tilde = std::make_unique<linalg::MatrixOperator>(crs_tilde);
  }

  // 3. Moments on the chosen engine, via the shared moments-only surface.
  study.moments = compute_moments(*op_tilde, options.params, options.compute);

  // 4. Reconstruction.
  study.curve = reconstruct_dos(study.moments.mu, study.transform, options.reconstruct);
  return study;
}

}  // namespace kpm::core
