// One-call high-level API: Hamiltonian in, DoS out.
//
// The lower-level API exposes every pipeline stage (bounds, rescaling,
// engines, reconstruction) for control and testing; most callers just
// want the paper's end result.  `compute_dos_study` owns the intermediate
// rescaled matrix internally, picks the requested engine, and returns the
// moments, the curve, and the timing in one struct.
//
// The engine table and `make_engine` are the one place an `EngineKind`
// becomes a name or an engine: every study, the serving layer and kpmcli
// select their engine through them.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/moments.hpp"
#include "core/moments_gpu.hpp"
#include "core/reconstruct.hpp"
#include "linalg/operator.hpp"
#include "linalg/spectral_transform.hpp"

namespace kpm::core {

/// Which execution engine a study runs on.
enum class EngineKind {
  CpuReference,    ///< serial CPU (paper's baseline)
  CpuPaired,       ///< two-moments-per-SpMV CPU
  CpuParallel,     ///< multithreaded CPU (instances across a thread pool)
  Gpu,             ///< simulated GPU (paper's contribution)
  GpuCluster,      ///< simulated multi-GPU cluster (instances across devices)
  ClusterSharded,  ///< domain-decomposed nodes with halo exchange (bit-identical)
};

/// One row of the engine table: how an engine kind is spelled and where it
/// runs.  Every name lookup, help string and host-only check reads it.
struct EngineInfo {
  EngineKind kind;
  const char* name;   ///< canonical name (`to_string`)
  const char* alias;  ///< second accepted spelling ("" when none)
  bool host_only;     ///< host vectors only: SELL-C-sigma storage, SpMMV blocks > 1
  bool host_threads;  ///< runs a host thread pool sized by `cpu_threads`
};

/// The engine table, one row per EngineKind in declaration order.
[[nodiscard]] std::span<const EngineInfo> engine_table() noexcept;

/// The table row of `k`.
[[nodiscard]] const EngineInfo& engine_info(EngineKind k) noexcept;

/// Returns "cpu-reference", "cpu-paired", "cpu-parallel", "gpu",
/// "gpu-cluster" or "cluster-sharded".
const char* to_string(EngineKind k) noexcept;

/// Inverse of `to_string`; also accepts each row's alias ("cpu",
/// "multigpu", "cluster").  Throws kpm::Error for unknown names.
[[nodiscard]] EngineKind engine_kind_from_string(std::string_view name);

/// Every accepted spelling, '|'-separated in table order (for help text).
[[nodiscard]] std::string engine_names();

/// Options of a moments-only computation (see `make_engine`).
struct MomentComputeOptions {
  EngineKind engine = EngineKind::CpuReference;
  GpuEngineConfig gpu{};             ///< used by Gpu / GpuCluster
  std::size_t cluster_devices = 4;   ///< used by GpuCluster
  int cpu_threads = 4;               ///< used by CpuParallel / ClusterSharded (>= 1)
  std::size_t sample_instances = 0;  ///< 0 = execute all instances

  // ClusterSharded only: node count, ghost layers per exchange.  The
  // modeled fabric ("ib-qdr", "pcie" or "ideal") also links GpuCluster.
  std::size_t cluster_nodes = 4;
  std::size_t cluster_halo = 1;
  std::string cluster_interconnect = "ib-qdr";
};

/// Builds the engine `options` selects, configured from its fields
/// (`sample_instances` is a per-call argument of `MomentEngine::compute`).
[[nodiscard]] std::unique_ptr<MomentEngine> make_engine(const MomentComputeOptions& options);

/// The reusable moments-only surface: runs `params` on the chosen engine
/// against an ALREADY-RESCALED operator H~.  This is the expensive half of
/// every study — callers that own their transform (the serving layer, a
/// cache in front of reconstruction) go through here; `compute_dos_study`
/// composes it with bounds/rescale/reconstruct for the one-call path.
[[nodiscard]] MomentResult compute_moments(const linalg::MatrixOperator& h_tilde,
                                           const MomentParams& params,
                                           const MomentComputeOptions& options = {});

/// Options of a one-call DoS study.
struct DosStudyOptions {
  MomentParams params{};
  ReconstructOptions reconstruct{};
  MomentComputeOptions compute{.engine = EngineKind::Gpu};  ///< engine and its knobs
  double bounds_epsilon = 0.01;       ///< spectral padding
  bool use_lanczos_bounds = false;    ///< tighter bounds via Lanczos instead of Gershgorin
  bool use_sell_storage = false;      ///< run host-only engines on SELL-C-sigma H~ (CRS input only)
  std::size_t sell_chunk = 32;        ///< SELL C (chunk height)
  std::size_t sell_sigma = 256;       ///< SELL sigma (sort window)
};

/// Everything a DoS study produces.
struct DosStudy {
  linalg::SpectralTransform transform{{-1.0, 1.0}, 0.0};
  MomentResult moments;
  DosCurve curve;
};

/// Runs the full pipeline on the UNSCALED Hamiltonian `h`:
/// bounds -> H~ -> stochastic moments on the chosen engine -> Jackson (or
/// chosen kernel) reconstruction.  Works for dense and CRS operators.
[[nodiscard]] DosStudy compute_dos_study(const linalg::MatrixOperator& h,
                                         const DosStudyOptions& options = {});

}  // namespace kpm::core
