// GPU moment engine: the paper's contribution.
//
// Orchestrates the host-side flow of Section III: allocate device buffers
// for the four work vectors and the mu~ matrix, upload H~, launch the
// random-fill, recursion and averaging kernels, and copy the N moments
// back.  All timing comes from the gpusim device timeline; the functional
// moments are bit-identical to the CPU reference engine.
#pragma once

#include <cstdint>
#include <optional>

#include "core/gpu_kernels.hpp"
#include "core/moments.hpp"
#include "gpusim/device_spec.hpp"

namespace kpm::core {

/// Configuration of the GPU engine.
struct GpuEngineConfig {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::tesla_c2050();
  GpuMapping mapping = GpuMapping::InstancePerBlock;
  std::uint32_t block_size = 128;  ///< BLOCK_SIZE of the paper (threads per block)
  /// Extract two moments per SpMV (Weisse et al. §II.D) — halves the
  /// dominant kernel work; requires InstancePerBlock.  The paper's
  /// implementation does not use this; see bench/ablation_moment_pairs.
  bool paired_moments = false;
  /// One-time host-side cost of creating the CUDA context, loading the
  /// module and warming the allocator — dominant at small N (Fig. 7's
  /// rising speedup); charged once per compute().
  double context_setup_seconds = 50e-3;

  /// Checks the device spec, a block size that is a positive multiple of
  /// the warp size, a non-negative context setup, and that paired moments
  /// run instance-per-block.  Every GPU driver's constructor calls it.
  void validate() const;
};

/// Moment engine running on the simulated GPU.
class GpuMomentEngine final : public MomentEngine {
 public:
  explicit GpuMomentEngine(GpuEngineConfig config = {});

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] MomentResult compute(const linalg::MatrixOperator& h_tilde,
                                     const MomentParams& params,
                                     std::size_t sample_instances = 0) override;

  [[nodiscard]] const GpuEngineConfig& config() const noexcept { return config_; }

  /// Timeline summary of the last compute() call (kernel/transfer split).
  [[nodiscard]] const gpusim::TimelineSummary& last_timeline() const noexcept {
    return last_summary_;
  }

 private:
  GpuEngineConfig config_;
  gpusim::TimelineSummary last_summary_{};
};

}  // namespace kpm::core
