#include "core/moments_hermitian_gpu.hpp"

#include <complex>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/gpu_kernels.hpp"
#include "core/moments_cpu.hpp"
#include "gpusim/view.hpp"
#include "obs/counters.hpp"
#include "obs/gpusim_bridge.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {
namespace {

using Complex = std::complex<double>;
using gpusim::AccessPattern;

/// Device-resident complex CRS matrix.
struct DeviceMatrixZ {
  gpusim::DeviceBuffer<Complex> values;
  gpusim::DeviceBuffer<std::int32_t> row_ptr;
  gpusim::DeviceBuffer<std::int32_t> col_idx;
  std::size_t dim = 0;
  std::size_t nnz = 0;

  DeviceMatrixZ(gpusim::Device& device, const linalg::CrsMatrixZ& h)
      : values(device.alloc<Complex>(h.nnz(), "H~ complex values")),
        row_ptr(device.alloc<std::int32_t>(h.rows() + 1, "H~ row_ptr")),
        col_idx(device.alloc<std::int32_t>(h.nnz(), "H~ col_idx")),
        dim(h.rows()),
        nnz(h.nnz()) {
    device.copy_to_device<Complex>(h.values(), values, "H~ complex upload");
    device.copy_to_device<std::int32_t>(h.row_ptr(), row_ptr, "H~ row_ptr upload");
    device.copy_to_device<std::int32_t>(h.col_idx(), col_idx, "H~ col_idx upload");
  }

  [[nodiscard]] BasicDeviceMatrixRef<Complex> ref() const noexcept {
    return {linalg::Storage::Crs, dim, nnz, values.raw(), row_ptr.raw(), col_idx.raw()};
  }
};

/// Fills complex r0 vectors (real Rademacher components, zero imaginary).
class FillRandomKernelZ final : public gpusim::Kernel {
 public:
  FillRandomKernelZ(const MomentParams& params, std::size_t dim, std::size_t active,
                    gpusim::DeviceBuffer<Complex>& r0)
      : params_(&params), dim_(dim), active_(active), r0_(&r0) {}

  [[nodiscard]] const char* name() const override { return "kpm_fill_random_z"; }

  void block_phase(int /*phase*/, gpusim::BlockContext& block) override {
    const std::size_t inst = block.bid();
    if (inst >= active_) return;
    gpusim::GlobalView<Complex> r0(*r0_, AccessPattern::Coalesced, block.counters());
    auto out = r0.bulk_store(inst * dim_, dim_);
    obs::add(obs::Counter::RngElements, static_cast<double>(dim_));
    for (std::size_t i = 0; i < dim_; ++i)
      out[i] = Complex{
          rng::draw_random_element(params_->vector_kind, params_->seed, inst, i), 0.0};
    block.flop(10.0 * static_cast<double>(dim_));
  }

 private:
  const MomentParams* params_;
  std::size_t dim_;
  std::size_t active_;
  gpusim::DeviceBuffer<Complex>* r0_;
};

}  // namespace

GpuHermitianMomentEngine::GpuHermitianMomentEngine(GpuEngineConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

MomentResult GpuHermitianMomentEngine::compute(const linalg::CrsMatrixZ& h_tilde,
                                               const MomentParams& params,
                                               std::size_t sample_instances) {
  params.validate();
  KPM_REQUIRE(h_tilde.rows() == h_tilde.cols(), "GpuHermitianMomentEngine: matrix must be square");
  const std::size_t d = h_tilde.rows();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const double cost_scale = static_cast<double>(total) / static_cast<double>(executed);

  obs::ScopedSpan span("moments." + name());
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  gpusim::Device device(config_.device);
  DeviceMatrixZ h_dev(device, h_tilde);
  auto r0 = device.alloc<Complex>(total * d, "r0 vectors (complex)");
  auto work_a = device.alloc<Complex>(total * d, "work a (complex)");
  auto work_b = device.alloc<Complex>(total * d, "work b (complex)");
  auto mu_tilde = device.alloc<double>(total * n, "mu~ per instance");
  auto mu_dev = device.alloc<double>(n, "mu");

  {
    FillRandomKernelZ fill(params, d, executed, r0);
    device.launch(instance_blocks(config_, total), fill, cost_scale);
  }
  {
    // mu~_n = Re<r0|r_n>: the shared block recursion over complex vectors.
    BasicRecursionBlockKernel<Complex> rec(params, h_dev.ref(), executed,
                                           config_.device.l2_cache_bytes, r0, work_a, work_b,
                                           mu_tilde);
    device.launch(instance_blocks(config_, total, sizeof(Complex)), rec, cost_scale);
  }
  MomentResult result;
  result.engine = name();
  result.mu.resize(n);
  {
    AverageMomentsKernel avg(n, d, executed, total, mu_tilde, mu_dev);
    device.launch(gpusim::ExecConfig::linear(n, 128), avg);
  }
  device.copy_to_host<double>(mu_dev, result.mu, "mu download");

  result.instances_executed = executed;
  result.instances_total = total;
  result.wall_seconds = wall.seconds();
  obs::record_device(device, name());
  last_summary_ = device.summarize_timeline();
  result.model_seconds = config_.context_setup_seconds + last_summary_.total_seconds;
  result.compute_seconds = last_summary_.kernel_seconds;
  result.transfer_seconds = last_summary_.transfer_seconds;
  result.allocation_seconds = config_.context_setup_seconds + last_summary_.allocation_seconds;
  return result;
}

}  // namespace kpm::core
