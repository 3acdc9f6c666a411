#include "core/ldos_gpu.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/device_matrix.hpp"
#include "core/gpu_kernels.hpp"
#include "gpusim/view.hpp"
#include "obs/counters.hpp"
#include "obs/gpusim_bridge.hpp"
#include "obs/trace.hpp"

namespace kpm::core {
namespace {

/// Writes basis vectors: block b's slice of r0 gets e_{sites[b]}.
class FillBasisKernel final : public gpusim::Kernel {
 public:
  FillBasisKernel(std::span<const std::size_t> sites, std::size_t dim,
                  gpusim::DeviceBuffer<double>& r0)
      : sites_(sites), dim_(dim), r0_(&r0) {}

  [[nodiscard]] const char* name() const override { return "kpm_fill_basis"; }

  void block_phase(int /*phase*/, gpusim::BlockContext& block) override {
    const std::size_t k = block.bid();
    if (k >= sites_.size()) return;
    gpusim::GlobalView<double> r0(*r0_, gpusim::AccessPattern::Coalesced, block.counters());
    auto out = r0.bulk_store(k * dim_, dim_);
    std::fill(out.begin(), out.end(), 0.0);
    out[sites_[k]] = 1.0;
  }

 private:
  std::span<const std::size_t> sites_;
  std::size_t dim_;
  gpusim::DeviceBuffer<double>* r0_;
};

}  // namespace

GpuLdosEngine::GpuLdosEngine(GpuEngineConfig config) : config_(std::move(config)) {
  // One basis vector per block with single dots, whatever the config asks.
  config_.mapping = GpuMapping::InstancePerBlock;
  config_.paired_moments = false;
  config_.validate();
}

LdosMoments GpuLdosEngine::compute(const linalg::MatrixOperator& h_tilde,
                                   std::span<const std::size_t> sites,
                                   std::size_t num_moments) {
  KPM_REQUIRE(!sites.empty(), "GpuLdosEngine: no sites requested");
  KPM_REQUIRE(num_moments >= 2, "GpuLdosEngine: need at least two moments");
  const std::size_t d = h_tilde.dim();
  for (std::size_t s : sites) KPM_REQUIRE(s < d, "GpuLdosEngine: site out of range");
  const std::size_t count = sites.size();

  obs::ScopedSpan span("ldos.gpu");
  obs::add(obs::Counter::MomentsProduced,
           static_cast<double>(count) * static_cast<double>(num_moments));
  gpusim::Device device(config_.device);
  DeviceMatrix h_dev(device, h_tilde);
  auto r0 = device.alloc<double>(count * d, "basis vectors");
  auto work_a = device.alloc<double>(count * d, "work a");
  auto work_b = device.alloc<double>(count * d, "work b");
  auto mu_dev = device.alloc<double>(count * num_moments, "ldos moments");

  {
    FillBasisKernel fill(sites, d, r0);
    device.launch(instance_blocks(config_, count), fill);
  }
  MomentParams params;  // only num_moments matters for the recursion
  params.num_moments = num_moments;
  launch_recursion(device, config_, params, h_dev.ref(), count, count,
                   {r0, work_a, work_b, mu_dev});

  LdosMoments result;
  result.sites.assign(sites.begin(), sites.end());
  result.num_moments = num_moments;
  result.mu.resize(count * num_moments);
  device.copy_to_host<double>(mu_dev, result.mu, "ldos moments download");
  obs::record_device(device, "ldos-gpu");
  last_model_seconds_ = config_.context_setup_seconds + device.summarize_timeline().total_seconds;
  return result;
}

}  // namespace kpm::core
