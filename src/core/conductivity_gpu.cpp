#include "core/conductivity_gpu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "core/device_matrix.hpp"
#include "core/gpu_kernels.hpp"
#include "core/moments_cpu.hpp"
#include "gpusim/view.hpp"
#include "obs/counters.hpp"
#include "obs/gpusim_bridge.hpp"
#include "obs/trace.hpp"

namespace kpm::core {
namespace {

using gpusim::AccessPattern;

/// One block per instance: builds the beta-vectors, streams psi_n, and
/// accumulates the instance's N x N moment contribution into mu_partial
/// [instance * N * N ...].
class ConductivityBlockKernel final : public gpusim::Kernel {
 public:
  ConductivityBlockKernel(const MomentParams& params, DeviceMatrixRef h, DeviceMatrixRef a,
                          std::size_t active, std::size_t l2_bytes,
                          gpusim::DeviceBuffer<double>& r0, gpusim::DeviceBuffer<double>& beta,
                          gpusim::DeviceBuffer<double>& psi_work,
                          gpusim::DeviceBuffer<double>& mu_partial)
      : params_(&params),
        h_(h),
        a_(a),
        active_(active),
        l2_bytes_(l2_bytes),
        r0_(&r0),
        beta_(&beta),
        psi_work_(&psi_work),
        mu_partial_(&mu_partial) {}

  [[nodiscard]] const char* name() const override { return "kpm_conductivity_block"; }

  void block_phase(int /*phase*/, gpusim::BlockContext& block) override {
    const std::size_t inst = block.bid();
    if (inst >= active_) return;

    const std::size_t d = h_.dim;
    const std::size_t n = params_->num_moments;
    const auto r0 = r0_->raw().subspan(inst * d, d);
    auto beta = beta_->raw().subspan(inst * n * d, n * d);
    auto work = psi_work_->raw().subspan(inst * 4 * d, 4 * d);
    auto mu = mu_partial_->raw().subspan(inst * n * n, n * n);

    const auto phi = work.subspan(0, d);
    auto psi_prev2 = work.subspan(d, d);
    auto psi_prev = work.subspan(2 * d, d);
    auto psi_next = work.subspan(3 * d, d);
    // w reuses phi's slot after phi has been folded into beta_0.

    auto beta_row = [&](std::size_t m) { return beta.subspan(m * d, d); };

    // Functional-work counters, matching the CPU conductivity path:
    // 1 phi + (n-1) beta + (n-1) psi + n w multiplies, n^2 dots.
    obs::add(obs::Counter::InstancesExecuted, 1.0);
    obs::add(obs::Counter::SpmvCalls, 3.0 * static_cast<double>(n) - 1.0);
    obs::add(obs::Counter::DotCalls, static_cast<double>(n) * static_cast<double>(n));

    // phi = A r0; beta recursion.
    a_.multiply(r0, phi);
    std::copy(phi.begin(), phi.end(), beta_row(0).begin());
    if (n > 1) h_.multiply(beta_row(0), beta_row(1));
    for (std::size_t m = 2; m < n; ++m) h_.step(beta_row(m - 1), beta_row(m - 2), beta_row(m));

    auto w = phi;  // scratch for A psi_n
    auto accumulate_row = [&](std::size_t row, std::span<const double> psi) {
      a_.multiply(psi, w);
      double* mu_row = mu.data() + row * n;
      for (std::size_t m = 0; m < n; ++m) {
        const auto b = beta_row(m);
        double acc = 0.0;
        for (std::size_t i = 0; i < d; ++i) acc += w[i] * b[i];
        mu_row[m] += acc;
      }
    };

    std::copy(r0.begin(), r0.end(), psi_prev2.begin());
    accumulate_row(0, psi_prev2);
    if (n > 1) {
      h_.multiply(psi_prev2, psi_prev);
      accumulate_row(1, psi_prev);
    }
    for (std::size_t k = 2; k < n; ++k) {
      h_.step(psi_prev, psi_prev2, psi_next);
      accumulate_row(k, psi_next);
      std::swap(psi_prev2, psi_prev);
      std::swap(psi_prev, psi_next);
    }

    meter_instance(block);
  }

 private:
  void meter_instance(gpusim::BlockContext& block) const {
    const auto d = static_cast<double>(h_.dim);
    const auto n = static_cast<double>(params_->num_moments);
    auto& c = block.counters();

    const auto pattern = [&](const DeviceMatrixRef& m) {
      return m.traversal_bytes() <= static_cast<double>(l2_bytes_) ? AccessPattern::Broadcast
                                                                   : AccessPattern::Strided;
    };
    const auto h_pat = static_cast<std::size_t>(pattern(h_));
    const auto a_pat = static_cast<std::size_t>(pattern(a_));
    const auto coal = static_cast<std::size_t>(AccessPattern::Coalesced);

    // H traversals: (n - 2) beta steps + 1 + (n - 2) psi steps + 1.
    const double h_sweeps = 2.0 * (n - 1.0);
    c.global_read_bytes[h_pat] += h_sweeps * h_.traversal_bytes();
    c.global_read_bytes[coal] += h_sweeps * d * sizeof(double);   // x stage per SpMV
    c.global_write_bytes[coal] += h_sweeps * d * sizeof(double);  // y per SpMV
    c.shared_bytes += h_sweeps * (static_cast<double>(h_.stored_entries) * sizeof(double) +
                                  h_.traversal_bytes());
    // A applications: 1 (phi) + n (w per row).
    const double a_sweeps = n + 1.0;
    c.global_read_bytes[a_pat] += a_sweeps * a_.traversal_bytes();
    c.global_read_bytes[coal] += a_sweeps * d * sizeof(double);
    c.global_write_bytes[coal] += a_sweeps * d * sizeof(double);
    // Combine reads (prev2) for both recursions.
    c.global_read_bytes[coal] += 2.0 * (n - 2.0) * d * sizeof(double);
    // The n^2 dot products: stream w (cached per row — charge once) and
    // every beta vector per row.
    c.global_read_bytes[coal] += n * (n + 1.0) * d * sizeof(double);
    c.global_write_bytes[coal] += n * n * sizeof(double);  // mu_partial
    // Flops: SpMVs + combines + n^2 dots.
    c.flops += h_sweeps * 2.0 * static_cast<double>(h_.stored_entries) +
               a_sweeps * 2.0 * static_cast<double>(a_.stored_entries) +
               2.0 * (n - 2.0) * 2.0 * d + n * n * 2.0 * d;
    c.barriers += n * 2.0;
  }

  const MomentParams* params_;
  DeviceMatrixRef h_;
  DeviceMatrixRef a_;
  std::size_t active_;
  std::size_t l2_bytes_;
  gpusim::DeviceBuffer<double>* r0_;
  gpusim::DeviceBuffer<double>* beta_;
  gpusim::DeviceBuffer<double>* psi_work_;
  gpusim::DeviceBuffer<double>* mu_partial_;
};

}  // namespace

GpuConductivityEngine::GpuConductivityEngine(GpuEngineConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

ConductivityMoments GpuConductivityEngine::compute(const linalg::MatrixOperator& h_tilde,
                                                   const linalg::MatrixOperator& a_current,
                                                   const MomentParams& params,
                                                   std::size_t sample_instances) {
  params.validate();
  const std::size_t d = h_tilde.dim();
  KPM_REQUIRE(a_current.dim() == d, "GpuConductivityEngine: operator dimensions differ");
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const double cost_scale = static_cast<double>(total) / static_cast<double>(executed);

  obs::ScopedSpan span("conductivity.moments.gpu");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n) * static_cast<double>(n));
  gpusim::Device device(config_.device);
  DeviceMatrix h_dev(device, h_tilde);
  DeviceMatrix a_dev(device, a_current);
  auto r0 = device.alloc<double>(total * d, "r0 vectors");
  auto beta = device.alloc<double>(total * n * d, "beta vectors");
  auto psi_work = device.alloc<double>(total * 4 * d, "psi work vectors");
  auto mu_partial = device.alloc<double>(total * n * n, "mu~ matrices");
  auto mu_dev = device.alloc<double>(n * n, "mu matrix");

  {
    FillRandomKernel fill(params, d, executed, r0);
    device.launch(instance_blocks(config_, total), fill, cost_scale);
  }
  {
    ConductivityBlockKernel rec(params, h_dev.ref(), a_dev.ref(), executed,
                                config_.device.l2_cache_bytes, r0, beta, psi_work, mu_partial);
    device.launch(instance_blocks(config_, total, sizeof(double)), rec, cost_scale);
  }
  ConductivityMoments result;
  result.num_moments = n;
  result.mu.resize(n * n);
  result.instances_executed = executed;
  {
    AverageMomentsKernel avg(n * n, d, executed, total, mu_partial, mu_dev,
                             "kpm_conductivity_average");
    device.launch(gpusim::ExecConfig::linear(n * n, 128), avg);
  }
  device.copy_to_host<double>(mu_dev, result.mu, "mu matrix download");

  obs::record_device(device, "conductivity-gpu");
  last_summary_ = device.summarize_timeline();
  last_model_seconds_ = config_.context_setup_seconds + last_summary_.total_seconds;
  return result;
}

}  // namespace kpm::core
