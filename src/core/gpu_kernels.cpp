#include "core/gpu_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "core/moments_gpu.hpp"
#include "gpusim/view.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/counters.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {

using gpusim::AccessPattern;

const char* to_string(GpuMapping m) noexcept {
  return m == GpuMapping::InstancePerBlock ? "instance-per-block" : "instance-per-thread";
}

namespace detail {
namespace {

using Complex = std::complex<double>;

double dot_re(std::span<const double> x, std::span<const double> y) { return linalg::dot(x, y); }

double dot_re(std::span<const Complex> x, std::span<const Complex> y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += (std::conj(x[i]) * y[i]).real();
  return acc;
}

}  // namespace

template <typename T>
void instance_recursion(const BasicDeviceMatrixRef<T>& h, std::span<const T> r0, std::span<T> a,
                        std::span<T> b, std::span<double> mu_tilde, std::size_t num_moments,
                        DotPolicy dots) {
  const std::size_t n = num_moments;
  const bool paired = dots == DotPolicy::Paired;
  // The last vector the recursion builds, which is also its SpMV count:
  // r_{N-1} for single dots, r_{ceil(N/2)} for paired ones.
  const std::size_t last = paired ? (n + 1) / 2 : n - 1;
  // Functional-work counters (instances, SpMVs, dots) match the CPU
  // engines exactly; modeled GPU flop/byte totals stay in the gpu_*
  // counters via the gpusim timeline bridge.
  obs::add(obs::Counter::InstancesExecuted, 1.0);
  obs::add(obs::Counter::SpmvCalls, static_cast<double>(last));
  if (!paired) obs::add(obs::Counter::DotCalls, static_cast<double>(n));

  // mu~_0 = <r0|r0>;  |r1> = H~|r0>;  mu~_1 = <r0|r1>.
  mu_tilde[0] = dot_re(r0, r0);
  if (last == 0) return;
  h.multiply(r0, a);
  if (n > 1) mu_tilde[1] = dot_re(r0, a);

  // |r_{k+1}> = 2 H~|r_k> - |r_{k-1}>, written over r_{k-1} in place (over
  // b at k = 1, where r_{k-1} is the read-only r0).
  std::span<T> cur = a;
  std::span<T> other = b;
  std::span<const T> prev2 = r0;
  for (std::size_t k = 1; k < last; ++k) {
    if (paired && 2 * k < n) mu_tilde[2 * k] = 2.0 * dot_re(cur, cur) - mu_tilde[0];
    h.step(cur, prev2, other);
    if (!paired) {
      mu_tilde[k + 1] = dot_re(r0, other);
    } else if (2 * k + 1 < n) {
      mu_tilde[2 * k + 1] = 2.0 * dot_re(other, cur) - mu_tilde[1];
    }
    std::swap(cur, other);
    prev2 = other;
  }
}

template void instance_recursion<double>(const DeviceMatrixRef&, std::span<const double>,
                                         std::span<double>, std::span<double>,
                                         std::span<double>, std::size_t, DotPolicy);
template void instance_recursion<Complex>(const BasicDeviceMatrixRef<Complex>&,
                                          std::span<const Complex>, std::span<Complex>,
                                          std::span<Complex>, std::span<double>, std::size_t,
                                          DotPolicy);

}  // namespace detail

gpusim::ExecConfig instance_blocks(const GpuEngineConfig& config, std::size_t instances,
                                   std::size_t staged_elem_bytes) {
  gpusim::ExecConfig cfg;
  cfg.grid = gpusim::Dim3{static_cast<std::uint32_t>(instances)};
  cfg.block = gpusim::Dim3{config.block_size};
  cfg.shared_bytes = std::min<std::size_t>(config.device.shared_mem_per_sm / 2,
                                           2 * config.block_size * staged_elem_bytes * 4);
  return cfg;
}

void launch_recursion(gpusim::Device& device, const GpuEngineConfig& config,
                      const MomentParams& params, const DeviceMatrixRef& h,
                      std::size_t instances, std::size_t active, const RecursionBuffers& buffers,
                      double cost_scale, gpusim::StreamId stream) {
  const std::size_t l2 = config.device.l2_cache_bytes;
  if (config.mapping == GpuMapping::InstancePerBlock) {
    RecursionBlockKernel rec(params, h, active, l2, buffers.r0, buffers.work_a, buffers.work_b,
                             buffers.mu_tilde,
                             config.paired_moments ? detail::DotPolicy::Paired
                                                   : detail::DotPolicy::Single);
    device.launch(instance_blocks(config, instances, sizeof(double)), rec, cost_scale, stream);
  } else {
    RecursionThreadKernel rec(params, h, active, l2, buffers.r0, buffers.work_a, buffers.work_b,
                              buffers.mu_tilde);
    device.launch(gpusim::ExecConfig::linear(instances, config.block_size), rec, cost_scale,
                  stream);
  }
}

void FillRandomKernel::block_phase(int /*phase*/, gpusim::BlockContext& block) {
  const std::size_t inst = block.bid();
  if (inst >= active_) return;

  gpusim::GlobalView<double> r0(*r0_, AccessPattern::Coalesced, block.counters());
  const std::size_t base = inst * dim_;

  // Threads stride the vector elements (coalesced layout within the
  // instance's slice); counter-based RNG makes the result order-free.
  auto out = r0.bulk_store(base, dim_);
  obs::add(obs::Counter::RngElements, static_cast<double>(dim_));
  const std::uint64_t stream = inst + stream_offset_;
  for (std::size_t i = 0; i < dim_; ++i)
    out[i] = rng::draw_random_element(params_->vector_kind, params_->seed, stream, i);
  // ~10 flops/element for the Philox rounds + transform.
  block.flop(10.0 * static_cast<double>(dim_));
}

template <typename T>
void BasicRecursionBlockKernel<T>::block_phase(int /*phase*/, gpusim::BlockContext& block) {
  const std::size_t inst = block.bid();
  if (inst >= active_) return;

  const std::size_t d = h_.dim;
  const std::size_t n = params_->num_moments;
  const std::size_t base = inst * d;

  detail::instance_recursion<T>(h_, r0_->raw().subspan(base, d), work_a_->raw().subspan(base, d),
                                work_b_->raw().subspan(base, d),
                                mu_tilde_->raw().subspan(inst * n, n), n, dots_);
  meter_instance(block);
}

template <typename T>
void BasicRecursionBlockKernel<T>::meter_instance(gpusim::BlockContext& block) const {
  // Analytic traffic of one instance's recursion under the
  // instance-per-block mapping (see header).  Data-independent, so adding
  // totals after the functional loop is exact.
  const auto d = static_cast<double>(h_.dim);
  const auto n = static_cast<double>(params_->num_moments);
  const double entries = static_cast<double>(h_.stored_entries);
  const double matrix_bytes = h_.traversal_bytes();
  const double elem = sizeof(T);
  // Flops per matrix entry (one multiply-add) and per vector element of a
  // combine or dot: a complex multiply-add is ~8 real flops.
  const double entry_flops = std::is_same_v<T, double> ? 2.0 : 8.0;
  const double elem_flops = std::is_same_v<T, double> ? 2.0 : 4.0;
  auto& c = block.counters();

  // Single dots: N - 1 SpMVs, a dot per moment and a reduction per dot.
  // Paired: ceil(N/2) SpMVs, N + 1 dot streams and one (two-value)
  // reduction per SpMV.
  const bool paired = dots_ == detail::DotPolicy::Paired;
  const double spmvs = paired ? std::ceil(n / 2.0) : n - 1.0;
  const double dot_streams = paired ? n + 1.0 : n;
  const double reductions = paired ? spmvs : n;

  // The matrix streams once per SpMV; when it fits the device L2 the
  // re-reads across concurrently resident blocks are served on-chip
  // (Broadcast-rate), otherwise each block's traversal reaches DRAM with
  // partial-transaction efficiency (Strided).
  const auto mat_pattern = matrix_bytes <= static_cast<double>(l2_bytes_)
                               ? AccessPattern::Broadcast
                               : AccessPattern::Strided;
  const std::size_t mat = static_cast<std::size_t>(mat_pattern);
  const std::size_t coal = static_cast<std::size_t>(AccessPattern::Coalesced);

  c.global_read_bytes[mat] += spmvs * matrix_bytes;
  // x staged into shared once per SpMV (coalesced global read), then the
  // per-entry gathers hit shared memory; matrix words also pass through
  // shared after the global stream.
  c.global_read_bytes[coal] += spmvs * d * elem;
  c.shared_bytes += spmvs * (entries * elem + matrix_bytes);
  // y / combine: write next (D) per SpMV, read prev2 (D) per step after r_1.
  c.global_write_bytes[coal] += spmvs * d * elem;
  c.global_read_bytes[coal] += (spmvs - 1.0) * d * elem;
  // Dots: read both operands per dot stream (r_n often still in
  // registers, charged anyway: the paper's kernel re-reads it), plus the
  // tree reduction.
  c.global_read_bytes[coal] += dot_streams * 2.0 * d * elem;
  const auto threads = static_cast<double>(block.threads());
  c.shared_bytes += dot_streams * 2.0 * threads * sizeof(double);  // reduction traffic
  c.barriers += reductions * (std::ceil(std::log2(std::max(2.0, threads))) + 2.0);
  // mu~ writes.
  c.global_write_bytes[coal] += n * sizeof(double);

  // Flops: SpMVs + combines + dots.
  c.flops += spmvs * entry_flops * entries + (spmvs - 1.0) * elem_flops * d +
             dot_streams * elem_flops * d;
}

template class BasicRecursionBlockKernel<double>;
template class BasicRecursionBlockKernel<detail::Complex>;

void RecursionThreadKernel::block_phase(int /*phase*/, gpusim::BlockContext& block) {
  const std::size_t threads = block.threads();
  const std::size_t d = h_.dim;
  const std::size_t n = params_->num_moments;
  std::size_t active_in_block = 0;

  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t inst = block.bid() * threads + t;
    if (inst >= active_) continue;
    ++active_in_block;
    const std::size_t base = inst * d;
    detail::instance_recursion<double>(h_, r0_->raw().subspan(base, d),
                                       work_a_->raw().subspan(base, d),
                                       work_b_->raw().subspan(base, d),
                                       mu_tilde_->raw().subspan(inst * n, n), n,
                                       detail::DotPolicy::Single);
  }
  if (active_in_block == 0) return;

  // --- Metering (per block, covering its active threads). ---
  const auto dd = static_cast<double>(d);
  const auto nn = static_cast<double>(n);
  const double entries = static_cast<double>(h_.stored_entries);
  const double matrix_bytes = h_.traversal_bytes();
  auto& c = block.counters();

  // All lanes of a warp traverse H~ in lockstep: one broadcast-served
  // stream per warp (not per thread) — unless the matrix exceeds L2, in
  // which case warps drift and each warp's stream pays DRAM strided cost.
  // Fractional warps keep the count exactly linear in active instances, so
  // instance-sampling extrapolation (cost_scale) is exact.
  const double warps = static_cast<double>(active_in_block) / 32.0;
  const auto mat_pattern = matrix_bytes <= static_cast<double>(l2_bytes_)
                               ? AccessPattern::Broadcast
                               : AccessPattern::Strided;
  const auto mat = static_cast<std::size_t>(mat_pattern);
  const auto strided = static_cast<std::size_t>(AccessPattern::Strided);
  const double spmvs = nn - 1.0;
  c.global_read_bytes[mat] += warps * spmvs * matrix_bytes;

  // Vector traffic is per thread and uncoalesced (instance-major layout:
  // lane k's element i lives D elements away from lane k+1's).
  const auto k = static_cast<double>(active_in_block);
  c.global_read_bytes[strided] += k * spmvs * entries * sizeof(double);        // x gathers
  c.global_write_bytes[strided] += k * spmvs * dd * sizeof(double);            // next writes
  c.global_read_bytes[strided] += k * (nn - 2.0) * dd * sizeof(double);        // prev2 reads
  c.global_read_bytes[strided] += k * nn * 2.0 * dd * sizeof(double);          // dot reads
  c.global_write_bytes[strided] += k * nn * sizeof(double);                    // mu~ writes

  c.flops += k * (spmvs * 2.0 * entries + (nn - 2.0) * 2.0 * dd + nn * 2.0 * dd);
}

void AverageMomentsKernel::thread_phase(int /*phase*/, gpusim::ThreadContext& thread) {
  const std::size_t n = thread.global_tid();
  if (n >= n_) return;

  // Ordered sum over the executed instances (matches the CPU reference
  // bit-for-bit); functional access is unmetered, the cost below is
  // modeled analytically for the FULL instance count.
  const auto src = mu_tilde_->raw();
  double acc = 0.0;
  for (std::size_t k = 0; k < active_; ++k) acc += src[k * n_ + n];
  mu_->raw()[n] = acc / (static_cast<double>(dim_) * static_cast<double>(active_));

  auto& c = thread.block().counters();
  const auto modeled = static_cast<double>(modeled_);
  c.global_read_bytes[static_cast<std::size_t>(AccessPattern::Strided)] +=
      modeled * sizeof(double);
  c.global_write_bytes[static_cast<std::size_t>(AccessPattern::Coalesced)] += sizeof(double);
  c.flops += modeled + 1.0;  // the adds plus the final division
}

}  // namespace kpm::core
