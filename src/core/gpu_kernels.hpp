// The KPM kernels of the paper, written against the gpusim substrate, and
// the one recursion launch every device driver places.
//
// Two parallelization mappings are provided (Section III of the paper
// describes both views and is internally inconsistent about which it uses;
// see DESIGN.md):
//
//  * InstancePerBlock (default, matches Fig. 4(a)'s "four r vectors per
//    block" and the shared-memory staging of Fig. 8's discussion): one
//    thread block per stochastic-trace instance; the block's threads split
//    the vector elements, dot products use a shared-memory tree reduction,
//    x and the matrix stream through shared memory.
//
//  * InstancePerThread (matches the text's "maximum parallelism = SR"): one
//    thread per instance executing its entire recursion serially; matrix
//    reads are warp-broadcast (all lanes traverse H~ in lockstep), vector
//    accesses are uncoalesced (instance-major layout).
//
// Both mappings, the paired-moment variant and the complex (Hermitian)
// block kernel run the same functional recursion, `detail::instance_recursion`,
// bit-identical to the CPU engines; only the metered access patterns differ.
// `launch_recursion` maps a GpuEngineConfig to grid, block, shared staging
// and kernel, so the plain, chunked, multi-GPU and LDOS drivers differ only
// in which instances they launch where.  Work vector layout is
// instance-major: vector v of instance k occupies [k*D, (k+1)*D).  Moment
// buffer: mu~ of instance k at [k*N, (k+1)*N).
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/device_matrix.hpp"
#include "core/group_recursion.hpp"
#include "core/params.hpp"
#include "gpusim/device.hpp"

namespace kpm::core {

struct GpuEngineConfig;

/// Which parallelization mapping a GPU engine uses.
enum class GpuMapping {
  InstancePerBlock,   ///< block = instance, threads = vector elements
  InstancePerThread,  ///< thread = instance (full recursion per thread)
};

/// Returns "instance-per-block" or "instance-per-thread".
const char* to_string(GpuMapping m) noexcept;

/// Fills the r0 buffer with each instance's random vector (paper step (1)).
/// Launch with one block per instance (threads split elements).
/// `stream_offset` maps local instance ids to global RNG streams so a
/// distributed (multi-GPU) run draws the same vectors as a single device.
class FillRandomKernel final : public gpusim::Kernel {
 public:
  FillRandomKernel(const MomentParams& params, std::size_t dim, std::size_t active_instances,
                   gpusim::DeviceBuffer<double>& r0, std::size_t stream_offset = 0)
      : params_(&params),
        dim_(dim),
        active_(active_instances),
        r0_(&r0),
        stream_offset_(stream_offset) {}

  [[nodiscard]] const char* name() const override { return "kpm_fill_random"; }
  void block_phase(int phase, gpusim::BlockContext& block) override;

 private:
  const MomentParams* params_;
  std::size_t dim_;
  std::size_t active_;
  gpusim::DeviceBuffer<double>* r0_;
  std::size_t stream_offset_;
};

/// Full Chebyshev recursion + per-moment dot products (paper steps (2),
/// (2.1), (2.2)), one instance per *block*.  `T` is the vector element:
/// double, or std::complex<double> for the Hermitian engine
/// ("kpm_recursion_hermitian", mu~_n = Re<r0|r_n>).  With DotPolicy::Paired
/// ("kpm_recursion_block_paired") it extracts mu~_{2k} and mu~_{2k+1} from
/// <r_k|r_k> and <r_{k+1}|r_k> (Weisse et al. §II.D), halving the SpMV count
/// for the same N; functionally bit-identical to CpuPairedMomentEngine.
template <typename T>
class BasicRecursionBlockKernel final : public gpusim::Kernel {
 public:
  BasicRecursionBlockKernel(const MomentParams& params, BasicDeviceMatrixRef<T> h,
                            std::size_t active_instances, std::size_t l2_cache_bytes,
                            gpusim::DeviceBuffer<T>& r0, gpusim::DeviceBuffer<T>& work_a,
                            gpusim::DeviceBuffer<T>& work_b,
                            gpusim::DeviceBuffer<double>& mu_tilde,
                            detail::DotPolicy dots = detail::DotPolicy::Single)
      : params_(&params),
        h_(h),
        active_(active_instances),
        l2_bytes_(l2_cache_bytes),
        r0_(&r0),
        work_a_(&work_a),
        work_b_(&work_b),
        mu_tilde_(&mu_tilde),
        dots_(dots) {}

  [[nodiscard]] const char* name() const override {
    if constexpr (!std::is_same_v<T, double>) return "kpm_recursion_hermitian";
    return dots_ == detail::DotPolicy::Paired ? "kpm_recursion_block_paired"
                                              : "kpm_recursion_block";
  }
  void block_phase(int phase, gpusim::BlockContext& block) override;

 private:
  void meter_instance(gpusim::BlockContext& block) const;

  const MomentParams* params_;
  BasicDeviceMatrixRef<T> h_;
  std::size_t active_;
  std::size_t l2_bytes_;
  gpusim::DeviceBuffer<T>* r0_;
  gpusim::DeviceBuffer<T>* work_a_;
  gpusim::DeviceBuffer<T>* work_b_;
  gpusim::DeviceBuffer<double>* mu_tilde_;
  detail::DotPolicy dots_;
};

using RecursionBlockKernel = BasicRecursionBlockKernel<double>;

/// Same computation, one instance per *thread*.
class RecursionThreadKernel final : public gpusim::Kernel {
 public:
  RecursionThreadKernel(const MomentParams& params, DeviceMatrixRef h,
                        std::size_t active_instances, std::size_t l2_cache_bytes,
                        gpusim::DeviceBuffer<double>& r0, gpusim::DeviceBuffer<double>& work_a,
                        gpusim::DeviceBuffer<double>& work_b,
                        gpusim::DeviceBuffer<double>& mu_tilde)
      : params_(&params),
        h_(h),
        active_(active_instances),
        l2_bytes_(l2_cache_bytes),
        r0_(&r0),
        work_a_(&work_a),
        work_b_(&work_b),
        mu_tilde_(&mu_tilde) {}

  [[nodiscard]] const char* name() const override { return "kpm_recursion_thread"; }
  void block_phase(int phase, gpusim::BlockContext& block) override;

 private:
  const MomentParams* params_;
  DeviceMatrixRef h_;
  std::size_t active_;
  std::size_t l2_bytes_;
  gpusim::DeviceBuffer<double>* r0_;
  gpusim::DeviceBuffer<double>* work_a_;
  gpusim::DeviceBuffer<double>* work_b_;
  gpusim::DeviceBuffer<double>* mu_tilde_;
};

/// Averages mu~ over instances (paper step (3) / Fig. 4(b)):
/// mu[n] = sum_k mu~[k][n] / (D * K).  Launch with one thread per moment.
/// The conductivity engine runs it over the N^2 entries of its moment
/// matrices under the name "kpm_conductivity_average".
///
/// Unlike the recursion kernels this one mixes instance-proportional work
/// (the sum) with fixed work (one store per moment), so it meters its own
/// cost against `modeled_instances` and must be launched with
/// cost_scale = 1.
class AverageMomentsKernel final : public gpusim::Kernel {
 public:
  AverageMomentsKernel(std::size_t num_moments, std::size_t dim, std::size_t active_instances,
                       std::size_t modeled_instances,
                       const gpusim::DeviceBuffer<double>& mu_tilde,
                       gpusim::DeviceBuffer<double>& mu,
                       const char* name = "kpm_average_moments")
      : n_(num_moments),
        dim_(dim),
        active_(active_instances),
        modeled_(modeled_instances),
        mu_tilde_(&mu_tilde),
        mu_(&mu),
        name_(name) {}

  [[nodiscard]] const char* name() const override { return name_; }
  void thread_phase(int phase, gpusim::ThreadContext& thread) override;

 private:
  std::size_t n_;
  std::size_t dim_;
  std::size_t active_;
  std::size_t modeled_;
  const gpusim::DeviceBuffer<double>* mu_tilde_;
  gpusim::DeviceBuffer<double>* mu_;
  const char* name_;
};

/// The device buffers of one recursion launch (layout: see file comment).
struct RecursionBuffers {
  gpusim::DeviceBuffer<double>& r0;
  gpusim::DeviceBuffer<double>& work_a;
  gpusim::DeviceBuffer<double>& work_b;
  gpusim::DeviceBuffer<double>& mu_tilde;
};

/// One block of `config.block_size` threads per instance.  A nonzero
/// `staged_elem_bytes` adds the recursion's shared staging region (a tile
/// of x plus a tile of the matrix stream, for vector elements of that
/// size); the fill kernels pass 0.
[[nodiscard]] gpusim::ExecConfig instance_blocks(const GpuEngineConfig& config,
                                                 std::size_t instances,
                                                 std::size_t staged_elem_bytes = 0);

/// The one recursion launch of every real-valued device placement: grid
/// and kernel follow `config.mapping` (a block or a thread per instance)
/// and `config.paired_moments`.  `instances` sizes the grid; the first
/// `active` of them execute, and `cost_scale` extrapolates their cost to
/// all of them.
void launch_recursion(gpusim::Device& device, const GpuEngineConfig& config,
                      const MomentParams& params, const DeviceMatrixRef& h,
                      std::size_t instances, std::size_t active, const RecursionBuffers& buffers,
                      double cost_scale = 1.0, gpusim::StreamId stream = 0);

namespace detail {

/// The device recursion, written once: one instance's full recursion,
/// writing mu~[n] for n in [0, N).  `r0` is the instance's start vector
/// (read-only); `a` and `b` are its two work vectors.  Dots are Re<x|y>:
/// linalg::dot's 4-lane order for double (bit-identical to the CPU
/// engines), a left fold for complex.  Pure math on raw spans; metering is
/// the caller's responsibility.
template <typename T>
void instance_recursion(const BasicDeviceMatrixRef<T>& h, std::span<const T> r0,
                        std::span<T> a, std::span<T> b, std::span<double> mu_tilde,
                        std::size_t num_moments, DotPolicy dots);

}  // namespace detail
}  // namespace kpm::core
