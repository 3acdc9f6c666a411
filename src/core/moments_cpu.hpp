// CPU moment engines.
//
// `CpuMomentEngine` is the faithful serial reference of the paper's Fig. 3
// algorithm: per instance, |r0> = |r>, |r1> = H~|r0>, |r_n> = 2 H~ |r_{n-1}>
// - |r_{n-2}>, mu~_n = <r0|r_n>, averaged over all instances.  It is the
// ground truth every other engine is tested against, and its operation
// counts drive the Core i7-930 roofline model that stands in for the
// paper's measured CPU times.
//
// `CpuPairedMomentEngine` implements the standard KPM optimization (Weisse
// et al. §II.D, the paper's Ref. [10]) of extracting two moments per matrix
// -vector product via
//     mu~_{2n}   = 2 <r_n | r_n>     - mu~_0
//     mu~_{2n+1} = 2 <r_{n+1} | r_n> - mu~_1
// halving the SpMV count for the same N — the ablation the
// `ablation_moment_pairs` bench quantifies.
#pragma once

#include <memory>
#include <vector>

#include "cpumodel/cpu_spec.hpp"
#include "cpumodel/roofline.hpp"
#include "core/moments.hpp"

namespace kpm::common {
class ThreadPool;
}

namespace kpm::core {

namespace detail {
template <typename T>
struct FlatVectors;
}

/// Serial reference engine (one moment per SpMV).
class CpuMomentEngine final : public MomentEngine {
 public:
  explicit CpuMomentEngine(cpumodel::CpuSpec spec = cpumodel::CpuSpec::core_i7_930());

  [[nodiscard]] std::string name() const override { return "cpu-reference"; }

  [[nodiscard]] MomentResult compute(const linalg::MatrixOperator& h_tilde,
                                     const MomentParams& params,
                                     std::size_t sample_instances = 0) override;

 private:
  cpumodel::CpuSpec spec_;
};

/// Paired-moment engine (two moments per SpMV).
class CpuPairedMomentEngine final : public MomentEngine {
 public:
  explicit CpuPairedMomentEngine(cpumodel::CpuSpec spec = cpumodel::CpuSpec::core_i7_930());

  [[nodiscard]] std::string name() const override { return "cpu-paired"; }

  [[nodiscard]] MomentResult compute(const linalg::MatrixOperator& h_tilde,
                                     const MomentParams& params,
                                     std::size_t sample_instances = 0) override;

 private:
  cpumodel::CpuSpec spec_;
};

/// Multithreaded CPU engine — the paper's §V "shared memory paradigm"
/// future work, executed for real.  The three-term recursion itself is
/// sequential (the fine-grain parallelization problem the paper
/// describes), so this engine statically partitions the S*R independent
/// instances across a kpm::common::ThreadPool.  Each instance writes its
/// mu~ contributions to a private row which the calling thread then sums
/// in instance order, so the result is BIT-IDENTICAL to the serial
/// reference for any thread count (see docs/performance.md).
/// `wall_seconds` measures the actual multithreaded run; the roofline
/// model additionally scales compute with cores and saturates shared
/// bandwidth, exposing why the 2011 answer was "buy a GPU" rather than
/// "use four cores" for the DRAM-bound sizes.
class CpuParallelMomentEngine final : public MomentEngine {
 public:
  explicit CpuParallelMomentEngine(int threads,
                                   cpumodel::CpuSpec spec = cpumodel::CpuSpec::core_i7_930());
  ~CpuParallelMomentEngine() override;

  [[nodiscard]] std::string name() const override {
    return "cpu-parallel-x" + std::to_string(threads_);
  }

  /// Configured worker count (the pool spawns threads - 1 OS threads; the
  /// caller participates as the remaining lane).
  [[nodiscard]] int threads() const noexcept { return threads_; }

  [[nodiscard]] MomentResult compute(const linalg::MatrixOperator& h_tilde,
                                     const MomentParams& params,
                                     std::size_t sample_instances = 0) override;

 private:
  int threads_;
  cpumodel::CpuSpec spec_;
  std::unique_ptr<common::ThreadPool> pool_;  ///< lazily created, reused across computes
  /// One recursion workspace per pool lane (4 * min(block, instances) * dim
  /// doubles each), reused across computes and reallocated only when its
  /// shape changes; held until the engine is destroyed.
  std::vector<detail::FlatVectors<double>> workspaces_;
};

/// Shared helper: fills `r0` with the instance's random vector elements
/// xi_{stream, i} (counter-based; identical across engines and platforms).
void fill_random_vector(const MomentParams& params, std::uint64_t stream, std::span<double> r0);

/// Blocked variant: fills the interleaved block `r0_block` (size dim *
/// block) so that member j holds EXACTLY the vector fill_random_vector
/// produces for stream `first_stream + j` — element i of member j at
/// r0_block[i * block + j].  Blocked engines therefore consume the same
/// per-instance random vectors as the serial reference.
void fill_random_vector_block(const MomentParams& params, std::uint64_t first_stream,
                              std::size_t block, std::span<double> r0_block);

/// Resolves the sampling request: returns min(sample == 0 ? total : sample,
/// total) and requires total > 0.
[[nodiscard]] std::size_t resolve_sample_count(std::size_t sample, std::size_t total);

/// Roofline workload of ONE fused recursion step (SpMV + Chebyshev combine
/// + `dots` fused dot products) — the 4D-doubles/step vector-traffic model
/// the engines charge per step.  The fused kernels record exactly this
/// flop/byte model into the obs counters, so measured `fused_bytes` can be
/// cross-checked against `fused_calls * fused_step_workload(...).bytes_streamed`
/// (see tests/test_golden_metrics.cpp).
[[nodiscard]] cpumodel::CpuWorkload fused_step_workload(const linalg::MatrixOperator& op,
                                                        std::size_t dots,
                                                        std::size_t block = 1);

/// Modeled *serial* reference-engine seconds for `instances` instances of
/// `num_moments` moments on `op` — the same roofline model CpuMomentEngine
/// charges.  Deliberately independent of any thread count: the serving
/// layer uses this as the simulated service time so scheduling decisions
/// (and the replay fingerprint) are identical at any worker count.
[[nodiscard]] double modeled_reference_seconds(
    const linalg::MatrixOperator& op, std::size_t num_moments, std::size_t instances,
    const cpumodel::CpuSpec& spec = cpumodel::CpuSpec::core_i7_930());

}  // namespace kpm::core
