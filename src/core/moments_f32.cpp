#include "core/moments_f32.hpp"

#include <span>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/group_recursion.hpp"
#include "cpumodel/roofline.hpp"
#include "core/moments_cpu.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace kpm::core {

CpuMomentEngineF32::CpuMomentEngineF32(cpumodel::CpuSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

MomentResult CpuMomentEngineF32::compute(const linalg::MatrixOperator& h_tilde,
                                         const MomentParams& params,
                                         std::size_t sample_instances) {
  params.validate();
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);

  obs::ScopedSpan span("moments." + name());
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;

  // Groups of `block` instances run the shared recursion over binary32
  // vectors: the random vectors are narrowed once, the matrix entry by
  // entry in every multiply, and every meter counts 4-byte elements.  The
  // cross-instance reduction stays in double.
  const std::vector<double> mu_sum = detail::summed_flat_rows<float>(
      h_tilde, detail::random_start<float>(params), executed, params.block_r, n);
  MomentResult result =
      detail::averaged_result(name(), mu_sum, d, executed, total, wall.seconds());

  // Cost model: same operation counts as the reference engine but with
  // 4-byte elements (half the traffic, half the working set) and double
  // the SIMD flop rate.  Blocked runs stream the matrix once per group
  // step instead of once per member step.
  const auto dd = static_cast<double>(d);
  const double matrix_bytes = static_cast<double>(h_tilde.spmv_matrix_bytes()) / 2.0;
  const std::size_t block = params.block_r;
  const auto group_work = [&](std::size_t b) {
    const auto bb = static_cast<double>(b);
    cpumodel::CpuWorkload gw;
    gw.flops = (10.0 * dd + 2.0 * dd) * bb;
    gw.bytes_streamed = 2.0 * bb * dd * sizeof(float);
    for (std::size_t k = 1; k < n; ++k) {
      gw.flops += bb * (static_cast<double>(h_tilde.spmv_flops()) + 4.0 * dd);
      gw.bytes_streamed += matrix_bytes + 7.0 * bb * dd * sizeof(float);
    }
    gw.working_set_bytes = matrix_bytes + 4.0 * bb * dd * sizeof(float);
    return gw;
  };
  const cpumodel::CpuWorkload w = detail::ragged_group_workload(total, block, group_work);

  cpumodel::CpuSpec sp = spec_;
  sp.flops_per_cycle *= 2.0;  // twice the SIMD lanes in binary32
  const cpumodel::CpuStats stats = cpumodel::model_cpu_time(sp, w);
  result.model_seconds = stats.seconds;
  result.compute_seconds = stats.compute_seconds;
  return result;
}

}  // namespace kpm::core
