#include "core/group_recursion.hpp"

#include <utility>

namespace kpm::core::detail {

MomentResult averaged_result(std::string engine, std::span<const double> mu_sum,
                             std::size_t dim, std::size_t executed, std::size_t total,
                             double wall_seconds) {
  MomentResult result;
  result.engine = std::move(engine);
  result.instances_executed = executed;
  result.instances_total = total;
  result.wall_seconds = wall_seconds;
  result.mu.resize(mu_sum.size());
  const double denom = static_cast<double>(dim) * static_cast<double>(executed);
  for (std::size_t k = 0; k < mu_sum.size(); ++k) result.mu[k] = mu_sum[k] / denom;
  return result;
}

cpumodel::CpuWorkload group_workload(const linalg::MatrixOperator& op, std::size_t n,
                                     std::size_t b, DotPolicy dots) {
  const auto dd = static_cast<double>(op.dim());
  const auto bb = static_cast<double>(b);
  const std::size_t step_dots = dots == DotPolicy::Single ? 1 : 2;
  const auto p = static_cast<double>(step_dots);
  const std::size_t steps = dots == DotPolicy::Single ? n - 1 : (n + 1) / 2 - 1;
  const cpumodel::CpuWorkload per_step = fused_step_workload(op, step_dots, b);
  // Per member: the fill (10 D flops) plus the p leading dots (mu~_0, and
  // mu~_1 for the paired model), streaming the fill and the dot operands.
  cpumodel::CpuWorkload w;
  w.flops = (10.0 * dd + 2.0 * p * dd) * bb;
  w.bytes_streamed = (1.0 + p) * dd * sizeof(double) * bb;
  w.working_set_bytes = per_step.working_set_bytes;
  for (std::size_t k = 0; k < steps; ++k) w += per_step;
  return w;
}

cpumodel::CpuWorkload ragged_group_workload(
    std::size_t total, std::size_t block,
    const std::function<cpumodel::CpuWorkload(std::size_t)>& group_work) {
  const std::size_t full = total / block;
  const std::size_t rem = total % block;
  cpumodel::CpuWorkload w = group_work(block);
  const double ws_bytes = w.working_set_bytes;
  w.scale(static_cast<double>(full));
  w.working_set_bytes = full > 0 ? ws_bytes : 0.0;
  if (rem > 0) w += group_work(rem);
  return w;
}

std::uint64_t instance_model_ticks(const cpumodel::CpuSpec& spec,
                                   const linalg::MatrixOperator& op, std::size_t n,
                                   std::size_t block, DotPolicy dots) {
  const double group_seconds =
      cpumodel::model_cpu_time(spec, group_workload(op, n, block, dots)).seconds;
  return obs::seconds_to_ns_ticks(group_seconds / static_cast<double>(block));
}

}  // namespace kpm::core::detail
