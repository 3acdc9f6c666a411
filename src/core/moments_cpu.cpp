#include "core/moments_cpu.hpp"

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/group_recursion.hpp"
#include "cpumodel/roofline.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {

namespace {

using detail::DotPolicy;

/// Total modeled workload of `total` instances in groups of `block`.
cpumodel::CpuWorkload engine_workload(const linalg::MatrixOperator& op, std::size_t n,
                                      std::size_t total, std::size_t block, DotPolicy dots) {
  return detail::ragged_group_workload(
      total, block, [&](std::size_t b) { return detail::group_workload(op, n, b, dots); });
}

/// Body of the serial reference and paired engines.  The workspace is
/// scoped: the recursion vectors are freed before the result is built, so
/// its buffer reuses their memory instead of extending the heap.
MomentResult serial_compute(const std::string& name, const cpumodel::CpuSpec& spec,
                            const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                            std::size_t sample_instances, DotPolicy dots) {
  params.validate();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const std::size_t block = params.block_r;

  obs::ScopedSpan span("moments." + name);
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  std::vector<double> mu_sum(n, 0.0);
  // Per-instance modeled cost on the *serial* model for every engine
  // variant, so the histogram is bit-identical between the serial and
  // parallel paths.
  const std::uint64_t instance_ticks =
      detail::instance_model_ticks(spec, h_tilde, n, block, dots);
  {
    detail::FlatVectors<double> ws;
    detail::FlatSpace<double> space(h_tilde, detail::random_start(params), ws, dots);
    detail::run_instances(std::span(&space, 1), nullptr, executed, block, instance_ticks,
                          mu_sum);
  }
  MomentResult result =
      detail::averaged_result(name, mu_sum, h_tilde.dim(), executed, total, wall.seconds());

  // Cost model: see detail::group_workload() — per group the fill and the
  // leading dots, then N - 1 fused steps of SpMV + combine + dot (single;
  // charging the combine-free k = 1 step uniformly overstates work by 2D
  // flops out of O(N * nnz)) or ceil(N/2) - 1 steps with two dots (paired),
  // the matrix streaming once per step for the whole group.
  const cpumodel::CpuStats stats =
      cpumodel::model_cpu_time(spec, engine_workload(h_tilde, n, total, block, dots));
  result.model_seconds = stats.seconds;
  result.compute_seconds = stats.compute_seconds;
  return result;
}

}  // namespace

// Definition of the per-step workload model declared in moments_cpu.hpp.
// The SpMV streams the matrix plus the x read and the r_next write; the
// Chebyshev combine rides the same pass and only adds the r_prev2 read (its
// hx read/write disappears into a register), and each fused dot adds one
// extra operand stream (r_next never leaves the register).  Flops are
// unchanged by fusion.  Reused by all three engines' cost accounting, and
// mirrored by the fused kernels' obs meters.
cpumodel::CpuWorkload fused_step_workload(const linalg::MatrixOperator& op, std::size_t dots,
                                          std::size_t block) {
  const auto d = static_cast<double>(op.dim());
  const auto b = static_cast<double>(block);
  cpumodel::CpuWorkload w;
  // SpMV: 2 flops per stored entry PER MEMBER; the matrix streams once for
  // the whole block (the 1/B amortization), x read + y write per member.
  w.flops = b * static_cast<double>(op.spmv_flops());
  w.bytes_streamed = static_cast<double>(op.spmv_matrix_bytes()) + 2.0 * b * d * sizeof(double);
  // Fused combine next = 2 hx - prev2: 2 flops/element, one extra read.
  w.flops += 2.0 * b * d;
  w.bytes_streamed += b * d * sizeof(double);
  // Fused dot products: 2 flops/element, one extra operand stream each.
  w.flops += 2.0 * b * d * static_cast<double>(dots);
  w.bytes_streamed += b * d * sizeof(double) * static_cast<double>(dots);
  // Working set per pass: the matrix plus the four live block vectors.
  w.working_set_bytes =
      static_cast<double>(op.spmv_matrix_bytes()) + 4.0 * b * d * sizeof(double);
  return w;
}

double modeled_reference_seconds(const linalg::MatrixOperator& op, std::size_t num_moments,
                                 std::size_t instances, const cpumodel::CpuSpec& spec) {
  cpumodel::CpuWorkload w = detail::group_workload(op, num_moments, 1, DotPolicy::Single);
  w.scale(static_cast<double>(instances));
  return cpumodel::model_cpu_time(spec, w).seconds;
}

void fill_random_vector(const MomentParams& params, std::uint64_t stream, std::span<double> r0) {
  for (std::size_t i = 0; i < r0.size(); ++i)
    r0[i] = rng::draw_random_element(params.vector_kind, params.seed, stream, i);
  obs::add(obs::Counter::RngElements, static_cast<double>(r0.size()));
}

void fill_random_vector_block(const MomentParams& params, std::uint64_t first_stream,
                              std::size_t block, std::span<double> r0_block) {
  KPM_REQUIRE(block >= 1 && r0_block.size() % block == 0,
              "fill_random_vector_block: bad block shape");
  const std::size_t d = r0_block.size() / block;
  for (std::size_t j = 0; j < block; ++j)
    for (std::size_t i = 0; i < d; ++i)
      r0_block[i * block + j] =
          rng::draw_random_element(params.vector_kind, params.seed, first_stream + j, i);
  obs::add(obs::Counter::RngElements, static_cast<double>(r0_block.size()));
}

std::size_t resolve_sample_count(std::size_t sample, std::size_t total) {
  KPM_REQUIRE(total > 0, "moment computation needs at least one instance");
  if (sample == 0 || sample > total) return total;
  return sample;
}

CpuMomentEngine::CpuMomentEngine(cpumodel::CpuSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

MomentResult CpuMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
                                      const MomentParams& params, std::size_t sample_instances) {
  return serial_compute(name(), spec_, h_tilde, params, sample_instances, DotPolicy::Single);
}

CpuParallelMomentEngine::CpuParallelMomentEngine(int threads, cpumodel::CpuSpec spec)
    : threads_(threads), spec_(std::move(spec)) {
  spec_.validate();
  KPM_REQUIRE(threads >= 1, "CpuParallelMomentEngine: need at least one thread");
}

CpuParallelMomentEngine::~CpuParallelMomentEngine() = default;

MomentResult CpuParallelMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
                                              const MomentParams& params,
                                              std::size_t sample_instances) {
  params.validate();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const std::size_t block = params.block_r;

  // Stable span name (no thread-count suffix, unlike name()): span names
  // participate in deterministic report fingerprints, which must be
  // identical at any thread count.
  obs::ScopedSpan span("moments.cpu-parallel");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  std::vector<double> mu_sum(n, 0.0);
  // Same serial per-instance modeled cost as CpuMomentEngine (never the
  // parallel model), so histograms match the reference engine bit-for-bit
  // at every thread count.
  const std::uint64_t instance_ticks =
      detail::instance_model_ticks(spec_, h_tilde, n, block, DotPolicy::Single);

  // Parallelism is distributed over GROUPS of `block` instances (formed
  // before distribution, so every computed value is independent of the
  // thread count); lane workspaces persist across calls.
  workspaces_.resize(static_cast<std::size_t>(threads_));
  std::vector<detail::FlatSpace<double>> lanes;
  lanes.reserve(workspaces_.size());
  for (auto& ws : workspaces_) lanes.emplace_back(h_tilde, detail::random_start(params), ws);
  const int threads_used = detail::run_instances(std::span(lanes), &pool_, executed, block,
                                                 instance_ticks, mu_sum);

  MomentResult result =
      detail::averaged_result(name(), mu_sum, h_tilde.dim(), executed, total, wall.seconds());
  // Report what actually executed: the inline path ran on one thread no
  // matter how many were configured.
  result.threads_used = threads_used;

  const cpumodel::CpuStats stats = cpumodel::model_cpu_time_parallel(
      spec_, engine_workload(h_tilde, n, total, block, DotPolicy::Single), threads_);
  result.model_seconds = stats.seconds;
  result.compute_seconds = stats.compute_seconds;
  return result;
}

CpuPairedMomentEngine::CpuPairedMomentEngine(cpumodel::CpuSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

MomentResult CpuPairedMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
                                            const MomentParams& params,
                                            std::size_t sample_instances) {
  return serial_compute(name(), spec_, h_tilde, params, sample_instances, DotPolicy::Paired);
}

}  // namespace kpm::core
