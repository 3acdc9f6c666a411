#include "core/moments_cpu.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/group_recursion.hpp"
#include "cpumodel/roofline.hpp"
#include "obs/parallel.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {

namespace detail {

void group_recursion(const linalg::MatrixOperator& h_tilde, std::size_t first, std::size_t b,
                     std::size_t n, DotPolicy dots, const GroupStart& start,
                     RecursionWorkspace& ws, std::span<double> rows) {
  const std::size_t d = h_tilde.dim();
  const std::size_t len = d * b;
  const auto sub = [len](std::vector<double>& v) { return std::span<double>(v.data(), len); };
  const std::span<double> dv(ws.dots.data(), b);
  obs::add(obs::Counter::InstancesExecuted, static_cast<double>(b));
  start(first, b, sub(ws.r0));

  linalg::block_dot(sub(ws.r0), sub(ws.r0), b, dv);
  for (std::size_t j = 0; j < b; ++j) {
    rows[j * n] = dv[j];
    obs::meter_dot(d);
  }
  if (n > 1) {
    linalg::spmmv_multiply(h_tilde, b, sub(ws.r0), sub(ws.r_prev));  // r_1
    linalg::block_dot(sub(ws.r0), sub(ws.r_prev), b, dv);
    for (std::size_t j = 0; j < b; ++j) {
      rows[j * n + 1] = dv[j];
      obs::meter_dot(d);
    }
  }
  std::copy(ws.r0.begin(), ws.r0.begin() + static_cast<std::ptrdiff_t>(len),
            ws.r_prev2.begin());  // r_0
  obs::meter_stream_bytes(2.0 * static_cast<double>(len) * sizeof(double));

  if (dots == DotPolicy::Single) {
    for (std::size_t k = 2; k < n; ++k) {
      linalg::spmmv_combine_dot(h_tilde, b, sub(ws.r_prev), sub(ws.r_prev2), sub(ws.r0),
                                sub(ws.r_next), dv);
      for (std::size_t j = 0; j < b; ++j) rows[j * n + k] = dv[j];
      std::swap(ws.r_prev2, ws.r_prev);
      std::swap(ws.r_prev, ws.r_next);
    }
    return;
  }
  // Paired: with r_prev = r_k and r_prev2 = r_{k-1}, one fused pass
  // advances r_{k+1} = 2 H~ r_k - r_{k-1} and yields both dot products:
  //   mu~_{2k}   = 2 <r_k | r_k>     - mu~_0
  //   mu~_{2k+1} = 2 <r_{k+1} | r_k> - mu~_1.
  // Moments 0..N-1 need Chebyshev vectors up to index ceil(N/2).
  const std::span<linalg::PairedDots> pv(ws.pairs.data(), b);
  const std::size_t half = (n + 1) / 2;
  for (std::size_t k = 1; k < half; ++k) {
    linalg::spmmv_combine_dot2(h_tilde, b, sub(ws.r_prev), sub(ws.r_prev2), sub(ws.r_next), pv);
    const std::size_t even = 2 * k;
    const std::size_t odd = 2 * k + 1;
    for (std::size_t j = 0; j < b; ++j) {
      double* row = rows.data() + j * n;
      if (even < n) row[even] = 2.0 * pv[j].prev_prev - row[0];
      if (odd < n) row[odd] = 2.0 * pv[j].next_prev - row[1];
    }
    std::swap(ws.r_prev2, ws.r_prev);
    std::swap(ws.r_prev, ws.r_next);
  }
}

void run_groups(const linalg::MatrixOperator& h_tilde, std::size_t count, std::size_t block,
                std::size_t n, DotPolicy dots, const GroupStart& start, RecursionWorkspace& ws,
                const MemberRow& fold) {
  ws.fit(h_tilde.dim(), block);
  std::vector<double> rows(block * n);
  for (std::size_t first = 0; first < count; first += block) {
    const std::size_t b = std::min(block, count - first);
    group_recursion(h_tilde, first, b, n, dots, start, ws, rows);
    for (std::size_t j = 0; j < b; ++j)
      fold(std::span<const double>(rows.data() + j * n, n));
  }
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

GroupStart random_start(const MomentParams& params) {
  return [&params](std::size_t first, std::size_t b, std::span<double> r0) {
    fill_random_vector_block(params, first, b, r0);
  };
}

}  // namespace detail

namespace {

using detail::DotPolicy;
using detail::RecursionWorkspace;

/// Total modeled workload of `total` instances in groups of `block`.
cpumodel::CpuWorkload engine_workload(const linalg::MatrixOperator& op, std::size_t n,
                                      std::size_t total, std::size_t block, DotPolicy dots) {
  return detail::ragged_group_workload(
      total, block, [&](std::size_t b) { return detail::group_workload(op, n, b, dots); });
}

/// Serial engine body shared by the reference and paired engines and the
/// parallel engine's single-lane path: groups in instance order, member
/// rows summed into `mu_sum` in instance order.
void run_serial(const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                std::size_t executed, DotPolicy dots, std::uint64_t instance_ticks,
                RecursionWorkspace& ws, std::vector<double>& mu_sum) {
  detail::run_groups(h_tilde, executed, params.block_r, mu_sum.size(), dots,
                     detail::random_start(params), ws, [&](std::span<const double> row) {
                       for (std::size_t k = 0; k < row.size(); ++k) mu_sum[k] += row[k];
                       obs::record(obs::Histo::InstanceModelNs, instance_ticks);
                     });
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
  params.validate();
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const std::size_t block = params.block_r;

  obs::ScopedSpan span("moments." + name());
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  std::vector<double> mu_sum(n, 0.0);
  // Per-instance modeled cost on the *serial* model for every engine
  // variant, so the histogram is bit-identical between the serial and
  // parallel paths.
  const std::uint64_t instance_ticks =
      detail::instance_model_ticks(spec_, h_tilde, n, block, DotPolicy::Single);
  {
    // Scoped: the recursion vectors are freed before the result is built,
    // so its buffer reuses their memory instead of extending the heap.
    RecursionWorkspace ws;
    run_serial(h_tilde, params, executed, DotPolicy::Single, instance_ticks, ws, mu_sum);
  }

  MomentResult result;
  result.engine = name();
  result.instances_executed = executed;
  result.instances_total = total;
  result.wall_seconds = wall.seconds();

  // (3) Average: mu_n = sum / (D * instances).  Plain division (not a
  // reciprocal multiply) so the GPU averaging kernel matches bit-for-bit.
  result.mu.resize(n);
  const double denom = static_cast<double>(d) * static_cast<double>(executed);
  for (std::size_t k = 0; k < n; ++k) result.mu[k] = mu_sum[k] / denom;

  // Cost model: see detail::group_workload() — fill + mu~_0 dot + (N - 1)
  // steps of fused SpMV + combine + dot per instance (charging the
  // combine-free k = 1 step uniformly overstates work by 2D flops out of
  // O(N * nnz)), the matrix stream amortized across each group.
  const cpumodel::CpuStats stats = cpumodel::model_cpu_time(
      spec_, engine_workload(h_tilde, n, total, block, DotPolicy::Single));
  result.model_seconds = stats.seconds;
  result.compute_seconds = stats.compute_seconds;
  return result;
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
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const std::size_t block = params.block_r;
  // Parallelism is distributed over GROUPS of `block` instances (groups are
  // formed before distribution, so the grouping — and hence every computed
  // value — is independent of the thread count).
  const std::size_t groups = (executed + block - 1) / block;

  // Stable span name (no thread-count suffix, unlike name()): span names
  // participate in deterministic report fingerprints, which must be
  // identical at any thread count.
  obs::ScopedSpan span("moments.cpu-parallel");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  std::vector<double> mu_sum(n, 0.0);
  const bool serial_path = threads_ == 1 || groups == 1;
  // Same serial per-instance modeled cost as CpuMomentEngine (never the
  // parallel model), so histograms match the reference engine bit-for-bit
  // at every thread count.
  const std::uint64_t instance_ticks =
      detail::instance_model_ticks(spec_, h_tilde, n, block, DotPolicy::Single);

  // Lane workspaces persist across calls; a shape change frees every stale
  // one here, before any lane allocates, so peak memory never holds both.
  workspaces_.resize(static_cast<std::size_t>(threads_));
  for (auto& ws : workspaces_)
    if (!ws.fits(d, block)) ws.release();

  if (serial_path) {
    // No parallelism to exploit: skip the pool and contribution buffer.
    run_serial(h_tilde, params, executed, DotPolicy::Single, instance_ticks, workspaces_[0],
               mu_sum);
  } else {
    if (!pool_ || pool_->size() != static_cast<std::size_t>(threads_))
      pool_ = std::make_unique<common::ThreadPool>(static_cast<std::size_t>(threads_));

    // Each instance writes its own mu~ row; the rows are summed below in
    // instance order, reproducing the serial engine's left-to-right
    // accumulation exactly — results are bit-identical for any thread
    // count (the per-instance RNG streams already make the recursions
    // themselves order-independent).
    // obs::sharded_parallel_for gives every lane a private counter shard and
    // reduces them in lane order afterwards, so counter totals (exact
    // integers) are bit-identical for any thread count — the same property
    // the instance-ordered moment summation below gives the mu values.
    std::vector<double> contributions(executed * n, 0.0);
    const detail::GroupStart start = detail::random_start(params);
    obs::sharded_parallel_for(
        *pool_, groups, [&](std::size_t lane, std::size_t begin, std::size_t end) {
          RecursionWorkspace& ws = workspaces_[lane];
          ws.fit(d, block);
          const std::span<double> rows(contributions);
          for (std::size_t g = begin; g < end; ++g) {
            const std::size_t first = g * block;
            const std::size_t b = std::min(block, executed - first);
            // Instance-major rows: a group's members occupy consecutive
            // rows, so its output slice is contiguous.
            detail::group_recursion(h_tilde, first, b, n, DotPolicy::Single, start, ws,
                                    rows.subspan(first * n, b * n));
            for (std::size_t j = 0; j < b; ++j)
              obs::record(obs::Histo::InstanceModelNs, instance_ticks);
          }
        });
    for (std::size_t inst = 0; inst < executed; ++inst) {
      const double* row = contributions.data() + inst * n;
      for (std::size_t k = 0; k < n; ++k) mu_sum[k] += row[k];
    }
  }

  MomentResult result;
  result.engine = name();
  result.instances_executed = executed;
  result.instances_total = total;
  // Report what actually executed: the serial fallback ran on one thread no
  // matter how many were configured.
  result.threads_used = serial_path ? 1 : threads_;
  result.wall_seconds = wall.seconds();
  result.mu.resize(n);
  const double denom = static_cast<double>(d) * static_cast<double>(executed);
  for (std::size_t k = 0; k < n; ++k) result.mu[k] = mu_sum[k] / denom;

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
  params.validate();
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const std::size_t block = params.block_r;

  obs::ScopedSpan span("moments." + name());
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  std::vector<double> mu_sum(n, 0.0);
  const std::uint64_t instance_ticks =
      detail::instance_model_ticks(spec_, h_tilde, n, block, DotPolicy::Paired);
  {  // scoped as in CpuMomentEngine::compute
    RecursionWorkspace ws;
    run_serial(h_tilde, params, executed, DotPolicy::Paired, instance_ticks, ws, mu_sum);
  }

  MomentResult result;
  result.engine = name();
  result.instances_executed = executed;
  result.instances_total = total;
  result.wall_seconds = wall.seconds();

  result.mu.resize(n);
  const double denom = static_cast<double>(d) * static_cast<double>(executed);
  for (std::size_t k = 0; k < n; ++k) result.mu[k] = mu_sum[k] / denom;

  // Cost model per group: fill + mu0/mu1 dots + (ceil(N/2) - 1) fused steps
  // of SpMV + combine + 2 dots, the matrix streaming once per step.
  const cpumodel::CpuStats stats = cpumodel::model_cpu_time(
      spec_, engine_workload(h_tilde, n, total, block, DotPolicy::Paired));
  result.model_seconds = stats.seconds;
  result.compute_seconds = stats.compute_seconds;
  return result;
}

}  // namespace kpm::core
