#include "core/moments_cpu.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "cpumodel/roofline.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/parallel.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {

namespace detail {

/// Reusable vectors of one instance group's recursion: `block` interleaved
/// members of dimension `dim` (block 1 is the unblocked recursion; ragged
/// final groups use length dim*b prefixes).  Every vector is fully written
/// before it is read, so a reused workspace needs no clearing.
struct RecursionWorkspace {
  std::size_t dim = 0, block = 0;
  std::vector<double> r0, r_prev2, r_prev, r_next, dots;

  RecursionWorkspace() = default;
  RecursionWorkspace(std::size_t d, std::size_t b) { fit(d, b); }

  [[nodiscard]] bool fits(std::size_t d, std::size_t b) const { return dim == d && block == b; }

  /// Frees every vector.
  void release() { *this = RecursionWorkspace(); }

  /// Reshapes to (d, b), freeing the old vectors before allocating the new
  /// ones; a no-op when the shape already matches.
  void fit(std::size_t d, std::size_t b) {
    if (fits(d, b)) return;
    release();
    for (auto* v : {&r0, &r_prev2, &r_prev, &r_next}) v->resize(d * b);
    dots.resize(b);
    dim = d;  // shape recorded last: a failed allocation leaves no false match
    block = b;
  }
};

}  // namespace detail

namespace {

using detail::RecursionWorkspace;

/// Runs instance `inst`'s fused recursion (steps (1), (2), (2.1), (2.2) of
/// the paper's Fig. 3), adding its mu~ contributions into `mu_acc`.  The
/// per-instance RNG stream makes the result independent of which thread
/// executes it.
void accumulate_instance(const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                         std::size_t inst, RecursionWorkspace& ws, std::span<double> mu_acc) {
  const std::size_t n = mu_acc.size();
  const std::size_t d = ws.r0.size();
  obs::add(obs::Counter::InstancesExecuted, 1.0);
  fill_random_vector(params, inst, ws.r0);

  mu_acc[0] += linalg::dot(ws.r0, ws.r0);
  obs::meter_dot(d);
  h_tilde.multiply(ws.r0, ws.r_prev);
  obs::meter_spmv(h_tilde.spmv_flops(), h_tilde.spmv_matrix_bytes(), d);
  if (n > 1) {
    mu_acc[1] += linalg::dot(ws.r0, ws.r_prev);
    obs::meter_dot(d);
  }
  linalg::copy(ws.r0, ws.r_prev2);
  obs::meter_stream_bytes(2.0 * static_cast<double>(d) * sizeof(double));

  for (std::size_t k = 2; k < n; ++k) {
    mu_acc[k] += linalg::spmv_combine_dot(h_tilde, ws.r_prev, ws.r_prev2, ws.r0, ws.r_next);
    std::swap(ws.r_prev2, ws.r_prev);
    std::swap(ws.r_prev, ws.r_next);
  }
}

/// Functional core shared by the serial engine and the parallel engine's
/// single-lane path: instances [0, executed) accumulated in order.
/// `instance_ticks` is the precomputed modeled cost of one instance in
/// histogram ticks (ns), recorded per instance into `instance_model_ns`.
void run_reference_recursion(const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                             std::size_t executed, std::uint64_t instance_ticks,
                             RecursionWorkspace& ws, std::vector<double>& mu_sum) {
  for (std::size_t inst = 0; inst < executed; ++inst) {
    accumulate_instance(h_tilde, params, inst, ws, mu_sum);
    obs::record(obs::Histo::InstanceModelNs, instance_ticks);
  }
}

/// Total reference-engine workload for `total` instances of N moments.
cpumodel::CpuWorkload reference_workload(const linalg::MatrixOperator& op, std::size_t n,
                                         std::size_t total) {
  const auto dd = static_cast<double>(op.dim());
  const cpumodel::CpuWorkload per_step = fused_step_workload(op, /*dots=*/1);
  cpumodel::CpuWorkload instance_work;
  instance_work.flops = 10.0 * dd + 2.0 * dd;
  instance_work.bytes_streamed = 2.0 * dd * sizeof(double);
  instance_work.working_set_bytes = per_step.working_set_bytes;
  for (std::size_t k = 1; k < n; ++k) instance_work += per_step;
  instance_work.scale(static_cast<double>(total));
  return instance_work;
}

// ---------------------------------------------------------------------------
// Blocked (SpMMV) paths.  A group of B instances advances through one
// recursion in the interleaved block layout; each member's arithmetic is
// bit-identical to the per-vector path on the same RNG stream, so summing
// member rows in instance order reproduces the serial reference exactly.

/// Runs instances [first, first + b) as one blocked recursion (b <=
/// ws.block), adding member j's mu~ contributions into mu_rows[j*n, j*n+n).
void accumulate_group(const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                      std::size_t first, std::size_t b, RecursionWorkspace& ws, std::size_t n,
                      std::span<double> mu_rows) {
  const std::size_t d = h_tilde.dim();
  const std::size_t len = d * b;
  const auto sub = [len](std::vector<double>& v) { return std::span<double>(v.data(), len); };
  const std::span<double> dots(ws.dots.data(), b);
  obs::add(obs::Counter::InstancesExecuted, static_cast<double>(b));
  fill_random_vector_block(params, first, b, sub(ws.r0));

  linalg::block_dot(sub(ws.r0), sub(ws.r0), b, dots);
  for (std::size_t j = 0; j < b; ++j) {
    mu_rows[j * n] += dots[j];
    obs::meter_dot(d);
  }
  linalg::spmmv_multiply(h_tilde, b, sub(ws.r0), sub(ws.r_prev));
  if (n > 1) {
    linalg::block_dot(sub(ws.r0), sub(ws.r_prev), b, dots);
    for (std::size_t j = 0; j < b; ++j) {
      mu_rows[j * n + 1] += dots[j];
      obs::meter_dot(d);
    }
  }
  std::copy(ws.r0.begin(), ws.r0.begin() + static_cast<std::ptrdiff_t>(len),
            ws.r_prev2.begin());
  obs::meter_stream_bytes(2.0 * static_cast<double>(len) * sizeof(double));

  for (std::size_t k = 2; k < n; ++k) {
    linalg::spmmv_combine_dot(h_tilde, b, sub(ws.r_prev), sub(ws.r_prev2), sub(ws.r0),
                              sub(ws.r_next), dots);
    for (std::size_t j = 0; j < b; ++j) mu_rows[j * n + k] += dots[j];
    std::swap(ws.r_prev2, ws.r_prev);
    std::swap(ws.r_prev, ws.r_next);
  }
}

/// Serial blocked runner: groups of `block` instances in order, member rows
/// summed in instance order right after each group.
void run_blocked_recursion(const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                           std::size_t executed, std::size_t block,
                           std::uint64_t instance_ticks, RecursionWorkspace& ws,
                           std::vector<double>& mu_sum) {
  const std::size_t n = mu_sum.size();
  std::vector<double> rows(block * n);
  const std::size_t groups = (executed + block - 1) / block;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t first = g * block;
    const std::size_t b = std::min(block, executed - first);
    std::fill(rows.begin(), rows.end(), 0.0);
    accumulate_group(h_tilde, params, first, b, ws, n, rows);
    for (std::size_t j = 0; j < b; ++j) {
      const double* row = rows.data() + j * n;
      for (std::size_t k = 0; k < n; ++k) mu_sum[k] += row[k];
      obs::record(obs::Histo::InstanceModelNs, instance_ticks);
    }
  }
}

/// Reference workload of ONE blocked group of `b` members: same uniform
/// (N - 1)-step charging as reference_workload, with the matrix traffic of
/// every step amortized across the block.
cpumodel::CpuWorkload blocked_group_workload(const linalg::MatrixOperator& op, std::size_t n,
                                             std::size_t b) {
  const auto dd = static_cast<double>(op.dim());
  const auto bb = static_cast<double>(b);
  const cpumodel::CpuWorkload per_step = fused_step_workload(op, /*dots=*/1, b);
  cpumodel::CpuWorkload w;
  w.flops = (10.0 * dd + 2.0 * dd) * bb;
  w.bytes_streamed = 2.0 * dd * sizeof(double) * bb;
  w.working_set_bytes = per_step.working_set_bytes;
  for (std::size_t k = 1; k < n; ++k) w += per_step;
  return w;
}

/// Total blocked reference workload: full groups of `block` plus one ragged
/// group for the remainder.
cpumodel::CpuWorkload blocked_reference_workload(const linalg::MatrixOperator& op,
                                                 std::size_t n, std::size_t total,
                                                 std::size_t block) {
  const std::size_t full = total / block;
  const std::size_t rem = total % block;
  cpumodel::CpuWorkload w = blocked_group_workload(op, n, block);
  const double ws_bytes = w.working_set_bytes;
  w.scale(static_cast<double>(full));
  w.working_set_bytes = full > 0 ? ws_bytes : 0.0;
  if (rem > 0) w += blocked_group_workload(op, n, rem);
  return w;
}

/// Per-instance modeled ticks on the blocked serial model: one full group's
/// modeled time split evenly across its members.
std::uint64_t blocked_instance_ticks(const cpumodel::CpuSpec& spec,
                                     const linalg::MatrixOperator& op, std::size_t n,
                                     std::size_t block) {
  const double group_seconds =
      cpumodel::model_cpu_time(spec, blocked_group_workload(op, n, block)).seconds;
  return obs::seconds_to_ns_ticks(group_seconds / static_cast<double>(block));
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
  return cpumodel::model_cpu_time(spec, reference_workload(op, num_moments, instances)).seconds;
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
  if (block <= 1) {
    // Per-instance modeled cost on the *serial* model for all engine
    // variants, so the histogram is bit-identical between the serial and
    // parallel paths.
    const std::uint64_t instance_ticks = obs::seconds_to_ns_ticks(
        cpumodel::model_cpu_time(spec_, reference_workload(h_tilde, n, 1)).seconds);
    RecursionWorkspace ws(d, 1);
    run_reference_recursion(h_tilde, params, executed, instance_ticks, ws, mu_sum);
  } else {
    const std::uint64_t instance_ticks = blocked_instance_ticks(spec_, h_tilde, n, block);
    RecursionWorkspace ws(d, block);
    run_blocked_recursion(h_tilde, params, executed, block, instance_ticks, ws, mu_sum);
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

  // Cost model: see reference_workload() — fill + mu~_0 dot + (N - 1)
  // steps of fused SpMV + combine + dot per instance (charging the
  // combine-free k = 1 step uniformly overstates work by 2D flops out of
  // O(N * nnz)).  Blocked runs amortize the matrix stream across the block.
  const cpumodel::CpuStats stats = cpumodel::model_cpu_time(
      spec_, block <= 1 ? reference_workload(h_tilde, n, total)
                        : blocked_reference_workload(h_tilde, n, total, block));
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

  // Stable span name (no thread-count suffix, unlike name()): span names
  // participate in deterministic report fingerprints, which must be
  // identical at any thread count.
  const std::size_t block = params.block_r;
  // Parallelism is distributed over GROUPS of `block` instances (groups are
  // formed before distribution, so the grouping — and hence every computed
  // value — is independent of the thread count).
  const std::size_t groups = block <= 1 ? executed : (executed + block - 1) / block;

  obs::ScopedSpan span("moments.cpu-parallel");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  std::vector<double> mu_sum(n, 0.0);
  const bool serial_path = threads_ == 1 || groups == 1;
  // Same serial per-instance modeled cost as CpuMomentEngine (never the
  // parallel model), so histograms match the reference engine bit-for-bit
  // at every thread count.
  const std::uint64_t instance_ticks =
      block <= 1 ? obs::seconds_to_ns_ticks(
                       cpumodel::model_cpu_time(spec_, reference_workload(h_tilde, n, 1)).seconds)
                 : blocked_instance_ticks(spec_, h_tilde, n, block);

  // Lane workspaces persist across calls; a shape change frees every stale
  // one here, before any lane allocates, so peak memory never holds both.
  workspaces_.resize(static_cast<std::size_t>(threads_));
  for (auto& ws : workspaces_)
    if (!ws.fits(d, block)) ws.release();

  if (serial_path) {
    // No parallelism to exploit: skip the pool and contribution buffer.
    RecursionWorkspace& ws = workspaces_[0];
    ws.fit(d, block);
    if (block <= 1)
      run_reference_recursion(h_tilde, params, executed, instance_ticks, ws, mu_sum);
    else
      run_blocked_recursion(h_tilde, params, executed, block, instance_ticks, ws, mu_sum);
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
    if (block <= 1) {
      obs::sharded_parallel_for(
          *pool_, executed, [&](std::size_t lane, std::size_t begin, std::size_t end) {
            RecursionWorkspace& ws = workspaces_[lane];
            ws.fit(d, block);
            const std::span<double> rows(contributions);
            for (std::size_t inst = begin; inst < end; ++inst) {
              accumulate_instance(h_tilde, params, inst, ws, rows.subspan(inst * n, n));
              obs::record(obs::Histo::InstanceModelNs, instance_ticks);
            }
          });
    } else {
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
              accumulate_group(h_tilde, params, first, b, ws, n,
                               rows.subspan(first * n, b * n));
              for (std::size_t j = 0; j < b; ++j)
                obs::record(obs::Histo::InstanceModelNs, instance_ticks);
            }
          });
    }
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
      spec_, block <= 1 ? reference_workload(h_tilde, n, total)
                        : blocked_reference_workload(h_tilde, n, total, block),
      threads_);
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

  // Moments n = 0..N-1 from Chebyshev vectors up to index ceil(N/2):
  // the k-th iteration (k >= 1) yields mu_{2k} and mu_{2k+1}.
  const std::size_t half = (n + 1) / 2;

  // Cost model per group of b: fill + mu0/mu1 dots + (half - 1) fused steps
  // of SpMV + combine + 2 dots, the matrix streaming once per step.
  const auto dd = static_cast<double>(d);
  const auto paired_group_work = [&](std::size_t b) {
    const auto bb = static_cast<double>(b);
    cpumodel::CpuWorkload w;
    w.flops = (10.0 * dd + 4.0 * dd) * bb;
    w.bytes_streamed = 3.0 * dd * sizeof(double) * bb;
    const cpumodel::CpuWorkload per_step = fused_step_workload(h_tilde, /*dots=*/2, b);
    w.working_set_bytes = per_step.working_set_bytes;
    for (std::size_t k = 1; k < half; ++k) w += per_step;
    return w;
  };
  const std::uint64_t instance_ticks = obs::seconds_to_ns_ticks(
      cpumodel::model_cpu_time(spec_, paired_group_work(block)).seconds /
      static_cast<double>(block));

  if (block <= 1) {
    RecursionWorkspace ws(d, 1);
    for (std::size_t inst = 0; inst < executed; ++inst) {
      obs::record(obs::Histo::InstanceModelNs, instance_ticks);
      obs::add(obs::Counter::InstancesExecuted, 1.0);
      fill_random_vector(params, inst, ws.r0);

      const double mu0 = linalg::dot(ws.r0, ws.r0);
      obs::meter_dot(d);
      mu_sum[0] += mu0;
      h_tilde.multiply(ws.r0, ws.r_prev);  // r_1
      obs::meter_spmv(h_tilde.spmv_flops(), h_tilde.spmv_matrix_bytes(), d);
      const double mu1 = linalg::dot(ws.r0, ws.r_prev);
      obs::meter_dot(d);
      if (n > 1) mu_sum[1] += mu1;
      linalg::copy(ws.r0, ws.r_prev2);  // r_0
      obs::meter_stream_bytes(2.0 * static_cast<double>(d) * sizeof(double));

      for (std::size_t k = 1; k < half; ++k) {
        // Here r_prev = r_k, r_prev2 = r_{k-1}.  One fused pass advances
        // r_{k+1} = 2 H~ r_k - r_{k-1} and yields both dot products:
        //   mu_{2k}   = 2 <r_k | r_k>     - mu_0
        //   mu_{2k+1} = 2 <r_{k+1} | r_k> - mu_1.
        const auto dots = linalg::spmv_combine_dot2(h_tilde, ws.r_prev, ws.r_prev2, ws.r_next);
        const std::size_t even = 2 * k;
        if (even < n) mu_sum[even] += 2.0 * dots.prev_prev - mu0;
        const std::size_t odd = 2 * k + 1;
        if (odd < n) mu_sum[odd] += 2.0 * dots.next_prev - mu1;

        std::swap(ws.r_prev2, ws.r_prev);
        std::swap(ws.r_prev, ws.r_next);
      }
    }
  } else {
    // Blocked paired recursion: one matrix stream advances all members of a
    // group through the half-length recursion.  Member rows are summed in
    // instance order, so results are bit-identical to the per-vector loop.
    RecursionWorkspace ws(d, block);
    std::vector<double> rows(block * n);
    std::vector<double> mu0s(block), mu1s(block);
    std::vector<linalg::PairedDots> dots2(block);
    const std::size_t groups = (executed + block - 1) / block;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t first = g * block;
      const std::size_t b = std::min(block, executed - first);
      const std::size_t len = d * b;
      const auto sub = [len](std::vector<double>& v) {
        return std::span<double>(v.data(), len);
      };
      const std::span<double> dots(ws.dots.data(), b);
      std::fill(rows.begin(), rows.end(), 0.0);
      obs::add(obs::Counter::InstancesExecuted, static_cast<double>(b));
      fill_random_vector_block(params, first, b, sub(ws.r0));

      linalg::block_dot(sub(ws.r0), sub(ws.r0), b, dots);
      for (std::size_t j = 0; j < b; ++j) {
        mu0s[j] = dots[j];
        rows[j * n] += dots[j];
        obs::meter_dot(d);
      }
      linalg::spmmv_multiply(h_tilde, b, sub(ws.r0), sub(ws.r_prev));  // r_1
      linalg::block_dot(sub(ws.r0), sub(ws.r_prev), b, dots);
      for (std::size_t j = 0; j < b; ++j) {
        mu1s[j] = dots[j];
        if (n > 1) rows[j * n + 1] += dots[j];
        obs::meter_dot(d);
      }
      std::copy(ws.r0.begin(), ws.r0.begin() + static_cast<std::ptrdiff_t>(len),
                ws.r_prev2.begin());  // r_0
      obs::meter_stream_bytes(2.0 * static_cast<double>(len) * sizeof(double));

      for (std::size_t k = 1; k < half; ++k) {
        linalg::spmmv_combine_dot2(h_tilde, b, sub(ws.r_prev), sub(ws.r_prev2),
                                   sub(ws.r_next), std::span<linalg::PairedDots>(
                                                       dots2.data(), b));
        const std::size_t even = 2 * k;
        const std::size_t odd = 2 * k + 1;
        for (std::size_t j = 0; j < b; ++j) {
          if (even < n) rows[j * n + even] += 2.0 * dots2[j].prev_prev - mu0s[j];
          if (odd < n) rows[j * n + odd] += 2.0 * dots2[j].next_prev - mu1s[j];
        }
        std::swap(ws.r_prev2, ws.r_prev);
        std::swap(ws.r_prev, ws.r_next);
      }

      for (std::size_t j = 0; j < b; ++j) {
        const double* row = rows.data() + j * n;
        for (std::size_t k = 0; k < n; ++k) mu_sum[k] += row[k];
        obs::record(obs::Histo::InstanceModelNs, instance_ticks);
      }
    }
  }

  MomentResult result;
  result.engine = name();
  result.instances_executed = executed;
  result.instances_total = total;
  result.wall_seconds = wall.seconds();

  result.mu.resize(n);
  const double denom = static_cast<double>(d) * static_cast<double>(executed);
  for (std::size_t k = 0; k < n; ++k) result.mu[k] = mu_sum[k] / denom;

  cpumodel::CpuWorkload total_work;
  if (block <= 1) {
    total_work = paired_group_work(1);
    total_work.scale(static_cast<double>(total));
  } else {
    const std::size_t full = total / block;
    const std::size_t rem = total % block;
    total_work = paired_group_work(block);
    const double ws_bytes = total_work.working_set_bytes;
    total_work.scale(static_cast<double>(full));
    total_work.working_set_bytes = full > 0 ? ws_bytes : 0.0;
    if (rem > 0) total_work += paired_group_work(rem);
  }
  const cpumodel::CpuStats stats = cpumodel::model_cpu_time(spec_, total_work);
  result.model_seconds = stats.seconds;
  result.compute_seconds = stats.compute_seconds;
  return result;
}

}  // namespace kpm::core
