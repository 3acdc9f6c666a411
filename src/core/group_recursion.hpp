// The host Chebyshev recursion, written once (internal to src/core).
//
// One skeleton: `group_recursion` runs the paper's Fig. 3 recursion for a
// group of B start vectors — fill r0, mu~_0, r1 = H~ r0 and mu~_1 (both
// skipped when N = 1), copy r0, then one fused SpMV + combine + dot step per
// moment (or per moment pair) — and B = 1 is simply a one-member group.
//
// Four spaces: the skeleton is templated on a "space" that owns the four
// recursion vectors of a group and knows how to start them, take the
// per-member dots against r0, multiply r1, copy r0, run one step and
// rotate.  `FlatSpace<double>` runs the fused SpMMV kernels with a single or
// paired dot; `FlatSpace<float>` runs the binary32 ablation (narrowed
// multiply, unfused combine, left-fold float dots, binary32 meters);
// `FlatSpace<std::complex<double>>` runs the Hermitian recursion (Re dots
// and spmmv_combine_dot_re); the cluster's sharded space (moments_cluster.cpp)
// keeps per-shard working vectors, exchanges ghosts after every write and
// carries the dot lanes through the shards in node order.
//
// One runner: `run_groups` places the groups — inline, or as contiguous
// group ranges on a thread pool writing instance-major rows — and folds the
// member rows in instance order, so results never depend on the lane
// count.  Every host caller (the reference, paired, parallel, f32 and
// Hermitian engines, the estimator statistics, LDOS and trace moments and
// the cluster engine) is such a placement.  The cost-model helpers price
// the same groups for the engines' roofline models.
#pragma once

#include <algorithm>
#include <complex>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/moments_cpu.hpp"
#include "core/moments.hpp"
#include "core/params.hpp"
#include "cpumodel/cpu_spec.hpp"
#include "cpumodel/roofline.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/hermitian_matrix.hpp"
#include "linalg/operator.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/parallel.hpp"
#include "rng/distributions.hpp"

namespace kpm::core::detail {

using Complex = std::complex<double>;

/// Dot products of each fused recursion step: `Single` yields mu~_k =
/// <r0|r_k> per step (the paper's Fig. 3); `Paired` yields mu~_{2k} and
/// mu~_{2k+1} from <r_k|r_k> and <r_{k+1}|r_k> (two moments per SpMV).
enum class DotPolicy { Single, Paired };

/// Reusable vectors of one flat group's recursion: up to `width`
/// interleaved members of dimension `dim` (smaller groups use length
/// dim*b prefixes).  Every vector is fully written before it is read, so a
/// reused workspace needs no clearing.
template <typename T>
struct FlatVectors {
  std::size_t dim = 0, width = 0;
  std::vector<T> r0, prev2, prev, next;
  std::vector<double> dots;
  std::vector<linalg::PairedDots> pairs;

  [[nodiscard]] bool fits(std::size_t d, std::size_t w) const { return dim == d && width == w; }

  /// Frees every vector.
  void release() { *this = FlatVectors(); }

  /// Reshapes to (d, w), freeing the old vectors before allocating the new
  /// ones; a no-op when the shape already matches.
  void fit(std::size_t d, std::size_t w) {
    if (fits(d, w)) return;
    release();
    for (auto* v : {&r0, &prev2, &prev, &next}) v->resize(d * w);
    dots.resize(w);
    pairs.resize(w);
    dim = d;  // shape recorded last: a failed allocation leaves no false match
    width = w;
  }
};

/// Writes the `b` interleaved start vectors of the group whose first member
/// is instance `first` into `r0` (dim * b elements).
template <typename T>
using Start = std::function<void(std::size_t first, std::size_t b, std::span<T> r0)>;

/// Start vectors of the stochastic engines: member j of the group starting
/// at `first` is the random vector of instance first + j, converted to T
/// (binary32 vectors are narrowed once; complex ones are real).  Holds
/// `params` by reference.
template <typename T = double>
[[nodiscard]] Start<T> random_start(const MomentParams& params) {
  return [&params](std::size_t first, std::size_t b, std::span<T> r0) {
    if constexpr (std::is_same_v<T, double>) {
      fill_random_vector_block(params, first, b, r0);
    } else {
      obs::add(obs::Counter::RngElements, static_cast<double>(r0.size()));
      for (std::size_t j = 0; j < b; ++j)
        for (std::size_t i = 0; i < r0.size() / b; ++i)
          r0[i * b + j] = static_cast<T>(
              rng::draw_random_element(params.vector_kind, params.seed, first + j, i));
    }
  };
}

/// Unit basis start vectors: member j of the group starting at `first` is
/// |first + j> (an LDOS site is a one-member group at `first` = site).
template <typename T>
void unit_start(std::size_t first, std::size_t b, std::span<T> r0) {
  std::fill(r0.begin(), r0.end(), T{});
  for (std::size_t j = 0; j < b; ++j) r0[(first + j) * b + j] = T{1};
}

/// `b` per-member dot products of dimension `dim` over elements of T: two
/// streamed operands each, 2 flops per element (4 for complex).
template <typename T>
void meter_member_dots(std::size_t dim, std::size_t b) {
  const double d = static_cast<double>(dim);
  const double bb = static_cast<double>(b);
  obs::add(obs::Counter::DotCalls, bb);
  obs::add(obs::Counter::Flops, bb * (std::is_same_v<T, Complex> ? 4.0 : 2.0) * d);
  obs::add(obs::Counter::BytesStreamed, bb * 2.0 * d * sizeof(T));
}

/// The space of a recursion in one address space, over vectors of T
/// (double, float or complex).  Views `vectors`, which the caller owns (so
/// an engine can keep one per lane across calls).
template <typename T>
class FlatSpace {
 public:
  using Operator =
      std::conditional_t<std::is_same_v<T, Complex>, linalg::CrsMatrixZ, linalg::MatrixOperator>;

  FlatSpace(const Operator& h, Start<T> start, FlatVectors<T>& vectors,
            DotPolicy dots = DotPolicy::Single)
      : h_(&h), start_(std::move(start)), v_(&vectors), policy_(dots) {
    if constexpr (std::is_same_v<T, Complex>)
      dim_ = h.rows();
    else
      dim_ = h.dim();
  }

  [[nodiscard]] bool fits(std::size_t width) const { return v_->fits(dim_, width); }
  void release() { v_->release(); }
  void fit(std::size_t width) { v_->fit(dim_, width); }

  void start(std::size_t first, std::size_t b) { start_(first, b, sub(v_->r0, b)); }
  /// Per-member <r0|r0> and <r0|r1>, metered as b dot products each.
  std::span<const double> dot_r0(std::size_t b) { return dots_with_r0(v_->r0, b); }
  std::span<const double> dot_r1(std::size_t b) { return dots_with_r0(v_->prev, b); }
  void multiply_r1(std::size_t b) {
    linalg::spmmv_multiply(*h_, b, sub(v_->r0, b), sub(v_->prev, b));
  }
  void copy_r0(std::size_t b) {
    const auto r0 = sub(v_->r0, b);
    std::copy(r0.begin(), r0.end(), v_->prev2.begin());
    obs::meter_stream_bytes(2.0 * static_cast<double>(r0.size()) * sizeof(T));
  }
  /// r_next = 2 H~ r_prev - r_prev2 with the per-member <r0|r_next>.
  std::span<const double> step(std::size_t b) {
    const std::span<double> out(v_->dots.data(), b);
    if constexpr (std::is_same_v<T, double>) {
      linalg::spmmv_combine_dot(*h_, b, sub(v_->prev, b), sub(v_->prev2, b), sub(v_->r0, b),
                                sub(v_->next, b), out);
    } else if constexpr (std::is_same_v<T, Complex>) {
      linalg::spmmv_combine_dot_re(*h_, b, sub(v_->prev, b), sub(v_->prev2, b), sub(v_->r0, b),
                                   sub(v_->next, b), out);
    } else {
      // Binary32: unfused multiply, combine and dots, each metered on its own.
      const auto next = sub(v_->next, b);
      linalg::spmmv_multiply(*h_, b, sub(v_->prev, b), next);
      for (std::size_t i = 0; i < next.size(); ++i) next[i] = 2.0f * next[i] - v_->prev2[i];
      obs::add(obs::Counter::Flops, 2.0 * static_cast<double>(next.size()));
      obs::add(obs::Counter::BytesStreamed, 3.0 * static_cast<double>(next.size()) * sizeof(T));
      return dots_with_r0(v_->next, b);
    }
    return out;
  }
  [[nodiscard]] bool paired() const { return policy_ == DotPolicy::Paired; }
  /// The paired pass: r_next as in step() with <r_next|r_prev> and
  /// <r_prev|r_prev> per member.
  std::span<const linalg::PairedDots> step_paired(std::size_t b)
    requires std::same_as<T, double>
  {
    const std::span<linalg::PairedDots> out(v_->pairs.data(), b);
    linalg::spmmv_combine_dot2(*h_, b, sub(v_->prev, b), sub(v_->prev2, b), sub(v_->next, b),
                               out);
    return out;
  }
  void rotate() {
    std::swap(v_->prev2, v_->prev);
    std::swap(v_->prev, v_->next);
  }

 private:
  std::span<T> sub(std::vector<T>& v, std::size_t b) { return {v.data(), dim_ * b}; }

  std::span<const double> dots_with_r0(std::vector<T>& x, std::size_t b) {
    const std::span<double> out(v_->dots.data(), b);
    if constexpr (std::is_same_v<T, double>)
      linalg::block_dot(sub(v_->r0, b), sub(x, b), b, out);
    else
      linalg::block_dot_fold(sub(v_->r0, b), sub(x, b), b, out);
    meter_member_dots<T>(dim_, b);
    return out;
  }

  const Operator* h_;
  std::size_t dim_;
  Start<T> start_;
  FlatVectors<T>* v_;
  DotPolicy policy_;
};

/// The host Chebyshev recursion for one group of `b` members of space `s`
/// (shaped for at least b).  Member j's moments mu~_0..mu~_{n-1} are
/// written to rows[j*n, j*n + n).  Every member's arithmetic is the
/// per-vector recursion's, so results do not depend on b.
template <typename Space>
void group_recursion(Space& s, std::size_t first, std::size_t b, std::size_t n,
                     std::span<double> rows) {
  const auto put = [&](std::size_t k, std::span<const double> dots) {
    for (std::size_t j = 0; j < b; ++j) rows[j * n + k] = dots[j];
  };
  obs::add(obs::Counter::InstancesExecuted, static_cast<double>(b));
  s.start(first, b);
  put(0, s.dot_r0(b));
  if (n > 1) {
    s.multiply_r1(b);
    put(1, s.dot_r1(b));
  }
  s.copy_r0(b);
  if constexpr (requires { s.step_paired(b); }) {
    if (s.paired()) {
      // With r_prev = r_k and r_prev2 = r_{k-1}, one fused pass advances
      // r_{k+1} = 2 H~ r_k - r_{k-1} and yields both dot products:
      //   mu~_{2k}   = 2 <r_k | r_k>     - mu~_0
      //   mu~_{2k+1} = 2 <r_{k+1} | r_k> - mu~_1.
      // Moments 0..N-1 need Chebyshev vectors up to index ceil(N/2).
      for (std::size_t k = 1; k < (n + 1) / 2; ++k) {
        const auto pairs = s.step_paired(b);
        for (std::size_t j = 0; j < b; ++j) {
          double* row = rows.data() + j * n;
          if (2 * k < n) row[2 * k] = 2.0 * pairs[j].prev_prev - row[0];
          if (2 * k + 1 < n) row[2 * k + 1] = 2.0 * pairs[j].next_prev - row[1];
        }
        s.rotate();
      }
      return;
    }
  }
  for (std::size_t k = 2; k < n; ++k) {
    put(k, s.step(b));
    s.rotate();
  }
}

/// Receives one member's N moments; called in instance order.
using MemberRow = std::function<void(std::span<const double> row)>;

/// The host placement.  Runs instances [0, count) as groups of `block`:
/// inline on lanes[0] when `pool` is null, there is one lane or there is
/// one group; otherwise as contiguous group ranges on a pool of
/// lanes.size() threads (created in `*pool` on first use, lane l running
/// lanes[l]), each member writing its own instance-major row.  Every
/// member's row then goes to `fold` in instance order, so results do not
/// depend on the lane count.  Lane spaces are shaped for min(block, count)
/// members; stale shapes are freed before any lane allocates.  Returns the
/// number of threads that ran groups.
template <typename Space>
int run_groups(std::span<Space> lanes, std::unique_ptr<common::ThreadPool>* pool,
               std::size_t count, std::size_t block, std::size_t n, const MemberRow& fold) {
  const std::size_t width = std::min(block, count);
  const std::size_t groups = (count + block - 1) / block;
  for (Space& s : lanes)
    if (!s.fits(width)) s.release();

  if (pool == nullptr || lanes.size() == 1 || groups == 1) {
    Space& s = lanes[0];
    s.fit(width);
    std::vector<double> rows(width * n);
    for (std::size_t first = 0; first < count; first += block) {
      const std::size_t b = std::min(block, count - first);
      group_recursion(s, first, b, n, rows);
      for (std::size_t j = 0; j < b; ++j) fold(std::span<const double>(rows.data() + j * n, n));
    }
    return 1;
  }
  if (!*pool || (*pool)->size() != lanes.size())
    *pool = std::make_unique<common::ThreadPool>(lanes.size());
  // sharded_parallel_for gives every lane a private counter shard reduced
  // in lane order, so counter totals are exact at any thread count too.
  std::vector<double> rows(count * n, 0.0);
  obs::sharded_parallel_for(**pool, groups, [&](std::size_t lane, std::size_t begin,
                                                std::size_t end) {
    Space& s = lanes[lane];
    s.fit(width);
    for (std::size_t g = begin; g < end; ++g) {
      const std::size_t first = g * block;
      const std::size_t b = std::min(block, count - first);
      group_recursion(s, first, b, n, std::span<double>(rows).subspan(first * n, b * n));
    }
  });
  for (std::size_t i = 0; i < count; ++i)
    fold(std::span<const double>(rows.data() + i * n, n));
  return static_cast<int>(lanes.size());
}

/// Sum of every member row of `count` start vectors of `space`, in
/// instance order.
template <typename Space>
[[nodiscard]] std::vector<double> summed_rows(Space& space, std::size_t count, std::size_t block,
                                              std::size_t n) {
  std::vector<double> mu(n, 0.0);
  run_groups(std::span<Space>(&space, 1), nullptr, count, block, n,
             [&mu](std::span<const double> row) {
               for (std::size_t k = 0; k < row.size(); ++k) mu[k] += row[k];
             });
  return mu;
}

/// summed_rows over a fresh flat space of T on `h`, started by `start`.
template <typename T>
[[nodiscard]] std::vector<double> summed_flat_rows(const typename FlatSpace<T>::Operator& h,
                                                   Start<T> start, std::size_t count,
                                                   std::size_t block, std::size_t n) {
  FlatVectors<T> vectors;
  FlatSpace<T> space(h, std::move(start), vectors);
  return summed_rows(space, count, block, n);
}

/// The stochastic engines' placement of `executed` random instances: rows
/// summed into `mu_sum` in instance order, each instance recording the
/// serial per-instance modeled `ticks`.  Returns the threads used.
template <typename Space>
int run_instances(std::span<Space> lanes, std::unique_ptr<common::ThreadPool>* pool,
                  std::size_t executed, std::size_t block, std::uint64_t ticks,
                  std::vector<double>& mu_sum) {
  return run_groups(lanes, pool, executed, block, mu_sum.size(),
                    [&](std::span<const double> row) {
                      for (std::size_t k = 0; k < row.size(); ++k) mu_sum[k] += row[k];
                      obs::record(obs::Histo::InstanceModelNs, ticks);
                    });
}

/// The engines' result: mu_n = mu_sum[n] / (D * executed), by plain
/// division (not a reciprocal multiply) so the GPU averaging kernel matches
/// bit for bit.
[[nodiscard]] MomentResult averaged_result(std::string engine, std::span<const double> mu_sum,
                                           std::size_t dim, std::size_t executed,
                                           std::size_t total, double wall_seconds);

/// Roofline workload of ONE group of `b` members: fill + mu~_0/mu~_1 dots +
/// copy, then the fused steps (N - 1 single-dot or ceil(N/2) - 1 paired),
/// the matrix streaming once per step for the whole group.
[[nodiscard]] cpumodel::CpuWorkload group_workload(const linalg::MatrixOperator& op,
                                                   std::size_t n, std::size_t b,
                                                   DotPolicy dots);

/// Workload of `total` instances run as full groups of `block` plus one
/// ragged group for the remainder; `group_work(b)` prices one group of b.
[[nodiscard]] cpumodel::CpuWorkload ragged_group_workload(
    std::size_t total, std::size_t block,
    const std::function<cpumodel::CpuWorkload(std::size_t)>& group_work);

/// Per-instance modeled ticks (ns): one full group's modeled time on `spec`
/// split evenly across its `block` members.
[[nodiscard]] std::uint64_t instance_model_ticks(const cpumodel::CpuSpec& spec,
                                                 const linalg::MatrixOperator& op,
                                                 std::size_t n, std::size_t block,
                                                 DotPolicy dots);

}  // namespace kpm::core::detail
