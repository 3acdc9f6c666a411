// The host Chebyshev recursion, written once (internal to src/core).
//
// Every host caller of the real-valued recursion — the reference, paired
// and parallel CPU engines, the estimator statistics, `ldos_moments` and
// `deterministic_trace_moments` — runs it through `group_recursion`: a
// group of B start vectors advances through one blocked SpMMV recursion,
// and B = 1 is simply a one-member group.  Callers differ only in their
// start vectors (a random block or a unit basis) and in how they fold the
// member rows.  The cost-model helpers price the same groups for the
// engines' roofline models.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "cpumodel/cpu_spec.hpp"
#include "cpumodel/roofline.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/operator.hpp"

namespace kpm::core::detail {

/// Reusable vectors of one instance group's recursion: `block` interleaved
/// members of dimension `dim` (ragged final groups use length dim*b
/// prefixes).  Every vector is fully written before it is read, so a reused
/// workspace needs no clearing.
struct RecursionWorkspace {
  std::size_t dim = 0, block = 0;
  std::vector<double> r0, r_prev2, r_prev, r_next, dots;
  std::vector<linalg::PairedDots> pairs;

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
    pairs.resize(b);
    dim = d;  // shape recorded last: a failed allocation leaves no false match
    block = b;
  }
};

/// Dot products of each fused recursion step: `Single` yields mu~_k =
/// <r0|r_k> per step (the paper's Fig. 3); `Paired` yields mu~_{2k} and
/// mu~_{2k+1} from <r_k|r_k> and <r_{k+1}|r_k> (two moments per SpMV).
enum class DotPolicy { Single, Paired };

/// Writes the `b` interleaved start vectors of the group whose first member
/// is instance `first` into `r0` (dim * b doubles).
using GroupStart = std::function<void(std::size_t first, std::size_t b, std::span<double> r0)>;

/// Start vectors of the stochastic engines: member j of the group starting
/// at `first` is the random vector of instance first + j.  Holds `params`
/// by reference.
[[nodiscard]] GroupStart random_start(const MomentParams& params);

/// Receives one member's N moments; called in instance order.
using MemberRow = std::function<void(std::span<const double> row)>;

/// The host Chebyshev recursion, run for one group of `b` members (b <=
/// ws.block; B = 1 is a one-member group).  Steps: fill r0 via `start`,
/// mu~_0, r_1 = H~ r_0 and mu~_1 (both skipped when n == 1), copy r_0, then
/// the fused SpMMV steps of `dots`.  Member j's moments mu~_0..mu~_{n-1}
/// are written to rows[j*n, j*n + n).  Every member's arithmetic is the
/// per-vector recursion's, so results do not depend on b.
void group_recursion(const linalg::MatrixOperator& h_tilde, std::size_t first, std::size_t b,
                     std::size_t n, DotPolicy dots, const GroupStart& start,
                     RecursionWorkspace& ws, std::span<double> rows);

/// Serial runner: instances [0, count) as groups of `block` in order, each
/// member's row handed to `fold` right after its group.
void run_groups(const linalg::MatrixOperator& h_tilde, std::size_t count, std::size_t block,
                std::size_t n, DotPolicy dots, const GroupStart& start, RecursionWorkspace& ws,
                const MemberRow& fold);

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
