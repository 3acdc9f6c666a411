// Node-local sub-matrices + halo maps of a domain-decomposed operator.
//
// `ShardedMatrix` splits a CRS (or SELL-backed) operator by a
// `Decomposition` into one rectangular node-local matrix per shard: the
// shard's owned rows with columns remapped into a working vector laid out
// as [left ghosts | owned rows | right ghosts].  Ghost slots hold the
// remote vector entries the shard's rows reference (its 1-hop sparsity
// neighbourhood), sorted by global index; putting the below-range ghosts
// before the owned block keeps the remap MONOTONE in the global column, so
// every remapped row still has sorted columns (a CrsMatrix invariant) and
// keeps its entry order.  A shard row's accumulated value is therefore
// bit-identical to the same row of the global multiply — the foundation of
// the cluster engine's bitwise-identity contract (docs/cluster.md).
//
// Lane-carry dot folds: the library's canonical dot (linalg::dot) feeds
// element i into lane i mod 4 and combines (l0 + l1) + (l2 + l3) once at
// the end.  A sharded dot cannot sum per-shard partial dots — floating-
// point addition is not associative — so shards instead *carry* the four
// lane accumulators through the nodes in canonical order: node p continues
// the fold from node p-1's lanes, with each element feeding the lane of
// its GLOBAL index.  The final combine happens once, reproducing the
// serial fold's addition sequence exactly.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/decomposition.hpp"
#include "linalg/gershgorin.hpp"
#include "linalg/operator.hpp"

namespace kpm::linalg {

/// The four carried accumulator lanes of one in-flight canonical dot fold.
struct DotLanes {
  std::array<double, 4> lane{0.0, 0.0, 0.0, 0.0};

  /// The canonical final combine (lane0 + lane1) + (lane2 + lane3).
  [[nodiscard]] double combine() const noexcept {
    return (lane[0] + lane[1]) + (lane[2] + lane[3]);
  }
};

/// Where a ghost slot's value lives: owning node + local row index there.
struct GhostSource {
  std::uint32_t owner = 0;
  std::uint32_t local_row = 0;
};

/// One node's share of the operator.
struct MatrixShard {
  std::size_t row_begin = 0;  ///< first owned global row
  std::size_t row_end = 0;    ///< one past the last owned global row

  /// Owned rows x (owned + ghost) columns; per-row entry order preserved
  /// from the global matrix.
  CrsMatrix local;
  /// SELL-C-sigma form of `local` (built only for Storage::Sell shards).
  SellMatrix sell;

  /// Global row ids of the ghost slots, ascending (the functional 1-hop
  /// halo); see ghost_position() for where slot g lives in the working
  /// vector.
  std::vector<std::int32_t> ghost_rows;
  /// Ghost slot -> owning shard + row there, resolved once at build time.
  std::vector<GhostSource> ghost_sources;
  /// Ghost slots with global index < row_begin (they precede the owned
  /// block in the working vector).
  std::size_t left_ghosts = 0;

  /// Owned rows whose value at least one other shard gathers (they must be
  /// computed before the halo exchange can complete).
  std::size_t boundary_rows = 0;
  /// Stored entries in those boundary rows.
  std::size_t boundary_nnz = 0;
  /// Distinct shards this node receives halo data from each step.
  std::size_t neighbour_count = 0;
  /// Doubles received per exchange under the decomposition's halo width:
  /// the w-hop sparsity neighbourhood (== ghost_rows.size() at width 1).
  std::size_t halo_recv_doubles = 0;
  /// Bytes one multiply streams for this shard's matrix data (CRS or SELL
  /// model, per the sharded storage).
  std::size_t matrix_bytes = 0;

  [[nodiscard]] std::size_t local_rows() const noexcept { return row_end - row_begin; }
  [[nodiscard]] std::size_t interior_rows() const noexcept {
    return local_rows() - boundary_rows;
  }
  [[nodiscard]] std::size_t working_size() const noexcept {
    return local_rows() + ghost_rows.size();
  }
  /// Working-vector position of the owned block (right after the left
  /// ghosts).
  [[nodiscard]] std::size_t owned_offset() const noexcept { return left_ghosts; }
  /// Working-vector position of ghost slot `gi`.
  [[nodiscard]] std::size_t ghost_position(std::size_t gi) const noexcept {
    return gi < left_ghosts ? gi : gi + local_rows();
  }
};

/// A domain-decomposed operator: P rectangular shards + halo index maps.
class ShardedMatrix {
 public:
  /// Shards `op` (CRS- or SELL-backed; dense is rejected — a dense row
  /// references every column, so there is no halo to exchange) by `dec`.
  /// `storage` selects the shard-local layout actually multiplied
  /// (Storage::Crs or Storage::Sell).
  ShardedMatrix(const MatrixOperator& op, const Decomposition& dec, Storage storage);

  [[nodiscard]] const Decomposition& decomposition() const noexcept { return dec_; }
  [[nodiscard]] Storage storage() const noexcept { return storage_; }
  [[nodiscard]] std::size_t nodes() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dec_.dim(); }
  [[nodiscard]] const MatrixShard& shard(std::size_t p) const;

  /// Global SpMV flop / matrix-traffic totals (sums over shards; equal to
  /// the unsharded operator's model for CRS).
  [[nodiscard]] std::size_t spmv_flops() const noexcept { return spmv_flops_; }
  [[nodiscard]] std::size_t spmv_matrix_bytes() const noexcept { return spmv_matrix_bytes_; }

  /// Doubles crossing the interconnect per recursion step (all shards).
  [[nodiscard]] std::size_t halo_doubles_per_step() const noexcept { return halo_doubles_; }

  /// Gershgorin bounds assembled shard-by-shard in canonical node order.
  /// min/max are exact, so the result equals gershgorin_bounds on the
  /// global matrix bit-for-bit — the decomposition-invariance property
  /// tests pin this down.
  [[nodiscard]] SpectralBounds gershgorin_bounds() const;

  /// y = (shard rows of A) * x_work for shard `p`, where `x_work` is the
  /// shard's [owned | ghost] working vector.  Dispatches to the shard's
  /// CRS or SELL form; per-row accumulation order matches the global
  /// multiply.
  void shard_multiply(std::size_t p, std::span<const double> x_work,
                      std::span<double> y) const;

  // Operations on distributed blocks: `v[p]` is shard p's [owned | ghost]
  // working vector of interleaved `block`-member rows (a prefix of length
  // working_size() * block).

  /// The simulated halo exchange: copies every ghost slot from its owner's
  /// owned slot.  Values are copied, never combined, so order is irrelevant.
  void exchange_ghosts(std::span<std::vector<double>> v, std::size_t block) const;

  /// Owned rows of y = A x on every shard (x's ghosts already exchanged).
  void multiply_block(std::size_t block, std::span<const std::vector<double>> x,
                      std::span<std::vector<double>> y, std::span<double> acc) const;

  /// Owned rows of next = 2 next - prev2 (the Chebyshev combine).
  void combine(std::span<std::vector<double>> next, std::span<const std::vector<double>> prev2,
               std::size_t block) const;

  /// Per-member dots <x_j | y_j> over the owned rows, the four canonical
  /// dot lanes carried through the shards in node order and combined once:
  /// bit-identical to linalg::block_dot on the assembled global vectors.
  void block_dot(std::span<const std::vector<double>> x, std::span<const std::vector<double>> y,
                 std::size_t block, std::span<DotLanes> lanes, std::span<double> dots) const;

 private:
  Decomposition dec_;
  Storage storage_ = Storage::Crs;
  std::vector<MatrixShard> shards_;
  std::size_t spmv_flops_ = 0;
  std::size_t spmv_matrix_bytes_ = 0;
  std::size_t halo_doubles_ = 0;
};

}  // namespace kpm::linalg
