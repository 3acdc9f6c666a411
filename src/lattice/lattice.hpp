// Hypercubic lattice geometry (1D chain, 2D square, 3D cubic).
//
// The paper's headline workload is "a lattice model made of cubes in
// 10x10x10 where an electron is placed in each corner", i.e. a simple cubic
// tight-binding lattice with D = 1000 sites whose Hamiltonian rows contain
// "seven non-zero elements ... all diagonal ones are zeros and the other
// non-zero ones are -1s" — six nearest-neighbour hoppings under periodic
// boundary conditions plus the structural (zero) diagonal.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace kpm::lattice {

/// Boundary condition along each lattice direction.
enum class Boundary {
  Periodic,  ///< wrap-around neighbours (the paper's 7-nnz-per-row structure)
  Open,      ///< edge sites lose neighbours
};

/// Returns "periodic" or "open".
constexpr const char* to_string(Boundary b) noexcept {
  return b == Boundary::Periodic ? "periodic" : "open";
}

/// A d-dimensional hypercubic lattice (d in {1, 2, 3}) with row-major site
/// indexing: index = (z * Ly + y) * Lx + x.
class HypercubicLattice {
 public:
  /// Creates a lattice with extents `dims` (unused trailing extents must be
  /// 1; every used extent must be >= 1).
  HypercubicLattice(std::array<std::size_t, 3> dims, Boundary boundary);

  /// 1D chain of length n.
  static HypercubicLattice chain(std::size_t n, Boundary b = Boundary::Periodic) {
    return HypercubicLattice({n, 1, 1}, b);
  }
  /// 2D square lattice lx x ly.
  static HypercubicLattice square(std::size_t lx, std::size_t ly,
                                  Boundary b = Boundary::Periodic) {
    return HypercubicLattice({lx, ly, 1}, b);
  }
  /// 3D cubic lattice lx x ly x lz (the paper's model with 10,10,10).
  static HypercubicLattice cubic(std::size_t lx, std::size_t ly, std::size_t lz,
                                 Boundary b = Boundary::Periodic) {
    return HypercubicLattice({lx, ly, lz}, b);
  }

  [[nodiscard]] std::size_t sites() const noexcept { return dims_[0] * dims_[1] * dims_[2]; }
  [[nodiscard]] std::array<std::size_t, 3> dims() const noexcept { return dims_; }
  [[nodiscard]] Boundary boundary() const noexcept { return boundary_; }
  /// Number of dimensions with extent > 1 (at least 1).
  [[nodiscard]] std::size_t effective_dimension() const noexcept;

  /// Site index of coordinates (x, y, z).
  [[nodiscard]] std::size_t site_index(std::size_t x, std::size_t y, std::size_t z) const;

  /// Coordinates (x, y, z) of a site index.
  [[nodiscard]] std::array<std::size_t, 3> site_coords(std::size_t index) const;

  /// Nearest neighbours of `index` (up to 2 per used dimension).  For
  /// periodic boundaries on an extent-2 axis the two hops reach the same
  /// site; both are reported (the Hamiltonian builder merges them, doubling
  /// the hopping, which is the physically correct wrap contribution).
  [[nodiscard]] std::vector<std::size_t> neighbours(std::size_t index) const;

  /// Next-nearest neighbours: two-axis diagonal hops for 2D/3D lattices
  /// (4 on the square, 12 on the cubic), distance-2 hops along the chain's
  /// axis for 1D.  Same wrap conventions as neighbours().
  [[nodiscard]] std::vector<std::size_t> next_nearest_neighbours(std::size_t index) const;

  /// Calls `visit(j)` for every nearest neighbour j of `index`, in the order
  /// neighbours() lists them, without allocating.
  template <class Visit>
  void for_each_neighbour(std::size_t index, Visit&& visit) const {
    const auto c = site_coords(index);
    for (std::size_t axis = 0; axis < 3; ++axis) {
      if (dims_[axis] == 1) continue;
      for (long long dir : {-1LL, 1LL})
        if (std::size_t j = index; step(j, c[axis], axis, dir)) visit(j);
    }
  }

  /// Calls `visit(j)` for every next-nearest neighbour j of `index`, in the
  /// order next_nearest_neighbours() lists them, without allocating.
  template <class Visit>
  void for_each_next_nearest_neighbour(std::size_t index, Visit&& visit) const {
    const auto c = site_coords(index);
    if (effective_dimension() == 1) {
      // The chain's axis: x, or y for a 1 x L x 1 layout.
      const std::size_t axis = dims_[0] == 1 && dims_[1] > 1 ? 1 : 0;
      for (long long dir : {-2LL, 2LL})
        if (std::size_t j = index; step(j, c[axis], axis, dir)) visit(j);
      return;
    }
    for (std::size_t a = 0; a < 3; ++a) {
      if (dims_[a] == 1) continue;
      for (std::size_t b = a + 1; b < 3; ++b) {
        if (dims_[b] == 1) continue;
        for (long long da : {-1LL, 1LL})
          for (long long db : {-1LL, 1LL})
            if (std::size_t j = index; step(j, c[a], a, da) && step(j, c[b], b, db)) visit(j);
      }
    }
  }

  /// Human-readable description like "cubic 10x10x10 (periodic)".
  [[nodiscard]] std::string describe() const;

 private:
  /// Moves `index`, whose coordinate on `axis` is `coord`, by `delta` sites
  /// along `axis`, wrapping on periodic boundaries.  Returns false (leaving
  /// `index` unchanged) when the move crosses an open boundary.
  bool step(std::size_t& index, std::size_t coord, std::size_t axis,
            long long delta) const noexcept {
    const auto extent = static_cast<long long>(dims_[axis]);
    auto pos = static_cast<long long>(coord) + delta;
    if (pos < 0 || pos >= extent) {
      if (boundary_ == Boundary::Open) return false;
      pos = ((pos % extent) + extent) % extent;
    }
    const std::size_t stride = axis == 0 ? 1 : axis == 1 ? dims_[0] : dims_[0] * dims_[1];
    index = index - coord * stride + static_cast<std::size_t>(pos) * stride;
    return true;
  }

  std::array<std::size_t, 3> dims_;
  Boundary boundary_;
};

}  // namespace kpm::lattice
