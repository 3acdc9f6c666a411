// Triplet-sort references for the direct O(nnz) set-up paths.
//
// `build_tight_binding_crs` emits each hypercubic row from its stencil and
// `rescale` rewrites a CRS matrix row by row.  Both must produce the very
// bytes of the general-purpose assembly they replaced: every entry pushed
// into a TripletBuilder, sorted, merged and, for the lattice, given a
// structural zero diagonal.  The references below are that assembly, with
// the lattice stencil walked from coordinates as a stand-alone copy, so the
// tests do not lean on the code under test.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/hermitian_matrix.hpp"
#include "linalg/spectral_transform.hpp"

namespace kpm::reference {

/// Site `coord` moved by `delta` along `axis`; false past an open edge.
inline bool reference_step(const lattice::HypercubicLattice& lat, std::array<std::size_t, 3>& c,
                           std::size_t axis, long long delta) {
  const auto extent = static_cast<long long>(lat.dims()[axis]);
  long long pos = static_cast<long long>(c[axis]) + delta;
  if (pos < 0 || pos >= extent) {
    if (lat.boundary() == lattice::Boundary::Open) return false;
    pos = ((pos % extent) + extent) % extent;
  }
  c[axis] = static_cast<std::size_t>(pos);
  return true;
}

/// Nearest neighbours of `site`, axis by axis (-1 then +1).
inline std::vector<std::size_t> reference_neighbours(const lattice::HypercubicLattice& lat,
                                                     std::size_t site) {
  const auto coords = lat.site_coords(site);
  std::vector<std::size_t> out;
  for (std::size_t axis = 0; axis < 3; ++axis) {
    if (lat.dims()[axis] == 1) continue;
    for (long long dir : {-1LL, 1LL})
      if (auto c = coords; reference_step(lat, c, axis, dir))
        out.push_back(lat.site_index(c[0], c[1], c[2]));
  }
  return out;
}

/// Next-nearest neighbours of `site`: distance-2 hops along a chain's axis,
/// else the two-axis diagonal hops, axis pair by axis pair.
inline std::vector<std::size_t> reference_next_nearest(const lattice::HypercubicLattice& lat,
                                                       std::size_t site) {
  const auto dims = lat.dims();
  const auto coords = lat.site_coords(site);
  std::vector<std::size_t> out;
  if (lat.effective_dimension() == 1) {
    const std::size_t axis = dims[0] == 1 && dims[1] > 1 ? 1 : 0;
    for (long long dir : {-2LL, 2LL})
      if (auto c = coords; reference_step(lat, c, axis, dir))
        out.push_back(lat.site_index(c[0], c[1], c[2]));
    return out;
  }
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = a + 1; b < 3; ++b) {
      if (dims[a] == 1 || dims[b] == 1) continue;
      for (long long da : {-1LL, 1LL})
        for (long long db : {-1LL, 1LL})
          if (auto c = coords; reference_step(lat, c, a, da) && reference_step(lat, c, b, db))
            out.push_back(lat.site_index(c[0], c[1], c[2]));
    }
  return out;
}

/// The triplet-sort assembly of the tight-binding Hamiltonian.
inline linalg::CrsMatrix reference_tight_binding(const lattice::HypercubicLattice& lat,
                                                 const lattice::TightBindingParams& params,
                                                 const lattice::OnsiteFunction& onsite) {
  const std::size_t n = lat.sites();
  linalg::TripletBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double eps = onsite ? onsite(i) : params.onsite;
    if (eps != 0.0) b.add(i, i, eps);
    for (std::size_t j : reference_neighbours(lat, i)) b.add(i, j, -params.hopping);
    if (params.hopping_nnn != 0.0)
      for (std::size_t j : reference_next_nearest(lat, i)) b.add(i, j, -params.hopping_nnn);
  }
  const linalg::CrsMatrix m = b.build();
  return params.store_zero_diagonal ? linalg::with_structural_diagonal(m) : m;
}

/// The triplet-sort rescale: every stored entry times 1/a-, plus -a+/a- on
/// each diagonal when a+ != 0, sorted and merged.
template <class Matrix, class Builder>
Matrix reference_rescale(const Matrix& h, const linalg::SpectralTransform& t) {
  using Value = std::remove_cvref_t<decltype(h.values()[0])>;
  Builder b(h.rows(), h.cols());
  const double inv = 1.0 / t.half_width();
  for (std::size_t r = 0; r < h.rows(); ++r)
    for (auto k = h.row_ptr()[r]; k < h.row_ptr()[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      b.add(r, static_cast<std::size_t>(h.col_idx()[kk]), h.values()[kk] * inv);
    }
  if (t.center() != 0.0)
    for (std::size_t r = 0; r < h.rows(); ++r) b.add(r, r, Value(-t.center() * inv));
  return b.build();
}

inline linalg::CrsMatrix reference_rescale(const linalg::CrsMatrix& h,
                                           const linalg::SpectralTransform& t) {
  return reference_rescale<linalg::CrsMatrix, linalg::TripletBuilder>(h, t);
}

inline linalg::CrsMatrixZ reference_rescale(const linalg::CrsMatrixZ& h,
                                            const linalg::SpectralTransform& t) {
  return reference_rescale<linalg::CrsMatrixZ, linalg::TripletBuilderZ>(h, t);
}

/// True when both spans hold the same bytes.
template <class T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Requires `got` and `want` to have equal shapes and byte-identical
/// row_ptr, col_idx and values arrays.
template <class Matrix>
::testing::AssertionResult identical_crs(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols())
    return ::testing::AssertionFailure() << "shape differs";
  if (!same_bytes(got.row_ptr(), want.row_ptr()))
    return ::testing::AssertionFailure() << "row_ptr differs";
  if (!same_bytes(got.col_idx(), want.col_idx()))
    return ::testing::AssertionFailure() << "col_idx differs";
  if (!same_bytes(got.values(), want.values()))
    return ::testing::AssertionFailure() << "values differ";
  return ::testing::AssertionSuccess();
}

}  // namespace kpm::reference
