#include "lattice/hamiltonian.hpp"

#include <array>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/philox.hpp"

namespace kpm::lattice {
namespace {

double site_energy(std::size_t site, const TightBindingParams& params,
                   const OnsiteFunction& onsite) {
  return onsite ? onsite(site) : params.onsite;
}

}  // namespace

linalg::CrsMatrix build_tight_binding_crs(const HypercubicLattice& lat,
                                          const TightBindingParams& params,
                                          const OnsiteFunction& onsite) {
  using Index = linalg::CrsMatrix::Index;
  // One row's stencil: eps_i, up to 6 nearest and up to 12 next-nearest
  // neighbours.
  struct Term {
    std::size_t col;
    double value;
  };
  std::array<Term, 19> row{};

  const std::size_t n = lat.sites();
  const std::size_t d = lat.effective_dimension();
  const std::size_t nnn = params.hopping_nnn == 0.0 ? 0 : (d == 1 ? 2 : 2 * d * (d - 1));
  std::vector<Index> row_ptr(n + 1, 0);
  std::vector<Index> col_idx;
  std::vector<double> values;
  col_idx.reserve(n * (1 + 2 * d + nnn));
  values.reserve(n * (1 + 2 * d + nnn));

  for (std::size_t i = 0; i < n; ++i) {
    // Terms in stencil order: eps_i, nearest, next-nearest.  A stored zero
    // diagonal (the paper's 7-entries-per-row layout) rides along as an
    // eps_i term of +0.0, which leaves every sum it joins unchanged.
    std::size_t len = 0;
    const double eps = site_energy(i, params, onsite);
    if (eps != 0.0 || params.store_zero_diagonal) row[len++] = {i, eps};
    lat.for_each_neighbour(i, [&](std::size_t j) { row[len++] = {j, -params.hopping}; });
    if (nnn != 0)
      lat.for_each_next_nearest_neighbour(
          i, [&](std::size_t j) { row[len++] = {j, -params.hopping_nnn}; });

    // Stable insertion sort by column, then merge duplicates in insertion
    // order starting from 0.0 and drop exact zeros.  A triplet sort merges
    // the same sums: duplicates with three or more distinct terms occur only
    // on chains of edge 1 or 2, whose <= 10 triplets std::sort orders by
    // (stable) insertion sort; every other duplicate sums two terms or equal
    // values, where order cannot matter.
    for (std::size_t k = 1; k < len; ++k) {
      const Term t = row[k];
      std::size_t m = k;
      for (; m > 0 && row[m - 1].col > t.col; --m) row[m] = row[m - 1];
      row[m] = t;
    }
    for (std::size_t k = 0; k < len;) {
      const std::size_t col = row[k].col;
      double v = 0.0;
      for (; k < len && row[k].col == col; ++k) v += row[k].value;
      if (v != 0.0 || (col == i && params.store_zero_diagonal)) {
        col_idx.push_back(static_cast<Index>(col));
        values.push_back(v);
      }
    }
    row_ptr[i + 1] = static_cast<Index>(values.size());
  }
  return linalg::CrsMatrix(n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
}

linalg::DenseMatrix build_tight_binding_dense(const HypercubicLattice& lat,
                                              const TightBindingParams& params,
                                              const OnsiteFunction& onsite) {
  const std::size_t n = lat.sites();
  linalg::DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = site_energy(i, params, onsite);
    lat.for_each_neighbour(i, [&](std::size_t j) { m(i, j) += -params.hopping; });
    if (params.hopping_nnn != 0.0)
      lat.for_each_next_nearest_neighbour(
          i, [&](std::size_t j) { m(i, j) += -params.hopping_nnn; });
  }
  return m;
}

OnsiteFunction anderson_disorder(double width, std::uint64_t seed, std::uint64_t realization) {
  KPM_REQUIRE(std::isfinite(width) && width >= 0.0,
              "anderson_disorder: width must be finite and non-negative");
  // Stream id 2^40 + realization keeps disorder draws disjoint from the
  // random-vector streams used by the stochastic trace (which use the
  // (s, r) instance id < 2^32 as their stream).
  const std::uint64_t stream = (1ULL << 40) + realization;
  return [width, seed, stream](std::size_t site) {
    const std::uint64_t word = rng::philox_u64(seed, stream, site);
    return rng::u64_to_uniform(word, -0.5 * width, 0.5 * width);
  };
}

linalg::DenseMatrix random_symmetric_dense(std::size_t dim, std::uint64_t seed) {
  KPM_REQUIRE(dim > 0, "random_symmetric_dense: dim must be positive");
  linalg::DenseMatrix m(dim, dim);
  for (std::size_t r = 0; r < dim; ++r)
    for (std::size_t c = r; c < dim; ++c) {
      // Address each upper-triangle entry by its flattened coordinate so
      // the matrix is independent of generation order.
      const std::uint64_t word = rng::philox_u64(seed, r, c);
      const double v = rng::u64_to_uniform(word, -1.0, 1.0);
      m(r, c) = v;
      m(c, r) = v;
    }
  return m;
}

std::vector<double> periodic_tight_binding_spectrum(const HypercubicLattice& lat,
                                                    const TightBindingParams& params) {
  KPM_REQUIRE(lat.boundary() == Boundary::Periodic,
              "closed-form spectrum requires periodic boundaries");
  const auto dims = lat.dims();
  std::vector<double> spectrum;
  spectrum.reserve(lat.sites());
  for (std::size_t mz = 0; mz < dims[2]; ++mz)
    for (std::size_t my = 0; my < dims[1]; ++my)
      for (std::size_t mx = 0; mx < dims[0]; ++mx) {
        double e = params.onsite;
        const std::array<std::size_t, 3> m{mx, my, mz};
        std::array<double, 3> k{0.0, 0.0, 0.0};
        std::size_t used_axes = 0;
        for (std::size_t axis = 0; axis < 3; ++axis) {
          if (dims[axis] == 1) continue;
          ++used_axes;
          k[axis] = 2.0 * std::numbers::pi * static_cast<double>(m[axis]) /
                    static_cast<double>(dims[axis]);
          e += -2.0 * params.hopping * std::cos(k[axis]);
        }
        if (params.hopping_nnn != 0.0) {
          if (used_axes == 1) {
            // Chain: t' couples i and i+-2 -> -2 t' cos(2k).
            for (std::size_t axis = 0; axis < 3; ++axis)
              if (dims[axis] > 1) e += -2.0 * params.hopping_nnn * std::cos(2.0 * k[axis]);
          } else {
            // Diagonal hops: -4 t' sum_{a<b} cos(k_a) cos(k_b).
            for (std::size_t a = 0; a < 3; ++a) {
              if (dims[a] == 1) continue;
              for (std::size_t b2 = a + 1; b2 < 3; ++b2) {
                if (dims[b2] == 1) continue;
                e += -4.0 * params.hopping_nnn * std::cos(k[a]) * std::cos(k[b2]);
              }
            }
          }
        }
        spectrum.push_back(e);
      }
  return spectrum;
}

}  // namespace kpm::lattice
