// Tight-binding Hamiltonian assembly.
//
// H = sum_i eps_i |i><i| - t sum_<ij> (|i><j| + |j><i|)
//
// With eps_i = 0 and t = 1 on the periodic 10x10x10 cubic lattice this
// reproduces exactly the matrix the paper describes: zero diagonal, -1 at
// the six neighbour columns, seven structural entries per row.  On-site
// disorder (Anderson model) is supported through an energy functor.
#pragma once

#include <cstdint>
#include <functional>

#include "linalg/crs_matrix.hpp"
#include "linalg/dense_matrix.hpp"
#include "lattice/lattice.hpp"

namespace kpm::lattice {

/// Parameters of the tight-binding model.
struct TightBindingParams {
  double hopping = 1.0;        ///< t; the paper uses matrix entries of -t = -1
  double hopping_nnn = 0.0;    ///< t': next-nearest-neighbour hopping (breaks
                               ///< particle-hole symmetry when nonzero)
  double onsite = 0.0;         ///< uniform eps; the paper uses 0
  bool store_zero_diagonal = true;  ///< keep structural diagonal entries even when eps == 0,
                                    ///< matching the paper's "7 non-zero elements per row" layout
};

/// Per-site on-site energy override (site index -> eps_i); used for the
/// Anderson disorder model.  When set, `onsite` is ignored.
using OnsiteFunction = std::function<double(std::size_t)>;

/// Assembles the tight-binding Hamiltonian of `lat` in CRS form, emitting
/// each row from its stencil in O(nnz) (no global triplet sort).
[[nodiscard]] linalg::CrsMatrix build_tight_binding_crs(const HypercubicLattice& lat,
                                                        const TightBindingParams& params = {},
                                                        const OnsiteFunction& onsite = nullptr);

/// Assembles the same Hamiltonian densely (the storage used by the paper's
/// "CRS format is not applied" analysis).
[[nodiscard]] linalg::DenseMatrix build_tight_binding_dense(const HypercubicLattice& lat,
                                                            const TightBindingParams& params = {},
                                                            const OnsiteFunction& onsite = nullptr);

/// Anderson-disorder on-site energies: eps_i ~ U(-W/2, W/2), drawn from the
/// counter-based RNG so every (seed, realization) pair is reproducible.
[[nodiscard]] OnsiteFunction anderson_disorder(double width, std::uint64_t seed,
                                               std::uint64_t realization = 0);

/// Dense random symmetric matrix with entries U(-1, 1): the synthetic
/// workload for the paper's Figs. 7 and 8 ("H_SIZE" scaling), where only
/// the matrix dimension matters, not its physics.
[[nodiscard]] linalg::DenseMatrix random_symmetric_dense(std::size_t dim, std::uint64_t seed);

/// Exact eigenvalues of the uniform tight-binding model on a periodic
/// hypercubic lattice: E(k) = eps - 2t sum_a cos(2 pi m_a / L_a).  Used by
/// tests to validate the assembly and the KPM DoS against closed-form
/// spectra.  Returned unsorted (one value per momentum index), size = sites.
[[nodiscard]] std::vector<double> periodic_tight_binding_spectrum(const HypercubicLattice& lat,
                                                                  const TightBindingParams& params = {});

}  // namespace kpm::lattice
