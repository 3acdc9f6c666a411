// Tests for tight-binding Hamiltonian assembly — including the paper's
// exact 10x10x10 structure claims.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "diag/tridiag.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "triplet_reference.hpp"

namespace {

using namespace kpm::lattice;

TEST(Hamiltonian, PaperStructureSevenEntriesPerRow) {
  // "any row contains seven non-zero elements with the condition where all
  // diagonal ones are zeros and the other non-zero ones are -1s".
  const auto lat = HypercubicLattice::cubic(10, 10, 10);
  const auto h = build_tight_binding_crs(lat);
  EXPECT_EQ(h.rows(), 1000u);
  EXPECT_EQ(h.nnz(), 7000u);
  const auto row_ptr = h.row_ptr();
  const auto col_idx = h.col_idx();
  const auto values = h.values();
  for (std::size_t r = 0; r < h.rows(); ++r) {
    EXPECT_EQ(row_ptr[r + 1] - row_ptr[r], 7);
    for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      if (static_cast<std::size_t>(col_idx[kk]) == r)
        EXPECT_EQ(values[kk], 0.0) << "diagonal must be zero";
      else
        EXPECT_EQ(values[kk], -1.0) << "hoppings must be -1";
    }
  }
}

TEST(Hamiltonian, CrsAndDenseAgree) {
  const auto lat = HypercubicLattice::cubic(3, 3, 3);
  const auto hc = build_tight_binding_crs(lat).to_dense();
  const auto hd = build_tight_binding_dense(lat);
  for (std::size_t r = 0; r < hd.rows(); ++r)
    for (std::size_t c = 0; c < hd.cols(); ++c) EXPECT_EQ(hc(r, c), hd(r, c));
}

TEST(Hamiltonian, IsSymmetric) {
  const auto lat = HypercubicLattice::square(5, 4);
  EXPECT_TRUE(build_tight_binding_crs(lat).is_symmetric());
}

TEST(Hamiltonian, WithoutStructuralDiagonalDropsZeros) {
  TightBindingParams p;
  p.store_zero_diagonal = false;
  const auto lat = HypercubicLattice::cubic(4, 4, 4);
  const auto h = build_tight_binding_crs(lat, p);
  EXPECT_EQ(h.nnz(), 64u * 6u);
}

TEST(Hamiltonian, OnsiteEnergyLandsOnDiagonal) {
  TightBindingParams p;
  p.onsite = 1.5;
  const auto lat = HypercubicLattice::chain(4);
  const auto h = build_tight_binding_crs(lat, p);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(h.at(i, i), 1.5);
}

TEST(Hamiltonian, CustomHoppingScale) {
  TightBindingParams p;
  p.hopping = 2.5;
  const auto lat = HypercubicLattice::chain(6);
  const auto h = build_tight_binding_crs(lat, p);
  EXPECT_DOUBLE_EQ(h.at(0, 1), -2.5);
}

TEST(Hamiltonian, ExtentTwoPeriodicAxisDoublesHopping) {
  const auto lat = HypercubicLattice::chain(2);
  const auto h = build_tight_binding_crs(lat);
  EXPECT_DOUBLE_EQ(h.at(0, 1), -2.0);  // both wrap directions merge
}

TEST(Hamiltonian, SpectrumMatchesClosedFormOnSquareLattice) {
  const auto lat = HypercubicLattice::square(4, 6);
  const auto h = build_tight_binding_dense(lat);
  auto eig = kpm::diag::symmetric_eigenvalues(h);
  auto expected = periodic_tight_binding_spectrum(lat);
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(eig.size(), expected.size());
  for (std::size_t i = 0; i < eig.size(); ++i) EXPECT_NEAR(eig[i], expected[i], 1e-10);
}

TEST(Hamiltonian, AndersonDisorderIsBoundedAndReproducible) {
  const double width = 2.0;
  const auto dis1 = anderson_disorder(width, 42, 0);
  const auto dis2 = anderson_disorder(width, 42, 0);
  const auto dis3 = anderson_disorder(width, 42, 1);
  bool any_diff = false;
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(dis1(i), dis2(i));
    EXPECT_LE(std::abs(dis1(i)), width / 2);
    any_diff |= dis1(i) != dis3(i);
  }
  EXPECT_TRUE(any_diff) << "different realizations must differ";
}

TEST(Hamiltonian, DisorderBreaksTranslationInvarianceOfSpectrum) {
  const auto lat = HypercubicLattice::chain(16);
  const auto clean = build_tight_binding_dense(lat);
  const auto dirty = build_tight_binding_dense(lat, {}, anderson_disorder(3.0, 7));
  const auto e_clean = kpm::diag::symmetric_eigenvalues(clean);
  const auto e_dirty = kpm::diag::symmetric_eigenvalues(dirty);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < 16; ++i)
    max_diff = std::max(max_diff, std::abs(e_clean[i] - e_dirty[i]));
  EXPECT_GT(max_diff, 0.1);
}

TEST(Hamiltonian, ClosedFormSpectrumRequiresPeriodic) {
  const auto lat = HypercubicLattice::chain(4, Boundary::Open);
  EXPECT_THROW((void)periodic_tight_binding_spectrum(lat), kpm::Error);
}

TEST(Hamiltonian, ChainAlongYHopsLikeAChainAlongX) {
  // A 1 x 7 x 1 lattice is a 7-site chain with the same site indices; its
  // next-nearest hops run along y, not onto the site itself along x.
  TightBindingParams p;
  p.hopping_nnn = 0.3;
  p.onsite = 0.7;
  const HypercubicLattice along_y({1, 7, 1}, Boundary::Periodic);
  const auto chain = build_tight_binding_crs(HypercubicLattice::chain(7), p);
  EXPECT_TRUE(kpm::reference::identical_crs(build_tight_binding_crs(along_y, p), chain));
  auto eig = kpm::diag::symmetric_eigenvalues(build_tight_binding_dense(along_y, p));
  auto expected = periodic_tight_binding_spectrum(along_y, p);
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(eig.size(), expected.size());
  for (std::size_t i = 0; i < eig.size(); ++i) EXPECT_NEAR(eig[i], expected[i], 1e-10);
}

TEST(Hamiltonian, AndersonDisorderRejectsNonFiniteWidth) {
  EXPECT_THROW((void)anderson_disorder(std::nan(""), 1), kpm::Error);
  EXPECT_THROW((void)anderson_disorder(std::numeric_limits<double>::infinity(), 1), kpm::Error);
  EXPECT_THROW((void)anderson_disorder(-1.0, 1), kpm::Error);
}

/// Every lattice of the set-up sweep: chain, square and cubic, edges 1-5,
/// both boundaries.
std::vector<HypercubicLattice> sweep_lattices() {
  std::vector<HypercubicLattice> out;
  for (Boundary bc : {Boundary::Periodic, Boundary::Open})
    for (std::size_t edge = 1; edge <= 5; ++edge) {
      out.push_back(HypercubicLattice::chain(edge, bc));
      out.push_back(HypercubicLattice::square(edge, edge, bc));
      out.push_back(HypercubicLattice::cubic(edge, edge, edge, bc));
    }
  return out;
}

TEST(Hamiltonian, StencilAssemblyMatchesTripletSortBytewise) {
  // NNN hopping, uniform eps, Anderson disorder (none, W = 0, W = 1) and the
  // structural diagonal on and off: 1,620 operators, each byte-identical to
  // the triplet-sort assembly.
  std::size_t cases = 0;
  for (const auto& lat : sweep_lattices())
    for (double nnn : {0.0, 0.3, 1.0})
      for (double eps : {0.0, 0.7, -2.0})
        for (double width : {-1.0, 0.0, 1.0})
          for (bool diagonal : {true, false}) {
            TightBindingParams p;
            p.hopping_nnn = nnn;
            p.onsite = eps;
            p.store_zero_diagonal = diagonal;
            const OnsiteFunction onsite =
                width < 0.0 ? OnsiteFunction{} : anderson_disorder(width, 11);
            EXPECT_TRUE(kpm::reference::identical_crs(build_tight_binding_crs(lat, p, onsite),
                                                      kpm::reference::reference_tight_binding(
                                                          lat, p, onsite)))
                << lat.describe() << " t'=" << nnn << " eps=" << eps << " W=" << width
                << " diagonal=" << diagonal;
            ++cases;
          }
  EXPECT_EQ(cases, 1620u);
}

TEST(Hamiltonian, NeighbourWalksMatchCoordinateStencil) {
  for (const auto& lat : sweep_lattices())
    for (std::size_t i = 0; i < lat.sites(); ++i) {
      EXPECT_EQ(lat.neighbours(i), kpm::reference::reference_neighbours(lat, i))
          << lat.describe() << " site " << i;
      EXPECT_EQ(lat.next_nearest_neighbours(i), kpm::reference::reference_next_nearest(lat, i))
          << lat.describe() << " site " << i;
    }
}

}  // namespace
