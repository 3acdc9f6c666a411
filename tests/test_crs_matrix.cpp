// Unit tests for CrsMatrix, TripletBuilder and the fused recursion kernels
// on the CRS path.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/peierls.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/hermitian_matrix.hpp"
#include "linalg/spectral_transform.hpp"
#include "linalg/vector_ops.hpp"
#include "triplet_reference.hpp"

namespace {

using kpm::linalg::CrsMatrix;
using kpm::linalg::dense_to_crs;
using kpm::linalg::DenseMatrix;
using kpm::linalg::TripletBuilder;

CrsMatrix small_example() {
  // [ 1 0 2 ]
  // [ 0 0 3 ]
  // [ 4 5 0 ]
  TripletBuilder b(3, 3);
  b.add(0, 0, 1);
  b.add(0, 2, 2);
  b.add(1, 2, 3);
  b.add(2, 0, 4);
  b.add(2, 1, 5);
  return b.build();
}

TEST(TripletBuilder, BuildsSortedCrs) {
  const auto m = small_example();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);  // not stored
}

TEST(TripletBuilder, DuplicatesAccumulate) {
  TripletBuilder b(2, 2);
  b.add(0, 1, 1.5);
  b.add(0, 1, 2.5);
  const auto m = b.build();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
}

TEST(TripletBuilder, ExactZeroSumsAreDropped) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, -1.0);
  b.add(1, 1, 2.0);
  const auto m = b.build();
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(TripletBuilder, AddSymmetricMirrorsOffDiagonal) {
  TripletBuilder b(3, 3);
  b.add_symmetric(0, 2, -1.0);
  b.add_symmetric(1, 1, 5.0);  // diagonal added once
  const auto m = b.build();
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
}

TEST(TripletBuilder, OutOfRangeThrows) {
  TripletBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), kpm::Error);
  EXPECT_THROW(b.add(0, 2, 1.0), kpm::Error);
}

TEST(CrsMatrix, MultiplyMatchesDense) {
  const auto m = small_example();
  const auto dense = m.to_dense();
  std::vector<double> x{1, 2, 3};
  std::vector<double> y_crs(3), y_dense(3);
  m.multiply(x, y_crs);
  dense.multiply(x, y_dense);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y_crs[static_cast<std::size_t>(i)], y_dense[static_cast<std::size_t>(i)]);
}

TEST(CrsMatrix, MaxRowNnz) { EXPECT_EQ(small_example().max_row_nnz(), 2u); }

TEST(CrsMatrix, SymmetryDetection) {
  TripletBuilder b(2, 2);
  b.add_symmetric(0, 1, 3.0);
  EXPECT_TRUE(b.build().is_symmetric());
  TripletBuilder b2(2, 2);
  b2.add(0, 1, 3.0);
  EXPECT_FALSE(b2.build().is_symmetric());
}

TEST(CrsMatrix, DenseRoundTrip) {
  DenseMatrix d(2, 3);
  d(0, 1) = 2.0;
  d(1, 2) = -4.0;
  const auto m = dense_to_crs(d);
  EXPECT_EQ(m.nnz(), 2u);
  const auto back = m.to_dense();
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(back(r, c), d(r, c));
}

TEST(CrsMatrix, DropToleranceFilters) {
  DenseMatrix d(1, 3);
  d(0, 0) = 1e-14;
  d(0, 1) = 0.5;
  const auto m = dense_to_crs(d, 1e-12);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(CrsMatrix, ValidationRejectsMalformedArrays) {
  // row_ptr wrong length.
  EXPECT_THROW(CrsMatrix(2, 2, {0, 1}, {0}, {1.0}), kpm::Error);
  // row_ptr not starting at 0.
  EXPECT_THROW(CrsMatrix(1, 1, {1, 1}, {}, {}), kpm::Error);
  // column out of range.
  EXPECT_THROW(CrsMatrix(1, 1, {0, 1}, {5}, {1.0}), kpm::Error);
  // unsorted columns within a row.
  EXPECT_THROW(CrsMatrix(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}), kpm::Error);
  // nnz mismatch.
  EXPECT_THROW(CrsMatrix(1, 2, {0, 2}, {0, 1}, {1.0}), kpm::Error);
}

TEST(CrsMatrix, StorageBytesAccounting) {
  const auto m = small_example();
  const std::size_t expected = 4 * sizeof(std::int32_t)        // row_ptr
                               + 5 * sizeof(std::int32_t)      // col_idx
                               + 5 * sizeof(double);           // values
  EXPECT_EQ(m.storage_bytes(), expected);
}

TEST(CrsMatrix, MultiplyRejectsAliasing) {
  const auto m = small_example();
  std::vector<double> x{1, 2, 3};
  EXPECT_THROW(m.multiply(x, x), kpm::Error);
}

// ---------------------------------------------------------------------------
// Fused recursion kernels, CRS path.

/// Deterministic awkward values so accumulation-order changes show up bitwise.
double wiggle(std::size_t i) {
  return std::sin(static_cast<double>(i) * 2.414213562373095 + 0.5) * 1.25;
}

/// Sparse square matrix with irregular row lengths (some rows empty).
CrsMatrix sparse_example(std::size_t d) {
  TripletBuilder b(d, d);
  for (std::size_t r = 0; r < d; ++r) {
    if (r % 5 == 4) continue;  // leave some rows entirely empty
    b.add(r, r, wiggle(r + 1));
    b.add(r, (r * 3 + 1) % d, wiggle(2 * r + 3));
    if (r % 2 == 0) b.add(r, (r + 7) % d, wiggle(4 * r + 1));
  }
  return b.build();
}

TEST(CrsFusedKernels, SpmvCombineDotMatchesUnfusedBitwise) {
  for (std::size_t d : {1u, 4u, 11u, 64u}) {
    const auto a = sparse_example(d);
    std::vector<double> r_prev(d), r_prev2(d), r0(d);
    for (std::size_t i = 0; i < d; ++i) {
      r_prev[i] = wiggle(i + 2);
      r_prev2[i] = wiggle(3 * i + 5);
      r0[i] = wiggle(7 * i + 1);
    }
    std::vector<double> hx(d), expected_next(d);
    a.multiply(r_prev, hx);
    kpm::linalg::chebyshev_combine(hx, r_prev2, expected_next);
    const double expected_mu = kpm::linalg::dot(r0, expected_next);

    std::vector<double> r_next(d), mu(1);
    kpm::linalg::spmmv_combine_dot(a, 1, r_prev, r_prev2, r0, r_next, mu);
    EXPECT_EQ(mu[0], expected_mu) << "d=" << d;  // bitwise equality required
    for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(r_next[i], expected_next[i]);
  }
}

TEST(CrsFusedKernels, SpmvCombineDot2MatchesUnfusedBitwise) {
  const std::size_t d = 17;
  const auto a = sparse_example(d);
  std::vector<double> r_prev(d), r_prev2(d);
  for (std::size_t i = 0; i < d; ++i) {
    r_prev[i] = wiggle(5 * i + 2);
    r_prev2[i] = wiggle(11 * i + 3);
  }
  std::vector<double> hx(d), expected_next(d);
  a.multiply(r_prev, hx);
  kpm::linalg::chebyshev_combine(hx, r_prev2, expected_next);
  const double expected_np = kpm::linalg::dot(expected_next, r_prev);
  const double expected_pp = kpm::linalg::dot(r_prev, r_prev);

  std::vector<double> r_next(d);
  std::vector<kpm::linalg::PairedDots> dots(1);
  kpm::linalg::spmmv_combine_dot2(a, 1, r_prev, r_prev2, r_next, dots);
  EXPECT_EQ(dots[0].next_prev, expected_np);
  EXPECT_EQ(dots[0].prev_prev, expected_pp);
  for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(r_next[i], expected_next[i]);
}

TEST(CrsFusedKernels, RejectsAliasedOutputAndMismatchedSizes) {
  const auto a = sparse_example(6);
  using kpm::linalg::spmmv_combine_dot;
  using kpm::linalg::spmmv_combine_dot2;
  std::vector<double> r_prev(6, 1.0), r_prev2(6, 1.0), r0(6, 1.0), out(6), mu(1);
  std::vector<kpm::linalg::PairedDots> dots(1);
  EXPECT_THROW(spmmv_combine_dot(a, 1, r_prev, r_prev2, r0, r_prev, mu), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot(a, 1, r_prev, r_prev2, r0, r_prev2, mu), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot2(a, 1, r_prev, r_prev2, r_prev, dots), kpm::Error);
  std::vector<double> bad(5, 1.0);
  EXPECT_THROW(spmmv_combine_dot(a, 1, bad, r_prev2, r0, out, mu), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot2(a, 1, r_prev, bad, out, dots), kpm::Error);
}

// ---------------------------------------------------------------------------
// Row-wise rescale against the triplet-sort reference.

using kpm::linalg::CrsMatrixZ;
using kpm::linalg::SpectralTransform;
using kpm::reference::identical_crs;
using kpm::reference::reference_rescale;

/// The three transforms of the sweep: Gershgorin-derived (widened by one on
/// each side when a single-site lattice makes it a point), centred on 0 and
/// off-centre.
std::vector<SpectralTransform> sweep_transforms(kpm::linalg::SpectralBounds gershgorin) {
  if (!(gershgorin.upper > gershgorin.lower))
    gershgorin = {gershgorin.lower - 1.0, gershgorin.upper + 1.0};
  return {SpectralTransform(gershgorin), SpectralTransform({-7.5, 7.5}),
          SpectralTransform({-3.25, 9.0})};
}

TEST(CrsRescale, MatchesTripletSortOnLatticeSweep) {
  using namespace kpm::lattice;
  std::size_t cases = 0;
  for (Boundary bc : {Boundary::Periodic, Boundary::Open})
    for (std::size_t edge = 1; edge <= 5; ++edge)
      for (const auto& lat : {HypercubicLattice::chain(edge, bc),
                              HypercubicLattice::square(edge, edge, bc),
                              HypercubicLattice::cubic(edge, edge, edge, bc)})
        for (double nnn : {0.0, 0.3, 1.0})
          for (double eps : {0.0, 0.7, -2.0})
            for (double width : {-1.0, 0.0, 1.0})
              for (bool diagonal : {true, false}) {
                TightBindingParams p;
                p.hopping_nnn = nnn;
                p.onsite = eps;
                p.store_zero_diagonal = diagonal;
                const auto h = build_tight_binding_crs(
                    lat, p, width < 0.0 ? OnsiteFunction{} : anderson_disorder(width, 5));
                const kpm::linalg::MatrixOperator op(h);
                for (const auto& t : sweep_transforms(kpm::linalg::gershgorin_bounds(op))) {
                  EXPECT_TRUE(identical_crs(rescale(h, t), reference_rescale(h, t)))
                      << lat.describe() << " t'=" << nnn << " eps=" << eps << " W=" << width
                      << " diagonal=" << diagonal << " center=" << t.center();
                  ++cases;
                }
              }
  EXPECT_EQ(cases, 3u * 1620u);
}

TEST(CrsRescale, ZeroCenterDropsStructuralZeros) {
  // The paper's cubic layout stores a zero diagonal; with a+ == 0 nothing is
  // added to it, so the rescaled matrix keeps only the hoppings.
  const auto h =
      kpm::lattice::build_tight_binding_crs(kpm::lattice::HypercubicLattice::cubic(3, 3, 3));
  ASSERT_EQ(h.nnz(), 27u * 7u);
  const SpectralTransform t({-6.0, 6.0}, 0.0);
  ASSERT_EQ(t.center(), 0.0);
  const auto ht = rescale(h, t);
  EXPECT_EQ(ht.nnz(), 27u * 6u);
  for (std::size_t r = 0; r < ht.rows(); ++r)
    for (auto k = ht.row_ptr()[r]; k < ht.row_ptr()[r + 1]; ++k)
      EXPECT_NE(static_cast<std::size_t>(ht.col_idx()[static_cast<std::size_t>(k)]), r);
  EXPECT_TRUE(identical_crs(ht, reference_rescale(h, t)));
}

TEST(CrsRescale, RowsWithoutDiagonalGainItInColumnOrder) {
  // Rows 0 and 3 lack a diagonal (row 3 is empty); row 1 holds one that
  // the shift cancels exactly, so it is dropped.
  TripletBuilder b(4, 4);
  b.add(0, 1, 1.5);
  b.add(0, 3, -0.25);
  b.add(1, 1, 2.0);
  b.add(1, 2, 0.5);
  b.add(2, 0, -1.0);
  b.add(2, 2, 4.0);
  const auto h = b.build();
  for (const auto& t : sweep_transforms({1.0, 3.0})) {
    const auto ht = rescale(h, t);
    EXPECT_TRUE(identical_crs(ht, reference_rescale(h, t))) << "center " << t.center();
    if (t.center() == 0.0) continue;
    const double shift = -t.center() * (1.0 / t.half_width());
    EXPECT_EQ(ht.col_idx()[0], 0);
    EXPECT_EQ(ht.at(0, 0), shift);
    EXPECT_EQ(ht.at(3, 3), shift);
  }
  const SpectralTransform cancel({1.0, 3.0}, 0.0);  // a+ = 2 = h_11
  const auto ht = rescale(h, cancel);
  EXPECT_EQ(ht.col_idx()[static_cast<std::size_t>(ht.row_ptr()[1])], 2);
  EXPECT_TRUE(identical_crs(ht, reference_rescale(h, cancel)));
}

TEST(CrsRescale, NegativeZeroEntriesMatchTheMerge) {
  // -0.0 is stored (on and off the diagonal); the merge starts each sum
  // from +0.0 and drops sums equal to zero.
  const CrsMatrix h(3, 3, {0, 2, 4, 5}, {0, 2, 0, 1, 2}, {-0.0, 1.0, -0.0, -0.0, 3.0});
  for (const auto& t : sweep_transforms({-2.0, 4.0}))
    EXPECT_TRUE(identical_crs(rescale(h, t), reference_rescale(h, t))) << "center " << t.center();
}

TEST(CrsRescale, ComplexMatchesTripletSortOnPeierlsLattices) {
  using kpm::lattice::Boundary;
  std::size_t cases = 0;
  for (std::size_t lx = 2; lx <= 6; ++lx)
    for (std::size_t p = 0; p < lx; ++p)
      for (Boundary bc : {Boundary::Periodic, Boundary::Open}) {
        const double phi = static_cast<double>(p) / static_cast<double>(lx);
        const auto h = kpm::lattice::build_square_flux_crs(lx, lx + 1, phi, 1.0, bc);
        for (const auto& t : sweep_transforms(h.gershgorin())) {
          EXPECT_TRUE(identical_crs(rescale(h, t), reference_rescale(h, t)))
              << lx << "x" << lx + 1 << " phi=" << phi << " center=" << t.center();
          ++cases;
        }
      }
  EXPECT_EQ(cases, 3u * 2u * (2 + 3 + 4 + 5 + 6));
}

TEST(CrsRescale, ComplexNegativeZeroComponentsMatchTheMerge) {
  using C = CrsMatrixZ::Complex;
  const CrsMatrixZ h(3, 3, {0, 2, 3, 4}, {0, 1, 0, 2},
                     {C(-0.0, 0.0), C(1.0, -0.0), C(1.0, 0.0), C(-0.0, -0.0)});
  for (const auto& t : sweep_transforms({-2.0, 4.0}))
    EXPECT_TRUE(identical_crs(rescale(h, t), reference_rescale(h, t))) << "center " << t.center();
}

}  // namespace
