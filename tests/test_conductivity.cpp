// Tests for the Kubo-Greenwood conductivity via 2D KPM moments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "core/conductivity.hpp"
#include "core/damping.hpp"
#include "diag/jacobi.hpp"
#include "lattice/current.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/spectral_transform.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

/// Shared fixture: a periodic chain with its current operator.
struct Fixture {
  linalg::CrsMatrix h_tilde;
  linalg::CrsMatrix a_op;
  linalg::SpectralTransform transform;
  linalg::DenseMatrix h_raw;

  explicit Fixture(std::size_t sites = 24, double disorder = 0.0)
      : transform({-1.0, 1.0}, 0.0), h_raw(1, 1) {
    const auto lat = lattice::HypercubicLattice::chain(sites);
    const auto onsite =
        disorder > 0.0 ? lattice::anderson_disorder(disorder, 77) : lattice::OnsiteFunction{};
    const auto h = lattice::build_tight_binding_crs(lat, {}, onsite);
    h_raw = h.to_dense();
    linalg::MatrixOperator op(h);
    transform = linalg::make_spectral_transform(op);
    h_tilde = linalg::rescale(h, transform);
    a_op = lattice::build_current_operator_crs(lat, 0);
  }
};

MomentParams cond_params(std::size_t n = 24) {
  MomentParams p;
  p.num_moments = n;
  p.random_vectors = 16;
  p.realizations = 4;
  return p;
}

TEST(Conductivity, MomentMatrixIsSymmetric) {
  // Tr[T_n J T_m J] = Tr[T_m J T_n J] by trace cyclicity: mu_nm = mu_mn up
  // to stochastic noise... but each instance's estimator is NOT symmetric;
  // check approximate symmetry with many instances.
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  const auto m = conductivity_moments(h, a, cond_params(12));
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = i + 1; j < 12; ++j)
      EXPECT_NEAR(m.at(i, j), m.at(j, i), 0.2) << i << "," << j;
}

TEST(Conductivity, MatchesExactDiagonalization) {
  // Deterministic comparison: compute mu_nm exactly from the spectrum,
  //   mu_nm = (1/D) sum_kl T_n(e_k) T_m(e_l) |<k|J|l>|^2 * (-1 factor via A)
  // and compare the reconstructed sigma(E) curves.
  Fixture f(16);
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);

  // Stochastic KPM with enough instances that noise is small relative to
  // the ballistic signal.
  MomentParams p = cond_params(16);
  p.random_vectors = 64;
  p.realizations = 8;
  const auto kpm_m = conductivity_moments(h, a, p);

  // Exact 2D moments from the eigen-decomposition of H~.
  diag::JacobiOptions jopts;
  jopts.compute_vectors = true;
  const auto ed = diag::jacobi_eigensolve(f.h_tilde.to_dense(), jopts);
  const std::size_t d = ed.eigenvalues.size();
  // M_kl = <k|A|l>.
  const auto a_dense = f.a_op.to_dense();
  linalg::DenseMatrix m_kl(d, d);
  std::vector<double> av(d), v(d);
  for (std::size_t l = 0; l < d; ++l) {
    for (std::size_t i = 0; i < d; ++i) v[i] = ed.eigenvectors(i, l);
    a_dense.multiply(v, av);
    for (std::size_t k = 0; k < d; ++k) {
      double acc = 0.0;
      for (std::size_t i = 0; i < d; ++i) acc += ed.eigenvectors(i, k) * av[i];
      m_kl(k, l) = acc;
    }
  }
  ConductivityMoments exact;
  exact.num_moments = 16;
  exact.mu.assign(16 * 16, 0.0);
  for (std::size_t n = 0; n < 16; ++n)
    for (std::size_t mm = 0; mm < 16; ++mm) {
      double acc = 0.0;
      for (std::size_t k = 0; k < d; ++k)
        for (std::size_t l = 0; l < d; ++l) {
          const double tn = std::cos(static_cast<double>(n) * std::acos(std::clamp(ed.eigenvalues[k], -1.0, 1.0)));
          const double tm = std::cos(static_cast<double>(mm) * std::acos(std::clamp(ed.eigenvalues[l], -1.0, 1.0)));
          // mu^J = -(1/D) Tr[T_n A T_m A]; <k|A|l><l|A|k> = -M_kl^2.
          acc += tn * tm * m_kl(k, l) * m_kl(k, l);
        }
      exact.mu[n * 16 + mm] = acc / static_cast<double>(d);
    }

  const auto curve_kpm = reconstruct_conductivity(kpm_m, f.transform, {.points = 64});
  const auto curve_exact = reconstruct_conductivity(exact, f.transform, {.points = 64});
  double scale = *std::max_element(curve_exact.sigma.begin(), curve_exact.sigma.end());
  ASSERT_GT(scale, 0.0);
  for (std::size_t j = 0; j < curve_kpm.sigma.size(); ++j)
    EXPECT_NEAR(curve_kpm.sigma[j] / scale, curve_exact.sigma[j] / scale, 0.15)
        << "E=" << curve_kpm.energy[j];
}

TEST(Conductivity, NonNegativeEverywhere) {
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  const auto m = conductivity_moments(h, a, cond_params());
  const auto curve = reconstruct_conductivity(m, f.transform);
  for (std::size_t j = 0; j < curve.sigma.size(); ++j)
    EXPECT_GE(curve.sigma[j], -1e-10) << "E=" << curve.energy[j];
}

TEST(Conductivity, BallisticChainConductsInsideTheBand) {
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  const auto m = conductivity_moments(h, a, cond_params());
  const auto curve = reconstruct_conductivity(m, f.transform);
  // sigma at the band center far exceeds sigma outside the band.
  double center = 0.0, outside = 0.0;
  for (std::size_t j = 0; j < curve.energy.size(); ++j) {
    if (std::abs(curve.energy[j]) < 0.3) center = std::max(center, curve.sigma[j]);
    if (std::abs(curve.energy[j]) > 2.3) outside = std::max(outside, curve.sigma[j]);
  }
  EXPECT_GT(center, 5.0 * outside);
}

TEST(Conductivity, DisorderSuppressesConductivity) {
  Fixture clean(24, 0.0);
  Fixture dirty(24, 3.0);
  const auto p = cond_params();
  linalg::MatrixOperator hc(clean.h_tilde), ac(clean.a_op);
  linalg::MatrixOperator hd(dirty.h_tilde), ad(dirty.a_op);
  const auto mc = conductivity_moments(hc, ac, p);
  const auto md = conductivity_moments(hd, ad, p);
  const auto cc = reconstruct_conductivity(mc, clean.transform);
  const auto cd = reconstruct_conductivity(md, dirty.transform);
  // Compare the peak (band-center) conductivities.
  const double peak_clean = *std::max_element(cc.sigma.begin(), cc.sigma.end());
  const double peak_dirty = *std::max_element(cd.sigma.begin(), cd.sigma.end());
  EXPECT_LT(peak_dirty, 0.7 * peak_clean);
}

TEST(Conductivity, DeterministicForFixedSeed) {
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  const auto m1 = conductivity_moments(h, a, cond_params(8), 4);
  const auto m2 = conductivity_moments(h, a, cond_params(8), 4);
  for (std::size_t i = 0; i < m1.mu.size(); ++i) EXPECT_EQ(m1.mu[i], m2.mu[i]);
}

TEST(Conductivity, BlockWiderThanTheInstancesRunIsBitwiseEqual) {
  // A block far wider than the three instances run is one group of three:
  // the workspaces follow the instances, and the moments match block 1.
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  auto narrow = cond_params(8);
  auto wide = narrow;
  wide.block_r = 100000;
  const auto m1 = conductivity_moments(h, a, narrow, 3);
  const auto mw = conductivity_moments(h, a, wide, 3);
  ASSERT_EQ(m1.mu.size(), mw.mu.size());
  for (std::size_t i = 0; i < m1.mu.size(); ++i) EXPECT_EQ(m1.mu[i], mw.mu[i]) << i;
}

TEST(Conductivity, RejectsBadInput) {
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  const auto lat2 = lattice::HypercubicLattice::chain(10);
  const auto wrong = lattice::build_current_operator_crs(lat2, 0);
  linalg::MatrixOperator w(wrong);
  EXPECT_THROW((void)conductivity_moments(h, w, cond_params()), kpm::Error);

  ConductivityMoments empty;
  EXPECT_THROW((void)reconstruct_conductivity(empty, f.transform), kpm::Error);
  const auto m = conductivity_moments(h, a, cond_params(8), 2);
  ConductivityOptions bad;
  bad.edge_clip = 1.5;
  EXPECT_THROW((void)reconstruct_conductivity(m, f.transform, bad), kpm::Error);
}

}  // namespace
