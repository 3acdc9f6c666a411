// Cross-module integration: facade -> persistence -> offline observables,
// and the disorder driver end to end — the workflows a user chains.
#include <gtest/gtest.h>

#include <cmath>

#include "core/kpm.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

TEST(PipelineIntegration, StudySaveLoadReconstructThermo) {
  // 1. One-call study on the paper's lattice (trimmed).
  const auto lat = lattice::HypercubicLattice::cubic(6, 6, 6);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  DosStudyOptions opts;
  opts.params.num_moments = 128;
  opts.params.random_vectors = 16;
  opts.params.realizations = 8;  // 128 instances: odd-moment noise ~0.5%
  const auto study = compute_dos_study(op, opts);

  // 2. Persist the moments, reload, reconstruct offline.
  const std::string path = ::testing::TempDir() + "/pipeline_moments.kpm";
  MomentFile file;
  file.mu = study.moments.mu;
  file.transform_center = study.transform.center();
  file.transform_half_width = study.transform.half_width();
  file.dim = op.dim();
  file.engine = study.moments.engine;
  save_moments(path, file);

  const auto loaded = load_moments(path);
  const auto t2 = loaded.transform();
  const auto curve2 = reconstruct_dos(loaded.mu, t2, opts.reconstruct);
  ASSERT_EQ(curve2.density.size(), study.curve.density.size());
  for (std::size_t j = 0; j < curve2.density.size(); ++j)
    EXPECT_EQ(curve2.density[j], study.curve.density[j]) << "offline curve must be identical";

  // 3. Observables from the reloaded moments.
  const double filling = electron_filling(loaded.mu, t2, 0.0, 0.5);
  EXPECT_NEAR(filling, 0.5, 0.02);  // bipartite half filling (stochastic noise)
  const double mu_c = find_chemical_potential(loaded.mu, t2, 0.25, 0.5);
  EXPECT_LT(mu_c, 0.0);

  // 4. The FFT reconstruction agrees on the same data.
  ReconstructOptions ropts;
  ropts.points = 512;
  const auto direct = reconstruct_dos(loaded.mu, t2, ropts);
  const auto fast = reconstruct_dos_fft(loaded.mu, t2, ropts);
  for (std::size_t j = 0; j < direct.density.size(); ++j)
    EXPECT_NEAR(direct.density[j], fast.density[j],
                1e-10 * (1.0 + std::abs(direct.density[j])));
}

TEST(PipelineIntegration, DisorderStudyThroughGpuClusterEngine) {
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  DisorderStudyOptions opts;
  opts.realizations = 3;
  opts.params.num_moments = 48;
  opts.params.random_vectors = 6;
  opts.params.realizations = 1;
  opts.compute.engine = EngineKind::GpuCluster;
  opts.window = {-7.5, 7.5};
  const auto study = run_disorder_study(
      [&](std::size_t r) {
        return lattice::build_tight_binding_crs(lat, {},
                                                lattice::anderson_disorder(3.0, 55, r));
      },
      opts);
  EXPECT_EQ(study.realizations, 3u);
  double integral = 0.0;
  for (std::size_t j = 1; j < study.mean.energy.size(); ++j)
    integral += 0.5 * (study.mean.density[j] + study.mean.density[j - 1]) *
                (study.mean.energy[j] - study.mean.energy[j - 1]);
  EXPECT_NEAR(integral, 1.0, 0.02);
  EXPECT_GT(study.total_model_seconds, 0.0);
}

TEST(PipelineIntegration, EvolutionObserverSeesEveryStep) {
  const auto lat = lattice::HypercubicLattice::chain(32);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto transform = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, transform);
  linalg::MatrixOperator op_t(ht);
  ChebyshevPropagator prop(op_t, transform);

  std::vector<std::complex<double>> psi(32, {0.0, 0.0});
  psi[16] = {1.0, 0.0};

  struct ObserverState {
    std::size_t calls = 0;
    double worst_norm_error = 0.0;
  } state;
  const auto observer = +[](std::size_t /*step*/,
                            std::span<const std::complex<double>> s, void* ctx) {
    auto* st = static_cast<ObserverState*>(ctx);
    ++st->calls;
    st->worst_norm_error = std::max(st->worst_norm_error, std::abs(state_norm(s) - 1.0));
  };
  prop.evolve(psi, 6.0, 5, observer, &state);
  EXPECT_EQ(state.calls, 5u);
  EXPECT_LT(state.worst_norm_error, 1e-10);
}

TEST(PipelineIntegration, LdosMapFeedsHaydockCrossCheck) {
  // The GPU LDOS map and the Haydock recursion answer the same question
  // two ways; at matched broadening they must agree inside the band.
  const auto lat = lattice::HypercubicLattice::square(8, 8);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto transform = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, transform);
  linalg::MatrixOperator op_t(ht);

  const std::size_t site = 27, n = 96;
  const double eta = 0.2;
  GpuLdosEngine engine;
  const std::vector<std::size_t> sites{site};
  const auto map = engine.compute(op_t, sites, n);

  std::vector<double> energies{-2.0, -1.0, 0.0, 1.0, 2.0};
  ReconstructOptions ropts;
  ropts.kernel = DampingKernel::Lorentz;
  ropts.lorentz_lambda = eta * static_cast<double>(n) / transform.half_width();
  const auto kpm_curve = reconstruct_dos_at(map.site_moments(0), transform, energies, ropts);
  const auto haydock = diag::haydock_ldos(op, site, energies, {.steps = n, .eta = eta});
  for (std::size_t j = 0; j < energies.size(); ++j)
    EXPECT_NEAR(kpm_curve.density[j], haydock[j], 0.035) << "E=" << energies[j];
}

}  // namespace
