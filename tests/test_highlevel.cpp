// Tests for the one-call DoS study facade.
#include <gtest/gtest.h>

#include <cmath>

#include "core/highlevel.hpp"
#include "core/moments_cpu.hpp"
#include "core/reconstruct.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

DosStudyOptions small_options(EngineKind engine) {
  DosStudyOptions o;
  o.compute.engine = engine;
  o.params.num_moments = 32;
  o.params.random_vectors = 4;
  o.params.realizations = 2;
  o.reconstruct.points = 128;
  return o;
}

class EngineSweep : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineSweep, FacadeMatchesManualPipeline) {
  const auto lat = lattice::HypercubicLattice::cubic(3, 3, 3);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);

  const auto study = compute_dos_study(op, small_options(GetParam()));

  // Manual pipeline with the CPU reference: the facade must agree to
  // reduction-reassociation tolerance (bitwise except for the cluster).
  const auto t = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, t);
  linalg::MatrixOperator op_t(ht);
  CpuMomentEngine manual;
  const auto manual_moments = manual.compute(op_t, small_options(GetParam()).params);
  ASSERT_EQ(study.moments.mu.size(), manual_moments.mu.size());
  for (std::size_t n = 0; n < manual_moments.mu.size(); ++n)
    EXPECT_NEAR(study.moments.mu[n], manual_moments.mu[n], 1e-13) << "moment " << n;

  EXPECT_DOUBLE_EQ(study.transform.center(), t.center());
  EXPECT_DOUBLE_EQ(study.transform.half_width(), t.half_width());
  EXPECT_NEAR(dos_integral(study.curve), 1.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineSweep,
                         ::testing::Values(EngineKind::CpuReference, EngineKind::CpuPaired,
                                           EngineKind::CpuParallel, EngineKind::Gpu,
                                           EngineKind::GpuCluster),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Highlevel, CpuParallelEngineMatchesReferenceBitwise) {
  const auto lat = lattice::HypercubicLattice::cubic(3, 3, 3);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  auto o = small_options(EngineKind::CpuReference);
  const auto ref = compute_dos_study(op, o);
  o.compute.engine = EngineKind::CpuParallel;
  o.compute.cpu_threads = 3;
  const auto par = compute_dos_study(op, o);
  ASSERT_EQ(ref.moments.mu.size(), par.moments.mu.size());
  for (std::size_t n = 0; n < ref.moments.mu.size(); ++n)
    EXPECT_EQ(ref.moments.mu[n], par.moments.mu[n]);
  EXPECT_EQ(par.moments.threads_used, 3);
}

TEST(Highlevel, DenseStorageWorks) {
  const auto h = lattice::random_symmetric_dense(24, 5);
  linalg::MatrixOperator op(h);
  const auto study = compute_dos_study(op, small_options(EngineKind::Gpu));
  EXPECT_EQ(study.moments.mu.size(), 32u);
  EXPECT_NEAR(dos_integral(study.curve), 1.0, 0.02);
}

TEST(Highlevel, LanczosBoundsGiveTighterWindow) {
  const auto h = lattice::random_symmetric_dense(32, 9);
  linalg::MatrixOperator op(h);
  auto o = small_options(EngineKind::CpuReference);
  const auto gersh = compute_dos_study(op, o);
  o.use_lanczos_bounds = true;
  const auto lancz = compute_dos_study(op, o);
  EXPECT_LT(lancz.transform.half_width(), gersh.transform.half_width());
  EXPECT_NEAR(dos_integral(lancz.curve), 1.0, 0.02);
}

TEST(Highlevel, SamplingPropagates) {
  const auto lat = lattice::HypercubicLattice::square(4, 4);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  auto o = small_options(EngineKind::Gpu);
  o.compute.sample_instances = 2;
  const auto study = compute_dos_study(op, o);
  EXPECT_EQ(study.moments.instances_executed, 2u);
  EXPECT_EQ(study.moments.instances_total, 8u);
}

TEST(Highlevel, ModelSecondsOrdering) {
  // For the same physics at PAPER scale: gpu < cpu-reference; paired <
  // reference.  (At toy scale the GPU's fixed context cost dominates and
  // the ordering legitimately flips — that regime is covered by Fig. 7.)
  const auto lat = lattice::HypercubicLattice::cubic(10, 10, 10);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  auto o = small_options(EngineKind::CpuReference);
  o.params.num_moments = 512;
  o.params.random_vectors = 14;
  o.params.realizations = 128;
  o.compute.sample_instances = 2;
  const double t_ref = compute_dos_study(op, o).moments.model_seconds;
  o.compute.engine = EngineKind::CpuPaired;
  const double t_paired = compute_dos_study(op, o).moments.model_seconds;
  o.compute.engine = EngineKind::Gpu;
  const double t_gpu = compute_dos_study(op, o).moments.model_seconds;
  EXPECT_LT(t_paired, t_ref);
  EXPECT_LT(t_gpu, t_ref);
}

}  // namespace
