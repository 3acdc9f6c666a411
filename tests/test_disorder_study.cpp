// Tests for the disorder-averaging driver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/disorder_study.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

DisorderStudyOptions base_options(double width) {
  DisorderStudyOptions o;
  o.realizations = 4;
  o.params.num_moments = 48;
  o.params.random_vectors = 16;
  o.params.realizations = 1;
  o.reconstruct.points = 128;
  o.compute.engine = EngineKind::CpuReference;
  o.window = {-6.0 - width / 2.0, 6.0 + width / 2.0};
  return o;
}

HamiltonianFactory cubic_factory(double width, std::size_t edge = 4) {
  return [width, edge](std::size_t r) {
    const auto lat = lattice::HypercubicLattice::cubic(edge, edge, edge);
    return lattice::build_tight_binding_crs(
        lat, {}, width > 0.0 ? lattice::anderson_disorder(width, 123, r)
                             : lattice::OnsiteFunction{});
  };
}

TEST(DisorderStudy, CleanSystemHasNoDisorderVariance) {
  // Identical Hamiltonians but different vector seeds: the standard error
  // reflects only stochastic-vector noise and must be small.
  auto o = base_options(0.0);
  const auto study = run_disorder_study(cubic_factory(0.0, 5), o);
  ASSERT_EQ(study.mean.density.size(), 128u);
  double max_se = 0.0;
  for (double se : study.standard_error) max_se = std::max(max_se, se);
  EXPECT_LT(max_se, 0.025);
  EXPECT_EQ(study.realizations, 4u);
  EXPECT_GT(study.total_model_seconds, 0.0);
}

TEST(DisorderStudy, MeanIsNormalized) {
  auto o = base_options(2.0);
  const auto study = run_disorder_study(cubic_factory(2.0), o);
  double integral = 0.0;
  for (std::size_t j = 1; j < study.mean.energy.size(); ++j)
    integral += 0.5 * (study.mean.density[j] + study.mean.density[j - 1]) *
                (study.mean.energy[j] - study.mean.energy[j - 1]);
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(DisorderStudy, DisorderBroadensTheBand) {
  const auto clean = run_disorder_study(cubic_factory(0.0), base_options(0.0));
  auto o = base_options(4.0);
  const auto dirty = run_disorder_study(cubic_factory(4.0), o);
  // Density beyond the clean band edge (|E| > 6) appears with disorder.
  auto tail_weight = [](const DisorderStudy& s) {
    double acc = 0.0;
    for (std::size_t j = 1; j < s.mean.energy.size(); ++j)
      if (std::abs(s.mean.energy[j]) > 6.2)
        acc += 0.5 * (s.mean.density[j] + s.mean.density[j - 1]) *
               (s.mean.energy[j] - s.mean.energy[j - 1]);
    return acc;
  };
  EXPECT_GT(tail_weight(dirty), 4.0 * std::max(tail_weight(clean), 1e-6));
}

TEST(DisorderStudy, DisorderedVarianceExceedsCleanVariance) {
  // Same spectral window for both (identical Jackson broadening), so the
  // extra spread can only come from the disorder itself.
  const auto o = base_options(4.0);
  const auto clean = run_disorder_study(cubic_factory(0.0), o);
  const auto dirty = run_disorder_study(cubic_factory(4.0), o);
  double clean_se = 0.0, dirty_se = 0.0;
  for (double se : clean.standard_error) clean_se += se;
  for (double se : dirty.standard_error) dirty_se += se;
  EXPECT_GT(dirty_se, 1.5 * clean_se);
}

TEST(DisorderStudy, EscapingWindowIsCaught) {
  auto o = base_options(0.0);  // window exactly [-6, 6]
  // Disorder of width 4 pushes Gershgorin bounds past +-6.
  EXPECT_THROW((void)run_disorder_study(cubic_factory(4.0), o), kpm::Error);
}

TEST(DisorderStudy, RejectsBadOptions) {
  auto o = base_options(0.0);
  EXPECT_THROW((void)run_disorder_study(nullptr, o), kpm::Error);
  o.realizations = 0;
  EXPECT_THROW((void)run_disorder_study(cubic_factory(0.0), o), kpm::Error);
  o = base_options(0.0);
  o.window = {2.0, -2.0};
  EXPECT_THROW((void)run_disorder_study(cubic_factory(0.0), o), kpm::Error);
}

TEST(DisorderStudy, GpuEngineAgreesWithCpuEngine) {
  auto o = base_options(1.0);
  o.compute.engine = EngineKind::CpuReference;
  const auto a = run_disorder_study(cubic_factory(1.0), o);
  o.compute.engine = EngineKind::Gpu;
  const auto b = run_disorder_study(cubic_factory(1.0), o);
  for (std::size_t j = 0; j < a.mean.density.size(); ++j)
    EXPECT_NEAR(a.mean.density[j], b.mean.density[j], 1e-12);
}

}  // namespace
