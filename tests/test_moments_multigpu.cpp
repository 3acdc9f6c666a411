// Tests for the multi-GPU moment engine (the paper's cluster future work).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/moments_cpu.hpp"
#include "core/moments_gpu.hpp"
#include "core/moments_multigpu.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/spectral_transform.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

struct Fixture {
  linalg::CrsMatrix h_tilde;

  Fixture(std::size_t l = 4) {
    const auto lat = lattice::HypercubicLattice::cubic(l, l, l);
    const auto h = lattice::build_tight_binding_crs(lat);
    linalg::MatrixOperator op(h);
    h_tilde = linalg::rescale(h, linalg::make_spectral_transform(op));
  }
};

MomentParams params_16_by_8() {
  MomentParams p;
  p.num_moments = 16;
  p.random_vectors = 8;
  p.realizations = 2;  // 16 instances
  return p;
}

TEST(MultiGpu, MatchesSingleGpuToRoundoff) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto p = params_16_by_8();

  GpuMomentEngine single;
  const auto a = single.compute(op, p);

  MultiGpuEngineConfig cfg;
  cfg.device_count = 4;
  MultiGpuMomentEngine multi(cfg);
  const auto b = multi.compute(op, p);

  ASSERT_EQ(a.mu.size(), b.mu.size());
  EXPECT_EQ(b.instances_executed, 16u);
  for (std::size_t n = 0; n < a.mu.size(); ++n)
    EXPECT_NEAR(a.mu[n], b.mu[n], 1e-13) << "moment " << n
                                         << " (device-major reduction reorders roundoff)";
}

TEST(MultiGpu, MatchesCpuReferenceToRoundoff) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto p = params_16_by_8();
  CpuMomentEngine cpu;
  const auto a = cpu.compute(op, p);
  MultiGpuEngineConfig cfg;
  cfg.device_count = 3;  // chunks of 6,6,4 — uneven split
  MultiGpuMomentEngine multi(cfg);
  const auto b = multi.compute(op, p);
  for (std::size_t n = 0; n < a.mu.size(); ++n) EXPECT_NEAR(a.mu[n], b.mu[n], 1e-13);
}

TEST(MultiGpu, OneDeviceClusterEqualsSingleGpuBitwise) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto p = params_16_by_8();
  GpuMomentEngine single;
  MultiGpuEngineConfig cfg;
  cfg.device_count = 1;
  MultiGpuMomentEngine multi(cfg);
  const auto a = single.compute(op, p);
  const auto b = multi.compute(op, p);
  // Same instances, same order, one weighted average with weight 1.
  for (std::size_t n = 0; n < a.mu.size(); ++n) EXPECT_EQ(a.mu[n], b.mu[n]);
}

TEST(MultiGpu, StrongScalingReducesWallClock) {
  Fixture f(6);  // D = 216: enough work that kernels dominate
  linalg::MatrixOperator op(f.h_tilde);
  MomentParams p;
  p.num_moments = 64;
  p.random_vectors = 16;
  p.realizations = 8;  // 128 instances

  double prev = 1e300;
  for (std::size_t g : {1u, 2u, 4u, 8u}) {
    MultiGpuEngineConfig cfg;
    cfg.device_count = g;
    MultiGpuMomentEngine multi(cfg);
    const auto r = multi.compute(op, p, 16);
    EXPECT_LT(r.model_seconds, prev) << g << " devices";
    prev = r.model_seconds;
    const auto& scaling = multi.last_scaling();
    EXPECT_GT(scaling.efficiency, 0.3) << g << " devices";
    EXPECT_LE(scaling.efficiency, 1.0 + 1e-9) << g << " devices";
  }
}

TEST(MultiGpu, ScalingReportIsConsistent) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  MultiGpuEngineConfig cfg;
  cfg.device_count = 4;
  MultiGpuMomentEngine multi(cfg);
  (void)multi.compute(op, params_16_by_8());
  const auto& s = multi.last_scaling();
  EXPECT_GT(s.parallel_seconds, 0.0);
  EXPECT_GE(s.serialized_seconds, s.parallel_seconds - s.communication_seconds - 1e-12);
  EXPECT_GT(s.communication_seconds, 0.0);
}

TEST(MultiGpu, MoreDevicesThanInstancesStillWorks) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  MomentParams p;
  p.num_moments = 8;
  p.random_vectors = 3;
  p.realizations = 1;  // 3 instances on 8 devices
  MultiGpuEngineConfig cfg;
  cfg.device_count = 8;
  MultiGpuMomentEngine multi(cfg);
  const auto r = multi.compute(op, p);
  EXPECT_EQ(r.instances_executed, 3u);
  CpuMomentEngine cpu;
  const auto a = cpu.compute(op, p);
  for (std::size_t n = 0; n < a.mu.size(); ++n) EXPECT_NEAR(a.mu[n], r.mu[n], 1e-13);
}

TEST(MultiGpu, RejectsBadConfig) {
  MultiGpuEngineConfig cfg;
  cfg.device_count = 0;
  EXPECT_THROW(MultiGpuMomentEngine{cfg}, kpm::Error);
  cfg = MultiGpuEngineConfig{};
  cfg.per_device.block_size = 17;
  EXPECT_THROW(MultiGpuMomentEngine{cfg}, kpm::Error);
}

TEST(MultiGpu, PairedMatchesSingleGpuPairedToRoundoff) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto p = params_16_by_8();
  MultiGpuEngineConfig cfg;
  cfg.device_count = 4;
  cfg.per_device.paired_moments = true;

  GpuMomentEngine single(cfg.per_device);
  const auto a = single.compute(op, p);
  MultiGpuMomentEngine multi(cfg);
  const auto b = multi.compute(op, p);

  ASSERT_EQ(a.mu.size(), b.mu.size());
  for (std::size_t n = 0; n < a.mu.size(); ++n) EXPECT_NEAR(a.mu[n], b.mu[n], 1e-14);
  // Paired moments take ceil(N/2) SpMVs: the modeled kernel time must drop.
  cfg.per_device.paired_moments = false;
  MultiGpuMomentEngine plain(cfg);
  EXPECT_LT(b.compute_seconds, plain.compute(op, p).compute_seconds);
}

TEST(MultiGpu, PairedRequiresInstancePerBlock) {
  MultiGpuEngineConfig cfg;
  cfg.per_device.paired_moments = true;
  cfg.per_device.mapping = GpuMapping::InstancePerThread;
  EXPECT_THROW(MultiGpuMomentEngine{cfg}, kpm::Error);
}

TEST(MultiGpu, NameEncodesTopology) {
  MultiGpuEngineConfig cfg;
  cfg.device_count = 4;
  EXPECT_EQ(MultiGpuMomentEngine(cfg).name(), "gpu-cluster-x4-instance-per-block");
  cfg.per_device.paired_moments = true;
  EXPECT_EQ(MultiGpuMomentEngine(cfg).name(), "gpu-cluster-x4-instance-per-block-paired");
}

}  // namespace
