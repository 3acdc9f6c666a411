// Tests for the chunked double-buffered GPU moment engine.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/moments_cpu.hpp"
#include "core/moments_gpu.hpp"
#include "core/moments_gpu_chunked.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/spectral_transform.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

struct Fixture {
  linalg::CrsMatrix h_tilde;

  explicit Fixture(std::size_t l = 4) {
    const auto lat = lattice::HypercubicLattice::cubic(l, l, l);
    const auto h = lattice::build_tight_binding_crs(lat);
    linalg::MatrixOperator op(h);
    h_tilde = linalg::rescale(h, linalg::make_spectral_transform(op));
  }
};

MomentParams params_24() {
  MomentParams p;
  p.num_moments = 16;
  p.random_vectors = 6;
  p.realizations = 4;  // 24 instances
  return p;
}

ChunkedGpuEngineConfig tiny_chunks() {
  ChunkedGpuEngineConfig cfg;
  // Workspace sized so only ~5 instances fit per chunk (D=64, N=16):
  // per-instance = 4*64*8 + 16*8 = 2176 B.
  cfg.workspace_bytes = 11000;
  return cfg;
}

TEST(ChunkedGpu, BitwiseEqualToPlainEngineAcrossChunkBoundaries) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto p = params_24();
  GpuMomentEngine plain;
  const auto a = plain.compute(op, p);
  ChunkedGpuMomentEngine chunked(tiny_chunks());
  const auto b = chunked.compute(op, p);
  EXPECT_GT(chunked.last_chunk_count(), 3u) << "the test must actually chunk";
  ASSERT_EQ(a.mu.size(), b.mu.size());
  for (std::size_t n = 0; n < a.mu.size(); ++n) EXPECT_EQ(a.mu[n], b.mu[n]) << "moment " << n;
}

TEST(ChunkedGpu, MatchesCpuReferenceBitwise) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto p = params_24();
  CpuMomentEngine cpu;
  const auto a = cpu.compute(op, p);
  ChunkedGpuMomentEngine chunked(tiny_chunks());
  const auto b = chunked.compute(op, p);
  for (std::size_t n = 0; n < a.mu.size(); ++n) EXPECT_EQ(a.mu[n], b.mu[n]);
}

TEST(ChunkedGpu, HandlesWorkloadsThePlainEngineCannot) {
  // Plain engine: 3 vectors * instances * D * 8 B exceed 3 GB; chunked
  // engine runs it in bounded workspace.
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  MomentParams p;
  p.num_moments = 4;
  p.random_vectors = 1 << 13;
  p.realizations = 1 << 10;  // 2^23 instances * 64 * 8 = 4 GB: first alloc already fails
  GpuMomentEngine plain;
  EXPECT_THROW((void)plain.compute(op, p, 2), kpm::Error);
  ChunkedGpuEngineConfig cfg;
  cfg.workspace_bytes = 1 << 20;
  ChunkedGpuMomentEngine chunked(cfg);
  EXPECT_NO_THROW((void)chunked.compute(op, p, 2));
}

TEST(ChunkedGpu, OverlapHidesTheFillKernel) {
  // Same computation with and without the second stream: the overlapped
  // variant must model a strictly shorter wall clock, and at most the
  // serial one.
  Fixture f(6);
  linalg::MatrixOperator op(f.h_tilde);
  MomentParams p;
  p.num_moments = 32;
  p.random_vectors = 16;
  p.realizations = 4;

  ChunkedGpuEngineConfig cfg;
  cfg.base.context_setup_seconds = 0.0;
  cfg.workspace_bytes = 16 * (4 * 216 * 8 + 32 * 8);  // 16 instances/chunk
  cfg.overlap_fill = false;
  const double serial = ChunkedGpuMomentEngine(cfg).compute(op, p).model_seconds;
  cfg.overlap_fill = true;
  const double overlapped = ChunkedGpuMomentEngine(cfg).compute(op, p).model_seconds;
  EXPECT_LT(overlapped, serial);
}

TEST(ChunkedGpu, SingleChunkDegeneratesToPlainFlow) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto p = params_24();
  ChunkedGpuEngineConfig cfg;  // default huge workspace: one chunk
  ChunkedGpuMomentEngine chunked(cfg);
  const auto r = chunked.compute(op, p);
  EXPECT_EQ(chunked.last_chunk_count(), 1u);
  GpuMomentEngine plain;
  const auto a = plain.compute(op, p);
  for (std::size_t n = 0; n < a.mu.size(); ++n) EXPECT_EQ(a.mu[n], r.mu[n]);
}

TEST(ChunkedGpu, BothMappingsSupported) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto p = params_24();
  CpuMomentEngine cpu;
  const auto reference = cpu.compute(op, p);
  for (auto mapping : {GpuMapping::InstancePerBlock, GpuMapping::InstancePerThread}) {
    auto cfg = tiny_chunks();
    cfg.base.mapping = mapping;
    ChunkedGpuMomentEngine chunked(cfg);
    const auto r = chunked.compute(op, p);
    for (std::size_t n = 0; n < r.mu.size(); ++n)
      EXPECT_EQ(r.mu[n], reference.mu[n]) << to_string(mapping) << " moment " << n;
  }
}

TEST(ChunkedGpu, PairedBitwiseEqualToPlainPairedEngineAcrossChunkBoundaries) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto p = params_24();
  GpuEngineConfig paired;
  paired.paired_moments = true;
  GpuMomentEngine plain(paired);
  const auto a = plain.compute(op, p);
  auto cfg = tiny_chunks();
  cfg.base = paired;
  ChunkedGpuMomentEngine chunked(cfg);
  const auto b = chunked.compute(op, p);
  EXPECT_GE(chunked.last_chunk_count(), 2u) << "the test must actually chunk";
  EXPECT_EQ(b.engine, "gpu-chunked-instance-per-block-overlap-paired");
  ASSERT_EQ(a.mu.size(), b.mu.size());
  for (std::size_t n = 0; n < a.mu.size(); ++n) EXPECT_EQ(a.mu[n], b.mu[n]) << "moment " << n;
}

TEST(ChunkedGpu, PairedRequiresInstancePerBlock) {
  ChunkedGpuEngineConfig cfg;
  cfg.base.paired_moments = true;
  cfg.base.mapping = GpuMapping::InstancePerThread;
  EXPECT_THROW(ChunkedGpuMomentEngine{cfg}, kpm::Error);
}

TEST(ChunkedGpu, NameEncodesConfiguration) {
  ChunkedGpuEngineConfig cfg;
  cfg.overlap_fill = true;
  EXPECT_EQ(ChunkedGpuMomentEngine(cfg).name(), "gpu-chunked-instance-per-block-overlap");
  cfg.overlap_fill = false;
  cfg.base.mapping = GpuMapping::InstancePerThread;
  EXPECT_EQ(ChunkedGpuMomentEngine(cfg).name(), "gpu-chunked-instance-per-thread-serial");
}

}  // namespace
