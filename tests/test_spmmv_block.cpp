// Blocked (SpMMV) recursion tests: every kernel and every engine must be
// BIT-identical to its per-vector twin for any block width, on CRS and
// SELL-C-sigma storage, at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/conductivity.hpp"
#include "core/estimator_stats.hpp"
#include "core/ldos.hpp"
#include "core/moments_cpu.hpp"
#include "core/moments_f32.hpp"
#include "core/moments_hermitian.hpp"
#include "lattice/current.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "lattice/peierls.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/operator.hpp"
#include "linalg/sell_matrix.hpp"
#include "linalg/spectral_transform.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"

namespace {

using kpm::core::MomentParams;
using kpm::linalg::CrsMatrix;
using kpm::linalg::MatrixOperator;
using kpm::linalg::SellMatrix;
using kpm::linalg::TripletBuilder;

double wiggle(std::size_t i) {
  return std::sin(static_cast<double>(i) * 2.414213562373095 + 0.5) * 1.25;
}

/// Sparse square matrix with irregular row lengths (some rows empty).
CrsMatrix sparse_example(std::size_t d) {
  TripletBuilder b(d, d);
  for (std::size_t r = 0; r < d; ++r) {
    if (r % 5 == 4) continue;
    b.add(r, r, wiggle(r + 1));
    b.add(r, (r * 3 + 1) % d, wiggle(2 * r + 3));
    if (r % 2 == 0) b.add(r, (r + 7) % d, wiggle(4 * r + 1));
  }
  return b.build();
}

CrsMatrix cube_h_tilde(std::size_t edge = 4) {
  const auto lat = kpm::lattice::HypercubicLattice::cubic(edge, edge, edge);
  const auto h = kpm::lattice::build_tight_binding_crs(lat);
  MatrixOperator op(h);
  return kpm::linalg::rescale(h, kpm::linalg::make_spectral_transform(op));
}

/// x_blk[i*B + j] = member_j[i] — the interleaved layout of the kernels.
std::vector<double> interleave(const std::vector<std::vector<double>>& members) {
  const std::size_t b = members.size(), d = members[0].size();
  std::vector<double> blk(d * b);
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = 0; i < d; ++i) blk[i * b + j] = members[j][i];
  return blk;
}

MomentParams small_params(std::size_t n, std::size_t r, std::size_t s) {
  MomentParams p;
  p.num_moments = n;
  p.random_vectors = r;
  p.realizations = s;
  return p;
}

// ---------------------------------------------------------------------------
// Kernel level.

TEST(SpmmvKernels, BlockDotMatchesPerMemberDot) {
  const std::size_t d = 29;
  for (const std::size_t b : {1u, 2u, 3u, 4u, 8u}) {
    std::vector<std::vector<double>> xs(b, std::vector<double>(d)), ys = xs;
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < d; ++i) {
        xs[j][i] = wiggle(i * b + j + 1);
        ys[j][i] = wiggle(2 * i * b + 3 * j + 5);
      }
    const auto xb = interleave(xs), yb = interleave(ys);
    std::vector<double> dots(b);
    kpm::linalg::block_dot(xb, yb, b, dots);
    for (std::size_t j = 0; j < b; ++j)
      EXPECT_EQ(dots[j], kpm::linalg::dot(xs[j], ys[j])) << "B=" << b << " member " << j;
  }
}

TEST(SpmmvKernels, MultiplyMatchesPerVectorBitwise) {
  const auto crs = sparse_example(23);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  const auto dense = crs.to_dense();
  const std::size_t d = crs.rows();
  for (const std::size_t b : {1u, 2u, 3u, 5u, 8u}) {
    std::vector<std::vector<double>> xs(b, std::vector<double>(d));
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < d; ++i) xs[j][i] = wiggle(i * b + 7 * j + 2);
    const auto xb = interleave(xs);
    std::vector<double> expect(d);
    for (const MatrixOperator& op :
         {MatrixOperator(crs), MatrixOperator(sell), MatrixOperator(dense)}) {
      std::vector<double> yb(d * b);
      kpm::linalg::spmmv_multiply(op, b, xb, yb);
      for (std::size_t j = 0; j < b; ++j) {
        op.multiply(xs[j], expect);
        for (std::size_t i = 0; i < d; ++i)
          EXPECT_EQ(yb[i * b + j], expect[i])
              << kpm::linalg::to_string(op.storage()) << " B=" << b << " member " << j;
      }
    }
  }
}

TEST(SpmmvKernels, CombineDotMatchesPerVectorBitwise) {
  const auto crs = sparse_example(23);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  const std::size_t d = crs.rows();
  for (const std::size_t b : {1u, 2u, 4u, 7u}) {
    std::vector<std::vector<double>> prevs(b, std::vector<double>(d)), prev2s = prevs,
                                     r0s = prevs;
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < d; ++i) {
        prevs[j][i] = wiggle(i * b + j + 2);
        prev2s[j][i] = wiggle(3 * (i * b + j) + 5);
        r0s[j][i] = wiggle(7 * (i * b + j) + 1);
      }
    const auto prev_b = interleave(prevs), prev2_b = interleave(prev2s), r0_b = interleave(r0s);
    for (const MatrixOperator& op : {MatrixOperator(crs), MatrixOperator(sell)}) {
      std::vector<double> next_b(d * b), dots(b), expect_next(d), mu(1);
      kpm::linalg::spmmv_combine_dot(op, b, prev_b, prev2_b, r0_b, next_b, dots);
      for (std::size_t j = 0; j < b; ++j) {
        kpm::linalg::spmmv_combine_dot(op, 1, prevs[j], prev2s[j], r0s[j], expect_next, mu);
        EXPECT_EQ(dots[j], mu[0]) << "B=" << b << " member " << j;
        for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(next_b[i * b + j], expect_next[i]);
      }
    }
  }
}

TEST(SpmmvKernels, CombineDot2MatchesPerVectorBitwise) {
  const auto crs = sparse_example(23);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  const std::size_t d = crs.rows();
  const std::size_t b = 3;
  std::vector<std::vector<double>> prevs(b, std::vector<double>(d)), prev2s = prevs;
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = 0; i < d; ++i) {
      prevs[j][i] = wiggle(5 * (i * b + j) + 2);
      prev2s[j][i] = wiggle(11 * (i * b + j) + 3);
    }
  const auto prev_b = interleave(prevs), prev2_b = interleave(prev2s);
  for (const MatrixOperator& op : {MatrixOperator(crs), MatrixOperator(sell)}) {
    std::vector<double> next_b(d * b), expect_next(d);
    std::vector<kpm::linalg::PairedDots> dots(b), expect(1);
    kpm::linalg::spmmv_combine_dot2(op, b, prev_b, prev2_b, next_b, dots);
    for (std::size_t j = 0; j < b; ++j) {
      kpm::linalg::spmmv_combine_dot2(op, 1, prevs[j], prev2s[j], expect_next, expect);
      EXPECT_EQ(dots[j].next_prev, expect[0].next_prev) << "member " << j;
      EXPECT_EQ(dots[j].prev_prev, expect[0].prev_prev) << "member " << j;
      for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(next_b[i * b + j], expect_next[i]);
    }
  }
}

// Every compile-time width {1, 2, 4, 8, 16, 32}, the generic fallback (3,
// 33) and a block wider than one generic tile (70), on every storage.  The
// expectation is the UNFUSED per-vector sequence (multiply, combine, dot),
// so the blocked kernels are checked against code they share nothing with.
TEST(SpmmvKernels, EveryWidthMatchesUnfusedPerVectorBitwise) {
  const auto crs = sparse_example(23);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  const auto dense = crs.to_dense();
  const std::size_t d = crs.rows();
  for (const std::size_t b : {1u, 2u, 3u, 4u, 8u, 16u, 32u, 33u, 70u}) {
    std::vector<std::vector<double>> prevs(b, std::vector<double>(d)), prev2s = prevs,
                                     r0s = prevs;
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < d; ++i) {
        prevs[j][i] = wiggle(i * b + j + 2);
        prev2s[j][i] = wiggle(3 * (i * b + j) + 5);
        r0s[j][i] = wiggle(7 * (i * b + j) + 1);
      }
    const auto prev_b = interleave(prevs), prev2_b = interleave(prev2s), r0_b = interleave(r0s);

    std::vector<double> block_dots(b);
    kpm::linalg::block_dot(prev_b, r0_b, b, block_dots);
    for (std::size_t j = 0; j < b; ++j)
      EXPECT_EQ(block_dots[j], kpm::linalg::dot(prevs[j], r0s[j])) << "B=" << b << " j=" << j;

    for (const MatrixOperator& op :
         {MatrixOperator(crs), MatrixOperator(sell), MatrixOperator(dense)}) {
      const std::string where =
          std::string(kpm::linalg::to_string(op.storage())) + " B=" + std::to_string(b);
      std::vector<double> hx_b(d * b), next_b(d * b), next2_b(d * b), dots(b);
      std::vector<kpm::linalg::PairedDots> dots2(b);
      kpm::linalg::spmmv_multiply(op, b, prev_b, hx_b);
      kpm::linalg::spmmv_combine_dot(op, b, prev_b, prev2_b, r0_b, next_b, dots);
      kpm::linalg::spmmv_combine_dot2(op, b, prev_b, prev2_b, next2_b, dots2);
      std::vector<double> hx(d), next(d);
      for (std::size_t j = 0; j < b; ++j) {
        op.multiply(prevs[j], hx);
        kpm::linalg::chebyshev_combine(hx, prev2s[j], next);
        EXPECT_EQ(dots[j], kpm::linalg::dot(r0s[j], next)) << where << " j=" << j;
        EXPECT_EQ(dots2[j].next_prev, kpm::linalg::dot(next, prevs[j])) << where << " j=" << j;
        EXPECT_EQ(dots2[j].prev_prev, kpm::linalg::dot(prevs[j], prevs[j]))
            << where << " j=" << j;
        for (std::size_t i = 0; i < d; ++i) {
          ASSERT_EQ(hx_b[i * b + j], hx[i]) << where << " j=" << j << " i=" << i;
          ASSERT_EQ(next_b[i * b + j], next[i]) << where << " j=" << j << " i=" << i;
          ASSERT_EQ(next2_b[i * b + j], next[i]) << where << " j=" << j << " i=" << i;
        }
      }
    }
  }
}

TEST(SpmmvKernels, ComplexCombineDotReMatchesPerVectorBitwise) {
  const auto h = kpm::lattice::build_square_flux_crs(4, 4, 0.25);
  const kpm::linalg::SpectralTransform t(h.gershgorin(), 0.02);
  const auto ht = kpm::linalg::rescale(h, t);
  const std::size_t d = ht.rows();
  const std::size_t b = 3;
  using Z = std::complex<double>;
  std::vector<std::vector<Z>> prevs(b, std::vector<Z>(d)), prev2s = prevs, r0s = prevs;
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = 0; i < d; ++i) {
      prevs[j][i] = Z(wiggle(i * b + j + 2), wiggle(i * b + j + 9));
      prev2s[j][i] = Z(wiggle(3 * (i * b + j) + 5), wiggle(i * b + j + 4));
      r0s[j][i] = Z(wiggle(7 * (i * b + j) + 1), wiggle(i * b + j + 6));
    }
  std::vector<Z> prev_b(d * b), prev2_b(d * b), r0_b(d * b), next_b(d * b), expect_next(d);
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = 0; i < d; ++i) {
      prev_b[i * b + j] = prevs[j][i];
      prev2_b[i * b + j] = prev2s[j][i];
      r0_b[i * b + j] = r0s[j][i];
    }
  std::vector<double> dots(b), mu(1);
  kpm::linalg::spmmv_combine_dot_re(ht, b, prev_b, prev2_b, r0_b, next_b, dots);
  for (std::size_t j = 0; j < b; ++j) {
    kpm::linalg::spmmv_combine_dot_re(ht, 1, prevs[j], prev2s[j], r0s[j], expect_next, mu);
    EXPECT_EQ(dots[j], mu[0]) << "member " << j;
    for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(next_b[i * b + j], expect_next[i]);
  }
}

TEST(SpmmvKernels, RejectsAliasedAndMalformedBlocks) {
  const auto crs = sparse_example(12);
  const std::size_t d = 12, b = 2;
  MatrixOperator op(crs);
  std::vector<double> prev(d * b, 1.0), prev2(d * b, 1.0), r0(d * b, 1.0), next(d * b),
      dots(b);
  // Aliased outputs must throw (KPM_REQUIRE regressions).
  EXPECT_THROW(kpm::linalg::spmmv_combine_dot(op, b, prev, prev2, r0, prev, dots), kpm::Error);
  EXPECT_THROW(kpm::linalg::spmmv_combine_dot(op, b, prev, prev2, r0, prev2, dots), kpm::Error);
  EXPECT_THROW(kpm::linalg::spmmv_multiply(op, b, prev, prev), kpm::Error);
  // Wrong block-span or dots sizes must throw.
  std::vector<double> short_vec(d * b - 1, 1.0), short_dots(b - 1);
  EXPECT_THROW(kpm::linalg::spmmv_combine_dot(op, b, short_vec, prev2, r0, next, dots),
               kpm::Error);
  EXPECT_THROW(kpm::linalg::spmmv_combine_dot(op, b, prev, prev2, r0, next, short_dots),
               kpm::Error);
  EXPECT_THROW(kpm::linalg::spmmv_multiply(op, b, short_vec, next), kpm::Error);
  // block = 0 is invalid.
  EXPECT_THROW(kpm::linalg::spmmv_multiply(op, 0, prev, next), kpm::Error);
}

// ---------------------------------------------------------------------------
// Engine level: params.block_r must not change any result bit.

TEST(BlockedEngines, ReferenceEngineIsBlockInvariant) {
  const auto crs = cube_h_tilde();
  const auto sell = SellMatrix::from_crs(crs, 8, 32);
  auto params = small_params(33, 6, 1);  // odd N, block does not divide instances
  kpm::core::CpuMomentEngine engine;
  params.block_r = 1;
  const auto reference = engine.compute(MatrixOperator(crs), params);
  for (const std::size_t b : {2u, 3u, 4u, 6u, 8u}) {
    params.block_r = b;
    for (const MatrixOperator& op : {MatrixOperator(crs), MatrixOperator(sell)}) {
      const auto blocked = engine.compute(op, params);
      ASSERT_EQ(blocked.mu.size(), reference.mu.size());
      for (std::size_t k = 0; k < reference.mu.size(); ++k)
        EXPECT_EQ(blocked.mu[k], reference.mu[k])
            << kpm::linalg::to_string(op.storage()) << " B=" << b << " k=" << k;
    }
  }
}

TEST(BlockedEngines, PairedEngineIsBlockInvariant) {
  const auto crs = cube_h_tilde();
  auto params = small_params(32, 5, 1);
  kpm::core::CpuPairedMomentEngine engine;
  params.block_r = 1;
  const auto reference = engine.compute(MatrixOperator(crs), params);
  for (const std::size_t b : {2u, 3u, 5u}) {
    params.block_r = b;
    const auto blocked = engine.compute(MatrixOperator(crs), params);
    for (std::size_t k = 0; k < reference.mu.size(); ++k)
      EXPECT_EQ(blocked.mu[k], reference.mu[k]) << "B=" << b << " k=" << k;
  }
}

TEST(BlockedEngines, ParallelEngineIsBlockAndThreadInvariant) {
  const auto crs = cube_h_tilde();
  auto params = small_params(24, 10, 1);
  params.block_r = 1;
  kpm::core::CpuMomentEngine serial;
  const auto reference = serial.compute(MatrixOperator(crs), params);
  params.block_r = 3;  // 10 instances -> groups of 3,3,3,1
  for (const int threads : {1, 2, 4, 7}) {
    kpm::core::CpuParallelMomentEngine engine(threads);
    const auto blocked = engine.compute(MatrixOperator(crs), params);
    for (std::size_t k = 0; k < reference.mu.size(); ++k)
      EXPECT_EQ(blocked.mu[k], reference.mu[k]) << "T=" << threads << " k=" << k;
  }
}

// One parallel engine keeps its lane workspaces across computes and
// reallocates them only when the shape changes: a larger block after a
// smaller one, a smaller operator with a ragged last group, and the
// unblocked path on the first operator again.  Every call must still equal
// a fresh serial reference bit for bit.
TEST(BlockedEngines, ParallelEngineReusesWorkspacesAcrossShapes) {
  const auto cube6 = cube_h_tilde(6), cube4 = cube_h_tilde(4);
  struct Shape {
    const CrsMatrix* h;
    std::size_t block, instances;
  };
  const Shape shapes[] = {{&cube6, 8, 20},   // groups 8, 8, 4
                          {&cube4, 3, 10},   // groups 3, 3, 3, 1
                          {&cube6, 1, 6}};   // unblocked path
  for (const int threads : {1, 2, 4, 7}) {
    kpm::core::CpuParallelMomentEngine engine(threads);
    for (int pass = 0; pass < 2; ++pass)
      for (const Shape& shape : shapes) {
        auto params = small_params(12, shape.instances, 1);
        params.block_r = shape.block;
        const MatrixOperator op(*shape.h);
        const auto expect = kpm::core::CpuMomentEngine().compute(op, params);
        const auto got = engine.compute(op, params);
        ASSERT_EQ(got.mu.size(), expect.mu.size());
        for (std::size_t k = 0; k < expect.mu.size(); ++k)
          EXPECT_EQ(got.mu[k], expect.mu[k]) << "T=" << threads << " pass=" << pass
                                             << " D=" << op.dim() << " B=" << shape.block
                                             << " k=" << k;
      }
  }
}

TEST(BlockedEngines, F32EngineIsBlockInvariant) {
  const auto crs = cube_h_tilde();
  auto params = small_params(24, 5, 1);
  kpm::core::CpuMomentEngineF32 engine;
  params.block_r = 1;
  const auto reference = engine.compute(MatrixOperator(crs), params);
  for (const std::size_t b : {2u, 5u}) {
    params.block_r = b;
    const auto blocked = engine.compute(MatrixOperator(crs), params);
    for (std::size_t k = 0; k < reference.mu.size(); ++k)
      EXPECT_EQ(blocked.mu[k], reference.mu[k]) << "B=" << b << " k=" << k;
  }
}

TEST(BlockedEngines, HermitianEngineIsBlockInvariant) {
  const auto h = kpm::lattice::build_square_flux_crs(4, 4, 0.25);
  const kpm::linalg::SpectralTransform t(h.gershgorin(), 0.02);
  const auto ht = kpm::linalg::rescale(h, t);
  auto params = small_params(16, 5, 1);
  kpm::core::HermitianMomentEngine engine;
  params.block_r = 1;
  const auto reference = engine.compute(ht, params);
  for (const std::size_t b : {2u, 5u}) {
    params.block_r = b;
    const auto blocked = engine.compute(ht, params);
    for (std::size_t k = 0; k < reference.mu.size(); ++k)
      EXPECT_EQ(blocked.mu[k], reference.mu[k]) << "B=" << b << " k=" << k;
  }
}

TEST(BlockedEngines, DeterministicTracesAreBlockInvariant) {
  const auto crs = cube_h_tilde(3);
  MatrixOperator op(crs);
  const auto reference = kpm::core::deterministic_trace_moments(op, 12, 1);
  for (const std::size_t b : {2u, 5u, 27u, 32u}) {
    const auto blocked = kpm::core::deterministic_trace_moments(op, 12, b);
    for (std::size_t k = 0; k < reference.size(); ++k)
      EXPECT_EQ(blocked[k], reference[k]) << "B=" << b << " k=" << k;
  }

  const auto h = kpm::lattice::build_square_flux_crs(4, 4, 0.25);
  const kpm::linalg::SpectralTransform t(h.gershgorin(), 0.02);
  const auto ht = kpm::linalg::rescale(h, t);
  const auto ref_z = kpm::core::deterministic_trace_moments_hermitian(ht, 10, 1);
  for (const std::size_t b : {3u, 16u}) {
    const auto blocked = kpm::core::deterministic_trace_moments_hermitian(ht, 10, b);
    for (std::size_t k = 0; k < ref_z.size(); ++k)
      EXPECT_EQ(blocked[k], ref_z[k]) << "B=" << b << " k=" << k;
  }
}

TEST(BlockedEngines, EstimatorStatisticsAreBlockInvariant) {
  const auto crs = cube_h_tilde(3);
  MatrixOperator op(crs);
  auto params = small_params(12, 4, 2);
  params.block_r = 1;
  const auto reference = kpm::core::estimate_moment_statistics(op, params, 7);
  for (const std::size_t b : {2u, 3u, 7u}) {
    params.block_r = b;
    const auto blocked = kpm::core::estimate_moment_statistics(op, params, 7);
    for (std::size_t k = 0; k < reference.mean.size(); ++k) {
      EXPECT_EQ(blocked.mean[k], reference.mean[k]) << "B=" << b << " k=" << k;
      EXPECT_EQ(blocked.standard_error[k], reference.standard_error[k]);
    }
  }
}

TEST(BlockedEngines, ConductivityIsBlockInvariant) {
  const auto lat = kpm::lattice::HypercubicLattice::square(4, 4);
  const auto h = kpm::lattice::build_tight_binding_crs(lat);
  MatrixOperator raw(h);
  const auto ht = kpm::linalg::rescale(h, kpm::linalg::make_spectral_transform(raw));
  const auto a = kpm::lattice::build_current_operator_crs(lat, 0);
  MatrixOperator h_op(ht), a_op(a);
  auto params = small_params(8, 5, 1);
  params.block_r = 1;
  const auto reference = kpm::core::conductivity_moments(h_op, a_op, params);
  for (const std::size_t b : {2u, 3u, 5u}) {
    params.block_r = b;
    const auto blocked = kpm::core::conductivity_moments(h_op, a_op, params);
    for (std::size_t k = 0; k < reference.mu.size(); ++k)
      EXPECT_EQ(blocked.mu[k], reference.mu[k]) << "B=" << b << " k=" << k;
  }
}

// The blocked fused kernels must keep metering the exact fused-step model:
// FusedBytes for one blocked call equals fused_step_workload(op, dots, B)
// bytes (test_golden_metrics checks the scalar path byte-for-byte).
TEST(BlockedEngines, BlockedFusedMeteringMatchesWorkloadModel) {
  const auto crs = cube_h_tilde(3);
  MatrixOperator op(crs);
  const std::size_t d = op.dim(), b = 4;
  std::vector<double> prev(d * b), prev2(d * b), r0(d * b), next(d * b), dots(b);
  for (std::size_t i = 0; i < d * b; ++i) {
    prev[i] = wiggle(i + 1);
    prev2[i] = wiggle(2 * i + 3);
    r0[i] = wiggle(3 * i + 2);
  }
  kpm::obs::Report report;
  {
    kpm::obs::Collect collect(report);
    kpm::linalg::spmmv_combine_dot(op, b, prev, prev2, r0, next, dots);
  }
  const auto step = kpm::core::fused_step_workload(op, 1, b);
  EXPECT_EQ(report.counters.get(kpm::obs::Counter::FusedBytes), step.bytes_streamed);
  EXPECT_EQ(report.counters.get(kpm::obs::Counter::Flops), step.flops);
  EXPECT_EQ(report.counters.get(kpm::obs::Counter::FusedCalls), 1.0);
  EXPECT_EQ(report.counters.get(kpm::obs::Counter::SpmvCalls), static_cast<double>(b));
  EXPECT_EQ(report.counters.get(kpm::obs::Counter::DotCalls), static_cast<double>(b));
}

}  // namespace
