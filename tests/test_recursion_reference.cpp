// Unfused per-vector reference recursions, and the sweep that holds every
// host caller of the blocked Chebyshev recursion to them bit for bit.
//
// The host engines run the paper's per-vector recursion (Fig. 3) as a
// one-member group of the blocked SpMMV recursion, so B = 1 is no longer an
// independent code path inside the library.  The references below are
// written from the plain building blocks only — MatrixOperator::multiply,
// linalg::chebyshev_combine and linalg::dot for the real recursion, plain
// float and complex loops for the binary32 and Hermitian twins — and share
// no code with the fused kernels.  Every caller must reproduce them exactly
// at B in {1, 3, 8} (3 and 8 leave ragged final groups) on CRS and
// SELL-C-sigma storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/conductivity.hpp"
#include "core/estimator_stats.hpp"
#include "core/ldos.hpp"
#include "core/moments_cluster.hpp"
#include "core/moments_cpu.hpp"
#include "core/moments_f32.hpp"
#include "core/moments_hermitian.hpp"
#include "lattice/current.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "lattice/peierls.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/decomposition.hpp"
#include "linalg/hermitian_matrix.hpp"
#include "linalg/operator.hpp"
#include "linalg/sell_matrix.hpp"
#include "linalg/spectral_transform.hpp"
#include "linalg/vector_ops.hpp"
#include "rng/distributions.hpp"

namespace {

using kpm::core::MomentParams;
using kpm::linalg::CrsMatrix;
using kpm::linalg::MatrixOperator;
using kpm::linalg::SellMatrix;
using Complex = std::complex<double>;

// ---------------------------------------------------------------------------
// Reference recursions.

/// mu~_0..mu~_{n-1} of one start vector: r_1 = H~ r_0, r_k = 2 H~ r_{k-1} -
/// r_{k-2}, mu~_k = <r_0|r_k>, one unfused multiply, combine and dot each.
std::vector<double> reference_moments(const MatrixOperator& h, std::span<const double> r0,
                                      std::size_t n) {
  const std::size_t d = h.dim();
  std::vector<double> mu(n), prev2(r0.begin(), r0.end()), prev(d), hx(d), next(d);
  mu[0] = kpm::linalg::dot(r0, r0);
  if (n == 1) return mu;
  h.multiply(r0, prev);
  mu[1] = kpm::linalg::dot(r0, prev);
  for (std::size_t k = 2; k < n; ++k) {
    h.multiply(prev, hx);
    kpm::linalg::chebyshev_combine(hx, prev2, next);
    mu[k] = kpm::linalg::dot(r0, next);
    std::swap(prev2, prev);
    std::swap(prev, next);
  }
  return mu;
}

/// Two moments per multiply: mu~_{2k} = 2 <r_k|r_k> - mu~_0 and
/// mu~_{2k+1} = 2 <r_{k+1}|r_k> - mu~_1.
std::vector<double> reference_paired_moments(const MatrixOperator& h,
                                             std::span<const double> r0, std::size_t n) {
  const std::size_t d = h.dim();
  std::vector<double> mu(n), prev2(r0.begin(), r0.end()), prev(d), hx(d), next(d);
  const double mu0 = kpm::linalg::dot(r0, r0);
  h.multiply(r0, prev);
  const double mu1 = kpm::linalg::dot(r0, prev);
  mu[0] = mu0;
  mu[1] = mu1;
  for (std::size_t k = 1; k < (n + 1) / 2; ++k) {
    h.multiply(prev, hx);
    kpm::linalg::chebyshev_combine(hx, prev2, next);
    if (2 * k < n) mu[2 * k] = 2.0 * kpm::linalg::dot(prev, prev) - mu0;
    if (2 * k + 1 < n) mu[2 * k + 1] = 2.0 * kpm::linalg::dot(next, prev) - mu1;
    std::swap(prev2, prev);
    std::swap(prev, next);
  }
  return mu;
}

std::vector<double> random_vector(const MomentParams& params, std::size_t inst,
                                  std::size_t d) {
  std::vector<double> r0(d);
  for (std::size_t i = 0; i < d; ++i)
    r0[i] = kpm::rng::draw_random_element(params.vector_kind, params.seed, inst, i);
  return r0;
}

std::vector<double> unit_vector(std::size_t d, std::size_t site) {
  std::vector<double> e(d, 0.0);
  e[site] = 1.0;
  return e;
}

/// Stochastic estimate: per-instance rows summed in instance order, then
/// mu_n = sum / (D * instances).
template <typename Moments>
std::vector<double> reference_stochastic(const MatrixOperator& h, const MomentParams& params,
                                         Moments&& moments) {
  const std::size_t d = h.dim(), n = params.num_moments, instances = params.instances();
  std::vector<double> sum(n, 0.0);
  for (std::size_t inst = 0; inst < instances; ++inst) {
    const auto row = moments(h, random_vector(params, inst, d), n);
    for (std::size_t k = 0; k < n; ++k) sum[k] += row[k];
  }
  const double denom = static_cast<double>(d) * static_cast<double>(instances);
  for (double& v : sum) v /= denom;
  return sum;
}

kpm::core::MomentStatistics reference_statistics(const MatrixOperator& h,
                                                 const MomentParams& params,
                                                 std::size_t instances) {
  const std::size_t d = h.dim(), n = params.num_moments;
  std::vector<double> sum(n, 0.0), sum_sq(n, 0.0);
  for (std::size_t inst = 0; inst < instances; ++inst) {
    const auto row = reference_moments(h, random_vector(params, inst, d), n);
    for (std::size_t k = 0; k < n; ++k) {
      const double v = row[k] / static_cast<double>(d);
      sum[k] += v;
      sum_sq[k] += v * v;
    }
  }
  kpm::core::MomentStatistics stats;
  stats.mean.resize(n);
  stats.standard_error.resize(n);
  const auto m = static_cast<double>(instances);
  for (std::size_t k = 0; k < n; ++k) {
    stats.mean[k] = sum[k] / m;
    const double var = std::max(0.0, sum_sq[k] / m - stats.mean[k] * stats.mean[k]);
    stats.standard_error[k] = std::sqrt(var * m / (m - 1.0)) / std::sqrt(m);
  }
  return stats;
}

std::vector<double> reference_trace(const MatrixOperator& h, std::size_t n) {
  const std::size_t d = h.dim();
  std::vector<double> mu(n, 0.0);
  for (std::size_t site = 0; site < d; ++site) {
    const auto row = reference_moments(h, unit_vector(d, site), n);
    for (std::size_t k = 0; k < n; ++k) mu[k] += row[k];
  }
  for (double& m : mu) m /= static_cast<double>(d);
  return mu;
}

/// Per instance: |phi> = A|r>, beta_m = T_m(H~)|phi> stored, psi_n =
/// T_n(H~)|r> streamed, mu_nm += <A psi_n | beta_m> as a left fold.
std::vector<double> reference_conductivity(const MatrixOperator& h, const MatrixOperator& a,
                                           const MomentParams& params) {
  const std::size_t d = h.dim(), n = params.num_moments, instances = params.instances();
  std::vector<double> mu(n * n, 0.0), phi(d), beta(n * d), prev2(d), prev(d), next(d), w(d);
  const auto beta_row = [&](std::size_t m) { return std::span<double>(beta).subspan(m * d, d); };
  for (std::size_t inst = 0; inst < instances; ++inst) {
    const auto r0 = random_vector(params, inst, d);
    a.multiply(r0, phi);
    kpm::linalg::copy(phi, beta_row(0));
    if (n > 1) h.multiply(beta_row(0), beta_row(1));
    for (std::size_t m = 2; m < n; ++m) {
      h.multiply(beta_row(m - 1), beta_row(m));
      kpm::linalg::chebyshev_combine(beta_row(m), beta_row(m - 2), beta_row(m));
    }
    const auto accumulate_row = [&](std::size_t row, std::span<const double> psi) {
      a.multiply(psi, w);
      for (std::size_t m = 0; m < n; ++m) {
        const auto bm = beta_row(m);
        double acc = 0.0;
        for (std::size_t i = 0; i < d; ++i) acc += w[i] * bm[i];
        mu[row * n + m] += acc;
      }
    };
    kpm::linalg::copy(r0, prev2);
    accumulate_row(0, prev2);
    if (n > 1) {
      h.multiply(prev2, prev);
      accumulate_row(1, prev);
    }
    for (std::size_t k = 2; k < n; ++k) {
      h.multiply(prev, next);
      kpm::linalg::chebyshev_combine(next, prev2, next);
      accumulate_row(k, next);
      std::swap(prev2, prev);
      std::swap(prev, next);
    }
  }
  const double denom = static_cast<double>(d) * static_cast<double>(instances);
  for (double& v : mu) v /= denom;
  return mu;
}

/// y = A x in pure float arithmetic, rows in logical order with each row's
/// entries in CRS (sorted-column) order on every storage.
void spmv_f32(const MatrixOperator& op, const std::vector<float>& x, std::vector<float>& y) {
  const std::size_t dim = op.dim();
  if (op.storage() == kpm::linalg::Storage::Crs) {
    const auto& m = *op.crs();
    const auto row_ptr = m.row_ptr();
    const auto col_idx = m.col_idx();
    const auto values = m.values();
    for (std::size_t r = 0; r < dim; ++r) {
      float acc = 0.0f;
      for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        acc += static_cast<float>(values[kk]) * x[static_cast<std::size_t>(col_idx[kk])];
      }
      y[r] = acc;
    }
    return;
  }
  ASSERT_EQ(op.storage(), kpm::linalg::Storage::Sell);
  const auto& m = *op.sell();
  const auto chunk_ptr = m.chunk_ptr();
  const auto row_len = m.row_len();
  const auto slot_of = m.slot_of();
  const auto col_idx = m.col_idx();
  const auto values = m.values();
  const std::size_t c_sz = m.chunk_size();
  for (std::size_t r = 0; r < dim; ++r) {
    const auto slot = static_cast<std::size_t>(slot_of[r]);
    const auto base = static_cast<std::size_t>(chunk_ptr[slot / c_sz]);
    const std::size_t lane = slot % c_sz;
    float acc = 0.0f;
    for (std::size_t j = 0; j < static_cast<std::size_t>(row_len[slot]); ++j) {
      const std::size_t k = base + j * c_sz + lane;
      acc += static_cast<float>(values[k]) * x[static_cast<std::size_t>(col_idx[k])];
    }
    y[r] = acc;
  }
}

float dot_f32(const std::vector<float>& a, const std::vector<float>& b) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

/// The binary32 recursion; the cross-instance reduction stays in double.
std::vector<double> reference_f32(const MatrixOperator& h, const MomentParams& params) {
  const std::size_t d = h.dim(), n = params.num_moments, instances = params.instances();
  std::vector<double> sum(n, 0.0);
  std::vector<float> r0(d), prev2(d), prev(d), next(d);
  for (std::size_t inst = 0; inst < instances; ++inst) {
    for (std::size_t i = 0; i < d; ++i)
      r0[i] = static_cast<float>(
          kpm::rng::draw_random_element(params.vector_kind, params.seed, inst, i));
    sum[0] += static_cast<double>(dot_f32(r0, r0));
    spmv_f32(h, r0, prev);
    sum[1] += static_cast<double>(dot_f32(r0, prev));
    prev2 = r0;
    for (std::size_t k = 2; k < n; ++k) {
      spmv_f32(h, prev, next);
      for (std::size_t i = 0; i < d; ++i) next[i] = 2.0f * next[i] - prev2[i];
      sum[k] += static_cast<double>(dot_f32(r0, next));
      std::swap(prev2, prev);
      std::swap(prev, next);
    }
  }
  const double denom = static_cast<double>(d) * static_cast<double>(instances);
  for (double& v : sum) v /= denom;
  return sum;
}

/// The complex recursion: mu~_k = Re<r0|r_k>, accumulated as a single-lane
/// left fold.
std::vector<double> reference_hermitian_moments(const kpm::linalg::CrsMatrixZ& h,
                                                std::span<const Complex> r0, std::size_t n) {
  const std::size_t d = r0.size();
  const auto dot_re = [&](std::span<const Complex> v) {
    double acc = 0.0;
    for (std::size_t i = 0; i < d; ++i) acc += (std::conj(r0[i]) * v[i]).real();
    return acc;
  };
  std::vector<double> mu(n);
  std::vector<Complex> prev2(r0.begin(), r0.end()), prev(d), next(d);
  mu[0] = dot_re(r0);
  if (n == 1) return mu;
  h.multiply(r0, prev);
  mu[1] = dot_re(prev);
  for (std::size_t k = 2; k < n; ++k) {
    h.multiply(prev, next);
    for (std::size_t i = 0; i < d; ++i) next[i] = 2.0 * next[i] - prev2[i];
    mu[k] = dot_re(next);
    std::swap(prev2, prev);
    std::swap(prev, next);
  }
  return mu;
}

std::vector<double> reference_hermitian(const kpm::linalg::CrsMatrixZ& h,
                                        const MomentParams& params) {
  const std::size_t d = h.rows(), n = params.num_moments, instances = params.instances();
  std::vector<double> sum(n, 0.0);
  std::vector<Complex> r0(d);
  for (std::size_t inst = 0; inst < instances; ++inst) {
    for (std::size_t i = 0; i < d; ++i)
      r0[i] = Complex{kpm::rng::draw_random_element(params.vector_kind, params.seed, inst, i),
                      0.0};
    const auto row = reference_hermitian_moments(h, r0, n);
    for (std::size_t k = 0; k < n; ++k) sum[k] += row[k];
  }
  const double denom = static_cast<double>(d) * static_cast<double>(instances);
  for (double& v : sum) v /= denom;
  return sum;
}

std::vector<Complex> unit_vector_z(std::size_t d, std::size_t site) {
  std::vector<Complex> e(d, Complex{0.0, 0.0});
  e[site] = Complex{1.0, 0.0};
  return e;
}

std::vector<double> reference_hermitian_trace(const kpm::linalg::CrsMatrixZ& h,
                                              std::size_t n) {
  const std::size_t d = h.rows();
  std::vector<double> mu(n, 0.0);
  for (std::size_t site = 0; site < d; ++site) {
    const auto row = reference_hermitian_moments(h, unit_vector_z(d, site), n);
    for (std::size_t k = 0; k < n; ++k) mu[k] += row[k];
  }
  for (double& m : mu) m /= static_cast<double>(d);
  return mu;
}

// ---------------------------------------------------------------------------
// The sweep.

enum class Caller {
  CpuReference,
  CpuParallel,
  CpuPaired,
  Estimator,
  Ldos,
  Trace,
  Conductivity,
  CpuF32,
  Hermitian,
  HermitianLdos,
  HermitianTrace,
  Cluster,
  ClusterLdos,
};

const char* caller_name(Caller c) {
  switch (c) {
    case Caller::CpuReference: return "cpu_reference";
    case Caller::CpuParallel: return "cpu_parallel";
    case Caller::CpuPaired: return "cpu_paired";
    case Caller::Estimator: return "estimator";
    case Caller::Ldos: return "ldos";
    case Caller::Trace: return "trace";
    case Caller::Conductivity: return "conductivity";
    case Caller::CpuF32: return "cpu_f32";
    case Caller::Hermitian: return "hermitian";
    case Caller::HermitianLdos: return "hermitian_ldos";
    case Caller::HermitianTrace: return "hermitian_trace";
    case Caller::Cluster: return "cluster";
    case Caller::ClusterLdos: return "cluster_ldos";
  }
  return "unknown";
}

/// Operators of the sweep, built once: a rescaled 4^3 cubic lattice for the
/// moment callers, a rescaled 4x4 square lattice with its x current for
/// conductivity, and a rescaled 4x4 flux lattice for the Hermitian callers.
struct Operators {
  CrsMatrix cube, square, current;
  SellMatrix cube_sell, square_sell;
  kpm::linalg::CrsMatrixZ flux;

  Operators()
      : cube(rescaled(kpm::lattice::build_tight_binding_crs(
            kpm::lattice::HypercubicLattice::cubic(4, 4, 4)))),
        square(rescaled(kpm::lattice::build_tight_binding_crs(
            kpm::lattice::HypercubicLattice::square(4, 4)))),
        current(kpm::lattice::build_current_operator_crs(
            kpm::lattice::HypercubicLattice::square(4, 4), 0)),
        cube_sell(SellMatrix::from_crs(cube, 8, 32)),
        square_sell(SellMatrix::from_crs(square, 4, 8)),
        flux(rescaled_z(kpm::lattice::build_square_flux_crs(4, 4, 0.25))) {}

  static CrsMatrix rescaled(const CrsMatrix& h) {
    return kpm::linalg::rescale(h, kpm::linalg::make_spectral_transform(MatrixOperator(h)));
  }
  static kpm::linalg::CrsMatrixZ rescaled_z(const kpm::linalg::CrsMatrixZ& h) {
    return kpm::linalg::rescale(h, kpm::linalg::SpectralTransform(h.gershgorin(), 0.02));
  }
};

const Operators& operators() {
  static const Operators ops;
  return ops;
}

MomentParams sweep_params(std::size_t n, std::size_t block) {
  MomentParams p;
  p.num_moments = n;  // odd N exercises the paired recursion's last half step
  p.random_vectors = 5;
  p.realizations = 2;  // 10 instances: B = 3 and B = 8 leave ragged groups
  p.block_r = block;
  return p;
}

void expect_bitwise(const std::vector<double>& got, const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) EXPECT_EQ(got[k], want[k]) << "k=" << k;
}

using SweepCase = std::tuple<Caller, bool /*sell*/, std::size_t /*block*/>;

class RecursionReference : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RecursionReference, MatchesUnfusedPerVectorBitwise) {
  const auto [caller, sell, block] = GetParam();
  const Operators& ops = operators();
  const MatrixOperator h = sell ? MatrixOperator(ops.cube_sell) : MatrixOperator(ops.cube);
  const MomentParams params = sweep_params(17, block);

  switch (caller) {
    case Caller::CpuReference: {
      kpm::core::CpuMomentEngine engine;
      expect_bitwise(engine.compute(h, params).mu,
                     reference_stochastic(h, params, reference_moments));
      break;
    }
    case Caller::CpuParallel: {
      kpm::core::CpuParallelMomentEngine engine(3);
      expect_bitwise(engine.compute(h, params).mu,
                     reference_stochastic(h, params, reference_moments));
      break;
    }
    case Caller::CpuPaired: {
      kpm::core::CpuPairedMomentEngine engine;
      expect_bitwise(engine.compute(h, params).mu,
                     reference_stochastic(h, params, reference_paired_moments));
      break;
    }
    case Caller::Estimator: {
      const auto got = kpm::core::estimate_moment_statistics(h, params, 7);
      const auto want = reference_statistics(h, params, 7);
      expect_bitwise(got.mean, want.mean);
      expect_bitwise(got.standard_error, want.standard_error);
      break;
    }
    case Caller::Ldos:
      for (const std::size_t n : {1u, 2u, 17u})
        expect_bitwise(kpm::core::ldos_moments(h, 5, n),
                       reference_moments(h, unit_vector(h.dim(), 5), n));
      break;
    case Caller::Trace:
      for (const std::size_t n : {1u, 12u})
        expect_bitwise(kpm::core::deterministic_trace_moments(h, n, block),
                       reference_trace(h, n));
      break;
    case Caller::Conductivity: {
      const MatrixOperator hs =
          sell ? MatrixOperator(ops.square_sell) : MatrixOperator(ops.square);
      const MatrixOperator a(ops.current);
      const MomentParams cp = sweep_params(6, block);
      expect_bitwise(kpm::core::conductivity_moments(hs, a, cp).mu,
                     reference_conductivity(hs, a, cp));
      break;
    }
    case Caller::CpuF32: {
      kpm::core::CpuMomentEngineF32 engine;
      expect_bitwise(engine.compute(h, params).mu, reference_f32(h, params));
      break;
    }
    case Caller::Hermitian: {
      kpm::core::HermitianMomentEngine engine;
      const MomentParams hp = sweep_params(12, block);
      expect_bitwise(engine.compute(ops.flux, hp).mu, reference_hermitian(ops.flux, hp));
      break;
    }
    case Caller::HermitianLdos:
      for (const std::size_t n : {1u, 10u})
        expect_bitwise(kpm::core::ldos_moments_hermitian(ops.flux, 3, n),
                       reference_hermitian_moments(ops.flux, unit_vector_z(ops.flux.rows(), 3),
                                                   n));
      break;
    case Caller::HermitianTrace:
      expect_bitwise(kpm::core::deterministic_trace_moments_hermitian(ops.flux, 10, block),
                     reference_hermitian_trace(ops.flux, 10));
      break;
    case Caller::Cluster:
      for (const std::size_t nodes : {2u, 3u})
        for (const int threads : {1, 3}) {
          SCOPED_TRACE("P " + std::to_string(nodes) + " threads " + std::to_string(threads));
          kpm::core::ClusterEngineConfig cfg;
          cfg.node_count = nodes;
          cfg.threads = threads;
          kpm::core::ClusterMomentEngine engine(cfg);
          expect_bitwise(engine.compute(h, params).mu,
                         reference_stochastic(h, params, reference_moments));
        }
      break;
    case Caller::ClusterLdos:
      for (const std::size_t nodes : {2u, 3u})
        for (const std::size_t n : {1u, 2u, 17u})
          expect_bitwise(
              kpm::core::cluster_ldos_moments(
                  h, kpm::linalg::Decomposition::uniform(h.dim(), nodes, 1), 5, n),
              reference_moments(h, unit_vector(h.dim(), 5), n));
      break;
  }
}

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const auto [caller, sell, block] = info.param;
  return std::string(caller_name(caller)) + (sell ? "_sell" : "_crs") + "_b" +
         std::to_string(block);
}

INSTANTIATE_TEST_SUITE_P(
    EveryCaller, RecursionReference,
    ::testing::Combine(::testing::Values(Caller::CpuReference, Caller::CpuParallel,
                                         Caller::CpuPaired, Caller::Estimator, Caller::Ldos,
                                         Caller::Trace, Caller::Conductivity, Caller::CpuF32,
                                         Caller::Hermitian, Caller::HermitianLdos,
                                         Caller::HermitianTrace, Caller::Cluster,
                                         Caller::ClusterLdos),
                       ::testing::Bool(),
                       ::testing::Values(std::size_t{1}, std::size_t{3}, std::size_t{8})),
    case_name);

}  // namespace
