#include "core/conductivity.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/chebyshev.hpp"
#include "core/moments_cpu.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace kpm::core {

ConductivityMoments conductivity_moments(const linalg::MatrixOperator& h_tilde,
                                         const linalg::MatrixOperator& a_current,
                                         const MomentParams& params,
                                         std::size_t sample_instances) {
  params.validate();
  const std::size_t d = h_tilde.dim();
  KPM_REQUIRE(a_current.dim() == d, "conductivity_moments: operator dimensions differ");
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);

  obs::ScopedSpan span("conductivity.moments");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n) * static_cast<double>(n));

  ConductivityMoments result;
  result.num_moments = n;
  result.mu.assign(n * n, 0.0);
  result.instances_executed = executed;

  // Per instance:
  //   |phi>    = A |r>
  //   |beta_m> = T_m(H~) |phi>        (all N stored, N*D doubles)
  //   |psi_n>  = T_n(H~) |r>          (streamed)
  //   w        = A^T psi_n = -A psi_n
  //   mu_nm   += <w | beta_m> / D     (sign folded below)
  const double dd = static_cast<double>(d);
  const auto meter_combine = [&](std::size_t b) {
    obs::add(obs::Counter::Flops, 2.0 * dd * static_cast<double>(b));
    obs::add(obs::Counter::BytesStreamed, 3.0 * dd * static_cast<double>(b) * sizeof(double));
  };

  // A group of b instances shares every H~ and A stream (both the stored
  // beta recursion and the streamed psi recursion are SpMMV passes; B = 1
  // is a one-member group).  Per-member arithmetic is the per-vector
  // recursion's, and each mu cell accumulates member contributions in
  // instance order, so the result is independent of the block size.  The
  // workspaces are shaped for the widest group actually run, never wider
  // than the executed instances.
  const std::size_t block = std::min(params.block_r, executed);
  std::vector<double> r0(d * block), phi(d * block);
  std::vector<double> beta(n * d * block);
  std::vector<double> psi_prev2(d * block), psi_prev(d * block), psi_next(d * block),
      w(d * block);

  for (std::size_t first = 0; first < executed; first += block) {
    const std::size_t b = std::min(block, executed - first);
    const std::size_t len = d * b;
    const auto sub = [len](std::vector<double>& v) {
      return std::span<double>(v.data(), len);
    };
    auto beta_row = [&](std::size_t m) {
      return std::span<double>(beta).subspan(m * len, len);
    };
    obs::add(obs::Counter::InstancesExecuted, static_cast<double>(b));
    fill_random_vector_block(params, first, b, sub(r0));
    linalg::spmmv_multiply(a_current, b, sub(r0), sub(phi));

    linalg::copy(sub(phi), beta_row(0));
    obs::meter_stream_bytes(2.0 * static_cast<double>(len) * sizeof(double));
    if (n > 1) linalg::spmmv_multiply(h_tilde, b, beta_row(0), beta_row(1));
    for (std::size_t m = 2; m < n; ++m) {
      linalg::spmmv_multiply(h_tilde, b, beta_row(m - 1), beta_row(m));
      linalg::chebyshev_combine(beta_row(m), beta_row(m - 2), beta_row(m));
      meter_combine(b);
    }

    auto accumulate_row = [&](std::size_t row, std::span<const double> psi) {
      linalg::spmmv_multiply(a_current, b, psi, sub(w));  // w_j = A psi_j
      double* mu_row = result.mu.data() + row * n;
      for (std::size_t m = 0; m < n; ++m) {
        const auto bm = beta_row(m);
        // Per-member left fold over elements, then members added in
        // instance order — the same addition sequence per mu cell as b
        // consecutive scalar instances.
        for (std::size_t j = 0; j < b; ++j) {
          double acc = 0.0;
          for (std::size_t i = 0; i < d; ++i) acc += w[i * b + j] * bm[i * b + j];
          mu_row[m] += acc;
        }
      }
      obs::add(obs::Counter::DotCalls, static_cast<double>(n) * static_cast<double>(b));
      obs::add(obs::Counter::Flops,
               2.0 * dd * static_cast<double>(n) * static_cast<double>(b));
      obs::add(obs::Counter::BytesStreamed,
               2.0 * dd * sizeof(double) * static_cast<double>(n) * static_cast<double>(b));
    };

    linalg::copy(sub(r0), sub(psi_prev2));
    obs::meter_stream_bytes(2.0 * static_cast<double>(len) * sizeof(double));
    accumulate_row(0, sub(psi_prev2));
    if (n > 1) {
      linalg::spmmv_multiply(h_tilde, b, sub(psi_prev2), sub(psi_prev));
      accumulate_row(1, sub(psi_prev));
    }
    for (std::size_t k = 2; k < n; ++k) {
      linalg::spmmv_multiply(h_tilde, b, sub(psi_prev), sub(psi_next));
      linalg::chebyshev_combine(sub(psi_next), sub(psi_prev2), sub(psi_next));
      meter_combine(b);
      accumulate_row(k, sub(psi_next));
      std::swap(psi_prev2, psi_prev);
      std::swap(psi_prev, psi_next);
    }
  }

  // Plain division (not a reciprocal multiply) so the GPU conductivity
  // engine's averaging kernel matches bit-for-bit.
  const double denom = static_cast<double>(d) * static_cast<double>(executed);
  for (double& v : result.mu) v /= denom;
  return result;
}

ConductivityCurve reconstruct_conductivity(const ConductivityMoments& moments,
                                           const linalg::SpectralTransform& transform,
                                           const ConductivityOptions& options) {
  const std::size_t n = moments.num_moments;
  KPM_REQUIRE(n > 0 && moments.mu.size() == n * n,
              "reconstruct_conductivity: malformed moment matrix");
  KPM_REQUIRE(options.points >= 2, "reconstruct_conductivity: need at least two points");
  KPM_REQUIRE(options.edge_clip > 0.0 && options.edge_clip < 1.0,
              "reconstruct_conductivity: edge_clip must be in (0, 1)");

  obs::ScopedSpan span("reconstruct.conductivity");
  obs::add(obs::Counter::ReconstructPoints, static_cast<double>(options.points));
  // Per point: N-term Chebyshev evaluation plus the N x N bilinear form.
  obs::add(obs::Counter::Flops,
           static_cast<double>(options.points) *
               (4.0 * static_cast<double>(n) +
                2.0 * static_cast<double>(n) * static_cast<double>(n)));

  const auto g = damping_coefficients(options.kernel, n, options.lorentz_lambda);

  ConductivityCurve curve;
  curve.energy.resize(options.points);
  curve.sigma.resize(options.points);

  std::vector<double> t_values(n);
  std::vector<double> weighted(n);  // h_n T_n(x)
  for (std::size_t j = 0; j < options.points; ++j) {
    const double x = -options.edge_clip +
                     2.0 * options.edge_clip * static_cast<double>(j) /
                         static_cast<double>(options.points - 1);
    chebyshev_t_all(x, t_values);
    for (std::size_t k = 0; k < n; ++k)
      weighted[k] = (k == 0 ? 1.0 : 2.0) * g[k] * t_values[k];

    // Bilinear form sum_nm weighted_n (-mu_nm already folded) weighted_m.
    double acc = 0.0;
    for (std::size_t row = 0; row < n; ++row) {
      const double* mu_row = moments.mu.data() + row * n;
      double inner = 0.0;
      for (std::size_t m = 0; m < n; ++m) inner += mu_row[m] * weighted[m];
      acc += weighted[row] * inner;
    }
    const double denom = std::numbers::pi * std::numbers::pi * (1.0 - x * x);
    curve.energy[j] = transform.to_physical(x);
    curve.sigma[j] = acc / denom;
  }
  return curve;
}

}  // namespace kpm::core
