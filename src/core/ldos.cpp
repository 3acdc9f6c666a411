#include "core/ldos.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/group_recursion.hpp"
#include "core/moments_cpu.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace kpm::core {
namespace {

/// Runs one Chebyshev recursion per start vector, `count` of them in groups
/// of `block`, and returns mu_n = sum over start vectors of <r0|r_n>,
/// summed in start-vector order.  Each start vector counts as one
/// instance: a unit vector plays the role a random vector plays in the
/// stochastic engines.
std::vector<double> sum_recursion_moments(const linalg::MatrixOperator& h, std::size_t count,
                                          std::size_t block, std::size_t n,
                                          const detail::GroupStart& start) {
  std::vector<double> mu(n, 0.0);
  detail::RecursionWorkspace ws;
  detail::run_groups(h, count, block, n, detail::DotPolicy::Single, start, ws,
                     [&mu](std::span<const double> row) {
                       for (std::size_t k = 0; k < row.size(); ++k) mu[k] += row[k];
                     });
  return mu;
}

}  // namespace

std::vector<double> ldos_moments(const linalg::MatrixOperator& h_tilde, std::size_t site,
                                 std::size_t num_moments) {
  KPM_REQUIRE(site < h_tilde.dim(), "ldos_moments: site out of range");
  KPM_REQUIRE(num_moments >= 1, "ldos_moments: need at least one moment");
  obs::ScopedSpan span("ldos.moments");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(num_moments));
  return sum_recursion_moments(h_tilde, 1, 1, num_moments,
                               [site](std::size_t, std::size_t, std::span<double> r0) {
                                 std::fill(r0.begin(), r0.end(), 0.0);
                                 r0[site] = 1.0;
                               });
}

DosCurve ldos_curve(const linalg::MatrixOperator& h_tilde,
                    const linalg::SpectralTransform& transform, std::size_t site,
                    std::size_t num_moments, const ReconstructOptions& options) {
  const auto mu = ldos_moments(h_tilde, site, num_moments);
  return reconstruct_dos(mu, transform, options);
}

std::vector<double> deterministic_trace_moments(const linalg::MatrixOperator& h_tilde,
                                                std::size_t num_moments, std::size_t block) {
  KPM_REQUIRE(num_moments >= 1, "deterministic_trace_moments: need at least one moment");
  KPM_REQUIRE(block >= 1, "deterministic_trace_moments: block must be >= 1");
  obs::ScopedSpan span("ldos.deterministic-trace");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(num_moments));
  // Blocked basis sweep: member j of the group starting at site `first` is
  // the unit vector |first + j>, so `block` sites share each matrix stream.
  std::vector<double> mu = sum_recursion_moments(
      h_tilde, h_tilde.dim(), block, num_moments,
      [](std::size_t first, std::size_t b, std::span<double> r0) {
        std::fill(r0.begin(), r0.end(), 0.0);
        for (std::size_t j = 0; j < b; ++j) r0[(first + j) * b + j] = 1.0;
      });
  for (double& m : mu) m /= static_cast<double>(h_tilde.dim());
  return mu;
}

}  // namespace kpm::core
