#include "core/ldos.hpp"

#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/group_recursion.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace kpm::core {
// Each start vector counts as one instance: a unit vector plays the role a
// random vector plays in the stochastic engines.

std::vector<double> ldos_moments(const linalg::MatrixOperator& h_tilde, std::size_t site,
                                 std::size_t num_moments) {
  KPM_REQUIRE(site < h_tilde.dim(), "ldos_moments: site out of range");
  KPM_REQUIRE(num_moments >= 1, "ldos_moments: need at least one moment");
  obs::ScopedSpan span("ldos.moments");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(num_moments));
  return detail::summed_flat_rows<double>(
      h_tilde, [site](std::size_t, std::size_t, std::span<double> r0) {
        detail::unit_start(site, 1, r0);
      },
      1, 1, num_moments);
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
  std::vector<double> mu = detail::summed_flat_rows<double>(
      h_tilde, detail::unit_start<double>, h_tilde.dim(), block, num_moments);
  for (double& m : mu) m /= static_cast<double>(h_tilde.dim());
  return mu;
}

}  // namespace kpm::core
