#include "core/moments_hermitian.hpp"

#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/group_recursion.hpp"
#include "core/moments_cpu.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace kpm::core {

using detail::Complex;

MomentResult HermitianMomentEngine::compute(const linalg::CrsMatrixZ& h_tilde,
                                            const MomentParams& params,
                                            std::size_t sample_instances) const {
  params.validate();
  KPM_REQUIRE(h_tilde.rows() == h_tilde.cols(), "HermitianMomentEngine: matrix must be square");
  const std::size_t d = h_tilde.rows();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);

  obs::ScopedSpan span("moments." + name());
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  // Groups of `block` instances share each matrix stream; member rows are
  // summed in instance order (bit-identical for any block size).
  const std::vector<double> mu_sum = detail::summed_flat_rows<Complex>(
      h_tilde, detail::random_start<Complex>(params), executed, params.block_r, n);

  MomentResult result =
      detail::averaged_result(name(), mu_sum, d, executed, total, wall.seconds());
  // No platform model for the complex path (extension feature): report the
  // host wall-clock as the model time.
  result.model_seconds = result.wall_seconds;
  result.compute_seconds = result.wall_seconds;
  return result;
}

std::vector<double> ldos_moments_hermitian(const linalg::CrsMatrixZ& h_tilde, std::size_t site,
                                           std::size_t num_moments) {
  KPM_REQUIRE(h_tilde.rows() == h_tilde.cols(), "ldos_moments_hermitian: matrix must be square");
  KPM_REQUIRE(site < h_tilde.rows(), "ldos_moments_hermitian: site out of range");
  KPM_REQUIRE(num_moments >= 1, "ldos_moments_hermitian: need at least one moment");
  return detail::summed_flat_rows<Complex>(
      h_tilde, [site](std::size_t, std::size_t, std::span<Complex> r0) {
        detail::unit_start(site, 1, r0);
      },
      1, 1, num_moments);
}

std::vector<double> deterministic_trace_moments_hermitian(const linalg::CrsMatrixZ& h_tilde,
                                                          std::size_t num_moments,
                                                          std::size_t block) {
  KPM_REQUIRE(num_moments >= 1, "deterministic_trace_moments_hermitian: need >= 1 moment");
  KPM_REQUIRE(h_tilde.rows() == h_tilde.cols(), "matrix must be square");
  KPM_REQUIRE(block >= 1, "deterministic_trace_moments_hermitian: block must be >= 1");
  // Blocked basis sweep: `block` unit vectors share each matrix stream.
  const std::size_t d = h_tilde.rows();
  std::vector<double> mu = detail::summed_flat_rows<Complex>(
      h_tilde, detail::unit_start<Complex>, d, block, num_moments);
  for (double& m : mu) m /= static_cast<double>(d);
  return mu;
}

}  // namespace kpm::core
