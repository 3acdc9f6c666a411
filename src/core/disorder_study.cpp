#include "core/disorder_study.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/operator.hpp"

namespace kpm::core {

DisorderStudy run_disorder_study(const HamiltonianFactory& factory,
                                 const DisorderStudyOptions& options) {
  KPM_REQUIRE(static_cast<bool>(factory), "run_disorder_study: null Hamiltonian factory");
  KPM_REQUIRE(options.realizations >= 1, "run_disorder_study: need at least one realization");
  options.params.validate();
  KPM_REQUIRE(options.window.upper > options.window.lower,
              "run_disorder_study: invalid spectral window");

  DisorderStudy study;
  study.transform = linalg::SpectralTransform(options.window, options.bounds_epsilon);
  study.realizations = options.realizations;

  const auto engine = make_engine(options.compute);
  std::vector<double> sum, sum_sq;

  for (std::size_t r = 0; r < options.realizations; ++r) {
    const auto h = factory(r);
    {
      // Every realization must fit the common window (else T_n diverges).
      linalg::MatrixOperator raw(h);
      const auto bounds = linalg::gershgorin_bounds(raw);
      KPM_REQUIRE(bounds.lower >= options.window.lower && bounds.upper <= options.window.upper,
                  "run_disorder_study: realization spectrum escapes the common window");
    }
    const auto ht = linalg::rescale(h, study.transform);
    linalg::MatrixOperator op(ht);

    MomentParams params = options.params;
    params.seed += r;  // decorrelate random vectors across realizations

    const MomentResult moments = engine->compute(op, params, options.compute.sample_instances);
    study.total_model_seconds += moments.model_seconds;

    const auto curve = reconstruct_dos(moments.mu, study.transform, options.reconstruct);
    if (r == 0) {
      study.mean.energy = curve.energy;
      sum.assign(curve.density.size(), 0.0);
      sum_sq.assign(curve.density.size(), 0.0);
    }
    for (std::size_t j = 0; j < curve.density.size(); ++j) {
      sum[j] += curve.density[j];
      sum_sq[j] += curve.density[j] * curve.density[j];
    }
  }

  const auto m = static_cast<double>(options.realizations);
  study.mean.density.resize(sum.size());
  study.standard_error.assign(sum.size(), 0.0);
  for (std::size_t j = 0; j < sum.size(); ++j) {
    study.mean.density[j] = sum[j] / m;
    if (options.realizations > 1) {
      const double var =
          std::max(0.0, (sum_sq[j] / m - study.mean.density[j] * study.mean.density[j]) * m /
                            (m - 1.0));
      study.standard_error[j] = std::sqrt(var / m);
    }
  }
  return study;
}

}  // namespace kpm::core
