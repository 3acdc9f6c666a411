// Disorder-averaging driver.
//
// The paper's S "realizations" average over random-vector sets; in
// disordered-system studies the same loop structure averages over random
// *Hamiltonians*.  This driver owns that loop: it builds one Hamiltonian
// per disorder realization (via a user factory), runs one moment engine over
// all of them, and returns the mean DoS with a pointwise standard error — the
// error bars disorder papers put on their figures.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/highlevel.hpp"
#include "core/reconstruct.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/spectral_transform.hpp"

namespace kpm::core {

/// Builds the Hamiltonian of disorder realization `r` (CRS).
using HamiltonianFactory = std::function<linalg::CrsMatrix(std::size_t realization)>;

/// Options of a disorder study.
struct DisorderStudyOptions {
  std::size_t realizations = 8;         ///< disorder samples
  MomentParams params{};                ///< per-realization KPM parameters
  ReconstructOptions reconstruct{};
  MomentComputeOptions compute{.engine = EngineKind::Gpu};  ///< engine and its knobs
  /// Common spectral window for all realizations; must contain every
  /// realization's spectrum (e.g. clean bounds widened by W/2).
  linalg::SpectralBounds window{-1.0, 1.0};
  double bounds_epsilon = 0.02;
};

/// Result: mean curve with pointwise standard errors, plus totals.
struct DisorderStudy {
  linalg::SpectralTransform transform{{-1.0, 1.0}, 0.0};
  DosCurve mean;                        ///< disorder-averaged DoS
  std::vector<double> standard_error;   ///< pointwise sigma/sqrt(realizations)
  double total_model_seconds = 0.0;     ///< summed engine model time
  std::size_t realizations = 0;
};

/// Runs the study.  Each realization gets an independent random-vector
/// seed (params.seed + r) so vector noise decorrelates across samples.
[[nodiscard]] DisorderStudy run_disorder_study(const HamiltonianFactory& factory,
                                               const DisorderStudyOptions& options);

}  // namespace kpm::core
