// Spectral rescaling H~ = (H - a+) / a-  (paper Eqs. 8-9, 12).
//
// Chebyshev polynomials live on [-1, 1]; KPM therefore maps the spectrum of
// H into (-1, 1) using a+ = (E_up + E_lo)/2 and a- = (E_up - E_lo)/2, with
// the bounds padded by a small epsilon so that |E~_k| < 1 strictly (the
// 1/sqrt(1-x^2) weight diverges at the endpoints).  `SpectralTransform`
// records (a+, a-) so reconstructed densities can be mapped back:
// rho(omega) d omega = rho(omega~) d omega~ / a-.
#pragma once

#include "linalg/gershgorin.hpp"
#include "linalg/operator.hpp"

namespace kpm::linalg {

/// The affine map omega~ = (omega - center) / half_width between the
/// physical energy axis and the Chebyshev interval.
class SpectralTransform {
 public:
  /// From explicit spectral bounds, padded by `epsilon` (relative to the
  /// half width) on both sides.  Requires upper > lower.
  SpectralTransform(SpectralBounds bounds, double epsilon = 0.01);

  /// a+ of the paper: the spectrum midpoint.
  [[nodiscard]] double center() const noexcept { return center_; }
  /// a- of the paper: the padded half width.
  [[nodiscard]] double half_width() const noexcept { return half_width_; }

  /// omega -> omega~ in (-1, 1).
  [[nodiscard]] double to_unit(double omega) const noexcept {
    return (omega - center_) / half_width_;
  }
  /// omega~ -> omega.
  [[nodiscard]] double to_physical(double omega_tilde) const noexcept {
    return omega_tilde * half_width_ + center_;
  }
  /// Jacobian d omega~ / d omega = 1 / a-, used to renormalize densities.
  [[nodiscard]] double density_jacobian() const noexcept { return 1.0 / half_width_; }

 private:
  double center_;
  double half_width_;
};

/// Builds the transform from Gershgorin bounds of `op`.
[[nodiscard]] SpectralTransform make_spectral_transform(const MatrixOperator& op,
                                                        double epsilon = 0.01);

/// Returns H~ = (H - a+ I) / a- as a new dense matrix.
[[nodiscard]] DenseMatrix rescale(const DenseMatrix& h, const SpectralTransform& t);

/// Returns H~ = (H - a+ I) / a- as a new CRS matrix, in one O(nnz) pass
/// over the rows.  If H lacks stored diagonal entries and a+ != 0 the
/// pattern gains a diagonal; entries that come to exactly zero are dropped.
[[nodiscard]] CrsMatrix rescale(const CrsMatrix& h, const SpectralTransform& t);

}  // namespace kpm::linalg
