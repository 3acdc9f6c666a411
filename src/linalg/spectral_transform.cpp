#include "linalg/spectral_transform.hpp"

#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "linalg/hermitian_matrix.hpp"

namespace kpm::linalg {

SpectralTransform::SpectralTransform(SpectralBounds bounds, double epsilon) {
  KPM_REQUIRE(bounds.upper > bounds.lower, "SpectralTransform: upper must exceed lower");
  KPM_REQUIRE(epsilon >= 0.0, "SpectralTransform: epsilon must be non-negative");
  center_ = bounds.center();
  half_width_ = bounds.half_width() * (1.0 + epsilon);
  KPM_REQUIRE(half_width_ > 0.0, "SpectralTransform: degenerate spectrum");
}

SpectralTransform make_spectral_transform(const MatrixOperator& op, double epsilon) {
  return SpectralTransform(gershgorin_bounds(op), epsilon);
}

DenseMatrix rescale(const DenseMatrix& h, const SpectralTransform& t) {
  KPM_REQUIRE(h.square(), "rescale requires a square matrix");
  DenseMatrix out(h.rows(), h.cols());
  const double inv = 1.0 / t.half_width();
  for (std::size_t r = 0; r < h.rows(); ++r)
    for (std::size_t c = 0; c < h.cols(); ++c)
      out(r, c) = (h(r, c) - (r == c ? t.center() : 0.0)) * inv;
  return out;
}

namespace {

// H~ = (H - a+ I) / a- in one pass over the rows of a CRS matrix of real or
// complex values.  Each entry is scaled in place in the pattern, the shift
// -a+/a- joins a stored diagonal as the two-term sum (0 + h_rr/a-) + shift
// (addition commutes, so this is the triplet merge's sum whatever order it
// met the terms in), a row without a stored diagonal gains the shift in
// column order, and sums equal to zero are dropped, as the merge drops
// them.  With a+ == 0 a stored zero diagonal is therefore dropped too.
template <class Matrix>
Matrix rescale_rows(const Matrix& h, const SpectralTransform& t) {
  using Index = typename Matrix::Index;
  using Value = std::remove_cvref_t<decltype(h.values()[0])>;
  KPM_REQUIRE(h.rows() == h.cols() && h.rows() > 0, "rescale requires a non-empty square matrix");
  const std::size_t n = h.rows();
  const double inv = 1.0 / t.half_width();
  const bool shifted = t.center() != 0.0;
  const Value shift(-t.center() * inv);
  const auto row_ptr = h.row_ptr();
  const auto col_idx = h.col_idx();
  const auto values = h.values();

  std::vector<Index> out_ptr(n + 1, 0);
  std::vector<Index> out_col;
  std::vector<Value> out_val;
  out_col.reserve(h.nnz() + (shifted ? n : 0));
  out_val.reserve(h.nnz() + (shifted ? n : 0));
  const auto emit = [&](std::size_t c, Value v) {
    if (v == Value{}) return;
    out_col.push_back(static_cast<Index>(c));
    out_val.push_back(v);
  };
  for (std::size_t r = 0; r < n; ++r) {
    bool diagonal_pending = shifted;
    for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      const auto c = static_cast<std::size_t>(col_idx[kk]);
      Value v{};
      v += values[kk] * inv;
      if (diagonal_pending && c >= r) {
        if (c == r)
          v += shift;
        else
          emit(r, Value{} + shift);
        diagonal_pending = false;
      }
      emit(c, v);
    }
    if (diagonal_pending) emit(r, Value{} + shift);
    out_ptr[r + 1] = static_cast<Index>(out_val.size());
  }
  return Matrix(n, n, std::move(out_ptr), std::move(out_col), std::move(out_val));
}

}  // namespace

CrsMatrix rescale(const CrsMatrix& h, const SpectralTransform& t) { return rescale_rows(h, t); }

CrsMatrixZ rescale(const CrsMatrixZ& h, const SpectralTransform& t) { return rescale_rows(h, t); }

}  // namespace kpm::linalg
