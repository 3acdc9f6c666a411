#include "linalg/hermitian_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace kpm::linalg {

CrsMatrixZ::CrsMatrixZ(std::size_t rows, std::size_t cols, std::vector<Index> row_ptr,
                       std::vector<Index> col_idx, std::vector<Complex> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  KPM_REQUIRE(row_ptr_.size() == rows_ + 1, "CrsMatrixZ: row_ptr must have rows+1 entries");
  KPM_REQUIRE(row_ptr_.front() == 0, "CrsMatrixZ: row_ptr[0] must be 0");
  KPM_REQUIRE(static_cast<std::size_t>(row_ptr_.back()) == values_.size(),
              "CrsMatrixZ: row_ptr[rows] must equal nnz");
  KPM_REQUIRE(col_idx_.size() == values_.size(), "CrsMatrixZ: col_idx/values size mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    KPM_REQUIRE(row_ptr_[r] <= row_ptr_[r + 1], "CrsMatrixZ: row_ptr must be non-decreasing");
    for (Index k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      KPM_REQUIRE(col_idx_[kk] >= 0 && static_cast<std::size_t>(col_idx_[kk]) < cols_,
                  "CrsMatrixZ: column index out of range");
      if (k > row_ptr_[r])
        KPM_REQUIRE(col_idx_[kk - 1] < col_idx_[kk],
                    "CrsMatrixZ: columns must be sorted and unique within a row");
    }
  }
}

CrsMatrixZ::Complex CrsMatrixZ::at(std::size_t r, std::size_t c) const {
  KPM_REQUIRE(r < rows_ && c < cols_, "CrsMatrixZ::at: index out of range");
  const auto* begin = col_idx_.data() + row_ptr_[r];
  const auto* end = col_idx_.data() + row_ptr_[r + 1];
  const auto* it = std::lower_bound(begin, end, static_cast<Index>(c));
  if (it == end || *it != static_cast<Index>(c)) return {0.0, 0.0};
  return values_[static_cast<std::size_t>(row_ptr_[r] + (it - begin))];
}

void CrsMatrixZ::multiply(std::span<const Complex> x, std::span<Complex> y) const {
  KPM_REQUIRE(x.size() == cols_ && y.size() == rows_, "CrsMatrixZ::multiply: dimension mismatch");
  KPM_REQUIRE(x.data() != y.data(), "CrsMatrixZ::multiply: x and y must not alias");
  for (std::size_t r = 0; r < rows_; ++r) {
    Complex acc{0.0, 0.0};
    for (Index k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      acc += values_[kk] * x[static_cast<std::size_t>(col_idx_[kk])];
    }
    y[r] = acc;
  }
}

bool CrsMatrixZ::is_hermitian(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (Index k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      const auto c = static_cast<std::size_t>(col_idx_[kk]);
      if (std::abs(values_[kk] - std::conj(at(c, r))) > tol) return false;
    }
  return true;
}

SpectralBounds CrsMatrixZ::gershgorin() const {
  KPM_REQUIRE(rows_ == cols_, "CrsMatrixZ::gershgorin requires a square matrix");
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < rows_; ++r) {
    double center = 0.0, radius = 0.0;
    for (Index k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      if (static_cast<std::size_t>(col_idx_[kk]) == r)
        center = values_[kk].real();  // Hermitian: diagonal is real
      else
        radius += std::abs(values_[kk]);
    }
    lo = std::min(lo, center - radius);
    hi = std::max(hi, center + radius);
  }
  return {lo, hi};
}

TripletBuilderZ::TripletBuilderZ(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {
  KPM_REQUIRE(rows > 0 && cols > 0, "TripletBuilderZ dimensions must be positive");
}

void TripletBuilderZ::add(std::size_t r, std::size_t c, CrsMatrixZ::Complex value) {
  KPM_REQUIRE(r < rows_ && c < cols_, "TripletBuilderZ::add: index out of range");
  entries_.push_back({r, c, value});
}

void TripletBuilderZ::add_hermitian(std::size_t r, std::size_t c, CrsMatrixZ::Complex value) {
  if (r == c)
    KPM_REQUIRE(std::abs(value.imag()) == 0.0,
                "TripletBuilderZ::add_hermitian: diagonal entries must be real");
  add(r, c, value);
  if (r != c) add(c, r, std::conj(value));
}

CrsMatrixZ TripletBuilderZ::build() {
  std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    return a.r != b.r ? a.r < b.r : a.c < b.c;
  });

  std::vector<CrsMatrixZ::Index> row_ptr(rows_ + 1, 0);
  std::vector<CrsMatrixZ::Index> col_idx;
  std::vector<CrsMatrixZ::Complex> values;
  col_idx.reserve(entries_.size());
  values.reserve(entries_.size());

  for (std::size_t i = 0; i < entries_.size();) {
    const std::size_t r = entries_[i].r;
    const std::size_t c = entries_[i].c;
    CrsMatrixZ::Complex v{0.0, 0.0};
    while (i < entries_.size() && entries_[i].r == r && entries_[i].c == c) v += entries_[i++].v;
    if (v != CrsMatrixZ::Complex{0.0, 0.0}) {
      col_idx.push_back(static_cast<CrsMatrixZ::Index>(c));
      values.push_back(v);
      ++row_ptr[r + 1];
    }
  }
  for (std::size_t r = 0; r < rows_; ++r) row_ptr[r + 1] += row_ptr[r];

  entries_.clear();
  return CrsMatrixZ(rows_, cols_, std::move(row_ptr), std::move(col_idx), std::move(values));
}

}  // namespace kpm::linalg
