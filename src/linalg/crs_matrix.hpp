// Compressed Row Storage (CRS) sparse matrix + triplet builder.
//
// The paper's lattice Hamiltonians are sparse (7 non-zeros per row for the
// 10x10x10 cubic model).  Section II-A.4 of the paper describes O(S R N D)
// cost for the sparse case; this type provides that path, and the
// `ablation_storage` bench contrasts it with the dense path the paper's
// Figs. 7/8 use.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense_matrix.hpp"

namespace kpm::linalg {

/// Immutable CRS (a.k.a. CSR) sparse matrix of doubles.
class CrsMatrix {
 public:
  using Index = std::int32_t;

  CrsMatrix() = default;

  /// Assembles from parallel arrays; `row_ptr` has rows+1 entries,
  /// `col_idx`/`values` have row_ptr[rows] entries with columns sorted and
  /// unique within each row.  Validated on construction.
  CrsMatrix(std::size_t rows, std::size_t cols, std::vector<Index> row_ptr,
            std::vector<Index> col_idx, std::vector<double> values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

  [[nodiscard]] std::span<const Index> row_ptr() const noexcept { return row_ptr_; }
  [[nodiscard]] std::span<const Index> col_idx() const noexcept { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// Mutable access to the stored values (pattern stays fixed); used by the
  /// spectral rescaling which only changes numeric entries.
  [[nodiscard]] std::span<double> values_mut() noexcept { return values_; }

  /// Returns element (r, c), 0.0 if not stored.  O(log nnz_row).
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// Maximum number of stored entries in any row.
  [[nodiscard]] std::size_t max_row_nnz() const;

  /// y = A * x  (y must not alias x).
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// True if the sparsity pattern and values are symmetric (within tol).
  [[nodiscard]] bool is_symmetric(double tol = 0.0) const;

  /// Expands to dense storage (for the diagonalization baselines/tests).
  [[nodiscard]] DenseMatrix to_dense() const;

  /// Bytes of storage used by the three arrays.
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return row_ptr_.size() * sizeof(Index) + col_idx_.size() * sizeof(Index) +
           values_.size() * sizeof(double);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Index> row_ptr_;
  std::vector<Index> col_idx_;
  std::vector<double> values_;
};

/// Accumulates (row, col, value) triplets and assembles a CrsMatrix.
/// Duplicate coordinates are summed (standard FEM/tight-binding assembly
/// semantics).  build() sorts every triplet, so this is for input in no
/// known order (dense conversion, honeycomb, current and Peierls operators);
/// the hypercubic builder and rescale() emit their rows directly in O(nnz).
class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols);

  /// Adds value at (r, c); values at repeated coordinates accumulate.
  void add(std::size_t r, std::size_t c, double value);

  /// Adds value at (r, c) and (c, r) — convenience for Hermitian hopping
  /// terms.  The diagonal (r == c) is added once.
  void add_symmetric(std::size_t r, std::size_t c, double value);

  [[nodiscard]] std::size_t triplet_count() const noexcept { return entries_.size(); }

  /// Sorts, merges duplicates (dropping exact zeros), and builds the CRS
  /// arrays.  The builder can be reused afterwards (it is left empty).
  [[nodiscard]] CrsMatrix build();

 private:
  struct Entry {
    std::size_t r, c;
    double v;
  };
  std::size_t rows_, cols_;
  std::vector<Entry> entries_;
};

/// Converts a dense matrix to CRS, dropping entries with |a| <= drop_tol.
[[nodiscard]] CrsMatrix dense_to_crs(const DenseMatrix& m, double drop_tol = 0.0);

/// Returns a copy of `m` whose every row stores its diagonal entry, adding
/// explicit zeros where the pattern lacks one.  Used by the honeycomb
/// builder to match the paper's "7 non-zero elements per row with all
/// diagonal ones zeros" storage layout.
[[nodiscard]] CrsMatrix with_structural_diagonal(const CrsMatrix& m);

}  // namespace kpm::linalg
