#include "linalg/fused_kernels.hpp"

#include <algorithm>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "obs/counters.hpp"

namespace kpm::linalg {
namespace {

// Records one fused spmv+combine+dot pass of `block` vectors into the
// active obs sink.  The flop/byte model matches core::fused_step_workload
// exactly (ONE matrix stream plus (3 + dots) streamed vectors of
// `element_bytes` each PER MEMBER; the combine and each dot cost
// `element_flops` per element), which is what lets tests cross-check
// measured counters against the roofline prediction.  SpmvCalls/DotCalls
// count logical per-member products; FusedCalls counts passes.
void meter_fused(std::size_t spmv_flops, std::size_t matrix_bytes, std::size_t dim,
                 std::size_t dots, double element_bytes, std::size_t block,
                 double element_flops = 2.0) {
  if (obs::active_counters() == nullptr) return;
  const double d = static_cast<double>(dim);
  const double b = static_cast<double>(block);
  const double flops = b * (static_cast<double>(spmv_flops) + element_flops * d +
                            element_flops * d * static_cast<double>(dots));
  const double bytes = static_cast<double>(matrix_bytes) +
                       (3.0 + static_cast<double>(dots)) * b * d * element_bytes;
  obs::add(obs::Counter::SpmvCalls, b);
  obs::add(obs::Counter::DotCalls, b * static_cast<double>(dots));
  obs::add(obs::Counter::FusedCalls, 1.0);
  obs::add(obs::Counter::Flops, flops);
  obs::add(obs::Counter::BytesStreamed, bytes);
  obs::add(obs::Counter::FusedBytes, bytes);
}

// Records one plain blocked multiply (no combine, no dot): B products over
// a single matrix stream of `matrix_bytes` plus the x read and y write of
// `element_bytes` elements per member.
void meter_spmmv(std::size_t spmv_flops, double matrix_bytes, std::size_t dim,
                 std::size_t block, double element_bytes) {
  if (obs::active_counters() == nullptr) return;
  const double d = static_cast<double>(dim);
  const double b = static_cast<double>(block);
  obs::add(obs::Counter::SpmvCalls, b);
  obs::add(obs::Counter::Flops, b * static_cast<double>(spmv_flops));
  obs::add(obs::Counter::BytesStreamed, matrix_bytes + 2.0 * b * d * element_bytes);
}

// Per-storage cost of one matrix stream: SpMV flops per product and the
// matrix bytes (must match MatrixOperator::spmv_flops/spmv_matrix_bytes).
[[nodiscard]] std::size_t spmv_flops(const CrsMatrix& a) { return 2 * a.nnz(); }
[[nodiscard]] std::size_t spmv_flops(const SellMatrix& a) { return 2 * a.nnz(); }
[[nodiscard]] std::size_t spmv_flops(const DenseMatrix& a) { return 2 * a.rows() * a.cols(); }
[[nodiscard]] std::size_t spmv_flops(const CrsMatrixZ& a) { return 8 * a.nnz(); }

[[nodiscard]] std::size_t matrix_bytes(const CrsMatrix& a) {
  return a.nnz() * (sizeof(double) + sizeof(CrsMatrix::Index)) +
         (a.rows() + 1) * sizeof(CrsMatrix::Index);
}
[[nodiscard]] std::size_t matrix_bytes(const SellMatrix& a) { return a.spmv_matrix_bytes(); }
[[nodiscard]] std::size_t matrix_bytes(const DenseMatrix& a) {
  return a.rows() * a.cols() * sizeof(double);
}
[[nodiscard]] std::size_t matrix_bytes(const CrsMatrixZ& a) {
  return a.nnz() * (sizeof(std::complex<double>) + sizeof(CrsMatrixZ::Index)) +
         (a.rows() + 1) * sizeof(CrsMatrixZ::Index);
}

void require_pass_preconditions(const char* what, std::size_t rows, std::size_t cols,
                                std::size_t block, std::span<const double> r_prev,
                                std::span<const double> r_prev2, std::span<double> r_next) {
  KPM_REQUIRE(block >= 1, std::string(what) + ": block must be >= 1");
  KPM_REQUIRE(rows == cols, std::string(what) + ": matrix must be square");
  KPM_REQUIRE(r_prev.size() == cols * block && r_prev2.size() == rows * block &&
                  r_next.size() == rows * block,
              std::string(what) + ": vector size mismatch");
  KPM_REQUIRE(r_next.data() != r_prev.data(),
              std::string(what) + ": r_next must not alias r_prev");
  KPM_REQUIRE(r_next.data() != r_prev2.data(),
              std::string(what) + ": r_next must not alias r_prev2");
}

// ---------------------------------------------------------------------------
// Row-access policies: how each storage iterates one logical row's entries.
// Fused kernels visit rows in LOGICAL order (the dot lane of row r is
// r mod 4, so the visit order is part of the bit-compatibility contract);
// every policy yields a row's entries in the same order as CrsMatrix rows
// (sorted columns), which keeps per-row accumulation bit-identical across
// storages.  `row_entries(r, f)` calls f(value, col) per stored entry.

template <typename Matrix, typename Value>
struct CrsAccess {
  std::span<const typename Matrix::Index> row_ptr, col_idx;
  std::span<const Value> values;

  explicit CrsAccess(const Matrix& a)
      : row_ptr(a.row_ptr()), col_idx(a.col_idx()), values(a.values()) {}

  template <typename F>
  void row_entries(std::size_t r, F&& f) const {
    for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      f(values[kk], static_cast<std::size_t>(col_idx[kk]));
    }
  }
};

struct SellAccess {
  std::span<const SellMatrix::Index> chunk_ptr, row_len, slot_of, col_idx;
  std::span<const double> values;
  std::size_t chunk_size;

  explicit SellAccess(const SellMatrix& a)
      : chunk_ptr(a.chunk_ptr()), row_len(a.row_len()), slot_of(a.slot_of()),
        col_idx(a.col_idx()), values(a.values()), chunk_size(a.chunk_size()) {}

  template <typename F>
  void row_entries(std::size_t r, F&& f) const {
    const auto slot = static_cast<std::size_t>(slot_of[r]);
    const auto base = static_cast<std::size_t>(chunk_ptr[slot / chunk_size]);
    const std::size_t lane = slot % chunk_size;
    const auto len = static_cast<std::size_t>(row_len[slot]);
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t k = base + j * chunk_size + lane;
      f(values[k], static_cast<std::size_t>(col_idx[k]));
    }
  }
};

struct DenseAccess {
  std::span<const double> values;  // row-major
  std::size_t cols;

  explicit DenseAccess(const DenseMatrix& m) : values(m.data()), cols(m.cols()) {}

  template <typename F>
  void row_entries(std::size_t r, F&& f) const {
    const double* row = values.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) f(row[c], c);
  }
};

[[nodiscard]] CrsAccess<CrsMatrix, double> row_access(const CrsMatrix& a) {
  return CrsAccess<CrsMatrix, double>(a);
}
[[nodiscard]] CrsAccess<CrsMatrixZ, std::complex<double>> row_access(const CrsMatrixZ& a) {
  return CrsAccess<CrsMatrixZ, std::complex<double>>(a);
}
[[nodiscard]] SellAccess row_access(const SellMatrix& a) { return SellAccess(a); }
[[nodiscard]] DenseAccess row_access(const DenseMatrix& a) { return DenseAccess(a); }

// ---------------------------------------------------------------------------
// Block-width dispatch.  Every kernel body is a template over Members<W>:
// for W > 0 the member count and the interleave stride are the compile-time
// width W, so the member loops unroll and the fixed-size local accumulators
// (acc[W], lanes[4][W]) live in registers and L1 instead of heap scratch.
// W = 0 is the one generic instantiation for every other width: it covers
// the members [first, first + count) of a block of runtime width `stride`,
// with count <= kGenericTile so its local arrays are fixed-size too.  A
// block wider than kGenericTile is swept tile by tile; each member's
// arithmetic is the same in every instantiation.

inline constexpr std::size_t kGenericTile = 64;

template <std::size_t W>
struct Members {
  static constexpr std::size_t kCap = W > 0 ? W : kGenericTile;
  std::size_t stride_ = W;  ///< block width B: element i of member j is at i*B + j
  std::size_t first = 0;    ///< first member covered
  std::size_t count_ = W;   ///< members covered

  [[nodiscard]] constexpr std::size_t stride() const {
    if constexpr (W > 0) return W;
    return stride_;
  }
  [[nodiscard]] constexpr std::size_t count() const {
    if constexpr (W > 0) return W;
    return count_;
  }
};

/// Calls `sweep(members)` once with the compile-time width when `block` is
/// one of {1, 2, 4, 8, 16, 32}; otherwise once per generic tile.
template <typename Sweep>
void for_block_width(std::size_t block, Sweep&& sweep) {
  switch (block) {
    case 1: return sweep(Members<1>{});
    case 2: return sweep(Members<2>{});
    case 4: return sweep(Members<4>{});
    case 8: return sweep(Members<8>{});
    case 16: return sweep(Members<16>{});
    case 32: return sweep(Members<32>{});
    default:
      for (std::size_t first = 0; first < block; first += kGenericTile)
        sweep(Members<0>{block, first, std::min(kGenericTile, block - first)});
  }
}

// ---------------------------------------------------------------------------
// Kernel bodies, templated on the row-access policy and the block width.

/// One matrix pass: per logical row r, acc[j] = sum over the row's entries
/// (v, c) of v * x_j[c] in entry order — the same accumulation as
/// CrsMatrix::multiply for every member — then `row_end(r, acc)`.  The
/// element type T is the vector scalar: each stored value is converted to T
/// (binary32 vectors narrow a double matrix entry by entry) and every member
/// accumulates in T.  The access policy is taken by value so the compiler
/// knows the output stores cannot move the matrix arrays it walks.
template <std::size_t W, typename T, typename Access, typename RowEnd>
void sweep_rows(const Access rows_of, std::size_t rows, Members<W> m, const T* x,
                RowEnd&& row_end) {
  const std::size_t stride = m.stride();
  const std::size_t count = m.count();
  x += m.first;
  T acc[Members<W>::kCap] = {};
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < count; ++j) acc[j] = T{};
    // Member-inner loop: x[c*B + j] is unit-stride.
    rows_of.row_entries(r, [&](auto v, std::size_t c) {
      const T vt = static_cast<T>(v);
      const T* xc = x + c * stride;
      for (std::size_t j = 0; j < count; ++j) acc[j] += vt * xc[j];
    });
    row_end(r, static_cast<const T*>(acc));
  }
}

/// Folds one member's four dot lanes: (l0 + l1) + (l2 + l3), linalg::dot's
/// canonical order.
template <std::size_t Cap>
[[nodiscard]] double fold_lanes(const double (&lanes)[4][Cap], std::size_t j) {
  return (lanes[0][j] + lanes[1][j]) + (lanes[2][j] + lanes[3][j]);
}

template <std::size_t W, typename T, typename Access>
void multiply_sweep(const Access& rows_of, std::size_t rows, Members<W> m, const T* x, T* y) {
  const std::size_t stride = m.stride();
  const std::size_t count = m.count();
  y += m.first;
  sweep_rows(rows_of, rows, m, x, [&](std::size_t r, const T* acc) {
    T* yr = y + r * stride;
    for (std::size_t j = 0; j < count; ++j) yr[j] = acc[j];
  });
}

template <std::size_t W, typename Access>
void combine_dot_sweep(const Access& rows_of, std::size_t rows, Members<W> m,
                       const double* r_prev, const double* r_prev2, const double* r0,
                       double* r_next, double* dots) {
  const std::size_t stride = m.stride();
  const std::size_t count = m.count();
  r_prev2 += m.first;
  r0 += m.first;
  r_next += m.first;
  // lanes[r & 3][j]: row r feeds lane r mod 4 of member j (linalg::dot order).
  double lanes[4][Members<W>::kCap] = {};
  sweep_rows(rows_of, rows, m, r_prev, [&](std::size_t r, const double* acc) {
    const double* p2 = r_prev2 + r * stride;
    const double* z = r0 + r * stride;
    double* yr = r_next + r * stride;
    double* lane = lanes[r & 3];
    for (std::size_t j = 0; j < count; ++j) {
      const double next = 2.0 * acc[j] - p2[j];
      yr[j] = next;
      lane[j] += z[j] * next;
    }
  });
  for (std::size_t j = 0; j < count; ++j) dots[m.first + j] = fold_lanes(lanes, j);
}

template <std::size_t W, typename Access>
void combine_dot2_sweep(const Access& rows_of, std::size_t rows, Members<W> m,
                        const double* r_prev, const double* r_prev2, double* r_next,
                        PairedDots* dots) {
  const std::size_t stride = m.stride();
  const std::size_t count = m.count();
  const double* pv_base = r_prev + m.first;
  r_prev2 += m.first;
  r_next += m.first;
  double lanes_np[4][Members<W>::kCap] = {};
  double lanes_pp[4][Members<W>::kCap] = {};
  sweep_rows(rows_of, rows, m, r_prev, [&](std::size_t r, const double* acc) {
    const double* p2 = r_prev2 + r * stride;
    const double* pv = pv_base + r * stride;
    double* yr = r_next + r * stride;
    double* np = lanes_np[r & 3];
    double* pp = lanes_pp[r & 3];
    for (std::size_t j = 0; j < count; ++j) {
      const double next = 2.0 * acc[j] - p2[j];
      const double prev = pv[j];
      yr[j] = next;
      np[j] += next * prev;
      pp[j] += prev * prev;
    }
  });
  for (std::size_t j = 0; j < count; ++j) {
    dots[m.first + j].next_prev = fold_lanes(lanes_np, j);
    dots[m.first + j].prev_prev = fold_lanes(lanes_pp, j);
  }
}

template <std::size_t W>
void block_dot_sweep(std::size_t dim, Members<W> m, const double* x, const double* y,
                     double* dots) {
  const std::size_t stride = m.stride();
  const std::size_t count = m.count();
  x += m.first;
  y += m.first;
  double lanes[4][Members<W>::kCap] = {};  // element i feeds lane i mod 4
  for (std::size_t i = 0; i < dim; ++i) {
    const double* xi = x + i * stride;
    const double* yi = y + i * stride;
    double* lane = lanes[i & 3];
    for (std::size_t j = 0; j < count; ++j) lane[j] += xi[j] * yi[j];
  }
  for (std::size_t j = 0; j < count; ++j) dots[m.first + j] = fold_lanes(lanes, j);
}

/// Single-lane left folds: float sums for binary32, Re<x|y> for complex.
template <std::size_t W, typename T>
void fold_dot_sweep(std::size_t dim, Members<W> m, const T* x, const T* y, double* dots) {
  const std::size_t stride = m.stride();
  const std::size_t count = m.count();
  x += m.first;
  y += m.first;
  std::conditional_t<std::is_same_v<T, float>, float, double> acc[Members<W>::kCap] = {};
  for (std::size_t i = 0; i < dim; ++i) {
    const T* xi = x + i * stride;
    const T* yi = y + i * stride;
    for (std::size_t j = 0; j < count; ++j) {
      if constexpr (std::is_same_v<T, float>)
        acc[j] += xi[j] * yi[j];
      else
        acc[j] += (std::conj(xi[j]) * yi[j]).real();
    }
  }
  for (std::size_t j = 0; j < count; ++j) dots[m.first + j] = static_cast<double>(acc[j]);
}

/// Complex pass: the combine of combine_dot_sweep, and per member the
/// single-lane left fold Re<r0_j|r_next_j> in logical row order.
template <std::size_t W, typename Access>
void combine_dot_re_sweep(const Access& rows_of, std::size_t rows, Members<W> m,
                          const std::complex<double>* r_prev,
                          const std::complex<double>* r_prev2,
                          const std::complex<double>* r0, std::complex<double>* r_next,
                          double* dots) {
  const std::size_t stride = m.stride();
  const std::size_t count = m.count();
  r_prev2 += m.first;
  r0 += m.first;
  r_next += m.first;
  double sums[Members<W>::kCap] = {};
  sweep_rows(rows_of, rows, m, r_prev, [&](std::size_t r, const std::complex<double>* acc) {
    const std::complex<double>* p2 = r_prev2 + r * stride;
    const std::complex<double>* z = r0 + r * stride;
    std::complex<double>* yr = r_next + r * stride;
    for (std::size_t j = 0; j < count; ++j) {
      const std::complex<double> next = 2.0 * acc[j] - p2[j];
      yr[j] = next;
      sums[j] += (std::conj(z[j]) * next).real();
    }
  });
  for (std::size_t j = 0; j < count; ++j) dots[m.first + j] = sums[j];
}

// ---------------------------------------------------------------------------
// Checked, metered passes shared by every storage.  `what` names the public entry point in error messages;
// the message string is only built when a check fails.

/// y_j = A x_j over vectors of T.  A binary32 pass streams the matrix as
/// if stored in float (half its double bytes).
template <typename Matrix, typename T>
void multiply_pass(const Matrix& a, std::size_t block, std::span<const T> x, std::span<T> y) {
  KPM_REQUIRE(block >= 1, "spmmv_multiply: block must be >= 1");
  KPM_REQUIRE(x.size() == a.cols() * block && y.size() == a.rows() * block,
              "spmmv_multiply: block size mismatch");
  KPM_REQUIRE(y.data() != x.data(), "spmmv_multiply: y must not alias x");
  const double narrowing = std::is_same_v<T, float> ? 0.5 : 1.0;
  meter_spmmv(spmv_flops(a), static_cast<double>(matrix_bytes(a)) * narrowing, a.rows(), block,
              sizeof(T));
  const auto rows_of = row_access(a);
  for_block_width(block, [&](auto m) {
    multiply_sweep(rows_of, a.rows(), m, x.data(), y.data());
  });
}

template <typename Matrix>
void combine_dot_pass(const char* what, const Matrix& a, std::size_t block,
                      std::span<const double> r_prev, std::span<const double> r_prev2,
                      std::span<const double> r0, std::span<double> r_next,
                      std::span<double> dots) {
  require_pass_preconditions(what, a.rows(), a.cols(), block, r_prev, r_prev2, r_next);
  KPM_REQUIRE(r0.size() == a.rows() * block && dots.size() == block,
              std::string(what) + ": r0/dots size mismatch");
  KPM_REQUIRE(r_next.data() != r0.data(), std::string(what) + ": r_next must not alias r0");
  meter_fused(spmv_flops(a), matrix_bytes(a), a.rows(), 1, sizeof(double), block);
  const auto rows_of = row_access(a);
  for_block_width(block, [&](auto m) {
    combine_dot_sweep(rows_of, a.rows(), m, r_prev.data(), r_prev2.data(), r0.data(),
                      r_next.data(), dots.data());
  });
}

template <typename Matrix>
void combine_dot2_pass(const char* what, const Matrix& a, std::size_t block,
                       std::span<const double> r_prev, std::span<const double> r_prev2,
                       std::span<double> r_next, std::span<PairedDots> dots) {
  require_pass_preconditions(what, a.rows(), a.cols(), block, r_prev, r_prev2, r_next);
  KPM_REQUIRE(dots.size() == block, std::string(what) + ": dots size mismatch");
  meter_fused(spmv_flops(a), matrix_bytes(a), a.rows(), 2, sizeof(double), block);
  const auto rows_of = row_access(a);
  for_block_width(block, [&](auto m) {
    combine_dot2_sweep(rows_of, a.rows(), m, r_prev.data(), r_prev2.data(), r_next.data(),
                       dots.data());
  });
}

/// Calls `f` with the operator's concrete storage.
template <typename F>
decltype(auto) with_storage(const MatrixOperator& op, F&& f) {
  if (op.dense() != nullptr) return f(*op.dense());
  if (op.crs() != nullptr) return f(*op.crs());
  return f(*op.sell());
}

}  // namespace

// ---------------------------------------------------------------------------
// Vector-block (SpMMV) kernels.

void block_dot(std::span<const double> x, std::span<const double> y, std::size_t block,
               std::span<double> dots) {
  KPM_REQUIRE(block >= 1, "block_dot: block must be >= 1");
  KPM_REQUIRE(x.size() == y.size() && x.size() % block == 0,
              "block_dot: block vector size mismatch");
  KPM_REQUIRE(dots.size() == block, "block_dot: dots size mismatch");
  const std::size_t dim = x.size() / block;
  for_block_width(block,
                  [&](auto m) { block_dot_sweep(dim, m, x.data(), y.data(), dots.data()); });
}

template <typename T>
void fold_dot(std::span<const T> x, std::span<const T> y, std::size_t block,
              std::span<double> dots) {
  KPM_REQUIRE(block >= 1, "block_dot_fold: block must be >= 1");
  KPM_REQUIRE(x.size() == y.size() && x.size() % block == 0,
              "block_dot_fold: block vector size mismatch");
  KPM_REQUIRE(dots.size() == block, "block_dot_fold: dots size mismatch");
  for_block_width(block, [&](auto m) {
    fold_dot_sweep(x.size() / block, m, x.data(), y.data(), dots.data());
  });
}

void block_dot_fold(std::span<const float> x, std::span<const float> y, std::size_t block,
                    std::span<double> dots) {
  fold_dot(x, y, block, dots);
}

void block_dot_fold(std::span<const std::complex<double>> x,
                    std::span<const std::complex<double>> y, std::size_t block,
                    std::span<double> dots) {
  fold_dot(x, y, block, dots);
}

void meter_spmmv_pass(const MatrixOperator& op, std::size_t block) {
  meter_spmmv(op.spmv_flops(), static_cast<double>(op.spmv_matrix_bytes()), op.dim(), block,
              sizeof(double));
}

void meter_combine_dot_pass(const MatrixOperator& op, std::size_t block) {
  meter_fused(op.spmv_flops(), op.spmv_matrix_bytes(), op.dim(), 1, sizeof(double), block);
}

void spmmv_multiply(const CrsMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y) {
  multiply_pass(a, block, x, y);
}

void spmmv_multiply(const SellMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y) {
  multiply_pass(a, block, x, y);
}

void spmmv_multiply(const DenseMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y) {
  multiply_pass(a, block, x, y);
}

void spmmv_multiply(const MatrixOperator& op, std::size_t block, std::span<const double> x,
                    std::span<double> y) {
  with_storage(op, [&](const auto& a) { multiply_pass(a, block, x, y); });
}

void spmmv_multiply(const MatrixOperator& op, std::size_t block, std::span<const float> x,
                    std::span<float> y) {
  with_storage(op, [&](const auto& a) { multiply_pass(a, block, x, y); });
}

void spmmv_multiply(const CrsMatrixZ& a, std::size_t block,
                    std::span<const std::complex<double>> x, std::span<std::complex<double>> y) {
  multiply_pass(a, block, x, y);
}

void spmmv_combine_dot(const CrsMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots) {
  combine_dot_pass("spmmv_combine_dot", a, block, r_prev, r_prev2, r0, r_next, dots);
}

void spmmv_combine_dot(const SellMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots) {
  combine_dot_pass("spmmv_combine_dot", a, block, r_prev, r_prev2, r0, r_next, dots);
}

void spmmv_combine_dot(const DenseMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots) {
  combine_dot_pass("spmmv_combine_dot", a, block, r_prev, r_prev2, r0, r_next, dots);
}

void spmmv_combine_dot(const MatrixOperator& op, std::size_t block,
                       std::span<const double> r_prev, std::span<const double> r_prev2,
                       std::span<const double> r0, std::span<double> r_next,
                       std::span<double> dots) {
  with_storage(op, [&](const auto& a) {
    combine_dot_pass("spmmv_combine_dot", a, block, r_prev, r_prev2, r0, r_next, dots);
  });
}

void spmmv_combine_dot2(const CrsMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots) {
  combine_dot2_pass("spmmv_combine_dot2", a, block, r_prev, r_prev2, r_next, dots);
}

void spmmv_combine_dot2(const SellMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots) {
  combine_dot2_pass("spmmv_combine_dot2", a, block, r_prev, r_prev2, r_next, dots);
}

void spmmv_combine_dot2(const DenseMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots) {
  combine_dot2_pass("spmmv_combine_dot2", a, block, r_prev, r_prev2, r_next, dots);
}

void spmmv_combine_dot2(const MatrixOperator& op, std::size_t block,
                        std::span<const double> r_prev, std::span<const double> r_prev2,
                        std::span<double> r_next, std::span<PairedDots> dots) {
  with_storage(op, [&](const auto& a) {
    combine_dot2_pass("spmmv_combine_dot2", a, block, r_prev, r_prev2, r_next, dots);
  });
}

void spmmv_combine_dot_re(const CrsMatrixZ& a, std::size_t block,
                          std::span<const std::complex<double>> r_prev,
                          std::span<const std::complex<double>> r_prev2,
                          std::span<const std::complex<double>> r0,
                          std::span<std::complex<double>> r_next, std::span<double> dots) {
  KPM_REQUIRE(block >= 1, "spmmv_combine_dot_re: block must be >= 1");
  KPM_REQUIRE(a.rows() == a.cols(), "spmmv_combine_dot_re: matrix must be square");
  KPM_REQUIRE(r_prev.size() == a.cols() * block && r_prev2.size() == a.rows() * block &&
                  r0.size() == a.rows() * block && r_next.size() == a.rows() * block &&
                  dots.size() == block,
              "spmmv_combine_dot_re: block size mismatch");
  KPM_REQUIRE(r_next.data() != r_prev.data() && r_next.data() != r_prev2.data() &&
                  r_next.data() != r0.data(),
              "spmmv_combine_dot_re: r_next must not alias an input");
  // Complex SpMV: 8 flops per stored entry; the combine and the real-part
  // dot cost 4 flops per complex element each.
  meter_fused(spmv_flops(a), matrix_bytes(a), a.rows(), 1, sizeof(std::complex<double>), block,
              4.0);
  const auto rows_of = row_access(a);
  for_block_width(block, [&](auto m) {
    combine_dot_re_sweep(rows_of, a.rows(), m, r_prev.data(), r_prev2.data(), r0.data(),
                         r_next.data(), dots.data());
  });
}

}  // namespace kpm::linalg
