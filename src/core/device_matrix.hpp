// Device-resident Hamiltonian: the H~ matrix uploaded to GPU global memory.
//
// Holds either dense values or the three CRS arrays, plus a lightweight
// non-owning `DeviceMatrixRef` that kernels capture.  The upload charges
// PCIe transfer time to the device timeline, exactly like the cudaMemcpy
// the paper's host code performs before launching.
#pragma once

#include <cstdint>
#include <span>

#include "gpusim/device.hpp"
#include "linalg/operator.hpp"

namespace kpm::core {

/// Non-owning view of a device-resident matrix, usable inside kernels.
/// `T` is the element type: double, or std::complex<double> for the
/// Hermitian (magnetic-field) operator.
template <typename T>
struct BasicDeviceMatrixRef {
  linalg::Storage storage = linalg::Storage::Dense;
  std::size_t dim = 0;
  std::size_t stored_entries = 0;
  std::span<const T> values;                // dense: dim*dim row-major; crs: nnz
  std::span<const std::int32_t> row_ptr;    // crs only
  std::span<const std::int32_t> col_idx;    // crs only

  /// Bytes one full traversal of the matrix streams from global memory.
  [[nodiscard]] double traversal_bytes() const noexcept {
    if (storage == linalg::Storage::Dense)
      return static_cast<double>(stored_entries) * sizeof(T);
    return static_cast<double>(stored_entries) * (sizeof(T) + sizeof(std::int32_t)) +
           static_cast<double>(dim + 1) * sizeof(std::int32_t);
  }

  /// The one row sweep of every device kernel: acc = (H~ x)[r] summed in
  /// storage order, handed to `store(r, acc)` row by row.  No metering;
  /// kernels meter analytically.
  template <typename Store>
  void sweep(std::span<const T> x, Store store) const noexcept {
    if (storage == linalg::Storage::Dense) {
      for (std::size_t r = 0; r < dim; ++r) {
        const T* row = values.data() + r * dim;
        T acc{};
        for (std::size_t c = 0; c < dim; ++c) acc += row[c] * x[c];
        store(r, acc);
      }
    } else {
      for (std::size_t r = 0; r < dim; ++r) {
        T acc{};
        for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
          const auto kk = static_cast<std::size_t>(k);
          acc += values[kk] * x[static_cast<std::size_t>(col_idx[kk])];
        }
        store(r, acc);
      }
    }
  }

  /// y = H~ x.
  void multiply(std::span<const T> x, std::span<T> y) const noexcept {
    sweep(x, [&](std::size_t r, T acc) { y[r] = acc; });
  }

  /// One Chebyshev step: out = 2 H~ x - prev2.  `out` may alias `prev2`
  /// (row r reads prev2[r] only after its own sum).
  void step(std::span<const T> x, std::span<const T> prev2, std::span<T> out) const noexcept {
    sweep(x, [&](std::size_t r, T acc) { out[r] = 2.0 * acc - prev2[r]; });
  }
};

using DeviceMatrixRef = BasicDeviceMatrixRef<double>;

/// Owning device-side matrix storage.
class DeviceMatrix {
 public:
  /// Allocates device buffers for `op` and copies the host data across
  /// (charging allocation + PCIe time on `device`).
  DeviceMatrix(gpusim::Device& device, const linalg::MatrixOperator& op)
      : storage_(op.storage()), dim_(op.dim()), stored_entries_(op.stored_entries()) {
    KPM_REQUIRE(storage_ != linalg::Storage::Sell,
                "DeviceMatrix: SELL-C-sigma operators are host-only; upload the CRS form "
                "for the GPU engines");
    if (storage_ == linalg::Storage::Dense) {
      const auto& m = *op.dense();
      values_ = device.alloc<double>(m.rows() * m.cols(), "H~ dense values");
      device.copy_to_device<double>(m.data(), values_, "H~ dense upload");
    } else {
      const auto& m = *op.crs();
      values_ = device.alloc<double>(m.nnz(), "H~ crs values");
      row_ptr_ = device.alloc<std::int32_t>(m.rows() + 1, "H~ crs row_ptr");
      col_idx_ = device.alloc<std::int32_t>(m.nnz(), "H~ crs col_idx");
      device.copy_to_device<double>(m.values(), values_, "H~ crs values upload");
      device.copy_to_device<std::int32_t>(m.row_ptr(), row_ptr_, "H~ crs row_ptr upload");
      device.copy_to_device<std::int32_t>(m.col_idx(), col_idx_, "H~ crs col_idx upload");
    }
  }

  [[nodiscard]] DeviceMatrixRef ref() const noexcept {
    DeviceMatrixRef r;
    r.storage = storage_;
    r.dim = dim_;
    r.stored_entries = stored_entries_;
    r.values = values_.raw();
    if (storage_ == linalg::Storage::Crs) {
      r.row_ptr = row_ptr_.raw();
      r.col_idx = col_idx_.raw();
    }
    return r;
  }

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

 private:
  linalg::Storage storage_;
  std::size_t dim_;
  std::size_t stored_entries_;
  gpusim::DeviceBuffer<double> values_;
  gpusim::DeviceBuffer<std::int32_t> row_ptr_;
  gpusim::DeviceBuffer<std::int32_t> col_idx_;
};

}  // namespace kpm::core
