#include "lattice/lattice.hpp"

#include <sstream>

namespace kpm::lattice {

HypercubicLattice::HypercubicLattice(std::array<std::size_t, 3> dims, Boundary boundary)
    : dims_(dims), boundary_(boundary) {
  KPM_REQUIRE(dims_[0] >= 1 && dims_[1] >= 1 && dims_[2] >= 1,
              "HypercubicLattice: extents must be >= 1");
  // Trailing-1 convention: an unused axis must come after all used axes.
  KPM_REQUIRE(!(dims_[1] == 1 && dims_[2] > 1),
              "HypercubicLattice: unused axes must be trailing (got Ly=1, Lz>1)");
}

std::size_t HypercubicLattice::effective_dimension() const noexcept {
  std::size_t d = 0;
  for (std::size_t e : dims_)
    if (e > 1) ++d;
  return d == 0 ? 1 : d;
}

std::size_t HypercubicLattice::site_index(std::size_t x, std::size_t y, std::size_t z) const {
  KPM_REQUIRE(x < dims_[0] && y < dims_[1] && z < dims_[2],
              "HypercubicLattice::site_index: coordinates out of range");
  return (z * dims_[1] + y) * dims_[0] + x;
}

std::array<std::size_t, 3> HypercubicLattice::site_coords(std::size_t index) const {
  KPM_REQUIRE(index < sites(), "HypercubicLattice::site_coords: index out of range");
  const std::size_t x = index % dims_[0];
  const std::size_t y = (index / dims_[0]) % dims_[1];
  const std::size_t z = index / (dims_[0] * dims_[1]);
  return {x, y, z};
}

std::vector<std::size_t> HypercubicLattice::neighbours(std::size_t index) const {
  std::vector<std::size_t> out;
  out.reserve(6);
  for_each_neighbour(index, [&out](std::size_t j) { out.push_back(j); });
  return out;
}

std::vector<std::size_t> HypercubicLattice::next_nearest_neighbours(std::size_t index) const {
  std::vector<std::size_t> out;
  out.reserve(12);
  for_each_next_nearest_neighbour(index, [&out](std::size_t j) { out.push_back(j); });
  return out;
}

std::string HypercubicLattice::describe() const {
  static const char* names[] = {"chain", "square", "cubic"};
  std::ostringstream os;
  os << names[effective_dimension() - 1] << ' ' << dims_[0];
  if (dims_[1] > 1) os << 'x' << dims_[1];
  if (dims_[2] > 1) os << 'x' << dims_[2];
  os << " (" << to_string(boundary_) << ')';
  return os.str();
}

}  // namespace kpm::lattice
