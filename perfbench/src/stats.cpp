#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double SpanLog::median_of(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : median(it->second);
}

}  // namespace perfbench
