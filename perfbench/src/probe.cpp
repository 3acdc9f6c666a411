// Host facts: thread count, peak RSS, and the STREAM-style triad that gives
// per-layer bandwidths a measured ceiling to be compared against.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace perfbench {

std::size_t last_level_cache_bytes() {
  std::size_t best = 0;
  for (int index = 0; index < 16; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream type_file(dir + "/type");
    std::ifstream size_file(dir + "/size");
    std::string type;
    std::string size;
    if (!(type_file >> type) || !(size_file >> size)) continue;
    if (type == "Instruction" || size.empty()) continue;
    std::size_t scale = 1;
    if (size.back() == 'K') scale = std::size_t{1} << 10;
    if (size.back() == 'M') scale = std::size_t{1} << 20;
    best = std::max(best, std::stoul(size) * scale);
  }
  KPM_REQUIRE(best > 0, "perfbench: no cache sizes under /sys/devices/system/cpu/cpu0/cache");
  return best;
}

std::size_t host_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void pin_to_next_cpu() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    KPM_REQUIRE(sched_getaffinity(0, sizeof set, &set) == 0, "perfbench: sched_getaffinity failed");
    std::vector<int> allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
    return allowed;
  }();
  static std::size_t next = 0;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[next++ % cpus.size()], &set);
  KPM_REQUIRE(sched_setaffinity(0, sizeof set, &set) == 0, "perfbench: sched_setaffinity failed");
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double triad_gbs(bool tiny) {
  const std::size_t cache = last_level_cache_bytes();
  const std::size_t array_bytes = tiny ? (std::size_t{8} << 20) : 4 * cache;
  const std::size_t n = array_bytes / sizeof(double);
  std::printf("host.triad: L3 %zu bytes, %zu bytes per array, %zu lanes\n", cache,
              n * sizeof(double), host_threads());

  kpm::AlignedBuffer<double> a(n);
  kpm::AlignedBuffer<double> b(n);
  kpm::AlignedBuffer<double> c(n);
  kpm::common::ThreadPool pool(host_threads());
  pool.parallel_for(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double scalar = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    pool.parallel_for(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      double* __restrict pa = a.data();
      const double* __restrict pb = b.data();
      const double* __restrict pc = c.data();
      for (std::size_t i = begin; i < end; ++i) pa[i] = pb[i] + scalar * pc[i];
    });
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) / seconds / 1e9);
  }
  KPM_REQUIRE(a[n / 2] == 7.0, "perfbench: triad produced a wrong value");
  return best;
}

}  // namespace perfbench
