// Typed, deterministic work counters shared by every compute path.
//
// A `CounterSet` holds one double per `Counter`.  All values recorded by the
// library are exact integers (flop counts, byte counts, call counts) well
// below 2^53, so double addition is exact and therefore associative: any
// grouping of per-thread shards reduces to bit-identical totals.  That is the
// property the deterministic-metrics tests pin down.
//
// Recording is opt-in and thread-local: `obs::add` is a no-op unless the
// calling thread has a sink installed (via `CounterScope`, `Collect`, or
// `sharded_parallel_for`).  Hot kernels therefore pay one thread-local load
// and a branch per *call* (not per element) when metrics are off.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

namespace kpm::obs {

/// Every counter tracked by the library.  Extend at the end and update
/// `kCounterCount`, `to_string`, and docs/observability.md together.
enum class Counter : std::size_t {
  Flops,              ///< double-precision (or f32) flops executed on the host
  BytesStreamed,      ///< host bytes read+written by kernels (matrix + vectors)
  SpmvCalls,          ///< sparse/dense matrix-vector products (fused or plain)
  DotCalls,           ///< dot-product reductions (fused dots count here too)
  FusedCalls,         ///< fused spmv+combine+dot kernel invocations
  FusedBytes,         ///< bytes streamed by fused kernels only (roofline check)
  RngElements,        ///< random vector elements drawn
  InstancesExecuted,  ///< stochastic-trace / recursion start vectors processed
  MomentsProduced,    ///< moment values returned by an engine or routine
  ReconstructPoints,  ///< spectral reconstruction evaluation points
  GpuKernelLaunches,  ///< simulated-GPU kernel launches (from gpusim timeline)
  GpuFlops,           ///< simulated-GPU flops (from gpusim::CostCounters)
  GpuGlobalBytes,     ///< simulated-GPU global memory traffic
  GpuSharedBytes,     ///< simulated-GPU shared memory traffic
  GpuBytesH2D,        ///< host-to-device transfer bytes
  GpuBytesD2H,        ///< device-to-host transfer bytes

  // Serving-layer counters (src/serve): all recorded on the scheduler
  // thread from simulated-clock decisions, so they are deterministic.
  ServeRequests,       ///< requests submitted to a serve scheduler
  ServeBatches,        ///< engine/cache service rounds executed
  ServeCoalesced,      ///< requests that rode an existing batch (beyond its head)
  ServeCacheHits,      ///< moment-cache lookups answered without an engine run
  ServeCacheMisses,    ///< moment-cache lookups that required an engine run
  ServeCacheEvictions, ///< cache entries evicted by the LRU byte budget
  ServeShedRejected,   ///< requests shed by admission control (rejected)
  ServeShedDegraded,   ///< requests admitted at a degraded (lower-N) quality
  ServeShedExpired,    ///< requests dropped because their deadline passed in queue

  // Fleet-serving counters (src/serve + src/serve/fleet): recorded on the
  // scheduler thread from simulated-clock decisions, so deterministic.
  ServeCacheAdmitRefused,  ///< cost-aware cache refusals (incoming density too low)
  ServeCacheCostSavedNs,   ///< modeled recompute ns avoided by cache hits
  ServeGpuPricedBatches,   ///< batches priced from a gpusim timeline run
  FleetShards,             ///< server shards executed by fleet runs
  FleetRequestsRouted,     ///< requests routed to a shard by the hash ring
};

inline constexpr std::size_t kCounterCount = 30;

/// Stable snake_case name used as the JSON key for `c`.
[[nodiscard]] const char* to_string(Counter c) noexcept;

/// Inverse of `to_string`.  Throws kpm::Error for unknown names.
[[nodiscard]] Counter counter_from_name(std::string_view name);

/// A full set of counter values.  Aligned to a cache line so adjacent
/// per-lane shards in `ShardedCounters` do not false-share.
class alignas(64) CounterSet {
 public:
  void add(Counter c, double amount) noexcept {
    values_[static_cast<std::size_t>(c)] += amount;
  }
  [[nodiscard]] double get(Counter c) const noexcept {
    return values_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double operator[](Counter c) const noexcept { return get(c); }

  CounterSet& operator+=(const CounterSet& other) noexcept;
  bool operator==(const CounterSet&) const = default;

  /// True when every counter is exactly zero.
  [[nodiscard]] bool empty() const noexcept;

  [[nodiscard]] const std::array<double, kCounterCount>& values() const noexcept {
    return values_;
  }

 private:
  std::array<double, kCounterCount> values_{};
};

namespace detail {
/// The calling thread's active sink slot (nullptr when recording is off).
/// A function-local thread_local (constant-initialized, so no TLS init
/// wrapper is involved in the access path).
[[nodiscard]] inline CounterSet*& counters_slot() noexcept {
  static thread_local CounterSet* slot = nullptr;
  return slot;
}
}  // namespace detail

/// The sink installed on this thread (nullptr when none).
[[nodiscard]] inline CounterSet* active_counters() noexcept { return detail::counters_slot(); }

/// Records `amount` into the calling thread's sink; no-op without one.
inline void add(Counter c, double amount) noexcept {
  if (CounterSet* sink = detail::counters_slot()) sink->add(c, amount);
}

/// RAII: installs `sink` as the calling thread's counter sink, restoring the
/// previous sink (possibly nullptr) on destruction.  Scopes nest.
class CounterScope {
 public:
  explicit CounterScope(CounterSet& sink) noexcept : prev_(detail::counters_slot()) {
    detail::counters_slot() = &sink;
  }
  ~CounterScope() { detail::counters_slot() = prev_; }
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

 private:
  CounterSet* prev_;
};

/// One private CounterSet per ThreadPool lane.  `reduce()` sums shards in
/// lane order 0..L-1 after the pool has joined, which (with exact-integer
/// counters) yields totals independent of the lane count.
class ShardedCounters {
 public:
  explicit ShardedCounters(std::size_t lanes);

  [[nodiscard]] CounterSet& shard(std::size_t lane);
  [[nodiscard]] std::size_t lanes() const noexcept { return shards_.size(); }

  /// Sums all shards in lane order.
  [[nodiscard]] CounterSet reduce() const noexcept;

 private:
  std::vector<CounterSet> shards_;
};

// ---------------------------------------------------------------------------
// Convenience meters for host linear-algebra kernels.  These encode the same
// per-operation flop/byte model as cpumodel::roofline so measured counters
// are directly comparable with modeled workloads.

/// A plain (unfused) matrix-vector product: matrix traffic plus the input
/// and output vectors.
inline void meter_spmv(std::size_t spmv_flops, std::size_t matrix_bytes,
                       std::size_t dim) noexcept {
  const double d = static_cast<double>(dim);
  add(Counter::SpmvCalls, 1.0);
  add(Counter::Flops, static_cast<double>(spmv_flops));
  add(Counter::BytesStreamed, static_cast<double>(matrix_bytes) + 2.0 * d * 8.0);
}

/// Raw streamed-byte traffic (vector copies, scale/combine passes, ...).
inline void meter_stream_bytes(double bytes) noexcept {
  add(Counter::BytesStreamed, bytes);
}

}  // namespace kpm::obs
