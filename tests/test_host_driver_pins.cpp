// Pins the modeled output of the host drivers that run the shared host
// recursion in binary32, over complex vectors and over cluster shards.
//
// Each driver runs a small fixed workload; its nonzero obs counters, its
// InstanceModelNs histogram and (where the driver has a cost model) its
// model_seconds must equal the values recorded below.  The cluster cases
// also pin the ClusterScalingReport, and every thread count must reproduce
// the single-thread pin.  These drivers share one recursion skeleton and
// one group runner, so a change that moves any of these numbers changes
// what a driver meters or models — re-record only for a deliberate
// cost-model change.
//
// The file also checks that the shared group runner shapes every
// workspace by the instances it runs, not by the requested block width.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/estimator_stats.hpp"
#include "core/moments_cluster.hpp"
#include "core/moments_cpu.hpp"
#include "core/moments_f32.hpp"
#include "core/moments_hermitian.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "lattice/peierls.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/sell_matrix.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"

/// Largest single allocation since the last reset (the replaced global
/// operator new below records it).
std::atomic<std::size_t> g_largest_allocation{0};

void* operator new(std::size_t size) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(seen, size)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// The nothrow form (std::stable_sort's temporary buffer) must allocate
// through the same malloc that the replaced deletes free into; sanitizer
// runtimes otherwise supply their own and report a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace kpm;
using namespace kpm::core;

/// The recorded output of one driver run.
struct Pin {
  double model_seconds;  ///< ignored for drivers without a cost model
  const char* counters;  ///< nonzero counters, "name=value" in registry order
  const char* instance_ns;  ///< InstanceModelNs as "count/sum/min/max" ("" when empty)
};

/// What one run produced, in the same textual form as `Pin`.
struct Observed {
  double model_seconds = 0.0;
  std::string counters;
  std::string instance_ns;
};

/// Every nonzero counter as "name=value" (17 significant digits), in
/// registry order.
std::string nonzero_counters(const obs::CounterSet& set) {
  std::string out;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const double v = set.values()[i];
    if (v == 0.0) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s%s=%.17g", out.empty() ? "" : " ",
                  obs::to_string(static_cast<obs::Counter>(i)), v);
    out += buf;
  }
  return out;
}

std::string histogram_text(const obs::Histogram& h) {
  if (h.empty()) return "";
  return std::to_string(h.count()) + "/" + std::to_string(h.sum()) + "/" +
         std::to_string(h.min()) + "/" + std::to_string(h.max());
}

/// Runs `run` (which returns the driver's model_seconds) under fresh
/// counter and histogram sinks.
template <typename F>
Observed observe(F&& run) {
  obs::CounterSet counters;
  obs::HistogramSet histograms;
  Observed o;
  {
    obs::CounterScope counter_scope(counters);
    obs::HistogramScope histogram_scope(histograms);
    o.model_seconds = run();
  }
  o.counters = nonzero_counters(counters);
  o.instance_ns = histogram_text(histograms[obs::Histo::InstanceModelNs]);
  return o;
}

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void expect_pinned(const Pin& pin, const Observed& o, bool check_model = true) {
  EXPECT_EQ(o.counters, pin.counters);
  EXPECT_EQ(o.instance_ns, pin.instance_ns);
  if (check_model)
    EXPECT_EQ(o.model_seconds, pin.model_seconds) << "model_seconds " << g17(o.model_seconds);
}

/// 4^3 tight-binding cube rescaled into [-1, 1] (D = 64).
linalg::CrsMatrix cube_h_tilde() {
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator raw(h);
  return linalg::rescale(h, linalg::make_spectral_transform(raw));
}

/// 6x6 flux lattice rescaled into [-1, 1] (D = 36).
linalg::CrsMatrixZ flux_h_tilde() {
  const auto h = lattice::build_square_flux_crs(6, 6, 1.0 / 6.0);
  return linalg::rescale(h, linalg::SpectralTransform(h.gershgorin(), 0.02));
}

/// N = 16 moments over 6 instances, 5 of them executed functionally (so
/// B = 3 runs a ragged executed group while the cost model prices two full
/// ones, and B = 8 runs one ragged group).
MomentParams pin_params(std::size_t block) {
  MomentParams p;
  p.num_moments = 16;
  p.random_vectors = 2;
  p.realizations = 3;
  p.block_r = block;
  return p;
}

constexpr std::size_t kSample = 5;

enum class Storage { Crs, Sell, Dense };

/// The cube in the requested storage, kept alive for the operator view.
struct CubeOperator {
  linalg::CrsMatrix crs = cube_h_tilde();
  linalg::SellMatrix sell = linalg::SellMatrix::from_crs(crs, 8, 32);
  linalg::DenseMatrix dense = crs.to_dense();

  [[nodiscard]] linalg::MatrixOperator op(Storage s) const {
    switch (s) {
      case Storage::Crs: return linalg::MatrixOperator(crs);
      case Storage::Sell: return linalg::MatrixOperator(sell);
      case Storage::Dense: return linalg::MatrixOperator(dense);
    }
    return linalg::MatrixOperator(crs);
  }
};

// ---------------------------------------------------------------------------
// Binary32 engine.

struct F32Case {
  Storage storage;
  std::size_t block;
  Pin pin;
};

TEST(HostDriverPins, F32Engine) {
  const CubeOperator cube;
  const std::vector<F32Case> cases{
      {Storage::Crs, 1,
       {9.5852999999999995e-06,
         "flops=76800 bytes_streamed=318230 spmv_calls=75 dot_calls=80 "
         "rng_elements=320 instances_executed=5 moments_produced=16",
         ""}},
      {Storage::Crs, 3,
       {8.6400000000000003e-06,
         "flops=76800 bytes_streamed=208700 spmv_calls=75 dot_calls=80 "
         "rng_elements=320 instances_executed=5 moments_produced=16",
         ""}},
      {Storage::Crs, 8,
       {8.6400000000000003e-06,
         "flops=76800 bytes_streamed=172190 spmv_calls=75 dot_calls=80 "
         "rng_elements=320 instances_executed=5 moments_produced=16",
         ""}},
      {Storage::Sell, 1,
       {9.9093000000000001e-06,
         "flops=76800 bytes_streamed=329030 spmv_calls=75 dot_calls=80 "
         "rng_elements=320 instances_executed=5 moments_produced=16",
         ""}},
      {Storage::Sell, 3,
       {8.6400000000000003e-06,
         "flops=76800 bytes_streamed=213020 spmv_calls=75 dot_calls=80 "
         "rng_elements=320 instances_executed=5 moments_produced=16",
         ""}},
      {Storage::Sell, 8,
       {8.6400000000000003e-06,
         "flops=76800 bytes_streamed=174350 spmv_calls=75 dot_calls=80 "
         "rng_elements=320 instances_executed=5 moments_produced=16",
         ""}},
      {Storage::Dense, 1,
       {6.8297142857142863e-05,
         "flops=633600 bytes_streamed=1364480 spmv_calls=75 "
         "dot_calls=80 rng_elements=320 instances_executed=5 "
         "moments_produced=16",
         ""}},
      {Storage::Dense, 3,
       {6.8297142857142863e-05,
         "flops=633600 bytes_streamed=627200 spmv_calls=75 "
         "dot_calls=80 rng_elements=320 instances_executed=5 "
         "moments_produced=16",
         ""}},
      {Storage::Dense, 8,
       {6.8297142857142863e-05,
         "flops=633600 bytes_streamed=381440 spmv_calls=75 "
         "dot_calls=80 rng_elements=320 instances_executed=5 "
         "moments_produced=16",
         ""}},
  };
  for (const F32Case& c : cases) {
    SCOPED_TRACE("storage " + std::to_string(static_cast<int>(c.storage)) + " block " +
                 std::to_string(c.block));
    const linalg::MatrixOperator op = cube.op(c.storage);
    CpuMomentEngineF32 engine;
    expect_pinned(c.pin, observe([&] {
                    return engine.compute(op, pin_params(c.block), kSample).model_seconds;
                  }));
  }
}

// ---------------------------------------------------------------------------
// Complex-Hermitian callers (no cost model: model_seconds is the wall clock).

TEST(HostDriverPins, HermitianEngine) {
  const auto h = flux_h_tilde();
  for (const std::size_t block : {1u, 3u}) {
    SCOPED_TRACE("block " + std::to_string(block));
    const Pin pin = block == 1 ? Pin{0,
                                 "flops=108000 bytes_streamed=411420 spmv_calls=75 "
                                 "dot_calls=80 fused_calls=70 fused_bytes=373240 "
                                 "rng_elements=180 instances_executed=5 moments_produced=16",
                                 ""}
                               : Pin{0,
                                 "flops=108000 bytes_streamed=275160 spmv_calls=75 "
                                 "dot_calls=80 fused_calls=28 fused_bytes=246064 "
                                 "rng_elements=180 instances_executed=5 moments_produced=16",
                                 ""};
    HermitianMomentEngine engine;
    expect_pinned(pin,
                  observe([&] { return engine.compute(h, pin_params(block), kSample).mu[0]; }),
                  /*check_model=*/false);
  }
}

TEST(HostDriverPins, HermitianLdos) {
  const auto h = flux_h_tilde();
  const std::vector<std::pair<std::size_t, Pin>> cases{
      {1, {0,
            // N = 1 meters the r0 copy (2 D complex elements) like every
            // other N = 1 recursion.
            "flops=144 bytes_streamed=2304 dot_calls=1 "
            "instances_executed=1",
            ""}},
      {2, {0,
            "flops=1440 bytes_streamed=7636 spmv_calls=1 dot_calls=2 "
            "instances_executed=1",
            ""}},
      {17, {0,
             "flops=23040 bytes_streamed=87616 spmv_calls=16 dot_calls=17 "
             "fused_calls=15 fused_bytes=79980 instances_executed=1",
             ""}}};
  for (const auto& [n, pin] : cases) {
    SCOPED_TRACE("N " + std::to_string(n));
    expect_pinned(pin, observe([&] { return ldos_moments_hermitian(h, 7, n)[0]; }),
                  /*check_model=*/false);
  }
}

TEST(HostDriverPins, HermitianTrace) {
  const auto h = flux_h_tilde();
  const std::vector<std::pair<std::size_t, Pin>> cases{
      {1, {0,
            "flops=5184 bytes_streamed=82944 dot_calls=36 "
            "instances_executed=36",
            ""}},
      {10, {0,
             "flops=466560 bytes_streamed=1156464 spmv_calls=324 "
             "dot_calls=360 fused_calls=96 fused_bytes=954240 "
             "instances_executed=36",
             ""}}};
  for (const auto& [n, pin] : cases) {
    SCOPED_TRACE("N " + std::to_string(n));
    expect_pinned(pin,
                  observe([&] { return deterministic_trace_moments_hermitian(h, n, 3)[0]; }),
                  /*check_model=*/false);
  }
}

// ---------------------------------------------------------------------------
// Cluster engine and sharded LDOS.

std::string scaling_text(const ClusterScalingReport& s) {
  return std::to_string(s.nodes) + " " + g17(s.parallel_seconds) + " " +
         g17(s.serialized_seconds) + " " + g17(s.efficiency) + " " + g17(s.halo_seconds) + " " +
         g17(s.exposed_halo_seconds) + " " + g17(s.allreduce_seconds) + " " +
         g17(s.communication_seconds) + " " + g17(s.halo_bytes_per_step) + " " +
         g17(s.halo_bytes_total) + " " + g17(s.allreduce_bytes_total);
}

struct ClusterCase {
  std::size_t nodes;
  Storage storage;
  std::size_t block;
  Pin pin;
  const char* scaling;  ///< scaling_text of the run's ClusterScalingReport
};

TEST(HostDriverPins, ClusterEngine) {
  const CubeOperator cube;
  const std::vector<ClusterCase> cases{
      {1, Storage::Crs, 1,
       {1.7280000000000001e-05,
         "flops=76800 bytes_streamed=528940 spmv_calls=75 dot_calls=80 "
         "fused_calls=70 fused_bytes=484120 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "1 1.7280000000000001e-05 1.7280000000000001e-05 1 0 0 "
       "0 0 0 0 768"},
      {1, Storage::Crs, 3,
       {1.7280000000000001e-05,
         "flops=76800 bytes_streamed=309880 spmv_calls=75 dot_calls=80 "
         "fused_calls=28 fused_bytes=279664 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "1 1.7280000000000001e-05 1.7280000000000001e-05 1 0 0 "
       "0 0 0 0 768"},
      {1, Storage::Sell, 1,
       {1.7280000000000001e-05,
         "flops=76800 bytes_streamed=550540 spmv_calls=75 dot_calls=80 "
         "fused_calls=70 fused_bytes=504280 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "1 1.7280000000000001e-05 1.7280000000000001e-05 1 0 0 "
       "0 0 0 0 768"},
      {1, Storage::Sell, 3,
       {1.7280000000000001e-05,
         "flops=76800 bytes_streamed=318520 spmv_calls=75 dot_calls=80 "
         "fused_calls=28 fused_bytes=287728 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "1 1.7280000000000001e-05 1.7280000000000001e-05 1 0 0 "
       "0 0 0 0 768"},
      {2, Storage::Crs, 1,
       {0.0020560800000000001,
         "flops=76800 bytes_streamed=528940 spmv_calls=75 dot_calls=80 "
         "fused_calls=70 fused_bytes=484120 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "2 0.0020560800000000001 1.7280000000000001e-05 "
       "0.0042021711217462357 0.0036144000000000003 0.0018072000000000001 "
       "0.00024024000000000002 0.0038546400000000003 512 46080 768"},
      {2, Storage::Crs, 3,
       {0.00069607999999999996,
         "flops=76800 bytes_streamed=309880 spmv_calls=75 dot_calls=80 "
         "fused_calls=28 fused_bytes=279664 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "2 0.00069607999999999996 1.7280000000000001e-05 "
       "0.012412366394667281 0.0012144000000000002 0.00060720000000000012 "
       "8.0240000000000004e-05 0.0012946400000000003 1536 46080 768"},
      {2, Storage::Sell, 1,
       {0.0020560800000000001,
         "flops=76800 bytes_streamed=550540 spmv_calls=75 dot_calls=80 "
         "fused_calls=70 fused_bytes=504280 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "2 0.0020560800000000001 1.7280000000000001e-05 "
       "0.0042021711217462357 0.0036144000000000003 0.0018072000000000001 "
       "0.00024024000000000002 0.0038546400000000003 512 46080 768"},
      {2, Storage::Sell, 3,
       {0.00069607999999999996,
         "flops=76800 bytes_streamed=318520 spmv_calls=75 dot_calls=80 "
         "fused_calls=28 fused_bytes=287728 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "2 0.00069607999999999996 1.7280000000000001e-05 "
       "0.012412366394667281 0.0012144000000000002 0.00060720000000000012 "
       "8.0240000000000004e-05 0.0012946400000000003 1536 46080 768"},
      {3, Storage::Crs, 1,
       {0.0040934600000000002,
         "flops=76800 bytes_streamed=528940 spmv_calls=75 dot_calls=80 "
         "fused_calls=70 fused_bytes=484120 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "3 0.0040934600000000002 1.7280000000000001e-05 "
       "0.0014071225808973337 0.010821600000000001 0.0036072000000000005 "
       "0.00048032000000000001 0.01130192 768 69120 768"},
      {3, Storage::Crs, 3,
       {0.0013734600000000002,
         "flops=76800 bytes_streamed=309880 spmv_calls=75 dot_calls=80 "
         "fused_calls=28 fused_bytes=279664 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "3 0.0013734600000000002 1.7279999999999997e-05 "
       "0.0041937879515966956 0.0036216 0.0012072000000000001 "
       "0.00016032000000000001 0.0037819199999999998 2304 69120 768"},
      {3, Storage::Sell, 1,
       {0.0040950748571428573,
         "flops=76800 bytes_streamed=550540 spmv_calls=75 dot_calls=80 "
         "fused_calls=70 fused_bytes=504280 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "3 0.0040950748571428573 2.2476857142857139e-05 "
       "0.001829584555998348 0.010821600000000001 0.0036072000000000005 "
       "0.00048032000000000001 0.01130192 768 69120 768"},
      {3, Storage::Sell, 3,
       {0.0013734600000000002,
         "flops=76800 bytes_streamed=318520 spmv_calls=75 dot_calls=80 "
         "fused_calls=28 fused_bytes=287728 rng_elements=320 "
         "instances_executed=5 moments_produced=16",
         "5/14400/2880/2880"},
       "3 0.0013734600000000002 1.7279999999999997e-05 "
       "0.0041937879515966956 0.0036216 0.0012072000000000001 "
       "0.00016032000000000001 0.0037819199999999998 2304 69120 768"},
  };
  for (const ClusterCase& c : cases) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE("P " + std::to_string(c.nodes) + " storage " +
                   std::to_string(static_cast<int>(c.storage)) + " block " +
                   std::to_string(c.block) + " threads " + std::to_string(threads));
      const linalg::MatrixOperator op = cube.op(c.storage);
      ClusterEngineConfig cfg;
      cfg.node_count = c.nodes;
      cfg.threads = threads;
      ClusterMomentEngine engine(cfg);
      expect_pinned(c.pin, observe([&] {
                      return engine.compute(op, pin_params(c.block), kSample).model_seconds;
                    }));
      EXPECT_EQ(scaling_text(engine.last_scaling()), c.scaling);
    }
  }
}

TEST(HostDriverPins, ClusterLdos) {
  const CubeOperator cube;
  const linalg::MatrixOperator op = cube.op(Storage::Crs);
  const auto dec = linalg::Decomposition::uniform(op.dim(), 3, 1);
  const std::vector<std::pair<std::size_t, Pin>> cases{
      {1, {0,
            "flops=128 bytes_streamed=2048 dot_calls=1 "
            "instances_executed=1 moments_produced=1",
            ""}},
      {12, {0,
             "flops=11264 bytes_streamed=78124 spmv_calls=11 dot_calls=12 "
             "fused_calls=10 fused_bytes=69160 instances_executed=1 "
             "moments_produced=12",
             ""}}};
  for (const auto& [n, pin] : cases) {
    SCOPED_TRACE("N " + std::to_string(n));
    expect_pinned(pin, observe([&] { return cluster_ldos_moments(op, dec, 21, n)[0]; }),
                  /*check_model=*/false);
  }
}

// ---------------------------------------------------------------------------
// Workspace shape.

/// Largest single allocation made by `run`.
template <typename F>
std::size_t largest_allocation(F&& run) {
  g_largest_allocation = 0;
  run();
  return g_largest_allocation.load();
}

TEST(HostDriverPins, WorkspacesAreShapedByInstanceCountNotBlock) {
  // One instance with a huge block: each recursion vector holds one member,
  // so no allocation comes near the 4096-member shape (2 MiB per vector of
  // the D = 64 cube).  The results equal the block = 1 run bit for bit.
  const CubeOperator cube;
  const linalg::MatrixOperator op = cube.op(Storage::Crs);
  const auto flux = flux_h_tilde();
  MomentParams wide;
  wide.num_moments = 16;
  wide.random_vectors = 1;
  wide.realizations = 1;
  wide.block_r = 4096;
  MomentParams narrow = wide;
  narrow.block_r = 1;
  constexpr std::size_t kBound = 64 * 1024;

  const auto check = [&](const char* what, auto&& compute) {
    SCOPED_TRACE(what);
    std::vector<double> got;
    EXPECT_LT(largest_allocation([&] { got = compute(wide); }), kBound);
    EXPECT_EQ(got, compute(narrow));
  };
  check("cpu-reference",
        [&](const MomentParams& p) { return CpuMomentEngine().compute(op, p).mu; });
  check("cpu-paired",
        [&](const MomentParams& p) { return CpuPairedMomentEngine().compute(op, p).mu; });
  check("cpu-parallel",
        [&](const MomentParams& p) { return CpuParallelMomentEngine(2).compute(op, p).mu; });
  check("cpu-f32", [&](const MomentParams& p) { return CpuMomentEngineF32().compute(op, p).mu; });
  check("hermitian",
        [&](const MomentParams& p) { return HermitianMomentEngine().compute(flux, p).mu; });
  check("cluster", [&](const MomentParams& p) {
    ClusterEngineConfig cfg;
    cfg.node_count = 2;
    cfg.threads = 2;
    return ClusterMomentEngine(cfg).compute(op, p).mu;
  });
  check("estimator",
        [&](const MomentParams& p) { return estimate_moment_statistics(op, p, 2).mean; });
}

}  // namespace
