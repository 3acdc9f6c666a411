// Pins the modeled output of every simulated-GPU driver.
//
// Each driver runs a small fixed workload; its nonzero obs counters (the
// gpu_* device counters and the host functional counters) and its
// model_seconds must equal the values recorded below.  The drivers share
// one recursion launch and one per-instance recursion, so a change that
// moves any of these numbers changes the modeled device for every driver —
// re-record only for a deliberate cost-model change.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/conductivity_gpu.hpp"
#include "core/ldos_gpu.hpp"
#include "core/moments_gpu.hpp"
#include "core/moments_gpu_chunked.hpp"
#include "core/moments_hermitian_gpu.hpp"
#include "core/moments_multigpu.hpp"
#include "lattice/current.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "lattice/peierls.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/counters.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

/// The recorded output of one driver run.
struct Pin {
  double model_seconds;
  const char* counters;  ///< nonzero counters, "name=value" in registry order
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

/// Runs `run` (which returns the driver's model_seconds) under a fresh
/// counter sink and checks both against `pin`.
template <typename F>
void expect_pinned(const Pin& pin, F&& run) {
  obs::CounterSet sink;
  double model_seconds = 0.0;
  {
    obs::CounterScope scope(sink);
    model_seconds = run();
  }
  EXPECT_EQ(nonzero_counters(sink), pin.counters);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", model_seconds);
  EXPECT_EQ(model_seconds, pin.model_seconds) << "model_seconds " << buf;
}

/// 4^3 tight-binding cube rescaled into [-1, 1] (D = 64).
linalg::CrsMatrix cube_h_tilde() {
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator raw(h);
  return linalg::rescale(h, linalg::make_spectral_transform(raw));
}

/// N = 16 moments over 6 instances, 4 of them executed functionally.
MomentParams pin_params() {
  MomentParams p;
  p.num_moments = 16;
  p.random_vectors = 2;
  p.realizations = 3;
  return p;
}

constexpr std::size_t kSample = 4;

double moments_model_seconds(MomentEngine& engine, const linalg::MatrixOperator& op) {
  return engine.compute(op, pin_params(), kSample).model_seconds;
}

TEST(GpuDriverPins, InstancePerBlock) {
  const auto h = cube_h_tilde();
  const linalg::MatrixOperator op(h);
  GpuMomentEngine engine;
  const Pin pin{0.05075326021664809,
                "spmv_calls=60 dot_calls=64 rng_elements=256 "
                "instances_executed=4 moments_produced=16 gpu_kernel_launches=3 "
                "gpu_flops=96112 gpu_global_bytes=676328 "
                "gpu_shared_bytes=911208 gpu_bytes_h2d=4868 gpu_bytes_d2h=128"};
  expect_pinned(pin, [&] { return moments_model_seconds(engine, op); });
}

TEST(GpuDriverPins, InstancePerBlockDense) {
  const auto dense = cube_h_tilde().to_dense();
  const linalg::MatrixOperator op(dense);
  GpuMomentEngine engine;
  const Pin pin{0.050632035216648087,
                "spmv_calls=60 dot_calls=64 rng_elements=256 "
                "instances_executed=4 moments_produced=16 gpu_kernel_launches=3 "
                "gpu_flops=764272 gpu_global_bytes=3187328 "
                "gpu_shared_bytes=6094848 gpu_bytes_h2d=32768 gpu_bytes_d2h=128"};
  expect_pinned(pin, [&] { return moments_model_seconds(engine, op); });
}

TEST(GpuDriverPins, InstancePerThread) {
  const auto h = cube_h_tilde();
  const linalg::MatrixOperator op(h);
  GpuEngineConfig cfg;
  cfg.mapping = GpuMapping::InstancePerThread;
  GpuMomentEngine engine(cfg);
  const Pin pin{0.050889821955662398,
                "spmv_calls=60 dot_calls=64 rng_elements=256 "
                "instances_executed=4 moments_produced=16 gpu_kernel_launches=3 "
                "gpu_flops=96112 gpu_global_bytes=482299.25 gpu_bytes_h2d=4868 "
                "gpu_bytes_d2h=128"};
  expect_pinned(pin, [&] { return moments_model_seconds(engine, op); });
}

TEST(GpuDriverPins, PairedMoments) {
  const auto h = cube_h_tilde();
  const linalg::MatrixOperator op(h);
  GpuEngineConfig cfg;
  cfg.paired_moments = true;
  GpuMomentEngine engine(cfg);
  const Pin pin{0.050732046309178748,
                "spmv_calls=32 rng_elements=256 instances_executed=4 "
                "moments_produced=16 gpu_kernel_launches=3 gpu_flops=59248 "
                "gpu_global_bytes=413504 gpu_shared_bytes=590016 "
                "gpu_bytes_h2d=4868 gpu_bytes_d2h=128"};
  expect_pinned(pin, [&] { return moments_model_seconds(engine, op); });
}

ChunkedGpuEngineConfig two_instance_chunks(bool overlap) {
  ChunkedGpuEngineConfig cfg;
  // Per instance: 4 * 64 * 8 + 16 * 8 = 2176 B, so two instances a chunk.
  cfg.workspace_bytes = 5000;
  cfg.overlap_fill = overlap;
  return cfg;
}

TEST(GpuDriverPins, ChunkedOverlap) {
  const auto h = cube_h_tilde();
  const linalg::MatrixOperator op(h);
  ChunkedGpuMomentEngine engine(two_instance_chunks(true));
  const Pin pin{0.05087731879784467,
                "spmv_calls=60 dot_calls=64 rng_elements=256 "
                "instances_executed=4 moments_produced=16 gpu_kernel_launches=6 "
                "gpu_flops=96096 gpu_global_bytes=676712 "
                "gpu_shared_bytes=911208 gpu_bytes_h2d=4868 gpu_bytes_d2h=128"};
  expect_pinned(pin, [&] { return moments_model_seconds(engine, op); });
  EXPECT_EQ(engine.last_chunk_count(), 2u);
}

TEST(GpuDriverPins, ChunkedSerial) {
  const auto h = cube_h_tilde();
  const linalg::MatrixOperator op(h);
  ChunkedGpuMomentEngine engine(two_instance_chunks(false));
  const Pin pin{0.050883433669639544,
                "spmv_calls=60 dot_calls=64 rng_elements=256 "
                "instances_executed=4 moments_produced=16 gpu_kernel_launches=6 "
                "gpu_flops=96096 gpu_global_bytes=676712 "
                "gpu_shared_bytes=911208 gpu_bytes_h2d=4868 gpu_bytes_d2h=128"};
  expect_pinned(pin, [&] { return moments_model_seconds(engine, op); });
}

TEST(GpuDriverPins, MultiGpu) {
  const auto h = cube_h_tilde();
  const linalg::MatrixOperator op(h);
  MultiGpuEngineConfig cfg;
  cfg.device_count = 2;
  MultiGpuMomentEngine engine(cfg);
  const Pin pin{0.050778124796358237,
                "spmv_calls=60 dot_calls=64 rng_elements=256 "
                "instances_executed=4 moments_produced=16 gpu_kernel_launches=6 "
                "gpu_flops=96128 gpu_global_bytes=676456 "
                "gpu_shared_bytes=911208 gpu_bytes_h2d=9736 gpu_bytes_d2h=256"};
  expect_pinned(pin, [&] { return moments_model_seconds(engine, op); });
}

TEST(GpuDriverPins, Ldos) {
  const auto h = cube_h_tilde();
  const linalg::MatrixOperator op(h);
  const std::vector<std::size_t> sites{0, 5, 17};
  GpuLdosEngine engine;
  const Pin pin{0.050651958984392419,
                "spmv_calls=45 dot_calls=48 instances_executed=3 "
                "moments_produced=48 gpu_kernel_launches=2 gpu_flops=46080 "
                "gpu_global_bytes=337716 gpu_shared_bytes=455604 "
                "gpu_bytes_h2d=4868 gpu_bytes_d2h=384"};
  expect_pinned(pin, [&] {
    (void)engine.compute(op, sites, 16);
    return engine.last_model_seconds();
  });
}

TEST(GpuDriverPins, Hermitian) {
  const auto h = lattice::build_square_flux_crs(6, 6, 1.0 / 6.0);
  const auto h_tilde = linalg::rescale(h, linalg::SpectralTransform(h.gershgorin(), 0.02));
  GpuHermitianMomentEngine engine;
  const Pin pin{0.050749857310665183,
                "spmv_calls=60 dot_calls=64 rng_elements=144 "
                "instances_executed=4 moments_produced=16 gpu_kernel_launches=3 "
                "gpu_flops=131872 gpu_global_bytes=540296 "
                "gpu_shared_bytes=676488 gpu_bytes_h2d=3028 gpu_bytes_d2h=128"};
  expect_pinned(pin,
                [&] { return engine.compute(h_tilde, pin_params(), kSample).model_seconds; });
}

TEST(GpuDriverPins, Conductivity) {
  const auto lat = lattice::HypercubicLattice::square(6, 6);
  const auto h = lattice::build_tight_binding_crs(lat);
  const linalg::MatrixOperator raw(h);
  const auto h_tilde = linalg::rescale(h, linalg::make_spectral_transform(raw));
  const auto a = lattice::build_current_operator_crs(lat, 0);
  const linalg::MatrixOperator h_op(h_tilde);
  const linalg::MatrixOperator a_op(a);
  auto p = pin_params();
  p.num_moments = 8;
  GpuConductivityEngine engine;
  const Pin pin{0.050997809480862133,
                "spmv_calls=92 dot_calls=256 rng_elements=144 "
                "instances_executed=4 moments_produced=64 gpu_kernel_launches=3 "
                "gpu_flops=67408 gpu_global_bytes=445256 "
                "gpu_shared_bytes=254352 gpu_bytes_h2d=2888 gpu_bytes_d2h=512"};
  expect_pinned(pin, [&] {
    (void)engine.compute(h_op, a_op, p, kSample);
    return engine.last_model_seconds();
  });
}

}  // namespace
