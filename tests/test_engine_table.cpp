// The engine table and factory: every EngineKind's names, host-only bit and
// construction.
//
// The pins hold each kind's engine name and, through compute_moments, its
// moments bit for bit, model_seconds, threads_used, nonzero counters and
// InstanceModelNs histogram.  A diff here means an engine is built with a
// different configuration or cost model — re-record only for a deliberate
// change to one.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/disorder_study.hpp"
#include "core/highlevel.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

TEST(EngineTable, RowsFollowTheEnumAndNamesRoundTrip) {
  const auto table = engine_table();
  ASSERT_EQ(table.size(), 6u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const EngineInfo& e = table[i];
    EXPECT_EQ(static_cast<std::size_t>(e.kind), i);
    EXPECT_EQ(&engine_info(e.kind), &e);
    EXPECT_STREQ(to_string(e.kind), e.name);
    EXPECT_EQ(engine_kind_from_string(e.name), e.kind) << e.name;
    if (*e.alias != '\0') {
      EXPECT_EQ(engine_kind_from_string(e.alias), e.kind) << e.alias;
    }
  }
  EXPECT_EQ(engine_names(),
            "cpu-reference|cpu|cpu-paired|cpu-parallel|gpu|gpu-cluster|multigpu|"
            "cluster-sharded|cluster");
}

TEST(EngineTable, EverySpellingMapsToItsKind) {
  // kpmcli's spellings, then the serving layer's.
  EXPECT_EQ(engine_kind_from_string("gpu"), EngineKind::Gpu);
  EXPECT_EQ(engine_kind_from_string("cpu"), EngineKind::CpuReference);
  EXPECT_EQ(engine_kind_from_string("cpu-paired"), EngineKind::CpuPaired);
  EXPECT_EQ(engine_kind_from_string("cpu-parallel"), EngineKind::CpuParallel);
  EXPECT_EQ(engine_kind_from_string("multigpu"), EngineKind::GpuCluster);
  EXPECT_EQ(engine_kind_from_string("cluster"), EngineKind::ClusterSharded);
  EXPECT_EQ(engine_kind_from_string("cpu-reference"), EngineKind::CpuReference);
  EXPECT_EQ(engine_kind_from_string("gpu-cluster"), EngineKind::GpuCluster);
  EXPECT_EQ(engine_kind_from_string("cluster-sharded"), EngineKind::ClusterSharded);
  // gpu-chunked is a profile-only engine with no EngineKind.
  EXPECT_THROW((void)engine_kind_from_string("gpu-chunked"), kpm::Error);
  EXPECT_THROW((void)engine_kind_from_string(""), kpm::Error);
  EXPECT_THROW((void)engine_kind_from_string("GPU"), kpm::Error);
}

TEST(EngineTable, HostOnlyAndThreadBits) {
  for (const EngineInfo& e : engine_table()) {
    const bool device = e.kind == EngineKind::Gpu || e.kind == EngineKind::GpuCluster;
    EXPECT_EQ(e.host_only, !device) << e.name;
    const bool pool = e.kind == EngineKind::CpuParallel || e.kind == EngineKind::ClusterSharded;
    EXPECT_EQ(e.host_threads, pool) << e.name;
  }
}

TEST(EngineTable, StudiesDefaultToTheGpu) {
  EXPECT_EQ(MomentComputeOptions{}.engine, EngineKind::CpuReference);
  EXPECT_EQ(DosStudyOptions{}.compute.engine, EngineKind::Gpu);
  EXPECT_EQ(DisorderStudyOptions{}.compute.engine, EngineKind::Gpu);
}

TEST(MakeEngine, AppliesTheEngineKnobs) {
  MomentComputeOptions o;
  o.engine = EngineKind::CpuParallel;
  o.cpu_threads = 3;
  EXPECT_EQ(make_engine(o)->name(), "cpu-parallel-x3");
  o.engine = EngineKind::GpuCluster;
  o.cluster_devices = 2;
  EXPECT_EQ(make_engine(o)->name(), "gpu-cluster-x2-instance-per-block");
  o.engine = EngineKind::ClusterSharded;
  o.cluster_nodes = 3;
  EXPECT_EQ(make_engine(o)->name(), "cluster-sharded-x3");
  o.cluster_interconnect = "smoke-signals";
  EXPECT_THROW((void)make_engine(o), kpm::Error);
  o.engine = EngineKind::GpuCluster;
  EXPECT_THROW((void)make_engine(o), kpm::Error);
  o.engine = EngineKind::CpuParallel;
  o.cpu_threads = 0;
  EXPECT_THROW((void)make_engine(o), kpm::Error);
}

TEST(MakeEngine, SellStudiesNeedAHostOnlyEngine) {
  const auto lat = lattice::HypercubicLattice::cubic(3, 3, 3);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  DosStudyOptions o;
  o.params.num_moments = 8;
  o.params.random_vectors = 1;
  o.params.realizations = 1;
  o.use_sell_storage = true;
  for (const EngineInfo& e : engine_table()) {
    o.compute.engine = e.kind;
    if (e.host_only) {
      EXPECT_NO_THROW((void)compute_dos_study(op, o)) << e.name;
    } else {
      EXPECT_THROW((void)compute_dos_study(op, o), kpm::Error) << e.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Pins.

/// 4^3 tight-binding cube rescaled into [-1, 1] (D = 64).
linalg::CrsMatrix cube_h_tilde() {
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator raw(h);
  return linalg::rescale(h, linalg::make_spectral_transform(raw));
}

// The moments of the pinned runs: the serial recursion over 5 instances
// (every engine that honours sampling and pairs no moments), the paired
// recursion, and the multi-GPU engine, which executes all 6 instances.
const std::vector<double> kSerialMu = {
    0x1p+0,  -0x1.0e5ceff27b5a6p-6,  -0x1.30f6232f1abap-1, -0x1.973f867b75234p-8,
    0x1.4bb8af7f0f5f1p-3,  -0x1.c4270945b1533p-11, 0x1.49768d11877eep-4, -0x1.2876fff10fe2ap-6,
    0x1.8cf6841bbcab8p-5,  -0x1.452816fbba8dep-8,  0x1.458a2d85a55abp-4, 0x1.6dcede03bcccdp-7,
    -0x1.cc37a0eca871p-3,  -0x1.3198ea0ca570dp-10, -0x1.3760f201eb919p-4, 0x1.0daff8e4b5d53p-11};
const std::vector<double> kPairedMu = {
    0x1p+0,  -0x1.0e5ceff27b5a6p-6,  -0x1.30f6232f1abap-1, -0x1.973f867b7523p-8,
    0x1.4bb8af7f0f5fp-3,   -0x1.c4270945b159ap-11, 0x1.49768d11877e8p-4, -0x1.2876fff10fe2ep-6,
    0x1.8cf6841bbcab6p-5,  -0x1.452816fbba8e2p-8,  0x1.458a2d85a55aap-4, 0x1.6dcede03bccep-7,
    -0x1.cc37a0eca871p-3,  -0x1.3198ea0ca571ap-10, -0x1.3760f201eb92p-4, 0x1.0daff8e4b5d9ap-11};
const std::vector<double> kAllInstancesMu = {
    0x1p+0,  -0x1.c29ae53ecd96bp-7,  -0x1.3953a07830eb7p-1, -0x1.80433e4a01b8bp-9,
    0x1.9609330c57f15p-3,  -0x1.ce8d65a449a85p-8,  0x1.d1ef0856c4c98p-5, -0x1.2496f16c049ddp-7,
    0x1.811590593cc34p-5,  -0x1.133d25e297493p-8,  0x1.36e9cf897bb2bp-4, 0x1.02bc354a24d1bp-8,
    -0x1.8f76339c81827p-3, 0x1.0b2b26a54a8cdp-8,   -0x1.bbb822ebdd913p-4, -0x1.fab4534c1caedp-10};

constexpr const char* kSerialB1 =
    "flops=76800 bytes_streamed=528940 spmv_calls=75 dot_calls=80 fused_calls=70 "
    "fused_bytes=484120 rng_elements=320 instances_executed=5 moments_produced=16";
constexpr const char* kSerialB3 =
    "flops=76800 bytes_streamed=309880 spmv_calls=75 dot_calls=80 fused_calls=28 "
    "fused_bytes=279664 rng_elements=320 instances_executed=5 moments_produced=16";
constexpr const char* kGpu =
    "spmv_calls=75 dot_calls=80 rng_elements=320 instances_executed=5 moments_produced=16 "
    "gpu_kernel_launches=3 gpu_flops=96112 gpu_global_bytes=676328 gpu_shared_bytes=911208 "
    "gpu_bytes_h2d=4868 gpu_bytes_d2h=128";
constexpr const char* kGpuCluster =
    "spmv_calls=90 dot_calls=96 rng_elements=384 instances_executed=6 moments_produced=16 "
    "gpu_kernel_launches=9 gpu_flops=96144 gpu_global_bytes=676584 gpu_shared_bytes=911208 "
    "gpu_bytes_h2d=14604 gpu_bytes_d2h=384";

struct EnginePin {
  EngineKind kind;
  std::size_t block;
  const char* name;
  double model_seconds;
  int threads_used;
  const std::vector<double>* mu;
  const char* counters;     ///< nonzero counters, "name=value" in registry order
  const char* instance_ns;  ///< InstanceModelNs as "count/sum/min/max" ("" when empty)
};

const std::vector<EnginePin>& engine_pins() {
  static const std::vector<EnginePin> pins{
      {EngineKind::CpuReference, 1, "cpu-reference", 0x1.21e908ed8f651p-16, 1, &kSerialMu,
       kSerialB1, "5/14400/2880/2880"},
      {EngineKind::CpuReference, 3, "cpu-reference", 0x1.21e908ed8f651p-16, 1, &kSerialMu,
       kSerialB3, "5/14400/2880/2880"},
      {EngineKind::CpuPaired, 1, "cpu-paired", 0x1.421f5f40d8376p-17, 1, &kPairedMu,
       "flops=45440 bytes_streamed=304800 spmv_calls=40 dot_calls=80 fused_calls=35 "
       "fused_bytes=259980 rng_elements=320 instances_executed=5 moments_produced=16",
       "5/8000/1600/1600"},
      {EngineKind::CpuPaired, 3, "cpu-paired", 0x1.421f5f40d8376p-17, 1, &kPairedMu,
       "flops=45440 bytes_streamed=187968 spmv_calls=40 dot_calls=80 fused_calls=14 "
       "fused_bytes=157752 rng_elements=320 instances_executed=5 moments_produced=16",
       "5/8000/1600/1600"},
      {EngineKind::CpuParallel, 1, "cpu-parallel-x4", 0x1.21e908ed8f651p-18, 4, &kSerialMu,
       kSerialB1, "5/14400/2880/2880"},
      {EngineKind::CpuParallel, 3, "cpu-parallel-x4", 0x1.21e908ed8f651p-18, 4, &kSerialMu,
       kSerialB3, "5/14400/2880/2880"},
      {EngineKind::Gpu, 1, "gpu-instance-per-block", 0x1.9fc54d1977dc5p-5, 1, &kSerialMu, kGpu,
       ""},
      {EngineKind::Gpu, 3, "gpu-instance-per-block", 0x1.9fc54d1977dc5p-5, 1, &kSerialMu, kGpu,
       ""},
      {EngineKind::GpuCluster, 1, "gpu-cluster-x4-instance-per-block", 0x1.a096a6d50b66fp-5, 1,
       &kAllInstancesMu, kGpuCluster, ""},
      {EngineKind::GpuCluster, 3, "gpu-cluster-x4-instance-per-block", 0x1.a096a6d50b66fp-5, 1,
       &kAllInstancesMu, kGpuCluster, ""},
      {EngineKind::ClusterSharded, 1, "cluster-sharded-x4", 0x1.1be4e2ee215b5p-8, 4, &kSerialMu,
       kSerialB1, "5/14400/2880/2880"},
      {EngineKind::ClusterSharded, 3, "cluster-sharded-x4", 0x1.7c9a04788aab4p-10, 4,
       &kSerialMu, kSerialB3, "5/14400/2880/2880"},
  };
  return pins;
}

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

TEST(EnginePins, EveryKindThroughComputeMoments) {
  const linalg::CrsMatrix crs = cube_h_tilde();
  const linalg::MatrixOperator op(crs);
  for (const EnginePin& pin : engine_pins()) {
    SCOPED_TRACE(std::string(to_string(pin.kind)) + " B=" + std::to_string(pin.block));
    MomentParams p;
    p.num_moments = 16;
    p.random_vectors = 2;
    p.realizations = 3;
    p.block_r = pin.block;
    MomentComputeOptions o;
    o.engine = pin.kind;
    o.sample_instances = 5;
    EXPECT_EQ(make_engine(o)->name(), pin.name);

    obs::CounterSet counters;
    obs::HistogramSet histograms;
    MomentResult m;
    {
      obs::CounterScope counter_scope(counters);
      obs::HistogramScope histogram_scope(histograms);
      m = compute_moments(op, p, o);
    }
    EXPECT_EQ(m.engine, pin.name);
    EXPECT_EQ(m.mu, *pin.mu);
    EXPECT_EQ(m.model_seconds, pin.model_seconds);
    EXPECT_EQ(m.threads_used, pin.threads_used);
    EXPECT_EQ(nonzero_counters(counters), pin.counters);
    EXPECT_EQ(histogram_text(histograms[obs::Histo::InstanceModelNs]), pin.instance_ns);
  }
}

TEST(EnginePins, DisorderStudyOnTheClusterEngines) {
  // Both cluster engines execute every instance here, so both reproduce
  // the serial disorder average; only their modeled time differs.
  const std::vector<double> mean = {
      0x1.79c2c9e83751p-12, 0x1.275bd172430a9p-6, 0x1.3c126f405b818p-5,
      0x1.adeefa6531c6p-4,  0x1.1b0e6eaa389e9p-3, 0x1.abf7bafb89323p-4,
      0x1.ca36520e9048bp-5, 0x1.86f8d0cbf175cp-7, 0x1.9223116f82361p-12};
  const std::vector<double> standard_error = {
      0x1.9588864c50d14p-14, 0x1.2bd0d6e2be91cp-8, 0x1.d81caca6a1e15p-7,
      0x1.64b9dbc9bf784p-8,  0x1.79e045218f1cbp-7, 0x1.f42baaeffa6a1p-8,
      0x1.4e56f8695c8dap-8,  0x1.14443b6a65919p-8, 0x1.4267410c6118ep-15};
  const struct {
    EngineKind kind;
    double model_seconds;
  } cases[] = {{EngineKind::GpuCluster, 0x1.387e7d8470682p-3},
               {EngineKind::ClusterSharded, 0x1.33a2f8e2bcc1ep-7}};
  for (const auto& c : cases) {
    SCOPED_TRACE(to_string(c.kind));
    DisorderStudyOptions o;
    o.realizations = 3;
    o.params.num_moments = 24;
    o.params.random_vectors = 3;
    o.params.realizations = 1;
    o.reconstruct.points = 9;
    o.compute.engine = c.kind;
    o.window = {-7.0, 7.0};
    const auto s = run_disorder_study(
        [](std::size_t r) {
          const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
          return lattice::build_tight_binding_crs(lat, {},
                                                  lattice::anderson_disorder(1.5, 9, r));
        },
        o);
    EXPECT_EQ(s.mean.density, mean);
    EXPECT_EQ(s.standard_error, standard_error);
    EXPECT_EQ(s.total_model_seconds, c.model_seconds);
  }
}

}  // namespace
