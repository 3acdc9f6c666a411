// Fleet-layer tests: the consistent-hash ring's order-invariance and
// rebalancing bounds, the synthetic workload generator's determinism and
// schema round-trip, the fleet determinism contract (bit-identical
// fingerprint at any worker count AND shard enumeration order), the
// cost-aware cache policy beating LRU on a committed mix, and gpusim
// timeline batch pricing on GPU-engine shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/highlevel.hpp"
#include "core/moments_cpu.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/operator.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/report.hpp"
#include "serve/cache.hpp"
#include "serve/fleet/fleet.hpp"
#include "serve/fleet/router.hpp"
#include "serve/fleet/workload.hpp"
#include "serve/replay.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace {

using namespace kpm;

serve::ModelSpec square_spec(std::size_t edge = 6) {
  serve::ModelSpec spec;
  spec.name = "m0";
  spec.lattice = "square";
  spec.edge = edge;
  spec.disorder = 1.0;
  spec.seed = 3;
  return spec;
}

serve::DosRequest dos_request(std::uint64_t id, double arrival, std::uint64_t seed = 11,
                              std::size_t n = 64) {
  serve::DosRequest r;
  r.id = id;
  r.model = "m0";
  r.arrival_seconds = arrival;
  r.moments.num_moments = n;
  r.moments.random_vectors = 2;
  r.moments.realizations = 2;
  r.moments.seed = seed;
  r.reconstruct.points = 32;
  return r;
}

// --- Router ---------------------------------------------------------------

TEST(Router, RoutingIsAPureFunctionOfMembership) {
  serve::ConsistentHashRouter forward, backward;
  const std::vector<std::string> names{"a", "b", "c", "d", "e"};
  for (const auto& n : names) forward.add_shard(n);
  for (auto it = names.rbegin(); it != names.rend(); ++it) backward.add_shard(*it);

  EXPECT_EQ(forward.fingerprint(), backward.fingerprint())
      << "insertion order must never matter";
  for (std::uint64_t h = 0; h < 512; ++h) {
    const std::uint64_t key = h * 0x9e3779b97f4a7c15ULL;
    EXPECT_EQ(forward.route(key), backward.route(key)) << "key " << key;
  }

  // Rebuilding from scratch with the same membership is also identical.
  serve::ConsistentHashRouter rebuilt;
  rebuilt.add_shard("c");
  rebuilt.add_shard("a");
  rebuilt.add_shard("e");
  rebuilt.add_shard("d");
  rebuilt.add_shard("b");
  EXPECT_EQ(rebuilt.fingerprint(), forward.fingerprint());
}

TEST(Router, AddingAShardMovesOnlyKeysItNowOwns) {
  serve::ConsistentHashRouter ring;
  ring.add_shard("s0");
  ring.add_shard("s1");
  ring.add_shard("s2");

  std::vector<std::string> before;
  for (std::uint64_t h = 0; h < 512; ++h)
    before.push_back(ring.route(h * 0x9e3779b97f4a7c15ULL));

  ring.add_shard("s3");
  std::size_t moved = 0;
  for (std::uint64_t h = 0; h < 512; ++h) {
    const std::string& now = ring.route(h * 0x9e3779b97f4a7c15ULL);
    if (now != before[h]) {
      EXPECT_EQ(now, "s3") << "a key may only move to the new shard";
      moved += 1;
    }
  }
  EXPECT_GT(moved, 0u) << "the new shard must own part of the key space";
  EXPECT_LT(moved, 512u / 2) << "consistent hashing moves ~1/N, not half the space";

  // Removing it restores the exact previous routing.
  ring.remove_shard("s3");
  for (std::uint64_t h = 0; h < 512; ++h)
    EXPECT_EQ(ring.route(h * 0x9e3779b97f4a7c15ULL), before[h]);
}

TEST(Router, FixedSeedPinsTheRing) {
  // The default ring seed is part of the public contract: the routing of a
  // committed workload must not drift between builds.
  serve::ConsistentHashRouter ring;
  EXPECT_EQ(ring.config().seed, 0x6b706d666c656574ULL);
  ring.add_shard("shard00");
  ring.add_shard("shard01");
  const std::uint64_t fp = ring.fingerprint();
  serve::ConsistentHashRouter again;
  again.add_shard("shard01");
  again.add_shard("shard00");
  EXPECT_EQ(again.fingerprint(), fp);

  serve::RingConfig salted;
  salted.seed = 1234;
  serve::ConsistentHashRouter other(salted);
  other.add_shard("shard00");
  other.add_shard("shard01");
  EXPECT_NE(other.fingerprint(), fp) << "a different seed is a different ring";
}

TEST(Router, ValidatesItsInputs) {
  serve::RingConfig zero;
  zero.virtual_nodes = 0;
  EXPECT_THROW(serve::ConsistentHashRouter{zero}, kpm::Error);
  serve::ConsistentHashRouter ring;
  EXPECT_THROW((void)ring.route_index(7), kpm::Error)
      << "routing on an empty ring must throw, not wrap";
  EXPECT_THROW(ring.add_shard(""), kpm::Error);
  ring.add_shard("a");
  EXPECT_THROW(ring.add_shard("a"), kpm::Error) << "duplicate shard";
  EXPECT_THROW(ring.remove_shard("b"), kpm::Error) << "unknown shard";
  ring.add_shard("b");
  ring.remove_shard("a");
  ring.remove_shard("b");
  EXPECT_THROW((void)ring.route(7), kpm::Error);
}

// --- Synthetic workloads --------------------------------------------------

TEST(Synth, SameSeedSameWorkloadBitExactly) {
  serve::SynthConfig cfg;
  cfg.seed = 42;
  cfg.count = 48;
  cfg.process = serve::ArrivalProcess::Bursty;
  const auto models = std::vector<serve::ModelSpec>{square_spec()};
  const auto a = serve::synthesize_requests(cfg, models);
  const auto b = serve::synthesize_requests(cfg, models);
  ASSERT_EQ(a.size(), cfg.count);
  ASSERT_EQ(b.size(), cfg.count);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(serve::kind_of(a[i]), serve::kind_of(b[i])) << i;
    EXPECT_EQ(serve::base_of(a[i]).arrival_seconds, serve::base_of(b[i]).arrival_seconds)
        << i;
    EXPECT_EQ(serve::base_of(a[i]).moments.seed, serve::base_of(b[i]).moments.seed) << i;
  }

  cfg.seed = 43;
  const auto c = serve::synthesize_requests(cfg, models);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i)
    differs = serve::base_of(a[i]).arrival_seconds != serve::base_of(c[i]).arrival_seconds;
  EXPECT_TRUE(differs) << "a different seed must produce a different trace";
}

TEST(Synth, ArrivalsAreNondecreasingWithUniqueIds) {
  for (const auto process :
       {serve::ArrivalProcess::Uniform, serve::ArrivalProcess::Poisson,
        serve::ArrivalProcess::Bursty, serve::ArrivalProcess::Diurnal}) {
    serve::SynthConfig cfg;
    cfg.process = process;
    cfg.count = 64;
    const auto reqs = serve::synthesize_requests(cfg, {square_spec()});
    ASSERT_EQ(reqs.size(), cfg.count) << serve::to_string(process);
    double last = 0.0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto& b = serve::base_of(reqs[i]);
      EXPECT_EQ(b.id, i + 1) << serve::to_string(process);
      EXPECT_GE(b.arrival_seconds, last) << serve::to_string(process);
      last = b.arrival_seconds;
    }
  }
}

TEST(Synth, SigmaFallsBackToDosWithoutCurrents) {
  serve::SynthConfig cfg;
  cfg.count = 64;
  cfg.sigma_weight = 100.0;  // would dominate if currents existed
  const auto reqs = serve::synthesize_requests(cfg, {square_spec()});
  for (const auto& r : reqs)
    EXPECT_NE(serve::kind_of(r), serve::RequestKind::Sigma)
        << "model has no current operator";

  auto with_currents = square_spec();
  with_currents.currents = {0};
  const auto sig = serve::synthesize_requests(cfg, {with_currents});
  std::size_t sigmas = 0;
  for (const auto& r : sig) sigmas += serve::kind_of(r) == serve::RequestKind::Sigma ? 1 : 0;
  EXPECT_GT(sigmas, 0u);
}

TEST(Synth, WorkloadJsonRoundTripsBitExactly) {
  serve::SynthConfig cfg;
  cfg.seed = 9;
  cfg.count = 32;
  cfg.process = serve::ArrivalProcess::Diurnal;
  cfg.deadline_fraction = 0.3;
  auto spec = square_spec();
  spec.currents = {0};
  const serve::ReplayWorkload w = serve::synthesize_workload(cfg, {spec});
  const std::string json = serve::workload_json(w);
  const serve::ReplayWorkload parsed = serve::parse_workload(json);
  // Bit-exact round trip: serializing the parse reproduces the bytes.
  EXPECT_EQ(serve::workload_json(parsed), json);
  ASSERT_EQ(parsed.requests.size(), w.requests.size());
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    EXPECT_EQ(serve::kind_of(parsed.requests[i]), serve::kind_of(w.requests[i])) << i;
    EXPECT_EQ(serve::base_of(parsed.requests[i]).arrival_seconds,
              serve::base_of(w.requests[i]).arrival_seconds)
        << "arrivals must survive the JSON round trip bit-exactly, i=" << i;
  }
  EXPECT_TRUE(parsed.config_sets_workers);
}

TEST(Synth, WorkloadJsonRoundTripsEveryEngineKind) {
  // workload_json writes the engine's canonical name; parse_workload must
  // read back every name it can write.
  for (const core::EngineInfo& e : core::engine_table()) {
    serve::SynthConfig cfg;
    cfg.count = 3;
    cfg.engine = e.kind;
    const serve::ReplayWorkload w = serve::synthesize_workload(cfg, {square_spec()});
    const std::string json = serve::workload_json(w);
    serve::ReplayWorkload parsed;
    ASSERT_NO_THROW(parsed = serve::parse_workload(json)) << e.name;
    EXPECT_EQ(serve::workload_json(parsed), json) << e.name;
    ASSERT_EQ(parsed.requests.size(), 3u) << e.name;
    for (const auto& r : parsed.requests) EXPECT_EQ(serve::base_of(r).engine, e.kind) << e.name;
  }
}

TEST(Synth, ValidatesItsConfig) {
  serve::SynthConfig cfg;
  cfg.rate = 0.0;
  EXPECT_THROW((void)serve::synthesize_requests(cfg, {square_spec()}), kpm::Error);
  cfg = {};
  cfg.amplitude = 1.5;
  EXPECT_THROW((void)serve::synthesize_requests(cfg, {square_spec()}), kpm::Error);
  cfg = {};
  cfg.moment_choices.clear();
  EXPECT_THROW((void)serve::synthesize_requests(cfg, {square_spec()}), kpm::Error);
  cfg = {};
  EXPECT_THROW((void)serve::synthesize_requests(cfg, {}), kpm::Error) << "no models";
}

// --- Fleet determinism ----------------------------------------------------

serve::FleetConfig fleet_config(std::vector<serve::FleetShardSpec> shards,
                                std::size_t workers) {
  serve::FleetConfig config;
  config.shards = std::move(shards);
  config.shard_config.workers = workers;
  config.shard_config.max_queue = 4;
  config.shard_config.max_batch = 3;
  return config;
}

std::uint64_t fleet_fingerprint(const serve::FleetConfig& config,
                                const serve::ReplayWorkload& workload,
                                serve::FleetResult* out = nullptr) {
  obs::Report report;
  {
    obs::Collect collect(report);
    serve::Fleet fleet(config);
    serve::register_models(fleet, workload);
    serve::FleetResult result = fleet.run(workload.requests);
    if (out != nullptr) *out = std::move(result);
  }
  const std::string fp = obs::deterministic_fingerprint(report);
  return serve::fnv1a64(fp.data(), fp.size());
}

TEST(Fleet, FingerprintIsInvariantToWorkersAndShardOrder) {
  serve::SynthConfig cfg;
  cfg.seed = 7;
  cfg.count = 40;
  cfg.process = serve::ArrivalProcess::Bursty;
  const serve::ReplayWorkload workload = serve::synthesize_workload(cfg, {square_spec()});

  std::vector<serve::FleetShardSpec> shards(4);
  shards[0].name = "delta";
  shards[1].name = "alpha";
  shards[1].pricing = serve::BatchPricing::GpuTimeline;
  shards[2].name = "charlie";
  shards[2].cache_policy = serve::CachePolicy::CostAware;
  shards[3].name = "bravo";

  serve::FleetResult reference;
  const std::uint64_t expected =
      fleet_fingerprint(fleet_config(shards, 1), workload, &reference);
  ASSERT_EQ(reference.responses.size(), workload.requests.size());
  EXPECT_GT(reference.served, 0u);

  for (const std::size_t workers : {2u, 4u, 7u}) {
    auto permuted = shards;
    // A different enumeration order per worker count: both axes at once.
    std::rotate(permuted.begin(), permuted.begin() + workers % permuted.size(),
                permuted.end());
    serve::FleetResult result;
    EXPECT_EQ(fleet_fingerprint(fleet_config(permuted, workers), workload, &result),
              expected)
        << "workers=" << workers;
    ASSERT_EQ(result.responses.size(), reference.responses.size());
    for (std::size_t i = 0; i < result.responses.size(); ++i) {
      EXPECT_EQ(result.responses[i].id, reference.responses[i].id);
      EXPECT_EQ(result.responses[i].finish_seconds, reference.responses[i].finish_seconds)
          << "id " << result.responses[i].id;
    }
    EXPECT_EQ(result.ring_fingerprint, reference.ring_fingerprint);
  }
}

TEST(Fleet, ShardsAreSharedNothingAndFullyAccounted) {
  serve::SynthConfig cfg;
  cfg.seed = 5;
  cfg.count = 32;
  const serve::ReplayWorkload workload = serve::synthesize_workload(cfg, {square_spec()});

  std::vector<serve::FleetShardSpec> shards(3);
  shards[0].name = "s0";
  shards[1].name = "s1";
  shards[2].name = "s2";
  serve::FleetConfig config = fleet_config(shards, 1);
  config.slo_seconds = 10.0;

  serve::FleetResult result;
  (void)fleet_fingerprint(config, workload, &result);

  std::uint64_t routed = 0;
  double max_makespan = 0.0;
  std::size_t populated = 0;
  for (const auto& o : result.shards) {
    routed += o.routed;
    populated += o.routed > 0 ? 1 : 0;
    max_makespan = std::max(max_makespan, o.makespan_seconds);
  }
  EXPECT_EQ(routed, workload.requests.size()) << "every request routes to exactly one shard";
  EXPECT_GT(populated, 1u) << "the ring must actually spread this workload";
  EXPECT_EQ(result.served + result.shed, workload.requests.size());
  EXPECT_EQ(result.makespan_seconds, max_makespan);
  EXPECT_EQ(result.machine_seconds, 3.0 * max_makespan);
  EXPECT_GT(result.slo_met, 0u);
  EXPECT_NE(result.section_json.find("kpm.serve.fleet/1"), std::string::npos);

  // Duplicate ids are caught fleet-wide even when the ring separates them.
  serve::Fleet fleet(config);
  serve::register_models(fleet, workload);
  std::vector<serve::Request> dup{dos_request(1, 0.0, 5), dos_request(1, 0.0, 999)};
  EXPECT_THROW((void)fleet.run(dup), kpm::Error);
}

// --- Cost-aware caching --------------------------------------------------

TEST(Fleet, CostAwareCacheBeatsLruOnSkewedCosts) {
  // One expensive DoS key (N=128, R*S=8 recursions) that recurs, drowned in
  // a stream of cheap distinct-site LDOS entries of the SAME byte size
  // (N=128 moments each).  LRU lets the cheap drive-by entries push the
  // expensive one out before each reuse; cost-aware admission refuses them
  // once the budget is full of denser bytes.
  const auto h = [] {
    const auto lat = lattice::HypercubicLattice::square(8, 8);
    return lattice::build_tight_binding_crs(lat, {}, lattice::anderson_disorder(1.0, 3));
  }();

  auto expensive = [&](std::uint64_t id, double arrival) {
    auto r = dos_request(id, arrival, /*seed=*/11, /*n=*/128);
    r.moments.random_vectors = 4;
    r.moments.realizations = 2;
    return r;
  };
  auto cheap = [&](std::uint64_t id, double arrival, std::size_t site) {
    serve::LdosRequest r;
    r.id = id;
    r.model = "m0";
    r.arrival_seconds = arrival;
    r.moments.num_moments = 128;
    r.site = site;
    r.reconstruct.points = 32;
    return r;
  };

  // Budget: exactly two 128-moment entries.
  serve::ServeConfig base;
  base.workers = 1;
  base.max_queue = 8;
  base.max_batch = 1;
  base.cache_bytes = 2 * 128 * sizeof(double);

  std::vector<serve::Request> mix;
  std::uint64_t id = 1;
  double t = 0.0;
  mix.push_back(expensive(id++, t));
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t j = 0; j < 3; ++j) {
      t += 40.0;
      mix.push_back(cheap(id++, t, 1 + round * 3 + j));
    }
    t += 40.0;
    mix.push_back(expensive(id++, t));  // the recurring hot key
  }

  auto run_policy = [&](serve::CachePolicy policy) {
    serve::ServeConfig config = base;
    config.cache_policy = policy;
    serve::Server server(config);
    server.register_model("m0", h);
    (void)server.run(mix);
    return server.stats();
  };

  const serve::ServeStats lru = run_policy(serve::CachePolicy::Lru);
  const serve::ServeStats cost = run_policy(serve::CachePolicy::CostAware);

  EXPECT_EQ(lru.cache.hits, 0u)
      << "the mix is built so LRU always evicts the hot key before reuse";
  EXPECT_GT(cost.cache.hits, lru.cache.hits);
  EXPECT_GT(cost.cache.cost_saved_ns, lru.cache.cost_saved_ns)
      << "the counters must prove the policy saved recompute time";
  EXPECT_GT(cost.cache.admit_refused, 0u)
      << "cost-aware must have refused at least one cheap admission";
  EXPECT_EQ(lru.cache.admit_refused, 0u) << "LRU never refuses";
}

TEST(Fleet, ModelDisorderMustBeFiniteAndNonNegative) {
  // A negative or non-finite width is refused, not read as a clean lattice.
  for (double width : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
    auto spec = square_spec(4);
    spec.disorder = width;
    EXPECT_THROW((void)serve::build_model_matrix(spec), kpm::Error) << width;
  }
}

// --- GPU timeline pricing -------------------------------------------------

TEST(Fleet, GpuShardPricesBatchesFromGpusimTimelines) {
  const auto spec = square_spec(8);
  const auto h = serve::build_model_matrix(spec);

  // The server's own transform recipe, replicated to predict the price.
  linalg::SpectralTransform transform{{-1.0, 1.0}, 0.0};
  {
    linalg::MatrixOperator raw(h);
    transform = linalg::make_spectral_transform(raw);
  }
  const linalg::CrsMatrix h_tilde = linalg::rescale(h, transform);
  const linalg::MatrixOperator op(h_tilde);

  serve::DosRequest req = dos_request(1, 0.0, /*seed=*/11, /*n=*/128);
  core::MomentParams params = req.moments;

  core::MomentComputeOptions gpu_opt;
  gpu_opt.engine = core::EngineKind::Gpu;
  const double model_gpu = core::compute_moments(op, params, gpu_opt).model_seconds;
  const double model_ref = core::modeled_reference_seconds(
      op, params.num_moments, params.random_vectors * params.realizations);
  ASSERT_NE(model_gpu, model_ref)
      << "the gpusim timeline price must differ from the serial roofline here";

  auto run_shard = [&](serve::BatchPricing pricing, obs::Report* report) {
    serve::FleetConfig config;
    serve::FleetShardSpec shard;
    shard.name = "g0";
    shard.pricing = pricing;
    config.shards = {shard};
    config.shard_config.workers = 1;
    serve::FleetResult result;
    obs::Collect collect(*report);
    serve::Fleet fleet(config);
    fleet.register_model("m0", h);
    result = fleet.run({req});
    return result.responses.at(0).service_seconds();
  };

  obs::Report gpu_report, cpu_report;
  const double service_gpu = run_shard(serve::BatchPricing::GpuTimeline, &gpu_report);
  const double service_cpu = run_shard(serve::BatchPricing::SerialRoofline, &cpu_report);

  // service = engine price + identical reconstruct cost, so the price delta
  // is exactly the model delta (golden identity, not just an inequality).
  EXPECT_DOUBLE_EQ(service_gpu - service_cpu, model_gpu - model_ref);
  EXPECT_NE(service_gpu, service_cpu);

  // The GPU shard emitted its device timeline, renamed after the shard, so
  // the Chrome export renders one Perfetto process per shard.
  ASSERT_FALSE(gpu_report.timelines.empty());
  EXPECT_EQ(gpu_report.timelines[0].label.rfind("g0:", 0), 0u)
      << "timeline label must carry the shard prefix, got '"
      << gpu_report.timelines[0].label << "'";
  EXPECT_TRUE(cpu_report.timelines.empty())
      << "a roofline shard must not emit device timelines";
}

TEST(Fleet, TinyProblemsPayTheGpuContextSetup) {
  // The paper's small-N regime: context setup (50 ms default) dwarfs the
  // recursion, so the timeline price must exceed the serial roofline — the
  // fleet knob exists precisely to expose this crossover.
  const auto lat = lattice::HypercubicLattice::chain(32);
  const auto h = lattice::build_tight_binding_crs(lat, {}, {});
  linalg::SpectralTransform transform{{-1.0, 1.0}, 0.0};
  {
    linalg::MatrixOperator raw(h);
    transform = linalg::make_spectral_transform(raw);
  }
  const linalg::CrsMatrix h_tilde = linalg::rescale(h, transform);
  const linalg::MatrixOperator op(h_tilde);

  core::MomentParams params;
  params.num_moments = 16;
  params.random_vectors = 1;
  params.realizations = 1;
  core::MomentComputeOptions gpu_opt;
  gpu_opt.engine = core::EngineKind::Gpu;
  const double model_gpu = core::compute_moments(op, params, gpu_opt).model_seconds;
  const double model_ref = core::modeled_reference_seconds(op, 16, 1);
  EXPECT_GT(model_gpu, model_ref)
      << "a 32-site, N=16 problem cannot amortize the GPU context setup";
}

}  // namespace
