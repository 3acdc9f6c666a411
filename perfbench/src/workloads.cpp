// The three benchmark workloads.  Each times calls into the library's public
// functions from outside, one `bench.<layer>.<call>` span per call, and
// checks outputs against references computed outside the timed region.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/kpm.hpp"
#include "serve/cache.hpp"
#include "serve/fleet/fleet.hpp"
#include "serve/fleet/workload.hpp"

namespace perfbench {
namespace {

using namespace kpm;
using obs::Counter;

/// A reconstructed DoS must integrate to 1 within this (trapezoid rule on
/// the Chebyshev-Gauss grid, which omits the band-edge tails).
constexpr double kDosIntegralTolerance = 1e-3;

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Flips one mantissa bit of one element, both chosen by `seed`.
void flip_bit(std::vector<double>& v, std::uint64_t seed) {
  if (v.empty()) return;
  double& x = v[seed % v.size()];
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= std::uint64_t{1} << ((seed / v.size()) % 52);
  std::memcpy(&x, &bits, sizeof bits);
}

bool integrates_to_one(const core::DosCurve& curve) {
  return std::abs(core::dos_integral(curve) - 1.0) <= kDosIntegralTolerance;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Host-kernel metrics shared by the two moment-solve workloads.
void solve_layer_metrics(const SpanLog& log, const obs::Report& probe, double probe_ops,
                         double probe_steps, double triad_gbs, Metrics& out) {
  const auto& c = probe.counters;
  const double moments_s = log.median_of("bench.core.compute");
  const double fused_bytes = c.get(Counter::FusedBytes);
  out["core.moments_s"] = moments_s;
  out["core.reconstruct_s"] = log.median_of("bench.core.reconstruct_dos");
  out["core.steps"] = probe_steps;
  out["linalg.fused_calls"] = c.get(Counter::FusedCalls);
  out["linalg.fused_bytes"] = fused_bytes;
  out["linalg.bytes_per_step"] = ratio(fused_bytes, probe_steps);
  out["linalg.gflops"] = ratio(c.get(Counter::Flops) / probe_ops, moments_s) / 1e9;
  out["linalg.gbs"] = ratio(fused_bytes / probe_ops, moments_s) / 1e9;
  out["linalg.triad_frac"] = ratio(out["linalg.gbs"], triad_gbs);
  out["rng.elements"] = c.get(Counter::RngElements);
}

// ---------------------------------------------------------------------------
// paper-gpu: the paper's Fig. 5 point on the simulated Tesla C2050.

class PaperGpu final : public Workload {
 public:
  PaperGpu(const Options& opts, SpanLog& log)
      : log_(log), tiny_(opts.tiny), edge_(tiny_ ? 4 : 10), sample_(tiny_ ? 1 : 16) {
    params_.num_moments = tiny_ ? 64 : 1024;
    params_.random_vectors = tiny_ ? 2 : 14;
    params_.realizations = tiny_ ? 2 : 128;
    params_.seed = opts.seed;
  }

  std::size_t setup_reps() const override { return tiny_ ? 2 : 31; }
  std::size_t probe_ops() const override { return tiny_ ? 1 : 8; }

  bool one_thread() const override { return true; }

  void setup() override {
    h_ = log_.timed("bench.lattice.build", [&] {
      return lattice::build_tight_binding_crs(
          lattice::HypercubicLattice::cubic(edge_, edge_, edge_));
    });
    transform_ = log_.timed("bench.linalg.make_spectral_transform", [&] {
      return linalg::make_spectral_transform(linalg::MatrixOperator(h_));
    });
    h_tilde_ = log_.timed("bench.linalg.rescale",
                          [&] { return linalg::rescale(h_, *transform_); });
  }

  void prepare() override {
    reference_ = core::CpuMomentEngine().compute(linalg::MatrixOperator(h_tilde_), params_,
                                                 sample_);
  }

  OpResult op(bool) override {
    const linalg::MatrixOperator op(h_tilde_);
    result_ = log_.timed("bench.core.compute",
                         [&] { return engine_.compute(op, params_, sample_); });
    curve_ = log_.timed("bench.core.reconstruct_dos", [&] {
      return core::reconstruct_dos(result_.mu, *transform_, {.points = points_});
    });
    return {.steps = steps(), .requests = 1, .completed = 1};
  }

  std::uint64_t check(std::optional<std::uint64_t> perturb) override {
    if (perturb) flip_bit(result_.mu, *perturb);
    return same_bits(result_.mu, reference_.mu) && integrates_to_one(curve_) ? 0 : 1;
  }

  void layer_metrics(const SpanLog& log, const obs::Report& probe, double triad_gbs,
                     Metrics& out) override {
    const double ops = static_cast<double>(probe_ops());
    solve_layer_metrics(log, probe, ops, ops * steps(), triad_gbs, out);
    const auto& c = probe.counters;
    const double launches = c.get(Counter::GpuKernelLaunches);
    const double moments_s = out["core.moments_s"];
    out["gpusim.launches"] = launches;
    out["gpusim.global_bytes"] = c.get(Counter::GpuGlobalBytes);
    out["gpusim.flops"] = c.get(Counter::GpuFlops);
    out["gpusim.us_per_launch"] = ratio(moments_s, launches / ops) * 1e6;
    out["gpusim.model_s"] = result_.model_seconds;
    out["cpumodel.model_s"] = reference_.model_seconds;
    out["gpusim.model_speedup"] = ratio(reference_.model_seconds, result_.model_seconds);
    // The engine models all S*R instances but executes only the sample.
    out["core.model_gap"] =
        ratio(moments_s, result_.model_seconds * static_cast<double>(result_.instances_executed) /
                             static_cast<double>(result_.instances_total));
  }

 private:
  double steps() const {
    return static_cast<double>(result_.instances_executed * params_.num_moments);
  }

  SpanLog& log_;
  bool tiny_;
  std::size_t edge_;
  std::size_t sample_;
  std::size_t points_ = 512;
  core::MomentParams params_;
  core::GpuMomentEngine engine_;
  linalg::CrsMatrix h_;
  linalg::CrsMatrix h_tilde_;
  std::optional<linalg::SpectralTransform> transform_;
  core::MomentResult reference_;
  core::MomentResult result_;
  core::DosCurve curve_;
};

// ---------------------------------------------------------------------------
// bulk-dram: an Anderson-disordered cube whose engine working set streams
// from DRAM through SELL-C-sigma SpMMV on every host lane.

class BulkDram final : public Workload {
 public:
  BulkDram(const Options& opts, SpanLog& log)
      : log_(log),
        tiny_(opts.tiny),
        seed_(opts.seed),
        edge_(tiny_ ? 12 : 80),
        engine_(static_cast<int>(host_threads())) {
    params_.num_moments = tiny_ ? 8 : 16;
    params_.block_r = 8;
    params_.random_vectors = host_threads() * params_.block_r;  // lanes x B instances
    params_.realizations = 1;
    params_.seed = opts.seed;
  }

  std::size_t setup_reps() const override { return tiny_ ? 2 : 3; }
  std::size_t probe_ops() const override { return tiny_ ? 1 : 2; }

  void setup() override {
    sell_.reset();  // keep one operator alive at a time
    const linalg::CrsMatrix h = log_.timed("bench.lattice.build", [&] {
      return lattice::build_tight_binding_crs(lattice::HypercubicLattice::cubic(edge_, edge_, edge_),
                                              {}, lattice::anderson_disorder(1.0, seed_));
    });
    transform_ = log_.timed("bench.linalg.make_spectral_transform", [&] {
      return linalg::make_spectral_transform(linalg::MatrixOperator(h));
    });
    const linalg::CrsMatrix h_tilde =
        log_.timed("bench.linalg.rescale", [&] { return linalg::rescale(h, *transform_); });
    sell_ = log_.timed("bench.linalg.sell_build", [&] {
      return std::make_unique<linalg::SellMatrix>(linalg::SellMatrix::from_crs(h_tilde, 32, 256));
    });
  }

  void prepare() override {
    const linalg::MatrixOperator op(*sell_);
    const double working_set =
        static_cast<double>(op.spmv_matrix_bytes()) +
        static_cast<double>(host_threads() * 4 * params_.block_r * op.dim() * sizeof(double));
    std::printf("bulk-dram: D=%zu, engine working set %.0f bytes = %.2f x L3\n", op.dim(),
                working_set, working_set / static_cast<double>(last_level_cache_bytes()));
    reference_ = log_.timed("bench.core.serial_compute",
                            [&] { return core::CpuMomentEngine().compute(op, params_); });
    reference_ok_ =
        integrates_to_one(core::reconstruct_dos(reference_.mu, *transform_, {.points = 512}));
  }

  OpResult op(bool) override {
    const linalg::MatrixOperator op(*sell_);
    result_ = log_.timed("bench.core.compute", [&] { return engine_.compute(op, params_); });
    return {.steps = steps(), .requests = 1, .completed = 1};
  }

  std::uint64_t check(std::optional<std::uint64_t> perturb) override {
    if (perturb) flip_bit(result_.mu, *perturb);
    return reference_ok_ && same_bits(result_.mu, reference_.mu) ? 0 : 1;
  }

  void layer_metrics(const SpanLog& log, const obs::Report& probe, double triad_gbs,
                     Metrics& out) override {
    const double ops = static_cast<double>(probe_ops());
    solve_layer_metrics(log, probe, ops, ops * steps(), triad_gbs, out);
    const double moments_s = out["core.moments_s"];
    const double serial_s = log.median_of("bench.core.serial_compute");
    out["core.serial_s"] = serial_s;
    out["core.parallel_speedup"] = ratio(serial_s, moments_s);
    out["cpumodel.model_s"] = result_.model_seconds;
    out["core.model_gap"] = ratio(moments_s, result_.model_seconds);
  }

 private:
  double steps() const {
    return static_cast<double>(result_.instances_executed * params_.num_moments);
  }

  SpanLog& log_;
  bool tiny_;
  std::uint64_t seed_;
  std::size_t edge_;
  core::MomentParams params_;
  core::CpuParallelMomentEngine engine_;
  std::unique_ptr<linalg::SellMatrix> sell_;
  std::optional<linalg::SpectralTransform> transform_;
  core::MomentResult reference_;
  bool reference_ok_ = false;
  core::MomentResult result_;
};

// ---------------------------------------------------------------------------
// serve-skew: a seeded Poisson request stream against two small models,
// served window by window through a two-shard fleet with a persistent,
// undersized LRU moment cache.

/// FNV-1a over the bytes of `value`, chained from `h`.
template <class T>
std::uint64_t mix(std::uint64_t h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

/// Fingerprint of one window's responses: accounting, simulated times and
/// bit-exact curve checksums.
std::uint64_t fingerprint(const std::vector<serve::Response>& responses) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const serve::Response& r : responses) {
    h = mix(h, r.id);
    h = mix(h, static_cast<int>(r.status));
    h = mix(h, static_cast<int>(r.cache_hit) | static_cast<int>(r.coalesced) << 1 |
                   static_cast<int>(r.degraded) << 2);
    h = mix(h, r.num_moments);
    h = mix(h, r.start_seconds);
    h = mix(h, r.finish_seconds);
    h = mix(h, serve::checksum_doubles(r.curve.energy));
    h = mix(h, serve::checksum_doubles(r.curve.density));
  }
  return h;
}

class ServeSkew final : public Workload {
 public:
  ServeSkew(const Options& opts, SpanLog& log) : log_(log), tiny_(opts.tiny) {
    const auto model = [](const char* name, const char* lattice, std::size_t edge) {
      serve::ModelSpec spec;
      spec.name = name;
      spec.lattice = lattice;
      spec.edge = edge;
      return spec;
    };
    models_.push_back(model("square64", "square", tiny_ ? 8 : 64));
    models_.push_back(model("cubic16", "cubic", tiny_ ? 4 : 16));
    synth_.seed = opts.seed;
    synth_.count = tiny_ ? 48 : 6000;
    synth_.process = serve::ArrivalProcess::Poisson;
    // Just below the modeled saturation of two shards (~117 requests per
    // simulated second for this mix at the full sizes).
    synth_.rate = 100.0;
    synth_.dos_weight = 4.0;
    synth_.ldos_weight = 1.0;
    synth_.sigma_weight = 0.0;
    synth_.moment_choices = tiny_ ? std::vector<std::size_t>{16, 32}
                                  : std::vector<std::size_t>{128, 256, 512};
    synth_.point_choices = tiny_ ? std::vector<std::size_t>{256, 512}
                                 : std::vector<std::size_t>{256, 512, 1024};
  }

  std::size_t setup_reps() const override { return tiny_ ? 2 : 11; }
  std::size_t warmup_ops() const override { return 0; }  // cold cache is part of the stream
  std::size_t probe_ops() const override { return tiny_ ? 2 : 32; }
  bool done() const override { return next_ + kWindow > requests_.size(); }

  void setup() override {
    requests_ = log_.timed("bench.serve.synthesize_requests",
                           [&] { return serve::synthesize_requests(synth_, models_); });
    fleet_ = make_fleet(2, log_);
    next_ = 0;
  }

  OpResult op(bool probe) override {
    window_.assign(requests_.begin() + static_cast<std::ptrdiff_t>(next_),
                   requests_.begin() + static_cast<std::ptrdiff_t>(next_ + kWindow));
    next_ += kWindow;
    result_ = log_.timed("bench.serve.fleet_run", [&] { return fleet_->run(window_); });

    OpResult r{.requests = window_.size(), .completed = result_.served};
    for (std::size_t i = 0; i < result_.responses.size() && i < window_.size(); ++i) {
      const serve::Response& resp = result_.responses[i];
      if (resp.status != serve::ResponseStatus::Ok || resp.cache_hit || resp.coalesced) continue;
      const std::size_t instances =
          resp.kind == serve::RequestKind::Dos ? serve::base_of(window_[i]).moments.instances() : 1;
      r.steps += static_cast<double>(instances * resp.num_moments);
    }
    if (probe) {
      probe_steps_ += r.steps;
      probe_requests_ += window_.size();
      probe_slo_met_ += result_.slo_met;
      probe_makespans_.push_back(result_.makespan_seconds -
                                 serve::base_of(window_.front()).arrival_seconds);
      probe_routed_.resize(result_.shards.size());
      for (std::size_t s = 0; s < result_.shards.size(); ++s)
        probe_routed_[s] += result_.shards[s].routed;
    }
    return r;
  }

  std::uint64_t check(std::optional<std::uint64_t> perturb) override {
    auto& responses = result_.responses;
    bool one_each = responses.size() == window_.size();
    for (std::size_t i = 0; one_each && i < responses.size(); ++i)
      one_each = responses[i].id == serve::base_of(window_[i]).id;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; one_each && i < responses.size(); ++i) {
      const serve::Response& resp = responses[i];
      if (resp.status != serve::ResponseStatus::Ok || !integrates_to_one(resp.curve)) ++failed;
    }
    if (perturb && !responses.empty()) flip_bit(responses.front().curve.density, *perturb);
    fingerprints_.push_back(fingerprint(responses));
    return one_each ? failed : window_.size();
  }

  /// Replays a prefix of the windows on one worker per shard; every window
  /// fingerprint must match the measured run's.
  std::uint64_t finish() override {
    SpanLog replay_log;  // the replay's set-up is not part of the measured run
    const std::unique_ptr<serve::Fleet> replay = make_fleet(1, replay_log);
    const std::size_t windows = std::min<std::size_t>(fingerprints_.size(), tiny_ ? 8 : 16);
    std::uint64_t failed = 0;
    for (std::size_t w = 0; w < windows; ++w) {
      const std::vector<serve::Request> window(
          requests_.begin() + static_cast<std::ptrdiff_t>(w * kWindow),
          requests_.begin() + static_cast<std::ptrdiff_t>((w + 1) * kWindow));
      if (fingerprint(replay->run(window).responses) != fingerprints_[w]) failed += kWindow;
    }
    std::printf("serve-skew: %zu windows, 1-worker replay of %zu: %s\n", fingerprints_.size(),
                windows, failed == 0 ? "identical" : "MISMATCH");
    return failed;
  }

  void layer_metrics(const SpanLog&, const obs::Report& probe, double,
                     Metrics& out) override {
    const auto& c = probe.counters;
    const double requests = c.get(Counter::ServeRequests);
    const double hits = c.get(Counter::ServeCacheHits);
    const double misses = c.get(Counter::ServeCacheMisses);
    out["core.steps"] = probe_steps_;
    out["linalg.fused_calls"] = c.get(Counter::FusedCalls);
    out["linalg.fused_bytes"] = c.get(Counter::FusedBytes);
    out["linalg.bytes_per_step"] = ratio(c.get(Counter::FusedBytes), probe_steps_);
    out["rng.elements"] = c.get(Counter::RngElements);
    out["serve.requests"] = requests;
    out["serve.batches"] = c.get(Counter::ServeBatches);
    out["serve.coalesced"] = c.get(Counter::ServeCoalesced);
    out["serve.cache_hits"] = hits;
    out["serve.cache_misses"] = misses;
    out["serve.cache_evictions"] = c.get(Counter::ServeCacheEvictions);
    out["serve.admit_refused"] = c.get(Counter::ServeCacheAdmitRefused);
    out["serve.shed"] = c.get(Counter::ServeShedRejected) + c.get(Counter::ServeShedExpired);
    out["serve.reconstruct_points"] = c.get(Counter::ReconstructPoints);
    out["serve.hit_frac"] = ratio(hits, hits + misses);
    out["serve.coalesce_frac"] = ratio(c.get(Counter::ServeCoalesced), requests);
    const double requests_probed = static_cast<double>(probe_requests_);
    if (!probe_routed_.empty())
      out["fleet.max_shard_frac"] = ratio(
          static_cast<double>(*std::max_element(probe_routed_.begin(), probe_routed_.end())),
          requests_probed);
    out["fleet.makespan_s"] = median(probe_makespans_);
    out["slo_frac"] = ratio(static_cast<double>(probe_slo_met_), requests_probed);
  }

 private:
  static constexpr std::size_t kWindow = 6;

  std::unique_ptr<serve::Fleet> make_fleet(std::size_t workers, SpanLog& log) const {
    serve::FleetConfig config;
    config.shards.resize(2);
    config.shards[0].name = "shard0";
    config.shards[1].name = "shard1";
    config.shard_config.workers = workers;
    config.shard_config.max_queue = 16;
    // Smaller than the distinct DoS keys routed to a shard, so hits come
    // with inserts and evictions.
    config.shard_config.cache_bytes = tiny_ ? 512 : 12 * 1024;
    config.slo_seconds = kSloSeconds;
    auto fleet = std::make_unique<serve::Fleet>(std::move(config));
    log.timed("bench.serve.register_model", [&] {
      for (const serve::ModelSpec& spec : models_) {
        const linalg::CrsMatrix h =
            log.timed("bench.lattice.build", [&] { return serve::build_model_matrix(spec); });
        fleet->register_model(spec.name, h);
      }
    });
    return fleet;
  }

  static constexpr double kSloSeconds = 0.05;  ///< modeled latency limit per request

  SpanLog& log_;
  bool tiny_;
  std::vector<serve::ModelSpec> models_;
  serve::SynthConfig synth_;
  std::vector<serve::Request> requests_;
  std::unique_ptr<serve::Fleet> fleet_;
  std::size_t next_ = 0;
  std::vector<serve::Request> window_;
  serve::FleetResult result_;
  std::vector<std::uint64_t> fingerprints_;
  double probe_steps_ = 0.0;
  std::uint64_t probe_requests_ = 0;
  std::uint64_t probe_slo_met_ = 0;
  std::vector<double> probe_makespans_;
  std::vector<std::uint64_t> probe_routed_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& opts, SpanLog& log) {
  if (opts.workload == "paper-gpu") return std::make_unique<PaperGpu>(opts, log);
  if (opts.workload == "bulk-dram") return std::make_unique<BulkDram>(opts, log);
  if (opts.workload == "serve-skew") return std::make_unique<ServeSkew>(opts, log);
  KPM_FAIL("unknown workload '" + opts.workload + "' (paper-gpu|bulk-dram|serve-skew)");
}

}  // namespace perfbench
