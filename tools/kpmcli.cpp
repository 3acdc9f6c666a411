// kpmcli — one command-line front end for the whole library.
//
//   kpmcli dos     --lattice=cubic --edge=10 --moments=512 [--block=8 --storage=sell]
//   kpmcli ldos    --lattice=square --edge=15 --site=112
//   kpmcli sigma   --lattice=square --edge=16 --disorder=2
//   kpmcli thermo  --lattice=cubic --edge=8 --temperature=0.5
//   kpmcli evolve  --sites=128 --time=20
//   kpmcli serve   --replay=workload.json --workers=4
//   kpmcli workload synth --out=trace.json --process=bursty --count=64
//   kpmcli fleet   --synth --shards=4 --gpu-shards=1 --cache-policy=cost-aware
//   kpmcli devices
//
// Every subcommand prints a table and (where meaningful) writes a CSV.
// Lattices: chain, square, cubic, honeycomb; optional Anderson disorder.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "check/finding.hpp"
#include "check/scenarios.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/kpm.hpp"
#include "gpusim/cluster.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/hotspots.hpp"
#include "obs/report.hpp"
#include "obs/trace_file.hpp"
#include "serve/fleet/fleet.hpp"
#include "serve/fleet/workload.hpp"
#include "serve/replay.hpp"
#include "verify/fixtures.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace kpm;

/// The shared observability flags every metrics-capable subcommand exposes.
/// Register them with `add_obs_flags` and hand the result to MetricsSink so
/// `--metrics` / `--trace` behave identically across dos|ldos|sigma|check|profile.
struct ObsFlags {
  const std::string* metrics = nullptr;
  const std::string* trace = nullptr;
  const std::string* trace_modeled = nullptr;
};

ObsFlags add_obs_flags(CliParser& cli) {
  ObsFlags flags;
  flags.metrics =
      cli.add_string("metrics", "", "write a JSON metrics report (spans + counters)");
  flags.trace =
      cli.add_string("trace", "", "write a Chrome/Perfetto trace (ui.perfetto.dev)");
  flags.trace_modeled = cli.add_string(
      "trace-modeled", "",
      "write the modeled-only trace projection (deterministic; tracediff input)");
  return flags;
}

/// Optional --metrics/--trace collection: construct before the work, then
/// call `finish()` after it to write the JSON report and/or Chrome trace.
struct MetricsSink {
  obs::Report report;
  std::string metrics_path;
  std::string trace_path;
  std::string trace_modeled_path;
  std::optional<obs::Collect> collect;

  MetricsSink(std::string label, std::string metrics, std::string trace = "",
              std::string trace_modeled = "")
      : metrics_path(std::move(metrics)),
        trace_path(std::move(trace)),
        trace_modeled_path(std::move(trace_modeled)) {
    report.label = std::move(label);
    if (!metrics_path.empty() || !trace_path.empty() || !trace_modeled_path.empty())
      collect.emplace(report);
  }

  MetricsSink(std::string label, const ObsFlags& flags)
      : MetricsSink(std::move(label), *flags.metrics, *flags.trace, *flags.trace_modeled) {}

  void finish() {
    if (!collect) return;
    collect.reset();
    if (!metrics_path.empty()) {
      obs::write_json(report, metrics_path);
      std::printf("\n%s", obs::counters_to_table(report.counters).to_text().c_str());
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      obs::write_chrome_trace(report, trace_path);
      std::printf("trace written to %s (load at ui.perfetto.dev)\n", trace_path.c_str());
    }
    if (!trace_modeled_path.empty()) {
      obs::write_chrome_trace(report, trace_modeled_path, {.include_measured = false});
      std::printf("deterministic modeled trace written to %s\n", trace_modeled_path.c_str());
    }
  }
};

/// Validates a floating-point flag that must not be negative (a disorder
/// width, a duration).  The parser has already refused NaN and infinities.
double parse_nonnegative(double value, const char* flag) {
  KPM_REQUIRE(value >= 0.0, strprintf("kpmcli: --%s must be >= 0", flag));
  return value;
}

/// Built workload: Hamiltonian + transform + rescaled operator storage.
struct Workload {
  linalg::CrsMatrix h;
  linalg::CrsMatrix h_tilde;
  linalg::SpectralTransform transform{{-1.0, 1.0}, 0.0};
  std::string description;
  std::size_t dim = 0;
};

Workload build_workload(const std::string& kind, std::size_t edge, double disorder,
                        std::uint64_t seed) {
  Workload w;
  const auto onsite = parse_nonnegative(disorder, "disorder") > 0.0
                          ? lattice::anderson_disorder(disorder, seed)
                          : lattice::OnsiteFunction{};
  if (kind == "chain") {
    const auto lat = lattice::HypercubicLattice::chain(edge);
    w.h = lattice::build_tight_binding_crs(lat, {}, onsite);
    w.description = lat.describe();
  } else if (kind == "square") {
    const auto lat = lattice::HypercubicLattice::square(edge, edge);
    w.h = lattice::build_tight_binding_crs(lat, {}, onsite);
    w.description = lat.describe();
  } else if (kind == "cubic") {
    const auto lat = lattice::HypercubicLattice::cubic(edge, edge, edge);
    w.h = lattice::build_tight_binding_crs(lat, {}, onsite);
    w.description = lat.describe();
  } else if (kind == "honeycomb") {
    const lattice::HoneycombLattice lat(edge, edge);
    KPM_REQUIRE(disorder == 0.0, "kpmcli: disorder is not supported on the honeycomb lattice");
    w.h = lat.hamiltonian();
    w.description = "honeycomb " + std::to_string(edge) + "x" + std::to_string(edge);
  } else {
    KPM_FAIL("unknown lattice '" + kind + "' (chain|square|cubic|honeycomb)");
  }
  linalg::MatrixOperator op(w.h);
  w.transform = linalg::make_spectral_transform(op);
  w.h_tilde = linalg::rescale(w.h, w.transform);
  w.dim = op.dim();
  return w;
}

/// Validates a --threads flag for the engines that run a host thread pool.
int parse_threads(long long threads) {
  KPM_REQUIRE(threads >= 1, "kpmcli: --threads must be >= 1");
  KPM_REQUIRE(threads <= std::numeric_limits<int>::max(), "kpmcli: --threads is too large");
  return static_cast<int>(threads);
}

/// The rescaled operator in the storage layout `--storage` asked for.  The
/// SELL matrix (when chosen) lives on the heap so the operator's reference
/// stays valid as the struct moves out of the builder.
struct OperatorStorage {
  std::unique_ptr<linalg::SellMatrix> sell;
  std::unique_ptr<linalg::MatrixOperator> op;
};

OperatorStorage make_operator_storage(const linalg::CrsMatrix& h_tilde,
                                      const std::string& storage) {
  OperatorStorage s;
  if (storage == "crs") {
    s.op = std::make_unique<linalg::MatrixOperator>(h_tilde);
  } else if (storage == "sell") {
    s.sell = std::make_unique<linalg::SellMatrix>(linalg::SellMatrix::from_crs(h_tilde));
    s.op = std::make_unique<linalg::MatrixOperator>(*s.sell);
  } else {
    KPM_FAIL("unknown storage '" + storage + "' (crs|sell)");
  }
  return s;
}

/// Validates an --edge flag: a lattice needs at least one cell per edge.
std::size_t parse_edge(long long edge) {
  KPM_REQUIRE(edge >= 1, "kpmcli: --edge must be >= 1");
  return static_cast<std::size_t>(edge);
}

/// Validates a --block flag: the SpMMV block width must be at least 1.
std::size_t parse_block(long long block) {
  KPM_REQUIRE(block >= 1, "kpmcli: --block must be >= 1");
  return static_cast<std::size_t>(block);
}

/// Validates a count or index flag before it becomes a std::size_t, where a
/// negative value would wrap to ~2^64 and surface as an allocator error.
/// Zero passes by default: it means "off" or "auto" for some flags, and the
/// library rejects it with its own message where it is meaningless.
std::size_t parse_count(long long value, const char* flag, long long min = 0) {
  KPM_REQUIRE(value >= min, strprintf("kpmcli: --%s must be >= %lld", flag, min));
  return static_cast<std::size_t>(value);
}

/// The engine options dos and profile share: the --engine table name,
/// --threads for the engines that run a host thread pool, and the cluster
/// flags, which are validated even where the engine ignores them.
core::MomentComputeOptions engine_options(const std::string& engine, long long threads,
                                          long long nodes, long long halo,
                                          const std::string& interconnect) {
  core::MomentComputeOptions o;
  o.engine = core::engine_kind_from_string(engine);
  if (core::engine_info(o.engine).host_threads) o.cpu_threads = parse_threads(threads);
  o.cluster_nodes = parse_count(nodes, "nodes", 1);
  o.cluster_halo = parse_count(halo, "halo", 1);
  (void)gpusim::InterconnectSpec::from_name(interconnect);
  o.cluster_interconnect = interconnect;
  return o;
}

int cmd_dos(int argc, const char* const* argv) {
  CliParser cli("kpmcli dos", "density of states via stochastic KPM");
  const auto* kind = cli.add_string("lattice", "cubic", "chain|square|cubic|honeycomb");
  const auto* edge = cli.add_int("edge", 10, "lattice edge / cell count");
  const auto* n = cli.add_int("moments", 256, "Chebyshev moments N");
  const auto* r = cli.add_int("R", 14, "random vectors");
  const auto* s = cli.add_int("S", 16, "realizations");
  const auto* disorder = cli.add_double("disorder", 0.0, "Anderson disorder width");
  const auto* seed = cli.add_int("seed", 42, "disorder seed");
  const auto* points = cli.add_int("points", 41, "output energies");
  const auto* engine_name = cli.add_string("engine", "gpu", core::engine_names());
  const auto* threads =
      cli.add_int("threads", 4, "host threads for --engine=cpu-parallel|cluster");
  const auto* block = cli.add_int("block", 1, "SpMMV vector-block width (CPU engines)");
  const auto* nodes = cli.add_int("nodes", 4, "simulated cluster nodes (--engine=cluster)");
  const auto* interconnect =
      cli.add_string("interconnect", "ib-qdr", "cluster fabric: ib-qdr|pcie|ideal");
  const auto* halo = cli.add_int("halo", 1, "ghost layers per exchange (--engine=cluster)");
  const auto* storage = cli.add_string("storage", "crs", "operator layout: crs|sell");
  const auto* csv = cli.add_string("csv", "", "optional CSV output path");
  const auto* save = cli.add_string("save-moments", "",
                                    "store the moment set for later `kpmcli reconstruct`");
  const ObsFlags obs_flags = add_obs_flags(cli);
  cli.parse(argc, argv);

  MetricsSink sink("kpmcli dos", obs_flags);
  const auto w = [&] {
    obs::ScopedSpan span("build.workload");
    return build_workload(*kind, parse_edge(*edge), *disorder,
                          static_cast<std::uint64_t>(*seed));
  }();
  // Validate flag *values* before engine compatibility so a typo like
  // --storage=bogus or --block=0 is reported as such.
  const std::size_t block_r = parse_block(*block);
  KPM_REQUIRE(*storage == "crs" || *storage == "sell",
              "kpmcli dos: unknown --storage '" + *storage + "' (crs|sell)");
  const auto options = engine_options(*engine_name, *threads, *nodes, *halo, *interconnect);
  const bool host_only = core::engine_info(options.engine).host_only;
  KPM_REQUIRE(*storage == "crs" || host_only,
              "kpmcli dos: --storage=sell is host-only; pick a cpu* engine");
  KPM_REQUIRE(block_r == 1 || host_only,
              "kpmcli dos: --block > 1 is a CPU SpMMV optimization; pick a cpu* engine");
  const auto os = make_operator_storage(w.h_tilde, *storage);
  const linalg::MatrixOperator& op = *os.op;
  core::MomentParams params;
  params.num_moments = parse_count(*n, "moments");
  params.random_vectors = parse_count(*r, "R");
  params.realizations = parse_count(*s, "S");
  params.block_r = block_r;
  const auto result = core::make_engine(options)->compute(op, params);
  if (!save->empty()) {
    core::MomentFile file;
    file.mu = result.mu;
    file.transform_center = w.transform.center();
    file.transform_half_width = w.transform.half_width();
    file.dim = w.dim;
    file.engine = result.engine;
    core::save_moments(*save, file);
    std::printf("moment set written to %s\n", save->c_str());
  }
  const auto curve =
      core::reconstruct_dos(result.mu, w.transform, {.points = parse_count(*points, "points")});

  std::printf(
      "%s, D=%zu — N=%zu, %zu instances, engine %s (%d thread%s): model %.3f s, host %.3f s\n\n",
      w.description.c_str(), w.dim, params.num_moments, params.instances(),
      result.engine.c_str(), result.threads_used, result.threads_used == 1 ? "" : "s",
      result.model_seconds, result.wall_seconds);
  Table table({"E", "rho(E)"});
  for (std::size_t j = 0; j < curve.energy.size(); ++j)
    table.add_row({strprintf("%.4f", curve.energy[j]), strprintf("%.6f", curve.density[j])});
  std::printf("%s", table.to_text().c_str());
  if (!csv->empty()) {
    table.write_csv(*csv);
    std::printf("\nseries written to %s\n", csv->c_str());
  }
  sink.finish();
  return 0;
}

int cmd_ldos(int argc, const char* const* argv) {
  CliParser cli("kpmcli ldos", "deterministic local DoS at one site");
  const auto* kind = cli.add_string("lattice", "square", "chain|square|cubic|honeycomb");
  const auto* edge = cli.add_int("edge", 15, "lattice edge / cell count");
  const auto* site = cli.add_int("site", 0, "site index");
  const auto* n = cli.add_int("moments", 256, "Chebyshev moments N");
  const auto* disorder = cli.add_double("disorder", 0.0, "Anderson disorder width");
  const auto* seed = cli.add_int("seed", 42, "disorder seed");
  const auto* points = cli.add_int("points", 41, "output energies");
  const auto* block = cli.add_int("block", 1, "SpMMV block width (single-site LDOS: must be 1)");
  const auto* storage = cli.add_string("storage", "crs", "operator layout: crs|sell");
  const auto* csv = cli.add_string("csv", "", "optional CSV output path");
  const ObsFlags obs_flags = add_obs_flags(cli);
  cli.parse(argc, argv);

  MetricsSink sink("kpmcli ldos", obs_flags);
  const auto w = [&] {
    obs::ScopedSpan span("build.workload");
    return build_workload(*kind, parse_edge(*edge), *disorder,
                          static_cast<std::uint64_t>(*seed));
  }();
  // A single-site LDOS runs exactly one Chebyshev recursion, so there is no
  // vector block to share the matrix stream across; validate rather than
  // silently ignore the flag.
  KPM_REQUIRE(parse_block(*block) == 1,
              "kpmcli ldos: single-site LDOS has one start vector; --block must be 1");
  const auto os = make_operator_storage(w.h_tilde, *storage);
  const auto curve =
      core::ldos_curve(*os.op, w.transform, parse_count(*site, "site"), parse_count(*n, "moments"),
                       {.points = parse_count(*points, "points")});
  std::printf("%s, LDOS at site %lld (N=%lld)\n\n", w.description.c_str(),
              static_cast<long long>(*site), static_cast<long long>(*n));
  Table table({"E", "rho_site(E)"});
  for (std::size_t j = 0; j < curve.energy.size(); ++j)
    table.add_row({strprintf("%.4f", curve.energy[j]), strprintf("%.6f", curve.density[j])});
  std::printf("%s", table.to_text().c_str());
  if (!csv->empty()) {
    table.write_csv(*csv);
    std::printf("\nseries written to %s\n", csv->c_str());
  }
  sink.finish();
  return 0;
}

int cmd_sigma(int argc, const char* const* argv) {
  CliParser cli("kpmcli sigma", "Kubo-Greenwood conductivity sigma(E_F)");
  const auto* kind = cli.add_string("lattice", "square", "chain|square|cubic");
  const auto* edge = cli.add_int("edge", 16, "lattice edge");
  const auto* axis = cli.add_int("axis", 0, "transport axis (0|1|2)");
  const auto* n = cli.add_int("moments", 32, "Chebyshev moments per index");
  const auto* r = cli.add_int("R", 16, "random vectors");
  const auto* disorder = cli.add_double("disorder", 0.0, "Anderson disorder width");
  const auto* seed = cli.add_int("seed", 42, "disorder seed");
  const auto* block = cli.add_int("block", 1, "SpMMV vector-block width");
  const auto* storage = cli.add_string("storage", "crs", "H~ layout: crs|sell");
  const auto* csv = cli.add_string("csv", "", "optional CSV output path");
  const ObsFlags obs_flags = add_obs_flags(cli);
  cli.parse(argc, argv);

  MetricsSink sink("kpmcli sigma", obs_flags);
  KPM_REQUIRE(*kind != "honeycomb", "kpmcli sigma: honeycomb current operator not implemented");
  const auto e = parse_edge(*edge);
  lattice::HypercubicLattice lat =
      *kind == "chain" ? lattice::HypercubicLattice::chain(e)
      : *kind == "square" ? lattice::HypercubicLattice::square(e, e)
                          : lattice::HypercubicLattice::cubic(e, e, e);
  const auto onsite = parse_nonnegative(*disorder, "disorder") > 0.0
                          ? lattice::anderson_disorder(*disorder, static_cast<std::uint64_t>(*seed))
                          : lattice::OnsiteFunction{};
  const auto h = lattice::build_tight_binding_crs(lat, {}, onsite);
  linalg::MatrixOperator raw(h);
  const auto transform = linalg::make_spectral_transform(raw);
  const auto ht = linalg::rescale(h, transform);
  const auto a = lattice::build_current_operator_crs(lat, parse_count(*axis, "axis"));
  const auto os = make_operator_storage(ht, *storage);
  linalg::MatrixOperator op_a(a);

  core::MomentParams params;
  params.num_moments = parse_count(*n, "moments");
  params.random_vectors = parse_count(*r, "R");
  params.realizations = 2;
  params.block_r = parse_block(*block);
  const auto m = core::conductivity_moments(*os.op, op_a, params);
  const auto curve = core::reconstruct_conductivity(m, transform, {.points = 41});

  std::printf("%s, sigma along axis %lld, N=%zu\n\n", lat.describe().c_str(),
              static_cast<long long>(*axis), params.num_moments);
  Table table({"E_F", "sigma"});
  for (std::size_t j = 0; j < curve.energy.size(); ++j)
    table.add_row({strprintf("%.4f", curve.energy[j]), strprintf("%.6f", curve.sigma[j])});
  std::printf("%s", table.to_text().c_str());
  if (!csv->empty()) {
    table.write_csv(*csv);
    std::printf("\nseries written to %s\n", csv->c_str());
  }
  sink.finish();
  return 0;
}

int cmd_thermo(int argc, const char* const* argv) {
  CliParser cli("kpmcli thermo", "filling, energy, entropy at fixed chemical potential");
  const auto* kind = cli.add_string("lattice", "cubic", "chain|square|cubic|honeycomb");
  const auto* edge = cli.add_int("edge", 8, "lattice edge / cell count");
  const auto* n = cli.add_int("moments", 256, "Chebyshev moments N");
  const auto* mu_c = cli.add_double("mu", 0.0, "chemical potential");
  const auto* t = cli.add_double("temperature", 0.5, "temperature (k_B = 1)");
  cli.parse(argc, argv);

  const auto w = build_workload(*kind, parse_edge(*edge), 0.0, 0);
  linalg::MatrixOperator op(w.h_tilde);
  core::MomentParams params;
  params.num_moments = parse_count(*n, "moments");
  params.random_vectors = 8;
  params.realizations = 8;
  core::GpuMomentEngine engine;
  const auto result = engine.compute(op, params);

  const double filling = core::electron_filling(result.mu, w.transform, *mu_c, *t);
  const double energy = core::internal_energy(result.mu, w.transform, *mu_c, *t);
  const double entropy = core::electronic_entropy(result.mu, w.transform, *mu_c, *t);
  std::printf("%s, D=%zu at mu=%.3f, T=%.3f:\n", w.description.c_str(), w.dim, *mu_c, *t);
  std::printf("  filling  n = %.6f\n  energy   u = %.6f\n  entropy  s = %.6f\n", filling,
              energy, entropy);
  return 0;
}

int cmd_evolve(int argc, const char* const* argv) {
  CliParser cli("kpmcli evolve", "Chebyshev time evolution of a localized state on a chain");
  const auto* sites = cli.add_int("sites", 128, "chain length");
  const auto* time = cli.add_double("time", 20.0, "total evolution time");
  const auto* steps = cli.add_int("steps", 5, "output steps");
  cli.parse(argc, argv);

  const auto lat = lattice::HypercubicLattice::chain(parse_count(*sites, "sites"));
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto transform = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, transform);
  linalg::MatrixOperator op_t(ht);
  core::ChebyshevPropagator prop(op_t, transform);

  std::vector<std::complex<double>> psi(lat.sites(), {0.0, 0.0});
  psi[lat.sites() / 2] = {1.0, 0.0};
  const double dt =
      parse_nonnegative(*time, "time") / static_cast<double>(parse_count(*steps, "steps", 1));
  std::printf("chain of %zu sites, |psi(0)> localized at the center\n\n", lat.sites());
  Table table({"t", "P(origin)", "spread", "norm"});
  for (int s = 0; s <= *steps; ++s) {
    double mean = 0.0, mean_sq = 0.0;
    for (std::size_t i = 0; i < psi.size(); ++i) {
      const double p = std::norm(psi[i]);
      mean += p * static_cast<double>(i);
      mean_sq += p * static_cast<double>(i) * static_cast<double>(i);
    }
    table.add_row({strprintf("%.2f", dt * s),
                   strprintf("%.5f", std::norm(psi[lat.sites() / 2])),
                   strprintf("%.3f", std::sqrt(std::max(0.0, mean_sq - mean * mean))),
                   strprintf("%.12f", core::state_norm(psi))});
    if (s < *steps) prop.step(psi, dt);
  }
  std::printf("%s", table.to_text().c_str());
  return 0;
}

int cmd_reconstruct(int argc, const char* const* argv) {
  CliParser cli("kpmcli reconstruct", "rebuild a DoS from a saved moment set");
  const auto* path = cli.add_string("moments", "", "moment file from `kpmcli dos --save-moments`");
  const auto* kernel = cli.add_string("kernel", "jackson", "jackson|lorentz|fejer|dirichlet");
  const auto* lambda = cli.add_double("lambda", 4.0, "Lorentz kernel parameter");
  const auto* truncate = cli.add_int("truncate", 0, "use only the first N moments (0 = all)");
  const auto* points = cli.add_int("points", 41, "output energies");
  const auto* csv = cli.add_string("csv", "", "optional CSV output path");
  cli.parse(argc, argv);
  KPM_REQUIRE(!path->empty(), "kpmcli reconstruct: --moments is required");

  const auto file = core::load_moments(*path);
  const auto transform = file.transform();
  std::span<const double> mu(file.mu);
  const std::size_t keep = parse_count(*truncate, "truncate");
  if (keep > 0 && keep < mu.size()) mu = mu.subspan(0, keep);

  core::ReconstructOptions opts;
  opts.kernel = core::damping_kernel_from_string(*kernel);
  opts.lorentz_lambda = *lambda;
  opts.points = parse_count(*points, "points");
  const auto curve = core::reconstruct_dos(mu, transform, opts);

  std::printf("%s: D=%zu, %zu moments (engine %s), kernel %s, using %zu moments\n\n",
              path->c_str(), file.dim, file.mu.size(), file.engine.c_str(), kernel->c_str(),
              mu.size());
  Table table({"E", "rho(E)"});
  for (std::size_t j = 0; j < curve.energy.size(); ++j)
    table.add_row({strprintf("%.4f", curve.energy[j]), strprintf("%.6f", curve.density[j])});
  std::printf("%s", table.to_text().c_str());
  if (!csv->empty()) {
    table.write_csv(*csv);
    std::printf("\nseries written to %s\n", csv->c_str());
  }
  return 0;
}

int cmd_slice(int argc, const char* const* argv) {
  CliParser cli("kpmcli slice", "energy-filtered random states (KPM delta filter)");
  const auto* kind = cli.add_string("lattice", "cubic", "chain|square|cubic|honeycomb");
  const auto* edge = cli.add_int("edge", 8, "lattice edge / cell count");
  const auto* n = cli.add_int("moments", 256, "filter moments");
  const auto* e0 = cli.add_double("energy", 0.0, "target energy");
  const auto* disorder = cli.add_double("disorder", 0.0, "Anderson disorder width");
  cli.parse(argc, argv);

  const auto w = build_workload(*kind, parse_edge(*edge), *disorder, 7);
  linalg::MatrixOperator op(w.h);
  linalg::MatrixOperator op_t(w.h_tilde);
  core::FilterOptions opts;
  opts.num_moments = parse_count(*n, "moments");
  const auto report = core::filter_random_state(op, op_t, w.transform, *e0, 99, 0, opts);
  std::printf("%s, filter at E = %.3f with N = %lld:\n", w.description.c_str(), *e0,
              static_cast<long long>(*n));
  std::printf("  <H>     = %+.5f\n  spread  = %.5f\n  |psi|   = %.5f (local-DoS proxy)\n",
              report.energy_mean, report.energy_spread, report.norm);
  return 0;
}

int cmd_ldosmap(int argc, const char* const* argv) {
  CliParser cli("kpmcli ldosmap", "ASCII LDOS map of a square lattice (GPU LDOS engine)");
  const auto* edge = cli.add_int("edge", 15, "square lattice edge");
  const auto* n = cli.add_int("moments", 128, "Chebyshev moments");
  const auto* e0 = cli.add_double("energy", 0.8, "map energy");
  const auto* impurity = cli.add_double("impurity", -8.0, "center-site energy (0 = clean)");
  cli.parse(argc, argv);

  const auto l = parse_edge(*edge);
  const auto lat = lattice::HypercubicLattice::square(l, l);
  const std::size_t center = lat.site_index(l / 2, l / 2, 0);
  const double eps = *impurity;
  const auto h = lattice::build_tight_binding_crs(
      lat, {}, [&](std::size_t site) { return site == center ? eps : 0.0; });
  linalg::MatrixOperator op(h);
  const auto transform = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, transform);
  linalg::MatrixOperator op_t(ht);

  std::vector<std::size_t> sites(lat.sites());
  for (std::size_t i = 0; i < sites.size(); ++i) sites[i] = i;
  core::GpuLdosEngine engine;
  const auto map = engine.compute(op_t, sites, parse_count(*n, "moments"));

  std::vector<double> values(lat.sites());
  double max_v = 0.0;
  std::vector<double> probe{*e0};
  for (std::size_t k = 0; k < lat.sites(); ++k) {
    values[k] = core::reconstruct_dos_at(map.site_moments(k), transform, probe).density[0];
    max_v = std::max(max_v, values[k]);
  }
  std::printf("%s, impurity %.1f, LDOS at E = %.2f (max %.4f), GPU %.3f s:\n",
              lat.describe().c_str(), eps, *e0, max_v, engine.last_model_seconds());
  const char* shades = " .:-=+*#%@";
  for (std::size_t y = 0; y < l; ++y) {
    std::string line;
    for (std::size_t x = 0; x < l; ++x) {
      const double v = values[lat.site_index(x, y, 0)] / max_v;
      line += shades[static_cast<std::size_t>(9.0 * std::min(1.0, v))];
    }
    std::printf("|%s|\n", line.c_str());
  }
  return 0;
}

int cmd_check(int argc, const char* const* argv) {
  CliParser cli("kpmcli check",
                "Runs the kpmcheck hazard analyses (shared-memory racecheck, allocation "
                "divergence, global overlap, uninitialized reads, stream ordering) over the "
                "production GPU kernels.  Exits nonzero when any finding is reported.");
  const auto* kernel = cli.add_string("kernel", "", "run one scenario (see --list)");
  const auto* all = cli.add_flag("all", "run every scenario");
  const auto* list = cli.add_flag("list", "print the scenario names and exit");
  const auto* json = cli.add_string("json", "", "write an obs JSON report with a 'check' section");
  const auto* trace = cli.add_string("trace", "",
                                     "write a Chrome/Perfetto trace (ui.perfetto.dev)");
  cli.parse(argc, argv);

  if (*list) {
    for (const auto& name : check::scenario_names()) std::printf("%s\n", name.c_str());
    return 0;
  }
  KPM_REQUIRE(*all || !kernel->empty(),
              "kpmcli check: pass --kernel=NAME or --all (see --list for names)");

  MetricsSink metrics("kpmcli-check", *json, *trace);
  std::vector<check::ScenarioReport> reports;
  if (*all) {
    reports = check::run_all_scenarios();
  } else {
    reports.push_back(check::run_scenario(*kernel));
  }

  Table table({"scenario", "launches", "blocks", "global accesses", "findings", "missing",
               "status"});
  std::size_t total_findings = 0;
  std::size_t total_missing = 0;
  for (const auto& r : reports) {
    table.add_row({r.name, std::to_string(r.stats.launches), std::to_string(r.stats.blocks),
                   std::to_string(r.stats.global_accesses), std::to_string(r.findings.size()),
                   std::to_string(r.missing_kernels.size()),
                   r.clean() ? "clean" : "FINDINGS"});
    total_findings += r.findings.size();
    total_missing += r.missing_kernels.size();
  }
  std::printf("%s", table.to_text().c_str());
  for (const auto& r : reports) {
    for (const auto& f : r.findings)
      std::printf("  %s: %s\n", r.name.c_str(), check::to_string(f).c_str());
    for (const auto& k : r.missing_kernels)
      std::printf("  %s: kernel '%s' registered but never launched (coverage gap)\n",
                  r.name.c_str(), k.c_str());
  }
  std::printf("\n%zu scenario(s), %zu finding(s), %zu kernel(s) never launched\n",
              reports.size(), total_findings, total_missing);

  if (!json->empty()) {
    std::string body = "{\"schema\": \"kpm.check/1\", \"scenarios\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      std::string kernels;
      for (const auto& k : r.stats.kernels)
        kernels += std::string(kernels.empty() ? "" : ", ") + "\"" + k + "\"";
      std::string missing;
      for (const auto& k : r.missing_kernels)
        missing += std::string(missing.empty() ? "" : ", ") + "\"" + k + "\"";
      body += std::string(i == 0 ? "" : ", ") + "{\"name\": \"" + r.name +
              "\", \"findings\": " + check::findings_to_json(r.findings) +
              ", \"launches\": " + std::to_string(r.stats.launches) +
              ", \"blocks\": " + std::to_string(r.stats.blocks) +
              ", \"kernels\": [" + kernels + "], \"missing_kernels\": [" + missing + "]}";
    }
    body += "]}";
    metrics.report.sections.push_back({"check", std::move(body)});
    // Alongside the dynamic results, embed the static verdicts for the
    // same scenarios (sub-schema kpm.verify/1): one report answers both
    // "what did this run do" and "what holds for every geometry".
    std::vector<verify::UnitReport> verdicts;
    for (const auto& r : reports) verdicts.push_back(verify::verify_unit(r.name));
    metrics.report.sections.push_back({"verify", verify::verify_to_json_section(verdicts)});
  }
  metrics.finish();
  return total_findings + total_missing == 0 ? 0 : 1;
}

int cmd_verify(int argc, const char* const* argv) {
  CliParser cli(
      "kpmcli verify",
      "Static kernel verification: runs each unit (production scenario or fixture) at "
      "several pilot geometries, fits symbolic access summaries, and proves race-freedom, "
      "global-overlap-freedom, bounds safety and allocation uniformity for ALL launch "
      "geometries in the declared parameter domain.  Non-affine kernels are demoted to "
      "dynamic-only coverage (not a failure); definite witnesses and undischarged "
      "obligations exit nonzero.");
  const auto* kernel =
      cli.add_string("kernel", "", "verify one unit, or every unit launching this kernel");
  const auto* all = cli.add_flag("all", "verify every production scenario");
  const auto* fixtures = cli.add_flag("fixtures", "verify the broken/clean fixtures");
  const auto* list = cli.add_flag("list", "print the unit names and exit");
  const auto* seed = cli.add_int("seed", 0, "pilot rotation seed (verdicts are invariant)");
  const auto* inject = cli.add_flag(
      "inject-stride-bug", "negative control: widen every global write by one byte");
  const auto* json = cli.add_string("json", "", "write an obs JSON report with a 'verify' section");
  const auto* trace = cli.add_string("trace", "",
                                     "write a Chrome/Perfetto trace (ui.perfetto.dev)");
  cli.parse(argc, argv);

  if (*list) {
    for (const auto& name : check::scenario_names()) std::printf("%s\n", name.c_str());
    for (const auto& name : verify::fixture_names()) std::printf("%s\n", name.c_str());
    return 0;
  }
  KPM_REQUIRE(*all || *fixtures || !kernel->empty(),
              "kpmcli verify: pass --kernel=NAME, --all or --fixtures (see --list)");

  verify::VerifyOptions opts;
  opts.pilot_seed = static_cast<unsigned>(*seed);
  opts.inject_stride_bug = *inject;

  MetricsSink metrics("kpmcli-verify", *json, *trace);
  std::vector<verify::UnitReport> reports;
  if (*all) reports = verify::verify_all(opts);
  if (*fixtures)
    for (auto& r : verify::verify_fixtures(opts)) reports.push_back(std::move(r));
  if (!kernel->empty()) {
    // Resolve a unit name directly, or a kernel name to every unit that
    // registers it.
    const auto scenarios = check::scenario_names();
    const auto fixture_units = verify::fixture_names();
    std::vector<std::string> units;
    if (std::find(scenarios.begin(), scenarios.end(), *kernel) != scenarios.end() ||
        std::find(fixture_units.begin(), fixture_units.end(), *kernel) != fixture_units.end()) {
      units.push_back(*kernel);
    } else {
      for (const auto& s : scenarios) {
        const auto expected = check::scenario_expected_kernels(s);
        if (std::find(expected.begin(), expected.end(), *kernel) != expected.end())
          units.push_back(s);
      }
    }
    KPM_REQUIRE(!units.empty(),
                "kpmcli verify: unknown unit or kernel '" + *kernel + "' (see --list)");
    for (const auto& u : units) reports.push_back(verify::verify_unit(u, opts));
  }

  std::printf("%s", verify::verify_table(reports).to_text().c_str());
  for (const auto& r : reports)
    for (const auto& k : r.kernels)
      for (const auto& f : k.findings)
        if (verify::is_hazard(f.kind))
          std::printf("  %s: %s\n", r.unit.c_str(), check::to_string(f).c_str());
  std::size_t proven = 0, demoted = 0, no_sites = 0, with_findings = 0;
  for (const auto& r : reports)
    for (const auto& k : r.kernels) {
      if (k.status == verify::KernelStatus::Proven) ++proven;
      if (k.status == verify::KernelStatus::Demoted) ++demoted;
      if (k.status == verify::KernelStatus::NoSites) ++no_sites;
      if (k.status == verify::KernelStatus::Findings) ++with_findings;
    }
  const std::size_t hazards = verify::hazard_count(reports);
  std::printf(
      "\n%zu unit(s): %zu kernel(s) proven, %zu demoted to dynamic coverage, %zu without "
      "instrumented sites, %zu with findings (%zu hazard(s))\n",
      reports.size(), proven, demoted, no_sites, with_findings, hazards);

  if (!json->empty())
    metrics.report.sections.push_back({"verify", verify::verify_to_json_section(reports, opts)});
  metrics.finish();
  return hazards == 0 ? 0 : 1;
}

int cmd_profile(int argc, const char* const* argv) {
  CliParser cli("kpmcli profile",
                "Profiles one stochastic-moment run: collects the measured host spans, the "
                "modeled gpusim timeline and the deterministic histograms, writes a "
                "Chrome/Perfetto trace, and prints self/total hotspot tables with roofline "
                "attribution per kernel.");
  const auto* kind = cli.add_string("lattice", "cubic", "chain|square|cubic|honeycomb");
  const auto* edge = cli.add_int("edge", 10, "lattice edge / cell count");
  const auto* n = cli.add_int("moments", 256, "Chebyshev moments N");
  const auto* r = cli.add_int("R", 14, "random vectors");
  const auto* s = cli.add_int("S", 16, "realizations");
  const auto* disorder = cli.add_double("disorder", 0.0, "Anderson disorder width");
  const auto* seed = cli.add_int("seed", 42, "disorder seed");
  const auto* engine_name =
      cli.add_string("engine", "gpu-chunked", "gpu-chunked|" + core::engine_names());
  const auto* threads =
      cli.add_int("threads", 4, "host threads for --engine=cpu-parallel|cluster");
  const auto* chunk_insts = cli.add_int(
      "chunk-insts", 0, "instances per chunk for --engine=gpu-chunked (0 = VRAM-sized)");
  const auto* nodes = cli.add_int("nodes", 4, "simulated cluster nodes (--engine=cluster)");
  const auto* halo = cli.add_int("halo", 1, "ghost layers per exchange (--engine=cluster)");
  const auto* devices = cli.add_int("devices", 4, "simulated devices (--engine=multigpu)");
  const auto* interconnect =
      cli.add_string("interconnect", "ib-qdr", "cluster/multigpu fabric: ib-qdr|pcie|ideal");
  const auto* hotspots = cli.add_flag("hotspots", "print self/total span and kernel tables");
  const auto* critical = cli.add_flag(
      "critical-path",
      "print the modeled critical path, per-lane idle attribution and copy/compute overlap");
  const ObsFlags obs_flags = add_obs_flags(cli);
  cli.parse(argc, argv);

  // Profiling without any sink would throw the run away; default to
  // collecting even when no output file was requested so the hotspot
  // tables always have data.
  MetricsSink sink("kpmcli profile", obs_flags);
  if (!sink.collect) sink.collect.emplace(sink.report);

  const auto w = [&] {
    obs::ScopedSpan span("build.workload");
    return build_workload(*kind, parse_edge(*edge), *disorder,
                          static_cast<std::uint64_t>(*seed));
  }();
  linalg::MatrixOperator op(w.h_tilde);
  core::MomentParams params;
  params.num_moments = parse_count(*n, "moments");
  params.random_vectors = parse_count(*r, "R");
  params.realizations = parse_count(*s, "S");
  const std::size_t chunk_instances = parse_count(*chunk_insts, "chunk-insts");

  // gpu-chunked has no EngineKind (its --chunk-insts sizing is local to
  // profile); its flags validate as the GPU engine's.
  const bool chunked = *engine_name == "gpu-chunked";
  auto options =
      engine_options(chunked ? "gpu" : *engine_name, *threads, *nodes, *halo, *interconnect);
  options.cluster_devices = parse_count(*devices, "devices", 1);

  const auto engine = [&]() -> std::unique_ptr<core::MomentEngine> {
    if (chunked) {
      core::ChunkedGpuEngineConfig cfg;
      if (chunk_instances > 0) {
        // Same sizing rule as bench/ablation_chunking: budget exactly the
        // per-chunk work vectors for the requested instance count.
        const std::size_t per_instance =
            4 * w.dim * sizeof(double) + params.num_moments * sizeof(double);
        cfg.workspace_bytes = chunk_instances * per_instance;
      }
      return std::make_unique<core::ChunkedGpuMomentEngine>(cfg);
    }
    return core::make_engine(options);
  }();
  const auto result = [&] {
    obs::ScopedSpan span("compute.moments");
    return engine->compute(op, params);
  }();

  std::printf("%s, D=%zu — N=%zu, %zu instances, engine %s: model %.3f s, host %.3f s\n\n",
              w.description.c_str(), w.dim, params.num_moments, params.instances(),
              result.engine.c_str(), result.model_seconds, result.wall_seconds);

  if (*hotspots) {
    std::printf("host + modeled span hotspots (self/total):\n%s\n",
                obs::span_hotspot_table(sink.report).to_text().c_str());
    const Table kernels = obs::kernel_hotspot_table(sink.report);
    if (kernels.rows() > 0)
      std::printf("modeled kernel roofline attribution:\n%s\n", kernels.to_text().c_str());
  }
  if (*critical) {
    const obs::TraceFile trace =
        obs::trace_from_report(sink.report, {.include_measured = false});
    const obs::CriticalPathReport path = obs::critical_path(trace);
    if (trace.timelines.empty()) {
      std::printf("no modeled timelines captured — --critical-path needs a gpusim-backed "
                  "engine (gpu|gpu-chunked|multigpu|cluster)\n");
    } else {
      std::printf("modeled critical path (timeline '%s', makespan %.6f ms):\n%s\n",
                  trace.timelines[path.bounding_timeline].label.c_str(),
                  static_cast<double>(path.makespan_ns) * 1e-6,
                  obs::critical_path_to_table(path, trace).to_text().c_str());
      std::printf("per-lane busy/idle attribution:\n%s\n",
                  obs::lane_usage_to_table(path, trace).to_text().c_str());
      std::printf("copy/compute overlap: %.6f ms of %.6f ms copy time hidden under compute "
                  "(fraction %.4f)\n\n",
                  static_cast<double>(path.overlap_ns) * 1e-6,
                  static_cast<double>(path.copy_busy_ns) * 1e-6, path.overlap_fraction());
      sink.report.sections.push_back(
          {"critical_path", obs::critical_path_to_json(path, trace)});
    }
  }
  const Table histograms = obs::histograms_to_table(sink.report.histograms);
  if (histograms.rows() > 0)
    std::printf("histograms:\n%s", histograms.to_text().c_str());

  sink.finish();
  return 0;
}

/// Comma-separated list of positive integers ("64,128" -> {64, 128}).
std::vector<std::size_t> parse_size_list(const std::string& text, const char* what) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token =
        text.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    KPM_REQUIRE(!token.empty(), std::string("kpmcli: empty entry in --") + what);
    // Digits only: std::stoull would wrap a leading '-' and skip spaces.
    const bool digits = std::all_of(token.begin(), token.end(),
                                    [](unsigned char c) { return std::isdigit(c) != 0; });
    const std::string bad = std::string("kpmcli: --") + what +
                            " entries must be positive integers (got '" + token + "')";
    KPM_REQUIRE(digits && token.size() <= 19, bad);  // 19 digits never overflow 64 bits
    const auto value = static_cast<std::size_t>(std::stoull(token));
    KPM_REQUIRE(value > 0, bad);
    out.push_back(value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  KPM_REQUIRE(!out.empty(), std::string("kpmcli: --") + what + " must not be empty");
  return out;
}

/// The synthetic-workload knobs shared by `workload synth` and `fleet --synth`.
struct SynthFlags {
  const std::string* label = nullptr;
  const std::int64_t* seed = nullptr;
  const std::int64_t* count = nullptr;
  const std::string* process = nullptr;
  const double* rate = nullptr;
  const double* burst_factor = nullptr;
  const double* period = nullptr;
  const double* amplitude = nullptr;
  const double* dos_weight = nullptr;
  const double* ldos_weight = nullptr;
  const double* sigma_weight = nullptr;
  const std::string* moments = nullptr;
  const std::int64_t* random_vectors = nullptr;
  const std::int64_t* realizations = nullptr;
  const std::int64_t* seed_population = nullptr;
  const double* deadline_fraction = nullptr;
  const double* deadline_slack = nullptr;
  const std::string* lattice = nullptr;
  const std::int64_t* edge = nullptr;
  const double* disorder = nullptr;
  const std::int64_t* model_seed = nullptr;
  const bool* currents = nullptr;
};

SynthFlags add_synth_flags(CliParser& cli) {
  SynthFlags f;
  f.label = cli.add_string("label", "synth", "workload label");
  f.seed = cli.add_int("seed", 1, "generator seed (same seed => identical workload)");
  f.count = cli.add_int("count", 64, "requests to generate");
  f.process =
      cli.add_string("process", "poisson", "arrival process: uniform|poisson|bursty|diurnal");
  f.rate = cli.add_double("rate", 8.0, "mean arrivals per simulated second");
  f.burst_factor = cli.add_double("burst-factor", 8.0, "bursty: burst-state rate multiplier");
  f.period = cli.add_double("period", 60.0, "diurnal: period of the rate modulation, seconds");
  f.amplitude = cli.add_double("amplitude", 0.8, "diurnal: modulation depth in [0, 1)");
  f.dos_weight = cli.add_double("dos-weight", 4.0, "relative weight of dos requests");
  f.ldos_weight = cli.add_double("ldos-weight", 2.0, "relative weight of ldos requests");
  f.sigma_weight = cli.add_double("sigma-weight", 1.0,
                                  "relative weight of sigma requests (needs --currents)");
  f.moments = cli.add_string("moments", "64,128", "comma list of N choices");
  f.random_vectors = cli.add_int("R", 2, "random vectors per realization");
  f.realizations = cli.add_int("S", 2, "realizations");
  f.seed_population = cli.add_int("seeds", 3, "distinct stochastic seeds in the trace");
  f.deadline_fraction =
      cli.add_double("deadline-fraction", 0.0, "fraction of requests with a deadline");
  f.deadline_slack = cli.add_double("deadline-slack", 1.0, "deadline slack, seconds");
  f.lattice = cli.add_string("lattice", "square", "model lattice: chain|square|cubic");
  f.edge = cli.add_int("edge", 8, "model lattice edge");
  f.disorder = cli.add_double("disorder", 0.0, "Anderson disorder strength W");
  f.model_seed = cli.add_int("model-seed", 3, "disorder realization seed");
  f.currents = cli.add_flag("currents", "register a current operator (enables sigma)");
  return f;
}

serve::SynthConfig synth_config_of(const SynthFlags& f) {
  serve::SynthConfig cfg;
  cfg.label = *f.label;
  cfg.seed = static_cast<std::uint64_t>(*f.seed);
  cfg.count = parse_count(*f.count, "count");
  cfg.process = serve::arrival_process_from_string(*f.process);
  cfg.rate = *f.rate;
  cfg.burst_factor = *f.burst_factor;
  cfg.period_seconds = *f.period;
  cfg.amplitude = *f.amplitude;
  cfg.dos_weight = *f.dos_weight;
  cfg.ldos_weight = *f.ldos_weight;
  cfg.sigma_weight = *f.currents ? *f.sigma_weight : 0.0;
  cfg.moment_choices = parse_size_list(*f.moments, "moments");
  cfg.random_vectors = parse_count(*f.random_vectors, "R");
  cfg.realizations = parse_count(*f.realizations, "S");
  cfg.seed_population = parse_count(*f.seed_population, "seeds");
  cfg.deadline_fraction = *f.deadline_fraction;
  cfg.deadline_slack_seconds = *f.deadline_slack;
  return cfg;
}

serve::ModelSpec synth_model_of(const SynthFlags& f) {
  serve::ModelSpec spec;
  spec.name = "m0";
  spec.lattice = *f.lattice;
  spec.edge = parse_edge(*f.edge);
  spec.disorder = parse_nonnegative(*f.disorder, "disorder");
  spec.seed = static_cast<std::uint64_t>(*f.model_seed);
  if (*f.currents) spec.currents = {0};
  return spec;
}

/// --workers resolution shared by serve and fleet: explicit flag, else the
/// workload file's config (when it sets one), else hardware concurrency
/// capped at 16.  Returns the value and a human-readable source for the
/// header line (the fingerprint line itself never mentions workers).
std::size_t resolve_workers(std::int64_t flag_value, const serve::ReplayWorkload* workload,
                            const char** source) {
  if (const std::size_t requested = parse_count(flag_value, "workers"); requested > 0) {
    *source = "flag";
    return requested;
  }
  if (workload != nullptr && workload->config_sets_workers) {
    *source = "workload config";
    return workload->config.workers;
  }
  *source = "auto: hardware concurrency, capped at 16";
  const unsigned hc = std::thread::hardware_concurrency();
  return std::min<std::size_t>(hc == 0 ? 1 : hc, 16);
}

int cmd_workload(int argc, const char* const* argv) {
  if (argc < 2 || std::string(argv[1]) != "synth") {
    std::fprintf(stderr, "usage: kpmcli workload synth --out=<file.json> [options]\n");
    return 2;
  }
  CliParser cli("kpmcli workload synth",
                "Generates a seeded synthetic kpm.serve.workload/1 request trace from a "
                "configurable arrival process (uniform|poisson|bursty|diurnal) and "
                "kind/size mix.  The same flags always produce a byte-identical file.");
  const auto* out = cli.add_string("out", "", "output workload JSON file (required)");
  const SynthFlags synth = add_synth_flags(cli);
  cli.parse(argc - 1, argv + 1);
  KPM_REQUIRE(!out->empty(), "kpmcli workload synth: --out=<file.json> is required");

  const serve::SynthConfig cfg = synth_config_of(synth);
  const serve::ReplayWorkload workload =
      serve::synthesize_workload(cfg, {synth_model_of(synth)});
  const std::string json = serve::workload_json(workload);
  {
    std::ofstream file(*out, std::ios::binary);
    KPM_REQUIRE(file.good(), "kpmcli workload synth: cannot write '" + *out + "'");
    file << json;
  }

  std::size_t kinds[3] = {0, 0, 0};
  for (const auto& req : workload.requests)
    kinds[static_cast<std::size_t>(serve::kind_of(req))] += 1;
  const double span = workload.requests.empty()
                          ? 0.0
                          : serve::base_of(workload.requests.back()).arrival_seconds;
  std::printf("workload '%s': %zu requests over %.3f s (%s process, rate %.2f/s)\n",
              workload.label.c_str(), workload.requests.size(), span,
              serve::to_string(cfg.process), cfg.rate);
  std::printf("mix: %zu dos, %zu ldos, %zu sigma | N choices %s | %zu stochastic seeds\n",
              kinds[0], kinds[1], kinds[2], synth.moments->c_str(), cfg.seed_population);
  std::printf("wrote %s (%zu bytes)\n", out->c_str(), json.size());
  return 0;
}

int cmd_fleet(int argc, const char* const* argv) {
  CliParser cli("kpmcli fleet",
                "Routes a request trace (--replay file or --synth generator) across N "
                "shared-nothing server shards via a consistent-hash ring and replays "
                "every shard on the simulated clock.  Per-shard knobs: gpusim-timeline "
                "batch pricing (--gpu-shards) and cost-aware caching (--cache-policy).  "
                "The deterministic fingerprint is identical at any --workers and for "
                "any shard enumeration order.");
  const auto* replay = cli.add_string("replay", "", "workload JSON file (or use --synth)");
  const auto* synth_enable = cli.add_flag("synth", "synthesize the workload in-process");
  const SynthFlags synth = add_synth_flags(cli);
  const auto* shards = cli.add_int("shards", 4, "server shards behind the ring");
  const auto* gpu_shards =
      cli.add_int("gpu-shards", 0, "leading shards priced from gpusim timelines");
  const auto* vnodes = cli.add_int("vnodes", 64, "virtual ring nodes per shard");
  const auto* ring_seed = cli.add_int("ring-seed", 0, "ring salt; 0 = library default");
  const auto* cache_policy =
      cli.add_string("cache-policy", "lru", "moment-cache policy: lru|cost-aware");
  const auto* cache_bytes = cli.add_int("cache-bytes", 1 << 20, "per-shard cache budget");
  const auto* policy = cli.add_string("policy", "degrade", "shed policy: reject|degrade");
  const auto* max_queue = cli.add_int("max-queue", 8, "per-shard admission queue bound");
  const auto* max_batch = cli.add_int("max-batch", 4, "per-shard coalescer cap");
  const auto* workers = cli.add_int(
      "workers", 0, "worker lanes; 0 = workload config, else hardware concurrency (cap 16)");
  const auto* slo = cli.add_double("slo", 0.0, "latency SLO, seconds (0 disables)");
  const ObsFlags obs_flags = add_obs_flags(cli);
  cli.parse(argc, argv);
  KPM_REQUIRE(*shards >= 1, "kpmcli fleet: --shards must be >= 1");
  KPM_REQUIRE(*gpu_shards >= 0 && *gpu_shards <= *shards,
              "kpmcli fleet: --gpu-shards must be in [0, shards]");
  KPM_REQUIRE(replay->empty() != !*synth_enable,
              "kpmcli fleet: pass exactly one of --replay=<file> or --synth");

  serve::ReplayWorkload workload;
  if (!replay->empty()) {
    workload = serve::load_workload(*replay);
  } else {
    serve::ServeConfig base;
    base.max_queue = parse_count(*max_queue, "max-queue");
    base.max_batch = parse_count(*max_batch, "max-batch");
    base.policy = serve::shed_policy_from_string(*policy);
    base.cache_bytes = parse_count(*cache_bytes, "cache-bytes");
    workload = serve::synthesize_workload(synth_config_of(synth), {synth_model_of(synth)},
                                          base);
    workload.config_sets_workers = false;
  }

  const char* workers_source = nullptr;
  serve::FleetConfig config;
  config.shard_config = workload.config;
  config.shard_config.workers = resolve_workers(*workers, &workload, &workers_source);
  config.shard_config.cache_policy = serve::cache_policy_from_string(*cache_policy);
  config.ring.virtual_nodes = parse_count(*vnodes, "vnodes");
  if (*ring_seed != 0) config.ring.seed = static_cast<std::uint64_t>(*ring_seed);
  config.slo_seconds = parse_nonnegative(*slo, "slo");
  for (std::int64_t i = 0; i < *shards; ++i) {
    serve::FleetShardSpec spec;
    spec.name = strprintf("shard%02lld", static_cast<long long>(i));
    spec.pricing = i < *gpu_shards ? serve::BatchPricing::GpuTimeline
                                   : serve::BatchPricing::SerialRoofline;
    spec.cache_policy = config.shard_config.cache_policy;
    config.shards.push_back(std::move(spec));
  }

  MetricsSink sink("kpmcli fleet " + workload.label, obs_flags);
  if (!sink.collect) sink.collect.emplace(sink.report);

  serve::Fleet fleet(std::move(config));
  serve::register_models(fleet, workload);
  const serve::FleetResult result = fleet.run(workload.requests);

  std::printf("fleet '%s': %zu requests, %lld shards (%lld gpu-priced, %s cache), "
              "%zu workers (%s)\n\n",
              workload.label.c_str(), workload.requests.size(),
              static_cast<long long>(*shards), static_cast<long long>(*gpu_shards),
              cache_policy->c_str(), fleet.config().shard_config.workers, workers_source);

  Table table({"shard", "pricing", "routed", "batches", "coal", "hit", "miss", "evict",
               "refuse", "shed", "makespan s"});
  for (const auto& o : result.shards) {
    table.add_row({o.name, serve::to_string(o.pricing), std::to_string(o.routed),
                   std::to_string(o.stats.batches), std::to_string(o.stats.coalesced),
                   std::to_string(o.stats.cache.hits), std::to_string(o.stats.cache.misses),
                   std::to_string(o.stats.cache.evictions),
                   std::to_string(o.stats.cache.admit_refused),
                   std::to_string(o.stats.rejected + o.stats.expired),
                   strprintf("%.4f", o.makespan_seconds)});
  }
  std::printf("%s\n", table.to_text().c_str());
  std::printf("served %llu | shed %llu", static_cast<unsigned long long>(result.served),
              static_cast<unsigned long long>(result.shed));
  if (fleet.config().slo_seconds > 0.0 && result.served > 0)
    std::printf(" | SLO(%.3fs) %.1f%%", fleet.config().slo_seconds,
                100.0 * static_cast<double>(result.slo_met) /
                    static_cast<double>(result.served));
  std::printf(" | makespan %.4f s | machine-seconds %.4f | ring %s\n",
              result.makespan_seconds, result.machine_seconds,
              strprintf("0x%016llx",
                        static_cast<unsigned long long>(result.ring_fingerprint))
                  .c_str());

  sink.finish();
  const std::string fingerprint = obs::deterministic_fingerprint(sink.report);
  std::printf("deterministic fingerprint: %s\n",
              strprintf("0x%016llx",
                        static_cast<unsigned long long>(serve::fnv1a64(
                            fingerprint.data(), fingerprint.size())))
                  .c_str());
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  CliParser cli("kpmcli serve",
                "Replays a kpm.serve.workload/1 request trace through the deterministic "
                "serving scheduler (batching coalescer, content-addressed moment cache, "
                "admission control) and prints per-request accounting on the simulated "
                "clock.  The deterministic fingerprint is identical at any --workers.");
  const auto* replay = cli.add_string("replay", "", "workload JSON file (required)");
  const auto* workers = cli.add_int(
      "workers", 0, "worker lanes; 0 = workload config, else hardware concurrency (cap 16)");
  const ObsFlags obs_flags = add_obs_flags(cli);
  cli.parse(argc, argv);
  KPM_REQUIRE(!replay->empty(), "kpmcli serve: --replay=<workload.json> is required");

  const serve::ReplayWorkload workload = serve::load_workload(*replay);
  serve::ServeConfig config = workload.config;
  const char* workers_source = nullptr;
  config.workers = resolve_workers(*workers, &workload, &workers_source);

  MetricsSink sink("kpmcli serve " + workload.label, obs_flags);
  if (!sink.collect) sink.collect.emplace(sink.report);

  serve::Server server(config);
  serve::register_models(server, workload);
  const auto responses = server.run(workload.requests);
  sink.report.sections.push_back({"serve", server.section_json()});

  Table table({"id", "kind", "status", "flags", "batch", "n", "wait s", "service s", "retry s"});
  for (const auto& r : responses) {
    std::string flags;
    if (r.cache_hit) flags += "hit ";
    if (r.coalesced) flags += "coal ";
    if (r.degraded) flags += "degr ";
    if (flags.empty()) flags = "-";
    const bool served = r.status == serve::ResponseStatus::Ok;
    table.add_row({std::to_string(r.id), serve::to_string(r.kind), serve::to_string(r.status),
                   flags,
                   r.batch == serve::kNoBatch ? "-" : std::to_string(r.batch),
                   served ? std::to_string(r.num_moments) : "-",
                   served ? strprintf("%.4f", r.wait_seconds()) : "-",
                   served ? strprintf("%.4f", r.service_seconds()) : "-",
                   r.status == serve::ResponseStatus::Rejected
                       ? strprintf("%.4f", r.retry_after_seconds)
                       : "-"});
  }
  const auto& stats = server.stats();
  std::printf("workload '%s': %zu requests, %s, %zu workers (%s)\n\n",
              workload.label.c_str(), workload.requests.size(),
              workload.models.size() == 1
                  ? "1 model"
                  : strprintf("%zu models", workload.models.size()).c_str(),
              config.workers, workers_source);
  std::printf("%s\n", table.to_text().c_str());
  std::printf(
      "batches %llu (coalesced %llu) | cache %llu hit / %llu miss / %llu evicted | "
      "shed: %llu rejected, %llu degraded, %llu expired\n",
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses),
      static_cast<unsigned long long>(stats.cache.evictions),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.degraded),
      static_cast<unsigned long long>(stats.expired));

  sink.finish();
  // Compact hash of the full deterministic fingerprint (counters, histograms,
  // sections, deterministic span tree) — byte-identical at any worker count.
  const std::string fingerprint = obs::deterministic_fingerprint(sink.report);
  std::printf("deterministic fingerprint: %s\n",
              strprintf("0x%016llx",
                        static_cast<unsigned long long>(serve::fnv1a64(
                            fingerprint.data(), fingerprint.size())))
                  .c_str());
  return 0;
}

int cmd_devices(int, const char* const*) {
  Table table({"device", "SMs", "DP peak", "bandwidth", "VRAM"});
  for (const auto& spec : {gpusim::DeviceSpec::geforce_gtx285(), gpusim::DeviceSpec::tesla_c2050(),
                           gpusim::DeviceSpec::fictional_hpc2020()}) {
    table.add_row({spec.name, std::to_string(spec.sm_count),
                   format_flops(spec.peak_dp_flops()),
                   strprintf("%.0f GB/s", spec.global_mem_bandwidth / 1e9),
                   format_bytes(static_cast<double>(spec.global_mem_bytes))});
  }
  std::printf("%s", table.to_text().c_str());
  std::printf("\nCPU baseline: %s\n", cpumodel::CpuSpec::core_i7_930().name.c_str());
  return 0;
}

void usage() {
  std::printf(
      "kpmcli — Kernel Polynomial Method toolkit (simulated-GPU backend)\n\n"
      "subcommands:\n"
      "  dos      density of states of a lattice model\n"
      "  reconstruct  rebuild a DoS from a saved moment set\n"
      "  ldos     local density of states at one site\n"
      "  sigma    Kubo-Greenwood conductivity sigma(E_F)\n"
      "  thermo   filling / energy / entropy at (mu, T)\n"
      "  evolve   Chebyshev time evolution on a chain\n"
      "  slice    energy-filtered random state (delta filter)\n"
      "  ldosmap  ASCII LDOS map around an impurity\n"
      "  profile  profile one run: Perfetto trace, hotspot + roofline tables\n"
      "  serve    replay a request trace through the deterministic serving layer\n"
      "  workload synthesize a seeded kpm.serve.workload/1 request trace\n"
      "  fleet    route a trace across consistent-hash server shards and replay all\n"
      "  check    hazard analysis (racecheck/memcheck) over the GPU kernels\n"
      "  verify   static kernel verification for all launch geometries\n"
      "  devices  list the simulated device presets\n\n"
      "run `kpmcli <subcommand> --help` for options\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  // Shift argv so each subcommand's CliParser sees its own args.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (cmd == "dos") return cmd_dos(sub_argc, sub_argv);
    if (cmd == "reconstruct") return cmd_reconstruct(sub_argc, sub_argv);
    if (cmd == "ldos") return cmd_ldos(sub_argc, sub_argv);
    if (cmd == "sigma") return cmd_sigma(sub_argc, sub_argv);
    if (cmd == "thermo") return cmd_thermo(sub_argc, sub_argv);
    if (cmd == "evolve") return cmd_evolve(sub_argc, sub_argv);
    if (cmd == "slice") return cmd_slice(sub_argc, sub_argv);
    if (cmd == "ldosmap") return cmd_ldosmap(sub_argc, sub_argv);
    if (cmd == "profile") return cmd_profile(sub_argc, sub_argv);
    if (cmd == "serve") return cmd_serve(sub_argc, sub_argv);
    if (cmd == "workload") return cmd_workload(sub_argc, sub_argv);
    if (cmd == "fleet") return cmd_fleet(sub_argc, sub_argv);
    if (cmd == "check") return cmd_check(sub_argc, sub_argv);
    if (cmd == "verify") return cmd_verify(sub_argc, sub_argv);
    if (cmd == "devices") return cmd_devices(sub_argc, sub_argv);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      usage();
      return 0;
    }
    std::fprintf(stderr, "kpmcli: unknown subcommand '%s'\n\n", cmd.c_str());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kpmcli: %s\n", e.what());
    return 1;
  }
}
