// perfbench — the repository benchmark.
//
//   perfbench --workload paper-gpu|bulk-dram|serve-skew --seed N --seconds S
//             --trace 0|1 [--tiny] [--perturb N] [--out-dir DIR]
//
// A closed loop: one client issues the next op after the previous returns.
// Untraced (--trace 0) runs report the end-to-end metrics; a traced run
// (--trace 1) measures the host triad bandwidth, collects the library's obs
// counters over a fixed number of probe ops, alternates traced and untraced
// ops to measure the tracing overhead, writes the spans as a Chrome trace
// and reports the per-layer metrics.  The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/error.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/report.hpp"
#include "obs/trace_file.hpp"

namespace perfbench {
namespace {

namespace obs = kpm::obs;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"latency_s_p50", "s"},  {"latency_s_p90", "s"},
    {"steps_per_s", "1/s"},     {"requests_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics, reported by every traced run (0 where a workload
/// leaves the layer idle).
constexpr MetricDef kPerLayer[] = {
    {"host.triad_gbs", "GB/s"},
    {"lattice.build_s", "s"},
    {"linalg.bounds_s", "s"},
    {"linalg.rescale_s", "s"},
    {"linalg.sell_build_s", "s"},
    {"linalg.fused_calls", "count"},
    {"linalg.fused_bytes", "bytes"},
    {"linalg.bytes_per_step", "bytes"},
    {"linalg.gflops", "GFLOP/s"},
    {"linalg.gbs", "GB/s"},
    {"linalg.triad_frac", "fraction"},
    {"rng.elements", "count"},
    {"core.moments_s", "s"},
    {"core.steps", "count"},
    {"core.reconstruct_s", "s"},
    {"core.serial_s", "s"},
    {"core.parallel_speedup", "ratio"},
    {"core.model_gap", "ratio"},
    {"gpusim.launches", "count"},
    {"gpusim.global_bytes", "bytes"},
    {"gpusim.flops", "count"},
    {"gpusim.us_per_launch", "us"},
    {"gpusim.model_s", "s"},
    {"cpumodel.model_s", "s"},
    {"gpusim.model_speedup", "ratio"},
    {"serve.requests", "count"},
    {"serve.batches", "count"},
    {"serve.coalesced", "count"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.cache_evictions", "count"},
    {"serve.admit_refused", "count"},
    {"serve.shed", "count"},
    {"serve.reconstruct_points", "count"},
    {"serve.hit_frac", "fraction"},
    {"serve.coalesce_frac", "fraction"},
    {"fleet.max_shard_frac", "fraction"},
    {"fleet.makespan_s", "s"},
    {"slo_frac", "fraction"},
    {"fail_frac", "fraction"},
    {"obs.trace_overhead_frac", "fraction"},
};

struct Args {
  Options opts;
  std::string out_dir = ".";
};

std::uint64_t parse_count(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(value, &used);
  KPM_REQUIRE(used == value.size() && value[0] != '-', "perfbench: bad " + flag + " '" + value + "'");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.opts.tiny = true;
      continue;
    }
    KPM_REQUIRE(i + 1 < argc, "perfbench: " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.opts.seed = parse_count(flag, value);
    } else if (flag == "--seconds") {
      args.opts.seconds = std::stod(value);
      KPM_REQUIRE(args.opts.seconds > 0.0 && args.opts.seconds <= 600.0,
                  "perfbench: --seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      KPM_REQUIRE(value == "0" || value == "1", "perfbench: --trace takes 0 or 1");
      args.opts.trace = value == "1";
    } else if (flag == "--perturb") {
      args.opts.perturb = parse_count(flag, value);
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      KPM_FAIL("perfbench: unknown flag '" + flag + "'");
    }
  }
  KPM_REQUIRE(have_workload, "perfbench: --workload is required");
  return args;
}

/// Writes the report's spans with the Chrome-trace exporter and loads the
/// file back with the trace tooling's loader; true when the loaded trace
/// equals the live report's projection exactly.
bool write_and_reload_trace(const obs::Report& report, const std::string& path) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  obs::write_chrome_trace(report, path);
  const bool same = obs::load_trace_file(path) == obs::trace_from_report(report);
  std::printf("trace: %zu spans written to %s, reload %s\n", report.trace.spans().size(),
              path.c_str(), same ? "identical" : "DIFFERS");
  return same;
}

void print_result(std::uint64_t attempted, std::uint64_t failed, const Metrics& values,
                  bool trace) {
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& m) {
    const auto it = values.find(m.name);
    const double v = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", v);
    json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run(const Args& args) {
  const Options& opts = args.opts;
  SpanLog log;
  const auto workload = make_workload(opts, log);

  const double triad = opts.trace ? triad_gbs(opts.tiny) : 0.0;

  // Set-up, repeated; a traced run records every repetition's spans.
  obs::Report probe;
  probe.label = "perfbench " + opts.workload;
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < workload->setup_reps(); ++rep) {
    if (workload->one_thread()) pin_to_next_cpu();
    std::optional<obs::Collect> collect;
    if (opts.trace) collect.emplace(probe);
    obs::ScopedSpan span("bench.setup");
    workload->setup();
    setup_s.push_back(span.stop());
  }
  workload->prepare();

  // The closed loop: warm-up ops (checked, not measured), then measured ops
  // until the deadline, at least one.  A traced run alternates untraced and traced
  // measured ops; the first probe_ops() traced ops collect into `probe`,
  // later ones into a throwaway report so memory stays flat.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double busy_s = 0.0;
  double steps = 0.0;
  double completed = 0.0;
  std::size_t probed = 0;
  const std::size_t warmup = workload->warmup_ops();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(opts.seconds);
  for (std::size_t i = 0; i <= warmup || std::chrono::steady_clock::now() < deadline; ++i) {
    if (workload->done()) break;
    const bool measured = i >= warmup;
    const bool traced = measured && opts.trace && (i - warmup) % 2 == 1;
    const bool in_probe = traced && probed < workload->probe_ops();
    if (workload->one_thread()) pin_to_next_cpu();
    obs::Report discarded;
    std::optional<obs::Collect> collect;
    if (traced) collect.emplace(in_probe ? probe : discarded);
    obs::ScopedSpan span("bench.op");
    OpResult r;
    try {
      r = workload->op(in_probe);
    } catch (const std::exception& e) {
      // A thrown error is one failed op; the loop goes on.
      std::fprintf(stderr, "perfbench: op %zu failed: %s\n", i, e.what());
      attempted += 1;
      failed += 1;
      continue;
    }
    const double seconds = span.stop();
    collect.reset();
    failed += workload->check(i == warmup ? opts.perturb : std::nullopt);
    attempted += r.requests;
    if (!measured) continue;
    (traced ? traced_s : untraced_s).push_back(seconds);
    busy_s += seconds;
    steps += r.steps;
    completed += static_cast<double>(r.completed);
    probed += in_probe ? 1 : 0;
  }
  failed += workload->finish();

  Metrics metrics;
  if (!opts.trace) {
    metrics["setup_s"] = median(setup_s);
    metrics["latency_s_p50"] = median(untraced_s);
    metrics["latency_s_p90"] = quantile(untraced_s, 0.9);
    metrics["steps_per_s"] = steps / busy_s;
    metrics["requests_per_s"] = completed / busy_s;
    metrics["peak_rss_mb"] = peak_rss_mib();
    std::printf("%s: %zu ops, %.0f requests completed in %.3f s of op wall time\n",
                opts.workload.c_str(), untraced_s.size(), completed, busy_s);
  } else {
    attempted += 1;  // the trace write-and-reload is one more checked operation
    const std::string path = args.out_dir + "/" + opts.workload + ".trace.json";
    failed += write_and_reload_trace(probe, path) ? 0 : 1;
    metrics["host.triad_gbs"] = triad;
    metrics["lattice.build_s"] = log.median_of("bench.lattice.build");
    metrics["linalg.bounds_s"] = log.median_of("bench.linalg.make_spectral_transform");
    metrics["linalg.rescale_s"] = log.median_of("bench.linalg.rescale");
    metrics["linalg.sell_build_s"] = log.median_of("bench.linalg.sell_build");
    workload->layer_metrics(log, probe, triad, metrics);
    if (!traced_s.empty() && !untraced_s.empty())
      metrics["obs.trace_overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0;
    metrics["fail_frac"] = static_cast<double>(failed) / static_cast<double>(attempted);
    std::printf("%s: %zu untraced and %zu traced ops, %zu probe ops\n", opts.workload.c_str(),
                untraced_s.size(), traced_s.size(), probed);
  }
  print_result(attempted, failed, metrics, opts.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
