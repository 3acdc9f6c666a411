// Shared pieces of the repository benchmark: options, per-op results, the
// workload interface the main loop runs, span timing and statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and few set-up repetitions: the self-test mode.
  bool tiny = false;
  /// Negative control: flip one bit (chosen from this value) of the first
  /// measured op's output before it is checked.  The run must report it.
  std::optional<std::uint64_t> perturb;
};

/// What one op did.  The main loop times the op; output checks run afterwards
/// in `Workload::check`, outside the timed region.
struct OpResult {
  double steps = 0.0;           ///< instance x moment recursion steps executed
  std::uint64_t requests = 0;   ///< requests attempted (1 per solve)
  std::uint64_t completed = 0;  ///< requests served
};

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);
/// Quantile `q` in [0, 1] of `v` by linear interpolation between order
/// statistics (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Wall times of every `bench.<layer>.<call>` span, by name.
class SpanLog {
 public:
  /// Runs `f` inside an `obs::ScopedSpan` named `name` (recorded into the
  /// active trace when a report is collecting, a plain stopwatch otherwise)
  /// and logs the span's seconds.  Returns whatever `f` returns.
  template <class F>
  decltype(auto) timed(const char* name, F&& f) {
    kpm::obs::ScopedSpan span(name);
    struct Log {
      SpanLog& log;
      const char* name;
      kpm::obs::ScopedSpan& span;
      ~Log() { log.add(name, span.stop()); }
    } guard{*this, name, span};
    return std::forward<F>(f)();
  }

  void add(const std::string& name, double seconds) { spans_[name].push_back(seconds); }
  [[nodiscard]] double median_of(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> spans_;
};

/// Named metric values of one run; names missing at print time read 0.
using Metrics = std::map<std::string, double>;

/// One benchmark workload.  The main loop calls `setup` several times (timing
/// each; the last one's state is used), `prepare` once, then `op` and
/// `check` in a closed loop, then `finish`.
class Workload {
 public:
  virtual ~Workload() = default;

  /// True when set-up and ops run on the calling thread alone and start no
  /// threads.  The main loop then moves the thread to the next CPU before each
  /// set-up and op (see `pin_to_next_cpu`).
  [[nodiscard]] virtual bool one_thread() const { return false; }
  /// Set-up repetitions per run (`setup_s` is their median).
  [[nodiscard]] virtual std::size_t setup_reps() const = 0;
  /// Builds every input anew; timed as `setup_s`.
  virtual void setup() = 0;
  /// Untimed: computes reference outputs for the checks.
  virtual void prepare() {}
  /// Warm-up ops run before measuring (checked, not timed).
  [[nodiscard]] virtual std::size_t warmup_ops() const { return 1; }
  /// Ops whose counters feed the per-layer metrics in a traced run.
  [[nodiscard]] virtual std::size_t probe_ops() const = 0;
  /// True when the workload has no further input for another op.
  [[nodiscard]] virtual bool done() const { return false; }
  /// Runs one op.  `probe` marks an op whose outcomes feed `layer_metrics`.
  virtual OpResult op(bool probe) = 0;
  /// Checks the last op's outputs; returns the number of failed requests.
  /// `perturb` flips one bit of the output first (negative control).
  virtual std::uint64_t check(std::optional<std::uint64_t> perturb) = 0;
  /// End-of-run checks; returns the number of failed requests found.
  virtual std::uint64_t finish() { return 0; }
  /// Per-layer metrics of a traced run from the spans in `log`, the counters
  /// the first `probe_ops()` traced ops recorded into `probe`, and the
  /// triad bandwidth measured in the same run (GB/s).
  virtual void layer_metrics(const SpanLog& log, const kpm::obs::Report& probe,
                             double triad_gbs, Metrics& out) = 0;
};

/// Builds the workload `opts.workload`; throws kpm::Error for unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opts, SpanLog& log);

/// Bytes of the largest data cache of CPU 0 (the L3 where there is one),
/// read from sysfs.  Throws kpm::Error when sysfs lists no cache.
[[nodiscard]] std::size_t last_level_cache_bytes();

/// Number of hardware threads the process may use (at least 1).
[[nodiscard]] std::size_t host_threads();

/// Pins the calling thread to the next CPU of the process's affinity mask
/// (as it was at the first call), round robin.  Called between the timed
/// calls of a one-thread workload, so that every run samples every CPU's
/// interference from other tenants equally instead of whichever CPU the
/// scheduler keeps the thread on.  Threads created afterwards inherit the pin.
void pin_to_next_cpu();

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// STREAM-style triad a[i] = b[i] + s * c[i] on `host_threads()` lanes with
/// arrays of at least four times the L3 size read from sysfs.  Prints both
/// sizes and returns the best bandwidth over the repetitions, GB/s
/// (3 x 8 bytes per element, the STREAM convention).
[[nodiscard]] double triad_gbs(bool tiny);

}  // namespace perfbench
