#include "core/moments_cluster.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/group_recursion.hpp"
#include "core/moments_cpu.hpp"
#include "cpumodel/roofline.hpp"
#include "gpusim/cost_model.hpp"
#include "linalg/shard.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {
namespace {

/// Per-shard working vectors (owned rows + ghost slots, interleaved block
/// layout), one per node.
using ShardVectors = std::vector<std::vector<double>>;

/// The sharded space of the host recursion: the flat recursion's four
/// vectors kept per shard, a ghost exchange after every write (start, r1 and
/// each step), per-member dots whose four canonical lanes are carried
/// through the shards in node order (bit-identical to linalg::block_dot on
/// the assembled vectors), and meters of the GLOBAL flat pass (the counters
/// are partition-invariant by construction).  Each step is the unfused
/// shard multiply + combine + lane-carry dot, bit-identical to the flat
/// fused step by the fused kernels' own contract.
class ShardedSpace {
 public:
  /// Fills the owned slots of every shard's r0 for the group at `first`.
  using Fill = std::function<void(std::size_t first, std::size_t b, ShardVectors& r0)>;

  ShardedSpace(const linalg::ShardedMatrix& sm, const linalg::MatrixOperator& op, Fill fill)
      : sm_(&sm), op_(&op), fill_(std::move(fill)) {}

  [[nodiscard]] bool fits(std::size_t width) const { return width_ == width; }
  void release() { *this = ShardedSpace(*sm_, *op_, fill_); }
  void fit(std::size_t width) {
    if (fits(width)) return;
    release();
    for (ShardVectors* v : {&r0_, &prev2_, &prev_, &next_}) {
      v->resize(sm_->nodes());
      for (std::size_t p = 0; p < sm_->nodes(); ++p)
        (*v)[p].assign(sm_->shard(p).working_size() * width, 0.0);
    }
    acc_.resize(width);
    dots_.resize(width);
    lanes_.resize(width);
    width_ = width;
  }

  void start(std::size_t first, std::size_t b) {
    fill_(first, b, r0_);
    sm_->exchange_ghosts(r0_, b);
  }
  std::span<const double> dot_r0(std::size_t b) {
    detail::meter_member_dots<double>(op_->dim(), b);
    return dots(r0_, b);
  }
  std::span<const double> dot_r1(std::size_t b) {
    detail::meter_member_dots<double>(op_->dim(), b);
    return dots(prev_, b);
  }
  void multiply_r1(std::size_t b) {
    sm_->multiply_block(b, r0_, prev_, acc_);
    linalg::meter_spmmv_pass(*op_, b);
    sm_->exchange_ghosts(prev_, b);
  }
  void copy_r0(std::size_t b) {
    for (std::size_t p = 0; p < sm_->nodes(); ++p)
      std::copy_n(r0_[p].begin(), sm_->shard(p).working_size() * b, prev2_[p].begin());
    obs::meter_stream_bytes(2.0 * static_cast<double>(op_->dim() * b) * sizeof(double));
  }
  std::span<const double> step(std::size_t b) {
    sm_->multiply_block(b, prev_, next_, acc_);
    sm_->combine(next_, prev2_, b);
    linalg::meter_combine_dot_pass(*op_, b);
    sm_->exchange_ghosts(next_, b);
    return dots(next_, b);
  }
  void rotate() {
    std::swap(prev2_, prev_);
    std::swap(prev_, next_);
  }

 private:
  /// Per-member <r0_j | x_j> over the distributed vectors.
  std::span<const double> dots(const ShardVectors& x, std::size_t b) {
    const std::span<double> out(dots_.data(), b);
    sm_->block_dot(r0_, x, b, lanes_, out);
    return out;
  }

  const linalg::ShardedMatrix* sm_;
  const linalg::MatrixOperator* op_;
  Fill fill_;
  std::size_t width_ = 0;
  ShardVectors r0_, prev2_, prev_, next_;
  std::vector<double> acc_, dots_;
  std::vector<linalg::DotLanes> lanes_;
};

/// H~ split by `dec`; SELL operators keep SELL shards, others shard CRS.
linalg::ShardedMatrix shard(const linalg::MatrixOperator& h, const linalg::Decomposition& dec) {
  return linalg::ShardedMatrix(
      h, dec, h.storage() == linalg::Storage::Sell ? linalg::Storage::Sell : linalg::Storage::Crs);
}

/// RNG fill of the owned slots with the members' GLOBAL instance streams:
/// member j of the group starting at `first` draws stream first + j,
/// element index = global row — the same values fill_random_vector_block
/// produces, laid out shard by shard.
void fill_sharded_block(const linalg::ShardedMatrix& sm, const MomentParams& params,
                        std::size_t first, std::size_t b, ShardVectors& r0) {
  for (std::size_t p = 0; p < sm.nodes(); ++p) {
    const linalg::MatrixShard& s = sm.shard(p);
    for (std::size_t lr = 0; lr < s.local_rows(); ++lr) {
      const std::size_t slot = (s.owned_offset() + lr) * b;
      for (std::size_t j = 0; j < b; ++j)
        r0[p][slot + j] = rng::draw_random_element(params.vector_kind, params.seed, first + j,
                                                   s.row_begin + lr);
    }
  }
  obs::add(obs::Counter::RngElements,
           static_cast<double>(sm.dim()) * static_cast<double>(b));
}

// ---------------------------------------------------------------------------
// Cost model.  Shard compute is priced per node (CPU roofline or gpusim
// kernel model); each recursion step overlaps the halo transfer with the
// interior compute: t_step(p) = t_boundary(p) + max(t_interior(p),
// t_halo(p)), and the bulk-synchronous cluster step is max_p t_step(p).

/// Modeled per-step / per-group timings of one node.
struct NodeCost {
  double boundary_s = 0.0;  ///< boundary-row share of one recursion step
  double interior_s = 0.0;  ///< interior-row share of one recursion step
  double halo_s = 0.0;      ///< halo receive time per step
  double extra_s = 0.0;     ///< per-group fill + initial dots + copy
  double step_flops = 0.0;
  double step_bytes = 0.0;
  double extra_flops = 0.0;
  double extra_bytes = 0.0;
};

/// Modeled cost of ONE instance group of `b` members.
struct GroupCost {
  std::vector<NodeCost> nodes;
  double step_parallel = 0.0;  ///< max_p t_step(p)
  double allreduce_s = 0.0;
  double parallel = 0.0;
  double serialized = 0.0;
  double halo = 0.0;
  double exposed = 0.0;
  double halo_bytes_step = 0.0;
  double allreduce_bytes = 0.0;
};

/// Seconds of a compute phase on `node`.  `write_bytes` is the output
/// stream share of `bytes` (the GPU model prices reads and writes
/// separately; the CPU roofline only sees the total).
double node_compute_seconds(const ClusterNodeSpec& node, double flops, double bytes,
                            double write_bytes, double working_set,
                            std::size_t threads_hint) {
  if (node.kind == ClusterNodeSpec::Kind::GpuDevice) {
    gpusim::CostCounters c;
    c.flops = flops;
    c.global_read_bytes[static_cast<std::size_t>(gpusim::AccessPattern::Coalesced)] =
        bytes - write_bytes;
    c.global_write_bytes[static_cast<std::size_t>(gpusim::AccessPattern::Coalesced)] =
        write_bytes;
    return gpusim::model_kernel_time(node.gpu, gpusim::ExecConfig::linear(threads_hint, 128), c)
        .seconds;
  }
  cpumodel::CpuWorkload w;
  w.flops = flops;
  w.bytes_streamed = bytes;
  w.working_set_bytes = working_set;
  return cpumodel::model_cpu_time(node.cpu, w).seconds;
}

GroupCost group_cost(const linalg::ShardedMatrix& sm,
                     const std::vector<ClusterNodeSpec>& specs,
                     const gpusim::InterconnectSpec& link, std::size_t n, std::size_t b) {
  GroupCost gc;
  const auto bb = static_cast<double>(b);
  const std::size_t nodes = sm.nodes();
  gc.nodes.resize(nodes);
  double step_compute = 0.0;
  double extra_parallel = 0.0;
  double halo_per_step = 0.0;
  for (std::size_t p = 0; p < nodes; ++p) {
    const linalg::MatrixShard& s = sm.shard(p);
    NodeCost& nc = gc.nodes[p];
    const auto rows = static_cast<double>(s.local_rows());
    const auto nnz = static_cast<double>(s.local.nnz());
    nc.step_flops = bb * (2.0 * nnz + 4.0 * rows);
    nc.step_bytes = static_cast<double>(s.matrix_bytes) + 4.0 * bb * rows * sizeof(double);
    const double t_step =
        node_compute_seconds(specs[p], nc.step_flops, nc.step_bytes,
                             /*write_bytes=*/bb * rows * sizeof(double), nc.step_bytes,
                             s.local_rows() * b);
    const double frac = nnz > 0.0 ? static_cast<double>(s.boundary_nnz) / nnz : 0.0;
    nc.boundary_s = t_step * frac;
    nc.interior_s = t_step - nc.boundary_s;
    nc.halo_s = gpusim::halo_exchange_seconds(
        link, s.neighbour_count, static_cast<double>(s.halo_recv_doubles) * bb * sizeof(double));
    nc.extra_flops = 12.0 * bb * rows;
    nc.extra_bytes = 2.0 * bb * rows * sizeof(double);
    nc.extra_s = node_compute_seconds(specs[p], nc.extra_flops, nc.extra_bytes,
                                      /*write_bytes=*/bb * rows * sizeof(double),
                                      4.0 * bb * rows * sizeof(double), s.local_rows() * b);

    gc.step_parallel = std::max(gc.step_parallel, nc.boundary_s + std::max(nc.interior_s, nc.halo_s));
    step_compute = std::max(step_compute, nc.boundary_s + nc.interior_s);
    extra_parallel = std::max(extra_parallel, nc.extra_s);
    halo_per_step += nc.halo_s;
    gc.halo_bytes_step += static_cast<double>(s.halo_recv_doubles) * bb * sizeof(double);
    gc.serialized += nc.extra_s + static_cast<double>(n - 1) * (nc.boundary_s + nc.interior_s);
  }
  const auto steps = static_cast<double>(n - 1);
  gc.allreduce_bytes = static_cast<double>(n) * bb * sizeof(double);
  gc.allreduce_s = gpusim::ring_all_reduce_seconds(link, nodes, gc.allreduce_bytes);
  gc.parallel = extra_parallel + steps * gc.step_parallel + gc.allreduce_s;
  gc.halo = steps * halo_per_step;
  gc.exposed = steps * (gc.step_parallel - step_compute);
  return gc;
}

/// Appends one Perfetto-visible timeline per node (its own process in the
/// Chrome-trace export): the first instance group on the shared
/// bulk-synchronous clock — setup, one detailed recursion step with the
/// halo receive on the copy lane, the remaining steps aggregated, and the
/// closing ring all-reduce.
void emit_node_timelines(const std::string& engine_name, const linalg::ShardedMatrix& sm,
                         const std::vector<ClusterNodeSpec>& specs, const GroupCost& gc,
                         std::size_t n, std::size_t b) {
  obs::Report* report = obs::active_report();
  if (report == nullptr) return;
  double setup_parallel = 0.0;
  for (const NodeCost& nc : gc.nodes) setup_parallel = std::max(setup_parallel, nc.extra_s);
  const double steps_end =
      setup_parallel + static_cast<double>(n - 1) * gc.step_parallel;
  for (std::size_t p = 0; p < sm.nodes(); ++p) {
    const linalg::MatrixShard& s = sm.shard(p);
    const NodeCost& nc = gc.nodes[p];
    obs::DeviceTimelineRecord rec;
    rec.label = engine_name + ".node" + std::to_string(p);
    rec.device = specs[p].label();
    if (specs[p].kind == ClusterNodeSpec::Kind::GpuDevice) {
      rec.peak_flops = specs[p].gpu.peak_dp_flops();
      rec.peak_bandwidth = specs[p].gpu.global_mem_bandwidth;
    } else {
      rec.peak_flops = specs[p].cpu.peak_flops();
      rec.peak_bandwidth = specs[p].cpu.dram_bandwidth;
    }
    rec.streams = 2;
    rec.critical_path_seconds = gc.parallel;

    const auto ev = [&](const char* kind, std::string label, std::size_t stream, double start,
                        double end, double bytes, double flops, double global_bytes) {
      obs::TimelineEventRecord e;
      e.kind = kind;
      e.label = std::move(label);
      e.stream = stream;
      e.start_seconds = start;
      e.end_seconds = end;
      e.bytes = bytes;
      e.flops = flops;
      e.global_bytes = global_bytes;
      rec.events.push_back(std::move(e));
    };
    ev("kernel", "group.setup (fill + mu~0/mu~1)", 0, 0.0, nc.extra_s, 0.0, nc.extra_flops,
       nc.extra_bytes);
    // Step 0 in detail: boundary rows first, then the halo receive on the
    // copy lane overlapped with the interior rows.
    const double t0 = setup_parallel;
    ev("kernel", "step0.boundary-rows", 0, t0, t0 + nc.boundary_s, 0.0,
       nc.step_flops * (nc.boundary_s / std::max(nc.boundary_s + nc.interior_s, 1e-300)), 0.0);
    ev("h2d", "step0.halo-recv", 1, t0 + nc.boundary_s, t0 + nc.boundary_s + nc.halo_s,
       static_cast<double>(s.halo_recv_doubles) * static_cast<double>(b) * sizeof(double), 0.0,
       0.0);
    ev("kernel", "step0.interior-rows", 0, t0 + nc.boundary_s,
       t0 + nc.boundary_s + nc.interior_s, 0.0,
       nc.step_flops * (nc.interior_s / std::max(nc.boundary_s + nc.interior_s, 1e-300)), 0.0);
    if (n > 2)
      ev("kernel", "steps 1.." + std::to_string(n - 2) + " (aggregate)", 0,
         setup_parallel + gc.step_parallel, steps_end, 0.0,
         static_cast<double>(n - 2) * nc.step_flops,
         static_cast<double>(n - 2) * nc.step_bytes);
    ev("d2h", "mu~ ring all-reduce", 1, steps_end, steps_end + gc.allreduce_s,
       gc.allreduce_bytes, 0.0, 0.0);
    report->timelines.push_back(std::move(rec));
  }
}

}  // namespace

ClusterNodeSpec ClusterNodeSpec::cpu_node(cpumodel::CpuSpec spec) {
  ClusterNodeSpec n;
  n.kind = Kind::CpuRoofline;
  n.cpu = std::move(spec);
  return n;
}

ClusterNodeSpec ClusterNodeSpec::gpu_node(gpusim::DeviceSpec spec) {
  ClusterNodeSpec n;
  n.kind = Kind::GpuDevice;
  n.gpu = std::move(spec);
  return n;
}

ClusterMomentEngine::ClusterMomentEngine(ClusterEngineConfig config)
    : config_(std::move(config)) {
  config_.link.validate();
  KPM_REQUIRE(config_.threads >= 1, "ClusterMomentEngine: need at least one thread");
  KPM_REQUIRE(config_.resolved_nodes() >= 1,
              "ClusterMomentEngine: cluster needs at least one node");
  if (!config_.nodes.empty() && config_.decomposition.has_value())
    KPM_REQUIRE(config_.nodes.size() == config_.decomposition->nodes(),
                "ClusterMomentEngine: " + std::to_string(config_.nodes.size()) +
                    " node specs for a " + std::to_string(config_.decomposition->nodes()) +
                    "-node decomposition");
  for (const ClusterNodeSpec& n : config_.nodes) {
    if (n.kind == ClusterNodeSpec::Kind::GpuDevice)
      n.gpu.validate();
    else
      n.cpu.validate();
  }
}

ClusterMomentEngine::~ClusterMomentEngine() = default;

std::string ClusterMomentEngine::name() const {
  return "cluster-sharded-x" + std::to_string(config_.resolved_nodes());
}

MomentResult ClusterMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
                                          const MomentParams& params,
                                          std::size_t sample_instances) {
  params.validate();
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);

  const linalg::Decomposition dec =
      config_.decomposition.has_value()
          ? *config_.decomposition
          : linalg::Decomposition::uniform(d, config_.resolved_nodes(), config_.halo_width);
  KPM_REQUIRE(dec.dim() == d, "ClusterMomentEngine: decomposition covers " +
                                  std::to_string(dec.dim()) + " rows but H~ has " +
                                  std::to_string(d));
  std::vector<ClusterNodeSpec> specs = config_.nodes;
  if (specs.empty()) specs.assign(dec.nodes(), ClusterNodeSpec::cpu_node());
  KPM_REQUIRE(specs.size() == dec.nodes(),
              "ClusterMomentEngine: node spec count does not match the decomposition");
  const linalg::ShardedMatrix sm = shard(h_tilde, dec);

  const std::size_t block = params.block_r;

  // Stable span name (no node/thread suffix): deterministic fingerprints of
  // a fixed decomposition must not depend on the host thread count.
  obs::ScopedSpan span("moments.cluster-sharded");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  std::vector<double> mu_sum(n, 0.0);
  // Serial-reference per-instance modeled ticks (Core i7-930, like every
  // other engine) — deliberately independent of node specs, P and threads,
  // so histograms are invariant across every cluster configuration.
  const std::uint64_t instance_ticks = detail::instance_model_ticks(
      cpumodel::CpuSpec::core_i7_930(), h_tilde, n, block, detail::DotPolicy::Single);

  // Groups are placed like CpuParallelMomentEngine's: the same
  // thread-invariance contract, one sharded space per lane.
  std::vector<ShardedSpace> lanes(
      static_cast<std::size_t>(config_.threads),
      ShardedSpace(sm, h_tilde, [&](std::size_t first, std::size_t b, ShardVectors& r0) {
        fill_sharded_block(sm, params, first, b, r0);
      }));
  const int threads_used = detail::run_instances(std::span(lanes), &pool_, executed, block,
                                                 instance_ticks, mu_sum);

  MomentResult result =
      detail::averaged_result(name(), mu_sum, d, executed, total, wall.seconds());
  result.threads_used = threads_used;

  // Cost model, extrapolated to all `total` instances: full groups of
  // `block` plus one ragged group.
  const std::size_t full = total / block;
  const std::size_t rem = total % block;
  const GroupCost gc = group_cost(sm, specs, config_.link, n, block);
  scaling_ = ClusterScalingReport{};
  scaling_.nodes = sm.nodes();
  const auto add_groups = [&](const GroupCost& g, double count) {
    scaling_.parallel_seconds += count * g.parallel;
    scaling_.serialized_seconds += count * g.serialized;
    scaling_.halo_seconds += count * g.halo;
    scaling_.exposed_halo_seconds += count * g.exposed;
    scaling_.allreduce_seconds += count * g.allreduce_s;
    scaling_.halo_bytes_total += count * static_cast<double>(n - 1) * g.halo_bytes_step;
    scaling_.allreduce_bytes_total += count * g.allreduce_bytes;
  };
  add_groups(gc, static_cast<double>(full));
  if (rem > 0) add_groups(group_cost(sm, specs, config_.link, n, rem), 1.0);
  scaling_.halo_bytes_per_step = gc.halo_bytes_step;
  scaling_.communication_seconds = scaling_.halo_seconds + scaling_.allreduce_seconds;
  scaling_.efficiency =
      scaling_.parallel_seconds > 0.0
          ? scaling_.serialized_seconds /
                (static_cast<double>(sm.nodes()) * scaling_.parallel_seconds)
          : 0.0;

  result.model_seconds = scaling_.parallel_seconds;
  result.transfer_seconds = scaling_.allreduce_seconds + scaling_.exposed_halo_seconds;
  result.compute_seconds = result.model_seconds - result.transfer_seconds;

  emit_node_timelines(name(), sm, specs, full > 0 ? gc : group_cost(sm, specs, config_.link, n, rem),
                      n, full > 0 ? block : rem);
  return result;
}

std::vector<double> cluster_ldos_moments(const linalg::MatrixOperator& h_tilde,
                                         const linalg::Decomposition& dec, std::size_t site,
                                         std::size_t num_moments) {
  KPM_REQUIRE(site < h_tilde.dim(), "cluster_ldos_moments: site out of range");
  KPM_REQUIRE(num_moments >= 1, "cluster_ldos_moments: need at least one moment");
  KPM_REQUIRE(dec.dim() == h_tilde.dim(),
              "cluster_ldos_moments: decomposition does not match the operator");
  obs::ScopedSpan span("ldos.cluster-sharded");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(num_moments));
  const linalg::ShardedMatrix sm = shard(h_tilde, dec);
  ShardedSpace space(sm, h_tilde, [&](std::size_t, std::size_t, ShardVectors& r0) {
    for (auto& v : r0) std::fill(v.begin(), v.end(), 0.0);
    const std::size_t owner = dec.owner_of(site);
    const linalg::MatrixShard& s = sm.shard(owner);
    r0[owner][s.owned_offset() + (site - s.row_begin)] = 1.0;
  });
  return detail::summed_rows(space, 1, 1, num_moments);
}

}  // namespace kpm::core
