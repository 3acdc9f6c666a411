#include "core/moments_multigpu.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/device_matrix.hpp"
#include "core/gpu_kernels.hpp"
#include "core/moments_cpu.hpp"
#include "obs/counters.hpp"
#include "obs/gpusim_bridge.hpp"
#include "obs/trace.hpp"

namespace kpm::core {

MultiGpuMomentEngine::MultiGpuMomentEngine(MultiGpuEngineConfig config)
    : config_(std::move(config)) {
  config_.per_device.validate();
  config_.link.validate();
  KPM_REQUIRE(config_.device_count >= 1, "MultiGpuEngineConfig: need at least one device");
}

std::string MultiGpuMomentEngine::name() const {
  return "gpu-cluster-x" + std::to_string(config_.device_count) + "-" +
         to_string(config_.per_device.mapping) +
         (config_.per_device.paired_moments ? "-paired" : "");
}

MomentResult MultiGpuMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
                                           const MomentParams& params,
                                           std::size_t sample_instances) {
  params.validate();
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed_target = resolve_sample_count(sample_instances, total);

  obs::ScopedSpan span("moments." + name());
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  gpusim::Cluster cluster(config_.per_device.device, config_.device_count, config_.link);
  const std::size_t devices = cluster.size();

  // Contiguous instance chunks per device (last device takes the
  // remainder).  The per-device functional sample is an even share of the
  // requested sample, capped by the chunk.
  const std::size_t chunk = (total + devices - 1) / devices;
  const std::size_t sample_share = (executed_target + devices - 1) / devices;

  std::vector<double> mu_weighted_sum(n, 0.0);
  std::size_t executed_actual = 0;

  for (std::size_t g = 0; g < devices; ++g) {
    const std::size_t begin = g * chunk;
    if (begin >= total) break;
    const std::size_t count = std::min(chunk, total - begin);
    const std::size_t local_sample = std::min(sample_share, count);
    const double cost_scale = static_cast<double>(count) / static_cast<double>(local_sample);

    gpusim::Device& dev = cluster.device(g);

    // Replicated H~ upload + per-chunk work buffers.
    DeviceMatrix h_dev(dev, h_tilde);
    auto r0 = dev.alloc<double>(count * d, "r0 vectors");
    auto work_a = dev.alloc<double>(count * d, "work vectors a");
    auto work_b = dev.alloc<double>(count * d, "work vectors b");
    auto mu_tilde = dev.alloc<double>(count * n, "mu~ per instance");
    auto mu_dev = dev.alloc<double>(n, "mu");

    // Fill: RNG streams are the GLOBAL instance ids, so the distributed
    // run draws exactly the same random vectors as a single-GPU run.
    {
      FillRandomKernel fill(params, d, local_sample, r0, begin);
      dev.launch(instance_blocks(config_.per_device, count), fill, cost_scale);
    }

    launch_recursion(dev, config_.per_device, params, h_dev.ref(), count, local_sample,
                     {r0, work_a, work_b, mu_tilde}, cost_scale);

    // Per-device average, then host-side weighted recombination.
    {
      AverageMomentsKernel avg(n, d, local_sample, count, mu_tilde, mu_dev);
      dev.launch(gpusim::ExecConfig::linear(n, 128), avg);
    }
    std::vector<double> mu_local(n);
    dev.copy_to_host<double>(mu_dev, mu_local, "partial mu download");
    for (std::size_t k = 0; k < n; ++k)
      mu_weighted_sum[k] += mu_local[k] * static_cast<double>(local_sample);
    executed_actual += local_sample;
    obs::record_device(dev, name() + ".dev" + std::to_string(g));
  }

  // One all-reduce of the N partial sums across the cluster.
  cluster.all_reduce(static_cast<double>(n) * sizeof(double));

  MomentResult result;
  result.engine = name();
  result.mu.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    result.mu[k] = mu_weighted_sum[k] / static_cast<double>(executed_actual);
  result.instances_executed = executed_actual;
  result.instances_total = total;
  result.wall_seconds = wall.seconds();

  scaling_.parallel_seconds = cluster.parallel_seconds();
  scaling_.serialized_seconds = cluster.total_device_seconds();
  scaling_.communication_seconds = cluster.communication_seconds();
  scaling_.efficiency = scaling_.serialized_seconds /
                        (static_cast<double>(devices) * scaling_.parallel_seconds);

  result.model_seconds = config_.per_device.context_setup_seconds + scaling_.parallel_seconds;
  result.compute_seconds = scaling_.parallel_seconds - scaling_.communication_seconds;
  result.transfer_seconds = scaling_.communication_seconds;
  result.allocation_seconds = config_.per_device.context_setup_seconds;
  return result;
}

}  // namespace kpm::core
