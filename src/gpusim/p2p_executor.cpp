#include "gpusim/p2p_executor.hpp"

#include <algorithm>

namespace afmm {

std::vector<double> device_weights(const GpuSystemConfig& system,
                                   const MachineHealth* health) {
  std::vector<double> w(system.devices.size(), 0.0);
  for (std::size_t g = 0; g < system.devices.size(); ++g) {
    const auto& d = system.devices[g];
    // Nominal arithmetic throughput; the natural proportionality constant
    // for splitting interactions across heterogeneous devices.
    const double nominal = static_cast<double>(d.num_sms) * d.clock_ghz *
                           d.sm_flops_per_cycle;
    const double scale = health ? health->gpu_scale(g) : 1.0;
    w[g] = nominal * scale;
  }
  return w;
}

GpuDeviceConfig effective_device(const GpuDeviceConfig& dev,
                                 const MachineHealth* health, std::size_t g) {
  GpuDeviceConfig d = dev;
  if (health && g < health->gpus.size() && health->gpus[g].alive)
    d.clock_ghz *= std::clamp(health->gpus[g].clock_scale, 0.01, 1.0);
  return d;
}

GpuRunResult simulate_p2p_timing(const AdaptiveOctree& tree,
                                 const std::vector<P2PWork>& work,
                                 double flops_per_interaction,
                                 const GpuSystemConfig& system,
                                 const MachineHealth* health) {
  GpuRunResult result;
  const auto weights = device_weights(system, health);
  double weight_sum = 0.0;
  for (double w : weights) weight_sum += std::max(0.0, w);

  if (weight_sum <= 0.0) {
    // Every device dead (or none configured): the caller runs the near field
    // on the CPU and charges it through the CPU model.
    result.cpu_fallback = true;
    for (const auto& w : work) result.total_interactions += w.interactions;
    return result;
  }

  const auto assignment = partition_p2p_work(work, weights);

  std::vector<GpuTransferShape> transfers;
  result.transfers.assign(system.devices.size(), GpuTransferShape{});
  for (std::size_t dev = 0; dev < system.devices.size(); ++dev) {
    if (weights[dev] <= 0.0) {
      result.per_gpu.push_back(GpuKernelTiming{});  // dead: no work, no time
      continue;
    }
    const auto shapes = collect_shapes(tree, work, assignment[dev]);
    auto timing = simulate_kernel(effective_device(system.devices[dev],
                                                   health, dev),
                                  shapes, flops_per_interaction);
    result.total_interactions += timing.interactions;
    result.max_kernel_seconds =
        std::max(result.max_kernel_seconds, timing.seconds);

    std::uint64_t targets = 0;
    std::uint64_t list_entries = 0;
    for (int wi : assignment[dev]) {
      targets += tree.node(work[wi].target).count;
      list_entries += work[wi].sources.size();
    }
    transfers.push_back(gravity_transfer_shape(tree.num_bodies(), targets,
                                               list_entries, timing.seconds));
    result.transfers[dev] = transfers.back();
    result.per_gpu.push_back(std::move(timing));
  }

  TransferFaultModel faults;
  if (health) {
    faults.fail_prob = health->transfer_fault_prob;
    faults.seed = health->transfer_seed;
  }
  result.timeline = plan_step(system.link, transfers, faults);
  return result;
}

std::vector<GpuWorkShape> collect_shapes(const AdaptiveOctree& tree,
                                         const std::vector<P2PWork>& work,
                                         const std::vector<int>& assigned) {
  std::vector<GpuWorkShape> shapes;
  shapes.reserve(assigned.size());
  for (int wi : assigned) {
    const P2PWork& w = work[wi];
    GpuWorkShape s;
    s.targets = tree.node(w.target).count;
    for (int src : w.sources) s.sources += tree.node(src).count;
    shapes.push_back(s);
  }
  return shapes;
}

}  // namespace afmm
