// Executes the near-field (P2P) phase on the simulated multi-GPU system.
//
// Numerics: each work item is processed exactly as the paper's CUDA kernel
// would -- every target body accumulates its sources in concatenated
// source-list order (the lock-step tile march visits sources in that order
// for every lane), so results are deterministic and association-order
// faithful to the device kernel. On the host the lanes are SIMD lanes:
// lane_width() consecutive targets of the item (4 with AVX2, else 2) advance
// together through the kernel's accumulate_lanes(), each source broadcast to
// every lane in order, and each lane performs accumulate()'s exact operation
// sequence for its own target, so the width moves no bit. Gravity's self
// pair is masked, not branched on: keep = 0 adds 1 to r^2 (no division by
// zero) and scales the contribution to +-0, which leaves an accumulator that
// started at +0.0 unchanged (such a sum can never reach -0.0); keep = 1 adds
// +0 to r^2 >= +0 and scales by 1, both exact. The output is bit-identical
// to the scalar per-target loop.
//
// Timing: each device's share is expanded into block shapes and passed to
// simulate_kernel(); the reported GPU Time is the maximum kernel time over
// all devices, matching the paper's cudaEvent-based definition (Section
// VII.A).
//
// Degradation (health registry): when a MachineHealth is supplied, dead
// devices receive no work, throttled devices run at their scaled clock and
// receive a proportionally smaller interaction share, and transient link
// faults charge retry time into the step timeline. With every GPU dead the
// work is executed on the CPU instead (the Fig. 7 baseline path); because
// partitioning never splits a target node, the forces are bit-identical to
// the healthy GPU path no matter which devices survive.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "gpusim/gpu_model.hpp"
#include "gpusim/partition.hpp"
#include "gpusim/transfer.hpp"
#include "util/lanes.hpp"
#include "machine/health.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"
#include "sdc/sdc.hpp"

namespace afmm {

struct GpuSystemConfig {
  std::vector<GpuDeviceConfig> devices{GpuDeviceConfig{}};
  TransferLinkConfig link;  // per-GPU PCIe-like link (Section III.D)

  static GpuSystemConfig uniform(int num_gpus,
                                 const GpuDeviceConfig& dev = {}) {
    GpuSystemConfig cfg;
    cfg.devices.assign(static_cast<std::size_t>(num_gpus), dev);
    return cfg;
  }
};

// Current relative capability of each configured device: nominal throughput
// (SMs x clock x flops/cycle) scaled by health (0 for dead devices). With no
// health registry every device is at its nominal weight.
std::vector<double> device_weights(const GpuSystemConfig& system,
                                   const MachineHealth* health = nullptr);

// Device config as currently clocked (throttle applied); identity when
// healthy.
GpuDeviceConfig effective_device(const GpuDeviceConfig& dev,
                                 const MachineHealth* health, std::size_t g);

struct GpuRunResult {
  std::vector<GpuKernelTiming> per_gpu;
  double max_kernel_seconds = 0.0;  // the paper's "GPU Time"
  std::uint64_t total_interactions = 0;
  // All GPUs lost: the near field ran on the CPU; max_kernel_seconds is 0
  // and the caller charges total_interactions through the CPU cost model.
  bool cpu_fallback = false;
  // CPU-GPU communication timeline of the step (Section III.D): the
  // non-blocking launch, upload+kernel completion, and the blocking gather.
  StepTimeline timeline;
  // Per-DEVICE transfer shapes (one entry per configured device; dead or
  // workless devices keep a zero shape). Observability uses these to draw
  // per-GPU upload/kernel/download spans; the timeline above is still
  // planned from the alive devices only, so timing is unchanged.
  std::vector<GpuTransferShape> transfers;
};

// Timing-only evaluation of the P2P phase (no numerics): capability-weighted
// partition, per-device kernel simulation at current clocks, transfer
// timeline with retries. Exactly the timing path of run_p2p, shared with the
// machine model's observe helpers and the benches.
GpuRunResult simulate_p2p_timing(const AdaptiveOctree& tree,
                                 const std::vector<P2PWork>& work,
                                 double flops_per_interaction,
                                 const GpuSystemConfig& system,
                                 const MachineHealth* health = nullptr);

// Shapes of the work items assigned to one device.
std::vector<GpuWorkShape> collect_shapes(const AdaptiveOctree& tree,
                                         const std::vector<P2PWork>& work,
                                         const std::vector<int>& assigned);

// run_p2p with W targets per lane block (2 or 4; 4 only where lane_width()
// is 4). `sources` and `ids` are tree-ordered (node spans index into them);
// `out` accumulates per tree-ordered body.
//
// Host execution: the work list runs in list order under an OpenMP dynamic
// loop -- the device shares are contiguous runs of it (the paper's walk), so
// their concatenation is the list itself -- with one thread-private staging
// buffer per thread. Bits do not depend on the thread count or the device
// split: each target node has exactly one work item, so items write
// disjoint spans of `out`, and each target visits its sources in the item's
// own order.
//
// ABFT (sdc/): each work item -- one "batch", the unit a device would hand
// back -- is computed into a staging buffer, checksummed at production, and
// only flushed into `out` after verification. A corrupted batch (the
// simulated kSdcGpuBatch event flips a bit post-"transfer") is detected by
// the checksum mismatch and SURGICALLY REPAIRED by re-executing just that
// batch on the CPU; `sdc->detect->p2p_verify_stride` additionally re-evaluates
// one target body of every Nth batch (the k-th sampled batch its target
// k mod count) from scratch with the scalar accumulate() as an independent
// end-to-end sample, which also checks every lane of the lane routine. The
// staging buffer changes no arithmetic: per-target accumulation order and
// the `out[bt] += batch[j]` flush are the exact operations of the direct
// path, so results stay bit-identical with hooks on, off, or null. The
// report's counters are reduced over threads after the loop.
template <int W, typename Kernel>
GpuRunResult run_p2p_lanes(const AdaptiveOctree& tree,
                           const std::vector<P2PWork>& work,
                           const Kernel& kernel,
                           std::span<const typename Kernel::Source> sources,
                           std::span<const std::uint32_t> ids,
                           const GpuSystemConfig& system,
                           std::span<typename Kernel::Accum> out,
                           const MachineHealth* health = nullptr,
                           const SdcHooks* sdc = nullptr) {
  using Accum = typename Kernel::Accum;
  const bool check_sums = sdc && sdc->detect && sdc->detect->p2p_checks;
  const int sample_stride =
      sdc && sdc->detect ? sdc->detect->p2p_verify_stride : 0;
  // Deterministic victim batch for the injected corruption (if armed).
  const std::int64_t inject_wi =
      sdc && sdc->inject && !work.empty()
          ? static_cast<std::int64_t>(sdc_pick(sdc->seed, work.size()))
          : -1;

  // Compute one batch (work item) into `batch`, exactly as the direct path
  // would: every target body accumulates its sources in concatenated
  // source-list order. Targets run W at a time through the kernel's W-lane
  // routine, one call per contiguous run of source nodes; a ragged last
  // block repeats its last target and drops the copies.
  // Value-initializing the elements keeps any padding bytes deterministic
  // for raw-byte checksums.
  auto compute_batch = [&](int wi, std::vector<Accum>& batch) {
    constexpr std::uint32_t kLanes = W;
    const P2PWork& w = work[wi];
    const OctreeNode& t = tree.node(w.target);
    batch.assign(t.count, Accum{});
    for (std::uint32_t j0 = 0; j0 < t.count; j0 += kLanes) {
      Vec3 xt[kLanes];
      std::uint32_t tid[kLanes];
      Accum acc[kLanes]{};
      for (std::uint32_t l = 0; l < kLanes; ++l) {
        const std::uint32_t bt = t.begin + std::min(j0 + l, t.count - 1);
        xt[l] = sources[bt].x;
        tid[l] = ids[bt];
      }
      // Consecutive source nodes whose spans are adjacent form one run; its
      // memory order is their list order.
      for (std::size_t k = 0; k < w.sources.size();) {
        const std::uint32_t begin = tree.node(w.sources[k]).begin;
        std::uint32_t end = begin;
        for (; k < w.sources.size() && tree.node(w.sources[k]).begin == end;
             ++k)
          end += tree.node(w.sources[k]).count;
        kernel.template accumulate_lanes<W>(
            xt, tid, sources.subspan(begin, end - begin),
            ids.subspan(begin, end - begin), acc);
      }
      for (std::uint32_t l = 0; l < kLanes && j0 + l < t.count; ++l)
        batch[j0 + l] = acc[l];
    }
  };

  // Recompute one target body of the batch from scratch with the scalar
  // accumulate() (the sampled CPU re-evaluation, which thereby also checks
  // the lane routine); returns true when it matches the staged result
  // bitwise. The sampled target rotates over the sampled batches, so every
  // lane of a block and of a ragged tail gets checked, not only lane 0.
  auto sample_matches = [&](int wi, const std::vector<Accum>& batch) {
    const P2PWork& w = work[wi];
    const OctreeNode& t = tree.node(w.target);
    if (t.count == 0) return true;
    const std::uint32_t j =
        static_cast<std::uint32_t>(wi / sample_stride) % t.count;
    const std::uint32_t bt = t.begin + j;
    Accum acc{};
    const Vec3 xt = sources[bt].x;
    for (int s : w.sources) {
      const OctreeNode& sn = tree.node(s);
      for (std::uint32_t bs = sn.begin; bs < sn.begin + sn.count; ++bs)
        kernel.accumulate(xt, ids[bt], sources[bs], ids[bs], acc);
    }
    return std::memcmp(&acc, &batch[j], sizeof(Accum)) == 0;
  };

  GpuRunResult result =
      simulate_p2p_timing(tree, work, Kernel::flops_per_interaction(), system,
                          health);

  const int items = static_cast<int>(work.size());
  int injected = 0, detected = 0, repaired = 0, unrepaired = 0;
#pragma omp parallel reduction(+ : injected, detected, repaired, unrepaired)
  {
    std::vector<Accum> batch;
#pragma omp for schedule(dynamic)
    for (int wi = 0; wi < items; ++wi) {
      compute_batch(wi, batch);
      const std::size_t bytes = batch.size() * sizeof(Accum);
      // ABFT checksum at production time (before the batch "leaves the
      // device"); also the bit-exact ground truth a repair must reproduce.
      const std::uint64_t want =
          check_sums ? fnv1a(batch.data(), bytes) : 0;
      if (wi == inject_wi && !batch.empty()) {
        // The victim double is seed-picked across the whole batch: corruption
        // can land in any accumulator field of any target body.
        double* doubles = reinterpret_cast<double*>(batch.data());
        sdc_flip_double_bit(doubles[sdc_pick(sdc->seed >> 7,
                                             bytes / sizeof(double))],
                            static_cast<int>(sdc->seed >> 17));
        ++injected;
      }
      bool bad = false;
      if (check_sums) bad = fnv1a(batch.data(), bytes) != want;
      if (!bad && sample_stride > 0 && wi % sample_stride == 0)
        bad = !sample_matches(wi, batch);
      if (bad) {
        ++detected;
        // Surgical repair: recompute just this batch, then prove the repair
        // bit-exact against the production-time checksum (or the sampled
        // re-evaluation when checksums are off).
        compute_batch(wi, batch);
        const bool fixed =
            check_sums ? fnv1a(batch.data(), bytes) == want
                       : sample_matches(wi, batch);
        ++(fixed ? repaired : unrepaired);
      }
      const OctreeNode& t = tree.node(work[wi].target);
      std::size_t j = 0;
      for (std::uint32_t bt = t.begin; bt < t.begin + t.count; ++bt, ++j)
        out[bt] += batch[j];
    }
  }
  if (sdc && sdc->report)
    sdc->report->merge({injected, detected, repaired, unrepaired});
  return result;
}

// Runs all P2P work: run_p2p_lanes at lane_width(), chosen once per call.
template <typename Kernel>
GpuRunResult run_p2p(const AdaptiveOctree& tree,
                     const std::vector<P2PWork>& work, const Kernel& kernel,
                     std::span<const typename Kernel::Source> sources,
                     std::span<const std::uint32_t> ids,
                     const GpuSystemConfig& system,
                     std::span<typename Kernel::Accum> out,
                     const MachineHealth* health = nullptr,
                     const SdcHooks* sdc = nullptr) {
  return lane_width() == 4
             ? run_p2p_lanes<4>(tree, work, kernel, sources, ids, system, out,
                                health, sdc)
             : run_p2p_lanes<2>(tree, work, kernel, sources, ids, system, out,
                                health, sdc);
}

}  // namespace afmm
