// Virtual heterogeneous compute node.
//
// Combines the CPU task-graph model (cpusched/) and the GPU SIMT model
// (gpusim/) into the per-time-step quantities the paper's load balancer
// consumes (Section VII.A):
//
//   CPU Time     = makespan of the up-sweep + down-sweep task graphs on
//                  `num_cores` virtual cores
//   GPU Time     = max simulated kernel time over all GPUs
//   Compute Time = max(CPU Time, GPU Time)
//
// plus the per-operation virtual time totals and application counts that the
// cost model (balance/cost_model.hpp) turns into observed coefficients.
//
// Overlap execution (DESIGN.md section 14): the bulk-synchronous
// max(CPU, GPU) model above keeps the far field and the GPU near field on
// opposite sides of a barrier. With OverlapMode::kOn (set_overlap) the node
// instead schedules ONE merged task DAG -- per-node P2M->M2M edges up,
// cross edges from each M2L source's up task into the consumer's down
// task, L2L->L2P down, and per-GPU upload->kernel->download lanes hanging
// off the non-blocking launch -- on P CPU workers plus the GPU lanes, and
// the step's Compute Time becomes that event-driven makespan. Only virtual
// time changes: the numerics never consult the timeline.
//
// The CPU core model charges each task flops / effective_rate +
// bytes / bandwidth_share. The bandwidth share saturates at high core counts
// (Fig. 6's flattening) while a small shared-cache bonus per extra socket
// reproduces the paper's mild superlinearity on 2+ sockets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "expansion/operators.hpp"
#include "gpusim/p2p_executor.hpp"
#include "machine/health.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"

namespace afmm {

struct CpuModelConfig {
  int num_cores = 10;
  // Sustained per-core rate on the expansion math (peak X5670 DP is ~11.7
  // GF/core; the Taylor operators sustain roughly half).
  double gflops_per_core = 5.0;
  double task_overhead_us = 1.0;    // omp task spawn + scheduling
  double bytes_per_flop = 0.15;     // per-task memory traffic estimate
  double bw_per_core_gbs = 8.0;     // uncontended per-core bandwidth
  double bw_total_gbs = 80.0;       // node-wide memory bandwidth
  int cores_per_socket = 8;
  // Spanning extra sockets adds L3 capacity that lets expansions be reused
  // (the paper's explanation for its mild superlinearity, Section VIII.C);
  // the effect saturates after max_bonus_sockets extra sockets.
  double cache_bonus_per_extra_socket = 0.10;
  int max_bonus_sockets = 1;
  // CPU flops of one direct interaction (serial / no-GPU baseline mode).
  double p2p_flops = 24.0;

  // Effective per-core flop rate when P cores are active.
  double effective_rate(int p) const;
  // Per-core bandwidth share when P cores are active.
  double bandwidth_share(int p) const;
  // Virtual seconds a task of `flops` takes with P active cores.
  double task_seconds(double flops, int p) const;
};

// How a step's virtual timeline is computed: kOff charges the serialized
// max(CPU, GPU) step, kOn the event-driven makespan of the step's task DAG.
enum class OverlapMode : std::uint8_t { kOff = 1, kOn = 2 };

// One task of the executed overlap schedule, for observability timelines.
enum class DagTaskKind : std::uint8_t {
  kUp = 0,       // P2M + M2M of one tree node           (CPU pool)
  kDown = 1,     // M2L + L2L + L2P of a node            (CPU pool)
  kLaunch = 2,   // host-side non-blocking GPU launch    (CPU pool)
  kCpuP2p = 3,   // near-field share, all-GPUs-lost path (CPU pool)
  kUpload = 4,   // body + work-list upload              (GPU lane)
  kKernel = 5,   // P2P kernel interval                  (GPU lane)
  kDownload = 6, // per-target result download           (GPU lane)
};

const char* to_string(DagTaskKind kind);

struct DagTaskSpan {
  DagTaskKind kind = DagTaskKind::kUp;
  int node = -1;    // tree node id (kUp/kDown), device id (lane kinds)
  int worker = -1;  // CPU worker slot or GPU lane id
  double start = 0.0;
  double seconds = 0.0;
};

// Executed schedule of one overlap step, attached to the solve result when
// overlap execution is on (physics-free: observability and benches only).
struct DagSchedule {
  std::vector<DagTaskSpan> tasks;
  double makespan = 0.0;
  int gpu_lanes = 0;
};

// One step's observed timings; the "observational coefficients" of Section
// IV.D are derived from op_seconds[i] / op_counts.
struct ObservedStepTimes {
  double cpu_seconds = 0.0;      // far-field task-graph makespan
  double gpu_seconds = 0.0;      // max kernel time over alive GPUs
  // Near-field time when it ran on the CPU instead (all GPUs lost); the
  // far field and the CPU near field serialize on the same cores.
  double cpu_p2p_seconds = 0.0;
  // Failed transfer attempts charged by the retry model this step.
  int transfer_retries = 0;
  // Event-driven makespan of the merged step DAG (zero when overlap
  // execution is off). When set it IS the step's compute time; the
  // serialized quantities above are still reported for comparison.
  double overlap_seconds = 0.0;
  double overlap_cpu_seconds = 0.0;   // finish of the last CPU-pool task
  double overlap_near_seconds = 0.0;  // finish of the last GPU-lane task
  // The paper's bulk-synchronous wall clock: max(CPU far + CPU near, GPU).
  double serialized_compute_seconds() const {
    const double cpu = cpu_seconds + cpu_p2p_seconds;
    return cpu > gpu_seconds ? cpu : gpu_seconds;
  }
  double compute_seconds() const {
    return overlap_seconds > 0.0 ? overlap_seconds
                                 : serialized_compute_seconds();
  }
  // The balancer's two sides of the scale: expansion (far) work vs direct
  // (near) work, wherever the near field currently executes.
  double far_seconds() const { return cpu_seconds; }
  double near_seconds() const { return gpu_seconds + cpu_p2p_seconds; }

  OpCounts counts;
  // Total virtual seconds spent in each far-field operation, summed over all
  // applications (the paper's per-thread accumulation, summed over threads).
  double t_p2m = 0.0;
  double t_m2m = 0.0;
  double t_m2l = 0.0;
  double t_l2l = 0.0;
  double t_l2p = 0.0;
};

class NodeSimulator {
 public:
  NodeSimulator(CpuModelConfig cpu, GpuSystemConfig gpus)
      : cpu_(cpu), gpus_(std::move(gpus)) {
    health_.reset(gpus_.devices.size(), cpu_.num_cores);
  }

  const CpuModelConfig& cpu() const { return cpu_; }
  const GpuSystemConfig& gpus() const { return gpus_; }

  // Overlap execution mode of this node (default kOff).
  void set_overlap(OverlapMode mode) { overlap_ = mode; }
  OverlapMode overlap_mode() const { return overlap_; }
  bool overlap_enabled() const { return overlap_ == OverlapMode::kOn; }

  // Live health registry (written by the fault injector, read everywhere the
  // provisioned configuration used to be consulted).
  MachineHealth& health() { return health_; }
  const MachineHealth& health() const { return health_; }

  // Cores usable right now: provisioned count minus preemption.
  int effective_cores() const {
    const int avail = health_.cpu_cores_available > 0
                          ? health_.cpu_cores_available
                          : cpu_.num_cores;
    return std::max(1, avail < cpu_.num_cores ? avail : cpu_.num_cores);
  }

  // Far-field timing: builds the up/down-sweep task graphs for `tree` with
  // `lists` and returns CPU time + op totals. `m2l_passes` scales the
  // expansion work (4 for the Stokeslet solver).
  ObservedStepTimes simulate_far_field(const ExpansionContext& ctx,
                                       const AdaptiveOctree& tree,
                                       const InteractionLists& lists,
                                       int m2l_passes = 1) const;

  // Serial single-core time with BOTH far field and direct work on the CPU
  // (the Fig. 7 baseline).
  double serial_all_cpu_seconds(const ExpansionContext& ctx,
                                const AdaptiveOctree& tree,
                                const InteractionLists& lists,
                                int m2l_passes = 1) const;

  // Task-parallel CPU time of `interactions` direct interactions on the
  // currently effective cores -- the near-field cost when every GPU is lost
  // (graceful-degradation fallback; embarrassingly parallel over targets).
  double cpu_p2p_seconds(std::uint64_t interactions) const;

  // The one place a step's times are assembled: the far-field task graphs
  // on the effective cores, the near field `gpu` ran (kernel time, or the
  // CPU fallback's cpu_p2p_seconds) with its transfer retries, and, when
  // the node overlaps, the merged step DAG (see the header comment) re-timing
  // that same work -- task durations equal the serialized ones, only the
  // ordering changes. The executed schedule goes to `*dag` when the DAG ran
  // and `dag` is non-null.
  ObservedStepTimes observe(const ExpansionContext& ctx,
                            const AdaptiveOctree& tree,
                            const InteractionLists& lists,
                            const GpuRunResult& gpu, int m2l_passes,
                            std::shared_ptr<const DagSchedule>* dag =
                                nullptr) const;

  // Full timing-only observation of one solve on `tree`: observe() on the
  // P2P timing of the surviving GPUs (capability-weighted partition,
  // throttled clocks, transfer retries) or the CPU fallback. This is exactly
  // what a real solve reports, minus the numerics -- benches and balancer
  // tests drive the machine through it.
  ObservedStepTimes observe_step(const ExpansionContext& ctx,
                                 const AdaptiveOctree& tree,
                                 const InteractionLists& lists,
                                 double flops_per_interaction = 20.0,
                                 int m2l_passes = 1) const;

  // Tree maintenance cost model (rebuilds / rebins / enforce passes), used
  // to charge load-balancing time. Coarse per-body / per-node constants.
  double rebuild_seconds(std::size_t bodies, int nodes) const;
  double rebin_seconds(std::size_t bodies) const;
  double enforce_seconds(int ops, std::size_t bodies) const;

 private:
  CpuModelConfig cpu_;
  GpuSystemConfig gpus_;
  MachineHealth health_;
  OverlapMode overlap_ = OverlapMode::kOff;
};

}  // namespace afmm
