#include "machine/machine.hpp"

#include <algorithm>
#include <cmath>

#include "cpusched/task_sim.hpp"

namespace afmm {

const char* to_string(DagTaskKind kind) {
  switch (kind) {
    case DagTaskKind::kUp: return "up";
    case DagTaskKind::kDown: return "down";
    case DagTaskKind::kLaunch: return "launch";
    case DagTaskKind::kCpuP2p: return "p2p-cpu";
    case DagTaskKind::kUpload: return "upload";
    case DagTaskKind::kKernel: return "kernel";
    case DagTaskKind::kDownload: return "download";
  }
  return "?";
}

double CpuModelConfig::effective_rate(int p) const {
  const int sockets_used =
      (std::min(p, num_cores) + cores_per_socket - 1) / cores_per_socket;
  const int extra = std::min(std::max(0, sockets_used - 1), max_bonus_sockets);
  return gflops_per_core * 1e9 * (1.0 + cache_bonus_per_extra_socket * extra);
}

double CpuModelConfig::bandwidth_share(int p) const {
  return std::min(bw_per_core_gbs, bw_total_gbs / std::max(1, p)) * 1e9;
}

double CpuModelConfig::task_seconds(double flops, int p) const {
  return flops / effective_rate(p) +
         flops * bytes_per_flop / bandwidth_share(p);
}

namespace {

// Builds the up-sweep and down-sweep task graphs and returns their combined
// makespan plus per-op totals. Work per task:
//   up-sweep   : leaf -> P2M over its bodies; internal -> one M2M per
//                nonempty child
//   down-sweep : every node -> its M2L list + one incoming L2L (if parent);
//                leaf -> additionally L2P over its bodies
struct FarFieldBreakdown {
  double up_makespan = 0.0;
  double down_makespan = 0.0;
  double t_p2m = 0.0, t_m2m = 0.0, t_m2l = 0.0, t_l2l = 0.0, t_l2p = 0.0;
};

// Per-operation flops of one node's sweep tasks. up()/down() sum their
// addends in the exact order the historical builder accumulated them, so
// task durations stay bitwise identical across the serialized and overlap
// builders.
struct NodeSweepFlops {
  double p2m = 0.0, m2m = 0.0;             // up-sweep
  double m2l = 0.0, l2l = 0.0, l2p = 0.0;  // down-sweep
  double up() const { return p2m + m2m; }
  double down() const { return l2p + m2l + l2l; }
};

NodeSweepFlops node_sweep_flops(const ExpansionContext& ctx,
                                const AdaptiveOctree& tree,
                                const InteractionLists& lists, int id,
                                double passes) {
  NodeSweepFlops f;
  const OctreeNode& n = tree.node(id);
  if (tree.is_effective_leaf(id)) {
    f.p2m = passes * ctx.flops_p2m_per_body() * n.count;
    f.l2p = passes * ctx.flops_l2p_per_body() * n.count;
  }
  const auto m2l_count = lists.m2l_offset[id + 1] - lists.m2l_offset[id];
  if (m2l_count > 0) f.m2l = passes * ctx.flops_m2l() * m2l_count;
  if (n.parent >= 0) {
    // M2M into the parent is charged on the child task (it runs after the
    // child subtree completes); L2L from the parent on the child as well.
    f.m2m = passes * ctx.flops_m2m();
    f.l2l = passes * ctx.flops_l2l();
  }
  return f;
}

FarFieldBreakdown build_and_schedule(const ExpansionContext& ctx,
                                     const AdaptiveOctree& tree,
                                     const InteractionLists& lists,
                                     const CpuModelConfig& cpu,
                                     int m2l_passes) {
  FarFieldBreakdown out;
  const int p = cpu.num_cores;
  const double ov = cpu.task_overhead_us * 1e-6;
  const double passes = static_cast<double>(m2l_passes);

  TaskGraphSim up;
  TaskGraphSim down;
  // task ids per node (only nonempty effective-tree nodes get tasks)
  std::vector<int> up_id(tree.num_nodes(), -1);
  std::vector<int> down_id(tree.num_nodes(), -1);

  auto visit = [&](auto&& self, int id) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;

    const NodeSweepFlops f = node_sweep_flops(ctx, tree, lists, id, passes);
    out.t_p2m += cpu.task_seconds(f.p2m, p);
    out.t_l2p += cpu.task_seconds(f.l2p, p);
    out.t_m2l += cpu.task_seconds(f.m2l, p);
    out.t_m2m += cpu.task_seconds(f.m2m, p);
    out.t_l2l += cpu.task_seconds(f.l2l, p);

    up_id[id] = up.add_task(cpu.task_seconds(f.up(), p));
    down_id[id] = down.add_task(cpu.task_seconds(f.down(), p));
    if (n.parent >= 0 && up_id[n.parent] >= 0) {
      up.add_dependency(up_id[id], up_id[n.parent]);
      down.add_dependency(down_id[n.parent], down_id[id]);
    }
    if (!tree.is_effective_leaf(id))
      for (int c : n.children) self(self, c);
  };
  if (!tree.empty()) visit(visit, tree.root());

  out.up_makespan = up.num_tasks() ? up.makespan(p, ov) : 0.0;
  out.down_makespan = down.num_tasks() ? down.makespan(p, ov) : 0.0;
  return out;
}

}  // namespace

ObservedStepTimes NodeSimulator::simulate_far_field(
    const ExpansionContext& ctx, const AdaptiveOctree& tree,
    const InteractionLists& lists, int m2l_passes) const {
  ObservedStepTimes t;
  // Preempted cores do not schedule tasks: the graph runs on what is left.
  CpuModelConfig cpu = cpu_;
  cpu.num_cores = effective_cores();
  const auto bd = build_and_schedule(ctx, tree, lists, cpu, m2l_passes);
  t.cpu_seconds = bd.up_makespan + bd.down_makespan;
  t.cpu_up_seconds = bd.up_makespan;
  t.cpu_down_seconds = bd.down_makespan;
  t.counts = count_operations(tree, lists);
  t.t_p2m = bd.t_p2m;
  t.t_m2m = bd.t_m2m;
  t.t_m2l = bd.t_m2l;
  t.t_l2l = bd.t_l2l;
  t.t_l2p = bd.t_l2p;
  return t;
}

double NodeSimulator::serial_all_cpu_seconds(const ExpansionContext& ctx,
                                             const AdaptiveOctree& tree,
                                             const InteractionLists& lists,
                                             int m2l_passes) const {
  CpuModelConfig serial = cpu_;
  serial.num_cores = 1;
  const auto bd = build_and_schedule(ctx, tree, lists, serial, m2l_passes);
  const auto counts = count_operations(tree, lists);
  const double p2p = serial.task_seconds(
      static_cast<double>(counts.p2p_interactions) * serial.p2p_flops, 1);
  return bd.up_makespan + bd.down_makespan + p2p;
}

double NodeSimulator::cpu_p2p_seconds(std::uint64_t interactions) const {
  const int p = effective_cores();
  // Direct interactions parallelize embarrassingly over target nodes, so the
  // wall clock is the contended per-core time divided by the active cores.
  return cpu_.task_seconds(static_cast<double>(interactions) * cpu_.p2p_flops,
                           p) /
         static_cast<double>(p);
}

ObservedStepTimes NodeSimulator::observe_step(const ExpansionContext& ctx,
                                              const AdaptiveOctree& tree,
                                              const InteractionLists& lists,
                                              double flops_per_interaction,
                                              int m2l_passes) const {
  ObservedStepTimes t = simulate_far_field(ctx, tree, lists, m2l_passes);
  const auto gpu = simulate_p2p_timing(tree, lists.p2p, flops_per_interaction,
                                       gpus_, &health_);
  if (gpu.cpu_fallback) {
    t.cpu_p2p_seconds = cpu_p2p_seconds(gpu.total_interactions);
  } else {
    t.gpu_seconds = gpu.max_kernel_seconds;
  }
  t.transfer_retries = gpu.timeline.retries;
  return t;
}

std::shared_ptr<const DagSchedule> NodeSimulator::overlap_step(
    const ExpansionContext& ctx, const AdaptiveOctree& tree,
    const InteractionLists& lists, const GpuRunResult& gpu, int m2l_passes,
    ObservedStepTimes& times) const {
  CpuModelConfig cpu = cpu_;
  cpu.num_cores = effective_cores();
  const int p = cpu.num_cores;
  const double ov = cpu.task_overhead_us * 1e-6;
  const double passes = static_cast<double>(m2l_passes);

  TaskGraphSim dag;
  struct TaskInfo {
    DagTaskKind kind;
    int node;
  };
  std::vector<TaskInfo> info;
  auto add_cpu = [&](DagTaskKind kind, int node, double seconds) {
    const int id = dag.add_task(seconds);
    info.push_back({kind, node});
    return id;
  };
  auto add_lane = [&](DagTaskKind kind, int node, int lane, double seconds) {
    const int id = dag.add_lane_task(lane, seconds);
    info.push_back({kind, node});
    return id;
  };

  // GPU lanes first, so the host launch holds the smallest task id and
  // dispatches ahead of the far field at t = 0 -- the paper's dedicated
  // launch thread inside the parallel region. Each alive device is one
  // serial lane: upload -> kernel -> download, durations exactly as
  // plan_step charged them (retry-inclusive; lanes stream independently,
  // so each pays its own full transfer).
  int lanes = 0;
  if (!gpu.cpu_fallback) {
    int launch = -1;
    std::size_t alive = 0;
    for (std::size_t dev = 0; dev < gpu.per_gpu.size(); ++dev) {
      const GpuTransferShape shape =
          dev < gpu.transfers.size() ? gpu.transfers[dev] : GpuTransferShape{};
      if (shape.upload_bytes == 0 && shape.download_bytes == 0 &&
          gpu.per_gpu[dev].seconds <= 0.0)
        continue;  // dead or workless device: no lane
      const double up_s = alive < gpu.timeline.upload_each.size()
                              ? gpu.timeline.upload_each[alive]
                              : 0.0;
      const double down_s = alive < gpu.timeline.download_each.size()
                                ? gpu.timeline.download_each[alive]
                                : 0.0;
      ++alive;
      if (launch < 0)
        launch = add_cpu(DagTaskKind::kLaunch, -1, gpu.timeline.launch_seconds);
      const int lane = lanes++;
      const int d = static_cast<int>(dev);
      const int up = add_lane(DagTaskKind::kUpload, d, lane, up_s);
      const int kr = add_lane(DagTaskKind::kKernel, d, lane,
                              gpu.per_gpu[dev].seconds);
      const int down = add_lane(DagTaskKind::kDownload, d, lane, down_s);
      dag.add_dependency(launch, up);
      dag.add_dependency(up, kr);
      dag.add_dependency(kr, down);
    }
  } else if (gpu.total_interactions > 0) {
    // All GPUs lost: the near field is P embarrassingly parallel CPU shares
    // competing with the far-field tasks from t = 0 (no barrier between
    // them -- that is the point of the data-driven executor).
    const double share = cpu_p2p_seconds(gpu.total_interactions);
    for (int i = 0; i < p; ++i) add_cpu(DagTaskKind::kCpuP2p, i, share);
  }

  // Merged far field: same per-node task durations as build_and_schedule,
  // but one graph. Up edges child -> parent, down edges parent -> child,
  // and a cross edge from each M2L source's up task into the consumer's
  // down task (the source multipole must be complete before translation).
  // All up tasks take lower ids than any down task: equal-readiness ties
  // break toward the up sweep, whose results unlock the M2L-gated down
  // tasks (a list-scheduling priority, not a barrier -- a ready down task
  // still runs the moment a worker has no up work to take).
  std::vector<int> up_id(tree.num_nodes(), -1);
  std::vector<int> down_id(tree.num_nodes(), -1);
  auto visit_up = [&](auto&& self, int id) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;
    const NodeSweepFlops f = node_sweep_flops(ctx, tree, lists, id, passes);
    up_id[id] = add_cpu(DagTaskKind::kUp, id, cpu.task_seconds(f.up(), p));
    if (n.parent >= 0 && up_id[n.parent] >= 0)
      dag.add_dependency(up_id[id], up_id[n.parent]);
    if (!tree.is_effective_leaf(id))
      for (int c : n.children) self(self, c);
  };
  auto visit_down = [&](auto&& self, int id) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;
    const NodeSweepFlops f = node_sweep_flops(ctx, tree, lists, id, passes);
    down_id[id] =
        add_cpu(DagTaskKind::kDown, id, cpu.task_seconds(f.down(), p));
    if (n.parent >= 0 && down_id[n.parent] >= 0)
      dag.add_dependency(down_id[n.parent], down_id[id]);
    if (!tree.is_effective_leaf(id))
      for (int c : n.children) self(self, c);
  };
  if (!tree.empty()) {
    visit_up(visit_up, tree.root());
    visit_down(visit_down, tree.root());
  }
  for (int id = 0; id < tree.num_nodes(); ++id) {
    if (down_id[id] < 0) continue;
    for (std::uint32_t e = lists.m2l_offset[id]; e < lists.m2l_offset[id + 1];
         ++e) {
      const int src = lists.m2l_sources[e];
      if (up_id[src] >= 0) dag.add_dependency(up_id[src], down_id[id]);
    }
  }

  auto schedule = std::make_shared<DagSchedule>();
  schedule->cpu_workers = p;
  schedule->gpu_lanes = lanes;
  if (dag.num_tasks() == 0) return schedule;

  std::vector<TaskGraphSim::Scheduled> executed;
  schedule->makespan = dag.makespan(p, ov, &executed);
  times.overlap_seconds = schedule->makespan;
  double cpu_finish = 0.0;
  double lane_finish = 0.0;
  schedule->tasks.reserve(executed.size());
  for (const auto& s : executed) {
    const TaskInfo& ti = info[static_cast<std::size_t>(s.task)];
    if (dag.task_lane(s.task) == TaskGraphSim::kCpuPool)
      cpu_finish = std::max(cpu_finish, s.finish);
    else
      lane_finish = std::max(lane_finish, s.finish);
    schedule->tasks.push_back(
        {ti.kind, ti.node, s.worker, s.start, s.finish - s.start});
  }
  times.overlap_cpu_seconds = cpu_finish;
  times.overlap_near_seconds = lane_finish;
  return schedule;
}

double NodeSimulator::rebuild_seconds(std::size_t bodies, int nodes) const {
  // One radix-partition pass per tree level (~8-12 levels folded into the
  // per-body constant) plus node bookkeeping. The build parallelizes with
  // tasks but is bandwidth-bound, so only half the cores help.
  const double flops =
      250.0 * static_cast<double>(bodies) + 500.0 * static_cast<double>(nodes);
  return cpu_.task_seconds(flops, cpu_.num_cores) /
         std::max(1, cpu_.num_cores / 2);
}

double NodeSimulator::rebin_seconds(std::size_t bodies) const {
  return cpu_.task_seconds(80.0 * static_cast<double>(bodies),
                           cpu_.num_cores) /
         std::max(1, cpu_.num_cores / 2);
}

double NodeSimulator::enforce_seconds(int ops, std::size_t bodies) const {
  return cpu_.task_seconds(
      5000.0 * static_cast<double>(ops) +
          5.0 * static_cast<double>(bodies),
      cpu_.num_cores);
}

}  // namespace afmm
